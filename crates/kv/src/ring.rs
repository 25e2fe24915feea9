//! Consistent-hash placement: keys → shards → (primary, backup)
//! members.
//!
//! Two-level, the way production stores do it: a key hashes (FNV-1a) to
//! one of a fixed number of *shards* — the unit of versioning,
//! replication, and recovery — and shards are placed on members through
//! a ring of virtual nodes. The ring is deterministic from `(members,
//! vnodes)` alone: every process of a cluster, and every client inside
//! it, computes identical placement with no lookup traffic or
//! agreement protocol. Virtual nodes smooth the load: each member owns
//! `vnodes` pseudo-random arcs of the `u64` ring instead of one big
//! one.
//!
//! Members are dense indices (`0..members`), not addresses: the caller
//! maps an index to its `(pe, process)` by the cluster's fixed
//! enumeration order. A shard's *primary* is the first member clockwise
//! of the shard's hash; its *backup* is the next **distinct** member —
//! present whenever the cluster has at least two members.

/// splitmix64: the repo's standard cheap deterministic mixer.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over arbitrary bytes: the key hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The shard a key belongs to, out of `shards`.
pub fn shard_of(key: &[u8], shards: u32) -> u32 {
    (fnv1a64(key) % u64::from(shards.max(1))) as u32
}

/// A consistent-hash ring of virtual nodes over `members` dense member
/// indices.
#[derive(Debug)]
pub struct Ring {
    /// `(position, member)` sorted by position (ties broken by member,
    /// so the ring is a pure function of its inputs).
    points: Vec<(u64, u32)>,
    members: u32,
}

impl Ring {
    /// Build the ring for `members` members with `vnodes` virtual nodes
    /// each.
    ///
    /// # Panics
    /// Panics on zero members.
    pub fn new(members: u32, vnodes: u32) -> Ring {
        assert!(members > 0, "a ring needs at least one member");
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity((members as usize) * (vnodes as usize));
        for m in 0..members {
            for v in 0..vnodes {
                // Double-mix so member and vnode ids (both small dense
                // integers) land far apart on the ring.
                let h = splitmix64(splitmix64(u64::from(m) << 32) ^ u64::from(v));
                points.push((h, m));
            }
        }
        points.sort_unstable();
        Ring { members, points }
    }

    /// Number of members this ring places over.
    pub fn members(&self) -> u32 {
        self.members
    }

    /// The member owning ring position `h`: the first point clockwise.
    fn successor(&self, h: u64) -> usize {
        match self.points.binary_search(&(h, 0)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0,
            Err(i) => i,
        }
    }

    /// The shard's primary member.
    pub fn primary(&self, shard: u32) -> u32 {
        self.owners(shard).0
    }

    /// The shard's `(primary, backup)` members. The backup is the next
    /// distinct member clockwise of the primary — `None` only in a
    /// single-member world, where replication is structurally
    /// impossible.
    pub fn owners(&self, shard: u32) -> (u32, Option<u32>) {
        let start = self.successor(splitmix64(0x4B56_0000_0000_0000 ^ u64::from(shard)));
        let primary = self.points[start].1;
        if self.members == 1 {
            return (primary, None);
        }
        let n = self.points.len();
        for step in 1..n {
            let m = self.points[(start + step) % n].1;
            if m != primary {
                return (primary, Some(m));
            }
        }
        // Unreachable with members > 1 (every member has points), but
        // degrade gracefully rather than panic.
        (primary, None)
    }
}

/// Every shard's `(primary, backup)`, computed once from a [`Ring`]:
/// an op's placement is an index into this table, not a binary search
/// of the ring. A shard id past the table (a malformed request's) still
/// answers, from the ring.
#[derive(Debug)]
pub struct OwnerTable {
    ring: Ring,
    owners: Vec<(u32, Option<u32>)>,
}

impl OwnerTable {
    /// Tabulate `ring`'s owners of shards `0..shards`.
    pub fn new(ring: Ring, shards: u32) -> OwnerTable {
        let owners = (0..shards).map(|s| ring.owners(s)).collect();
        OwnerTable { ring, owners }
    }

    /// The shard's `(primary, backup)` members (see [`Ring::owners`]).
    #[inline]
    pub fn owners(&self, shard: u32) -> (u32, Option<u32>) {
        match self.owners.get(shard as usize) {
            Some(&o) => o,
            None => self.ring.owners(shard),
        }
    }

    /// The shard's primary member.
    #[inline]
    pub fn primary(&self, shard: u32) -> u32 {
        self.owners(shard).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinct_owners() {
        let a = Ring::new(4, 64);
        let b = Ring::new(4, 64);
        for shard in 0..256 {
            assert_eq!(a.owners(shard), b.owners(shard), "shard {shard}");
            let (p, bk) = a.owners(shard);
            assert!(p < 4);
            let bk = bk.expect("4-member ring must yield a backup");
            assert!(bk < 4);
            assert_ne!(p, bk, "shard {shard}: primary must differ from backup");
        }
    }

    #[test]
    fn the_owner_table_is_the_ring() {
        for members in 1..=5 {
            let shards = 64;
            let table = OwnerTable::new(Ring::new(members, 64), shards);
            let ring = Ring::new(members, 64);
            // Past the table too: an out-of-range shard asks the ring.
            for shard in 0..shards + 8 {
                let at = format!("{members} members, shard {shard}");
                assert_eq!(table.owners(shard), ring.owners(shard), "{at}");
                assert_eq!(table.primary(shard), ring.primary(shard));
            }
        }
    }

    #[test]
    fn single_member_has_no_backup() {
        let r = Ring::new(1, 64);
        for shard in 0..32 {
            assert_eq!(r.owners(shard), (0, None));
        }
    }

    #[test]
    fn virtual_nodes_balance_primaries() {
        let r = Ring::new(4, 64);
        let shards = 1024u32;
        let mut counts = [0u32; 4];
        for s in 0..shards {
            counts[r.primary(s) as usize] += 1;
        }
        // Perfect balance is 256 each; vnode smoothing should keep every
        // member within a factor of two of fair share.
        for (m, &c) in counts.iter().enumerate() {
            assert!(
                c >= shards / 8 && c <= shards / 2,
                "member {m} owns {c} of {shards} shards: {counts:?}"
            );
        }
    }

    #[test]
    fn shard_of_covers_range_and_is_stable() {
        assert_eq!(shard_of(b"alpha", 32), shard_of(b"alpha", 32));
        assert_ne!(fnv1a64(b"alpha"), fnv1a64(b"beta"));
        for k in 0u32..512 {
            assert!(shard_of(&k.to_le_bytes(), 32) < 32);
        }
        // Degenerate shard count is clamped, not a division by zero.
        assert_eq!(shard_of(b"x", 0), 0);
    }

    #[test]
    fn ring_growth_moves_few_shards() {
        // The property that makes the ring worth its salt: adding a
        // member remaps roughly 1/n of the shards, not all of them.
        let before = Ring::new(4, 64);
        let after = Ring::new(5, 64);
        let shards = 1024u32;
        let moved = (0..shards)
            .filter(|&s| before.primary(s) != after.primary(s))
            .count();
        assert!(
            moved < (shards as usize) / 2,
            "membership growth remapped {moved}/{shards} shards"
        );
    }
}
