//! Input generation: every key, value and op choice of a run is derived
//! from `--seed` here, so the runtime only ever sees generated inputs
//! and the same seed replays the same op streams.

/// Value size of every stored value (YCSB's default field size).
pub const VALUE_LEN: usize = 100;
/// Zipfian skew of the key choice (the YCSB default).
pub const ZIPF_THETA: f64 = 0.99;

/// SplitMix64: one add and three xor-shift-multiplies per draw.
pub struct SplitMix64(u64);

/// The SplitMix64 output function, also used as a stateless hash.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks by Gray et al.'s inverse transform ("Quickly
/// generating billion-record synthetic databases"), as YCSB uses it:
/// rank 0 is the hottest, popularity falls as `1 / rank^theta`.
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(items: u64, theta: f64) -> Zipfian {
        assert!(items >= 2, "zipfian needs at least two items");
        let zeta = |n: u64| (1..=n).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(items);
        Zipfian {
            items,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn next_rank(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }
}

/// One client's key stream: a Zipfian rank scrambled over the key space
/// (so the hot keys land on unrelated shards), from its own RNG.
pub struct KeyStream {
    zipf: Zipfian,
    rng: SplitMix64,
    keys: u64,
}

impl KeyStream {
    pub fn new(keys: u64, seed: u64) -> KeyStream {
        KeyStream {
            zipf: Zipfian::new(keys, ZIPF_THETA),
            rng: SplitMix64::new(seed),
            keys,
        }
    }

    pub fn next_key(&mut self) -> u64 {
        mix64(self.zipf.next_rank(&mut self.rng)) % self.keys
    }
}

/// The stored key for key index `k`.
pub fn key_of(k: u64) -> [u8; 12] {
    let mut key = *b"user00000000";
    let mut k = k;
    for slot in key[4..].iter_mut().rev() {
        *slot = b'0' + (k % 10) as u8;
        k /= 10;
    }
    key
}

/// A value for key index `k`: an 8-byte nonce, then bytes that are a
/// function of `(seed, k, nonce)`. A reader can therefore check any
/// value it gets back against the generator without knowing which
/// writer's update it raced with.
pub fn value_of(seed: u64, k: u64, nonce: u64) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    v[..8].copy_from_slice(&nonce.to_le_bytes());
    let mut rng = SplitMix64::new(seed ^ mix64(k) ^ nonce.rotate_left(32));
    for chunk in v[8..].chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    v
}

/// Does `value` match the generator's pattern for key index `k`?
pub fn value_matches(seed: u64, k: u64, value: &[u8]) -> bool {
    value.len() == VALUE_LEN && {
        let nonce = u64::from_le_bytes(value[..8].try_into().expect("8-byte nonce"));
        value == value_of(seed, k, nonce)
    }
}

/// Fan-out payload size.
pub const PAYLOAD_LEN: usize = 64;

/// The fan-out payload for publish `seq`: the sequence number, a stop
/// flag, then seeded filler.
pub fn payload_of(seed: u64, seq: u64, stop: bool) -> [u8; PAYLOAD_LEN] {
    let mut p = [0u8; PAYLOAD_LEN];
    p[..8].copy_from_slice(&seq.to_le_bytes());
    p[8] = u8::from(stop);
    let mut rng = SplitMix64::new(seed ^ mix64(seq));
    for chunk in p[16..].chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
    p
}

/// `(seq, stop)` if `payload` is the generator's payload for its own
/// sequence number.
pub fn payload_check(seed: u64, payload: &[u8]) -> Option<(u64, bool)> {
    if payload.len() != PAYLOAD_LEN {
        return None;
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("8-byte seq"));
    let stop = payload[8] == 1;
    (payload == payload_of(seed, seq, stop)).then_some((seq, stop))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(1000, ZIPF_THETA);
        let mut rng = SplitMix64::new(1);
        let mut hot = 0;
        for _ in 0..10_000 {
            let r = z.next_rank(&mut rng);
            assert!(r < 1000);
            hot += u32::from(r < 10);
        }
        assert!(
            hot > 2_500,
            "top 1% of ranks should draw >25% of picks, got {hot}"
        );
    }

    #[test]
    fn values_verify_and_corruption_is_caught() {
        let mut v = value_of(42, 7, 99);
        assert!(value_matches(42, 7, &v));
        assert!(!value_matches(42, 8, &v));
        v[50] ^= 1;
        assert!(!value_matches(42, 7, &v));
        assert_eq!(payload_check(3, &payload_of(3, 11, true)), Some((11, true)));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = KeyStream::new(500, 9);
        let mut b = KeyStream::new(500, 9);
        assert!((0..100).all(|_| a.next_key() == b.next_key()));
        assert_eq!(&key_of(1234), b"user00001234");
    }
}
