//! Deterministic fault injection on the delivery path.
//!
//! The default transport is lossless and FIFO — exactly what the paper
//! assumes, and exactly what makes failure paths untestable. This module
//! adds an optional, seeded shim consulted on every [`crate::CommWorld`]
//! delivery that can **drop**, **duplicate**, **delay**, or **reorder**
//! messages per link, with four properties the rest of the runtime
//! relies on:
//!
//! * **Off by default, zero cost when off.** A world without a
//!   [`FaultConfig`] routes through the exact pre-shim code path (one
//!   `Option` check).
//! * **Deterministic per link.** Every `(src, dst)` link owns its own
//!   [`SplitMix64`] decision stream derived from the world seed, so the
//!   n-th message on a link always meets the same fate for a given seed,
//!   regardless of how other links interleave.
//! * **Eventual delivery.** Everything except an explicit drop is
//!   delivered in finite time: duplicated/delayed/reordered copies go
//!   through a background deliverer with a deadline queue and **no
//!   per-link FIFO floor**, so a message held longer than the one behind
//!   it is overtaken. Holding every message on a link for the same time
//!   (`delay_p` 1, `delay_ns` with `lo == hi`) keeps the link FIFO: due
//!   times then rise with send order, and ties go by arrival at the
//!   queue.
//! * **Control-plane exemption.** Tags in `0xFF00..=0xFFFF` are reserved
//!   for runtime control traffic (cluster shutdown barriers); faulting
//!   those wedges teardown rather than exercising user-visible failure
//!   paths, so DATA-kind messages in that range pass through untouched
//!   unless [`FaultConfig::fault_control`] opts in.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use chant_obs::FaultKind;

use crate::header::{Address, Header};
use crate::world::WorldInner;

/// First tag of the reserved control range the shim spares by default.
pub const CONTROL_TAG_BASE: i32 = 0xFF00;

/// Last tag of the reserved control range (inclusive). `chant-core`'s
/// `ranges` module mirrors both bounds so the reservation and the
/// shim's exemption cannot drift apart.
pub const CONTROL_TAG_END: i32 = 0xFFFF;

/// A small, fast, well-distributed PRNG (SplitMix64). Hand-rolled
/// because the dependency set is frozen; statistical quality is more
/// than sufficient for Bernoulli fault decisions.
#[derive(Clone, Debug)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`, with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Configuration of the per-world fault shim. All probabilities are per
/// message, evaluated independently in the order drop → duplicate →
/// delay → reorder (a duplicated message's extra copy always travels the
/// delayed path, which is what makes duplication observable as
/// reordering too).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed for the per-link decision streams.
    pub seed: u64,
    /// Probability a message is silently discarded.
    pub drop_p: f64,
    /// Probability a message is delivered twice (the second copy via the
    /// background deliverer, after `dup_delay`).
    pub dup_p: f64,
    /// Probability a message is held for `delay` before delivery,
    /// letting later traffic on the same link overtake it.
    pub delay_p: f64,
    /// Probability a message is held just long enough (`reorder_delay`)
    /// to swap with the traffic immediately behind it.
    pub reorder_p: f64,
    /// Hold time range for delayed messages (ns, inclusive).
    pub delay_ns: (u64, u64),
    /// Hold time range for duplicate copies (ns, inclusive).
    pub dup_delay_ns: (u64, u64),
    /// Hold time range for reordered messages (ns, inclusive).
    pub reorder_delay_ns: (u64, u64),
    /// Also fault DATA messages with tags in the reserved control range
    /// `0xFF00..=0xFFFF` (default false: faulting the cluster shutdown
    /// barrier wedges teardown instead of testing user-visible paths).
    pub fault_control: bool,
}

impl FaultConfig {
    /// A quiet shim: seeded, but all fault probabilities zero. Useful as
    /// a starting point for builder-style tweaks.
    pub fn new(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            reorder_p: 0.0,
            delay_ns: (200_000, 2_000_000),
            dup_delay_ns: (10_000, 500_000),
            reorder_delay_ns: (10_000, 200_000),
            fault_control: false,
        }
    }

    /// Set the drop probability.
    pub fn drop_p(mut self, p: f64) -> FaultConfig {
        self.drop_p = p;
        self
    }

    /// Set the duplication probability.
    pub fn dup_p(mut self, p: f64) -> FaultConfig {
        self.dup_p = p;
        self
    }

    /// Set the delay probability.
    pub fn delay_p(mut self, p: f64) -> FaultConfig {
        self.delay_p = p;
        self
    }

    /// Set the reorder probability.
    pub fn reorder_p(mut self, p: f64) -> FaultConfig {
        self.reorder_p = p;
        self
    }

    fn validate(&self) {
        for (name, p) in [
            ("drop_p", self.drop_p),
            ("dup_p", self.dup_p),
            ("delay_p", self.delay_p),
            ("reorder_p", self.reorder_p),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} = {p} outside [0, 1]");
        }
    }
}

chant_obs::counters! {
    /// Always-on tallies of what the shim did.
    "fault": pub struct FaultStats => pub struct FaultStatsSnapshot {
        /// Messages discarded.
        dropped,
        /// Messages delivered twice.
        duplicated,
        /// Messages held on the delay path.
        delayed,
        /// Messages held on the (short) reorder path.
        reordered,
        /// Messages that passed through unfaulted.
        passed,
    }
}

/// What the shim decided for one message, returned to the router.
pub(crate) enum FaultAction {
    /// Deliver now, nothing else.
    Deliver,
    /// Discard.
    Drop,
    /// Deliver now *and* deliver the enqueued copy later.
    DeliverAndHoldCopy,
    /// Only the held copy will be delivered (original is the held one).
    HoldOnly,
}

/// The fault shim: per-link PRNGs and the queue of held copies.
pub(crate) struct FaultInjector {
    config: FaultConfig,
    stats: FaultStats,
    /// Per-link decision streams, created lazily and seeded from the
    /// world seed and the link's coordinates (order-independent).
    links: Mutex<HashMap<(Address, Address), SplitMix64>>,
    /// Held copies awaiting their due time, with no per-link FIFO floor:
    /// later messages genuinely overtake held ones, and everything not
    /// dropped is delivered in finite time.
    held: Arc<HoldQueue>,
    /// Trace lane for annotated fault events carrying each victim's
    /// wire-level trace id; `None` when no tracer was installed.
    lane: Option<chant_obs::LaneHandle>,
}

impl FaultInjector {
    /// Create the shim and start its deliverer thread.
    pub fn start(config: FaultConfig, world: Weak<WorldInner>) -> Arc<FaultInjector> {
        config.validate();
        Arc::new(FaultInjector {
            config,
            stats: FaultStats::default(),
            links: Mutex::new(HashMap::new()),
            held: HoldQueue::start(world),
            lane: chant_obs::tracer::register_lane("faults"),
        })
    }

    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    pub fn shutdown(&self) {
        self.held.shutdown();
    }

    fn link_seed(&self, src: Address, dst: Address) -> u64 {
        // Mix the link coordinates into the world seed; SplitMix64's
        // output function decorrelates nearby seeds, so adjacent links
        // get independent-looking streams.
        let mix = (u64::from(src.pe) << 48)
            ^ (u64::from(src.process) << 32)
            ^ (u64::from(dst.pe) << 16)
            ^ u64::from(dst.process);
        SplitMix64::new(self.config.seed ^ mix.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
    }

    /// Decide this message's fate and enqueue any held copy. Called on
    /// the sender's path, before synchronous delivery.
    pub fn apply(&self, header: &Header, body: &Bytes) -> FaultAction {
        if !self.config.fault_control
            && header.kind == crate::header::kind::DATA
            && (CONTROL_TAG_BASE..=CONTROL_TAG_END).contains(&header.tag)
        {
            self.stats.passed.incr();
            return FaultAction::Deliver;
        }
        // Draw all five numbers unconditionally so the stream position
        // does not depend on the config — same seed, same per-message
        // randomness under any probability mix.
        let (r_drop, r_dup, r_delay, r_reorder, hold) = {
            let mut links = self.links.lock();
            let rng = links
                .entry((header.src, header.dst))
                .or_insert_with(|| SplitMix64::new(self.link_seed(header.src, header.dst)));
            (
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
            )
        };

        if r_drop < self.config.drop_p {
            self.stats.dropped.incr();
            self.emit(FaultKind::Drop, header);
            return FaultAction::Drop;
        }
        let (cfg, st) = (&self.config, &self.stats);
        let (counter, kind, (lo, hi), action) = if r_dup < cfg.dup_p {
            let action = FaultAction::DeliverAndHoldCopy;
            (&st.duplicated, FaultKind::Duplicate, cfg.dup_delay_ns, action)
        } else if r_delay < cfg.delay_p {
            (&st.delayed, FaultKind::Delay, cfg.delay_ns, FaultAction::HoldOnly)
        } else if r_reorder < cfg.reorder_p {
            (&st.reordered, FaultKind::Reorder, cfg.reorder_delay_ns, FaultAction::HoldOnly)
        } else {
            st.passed.incr();
            return FaultAction::Deliver;
        };
        counter.incr();
        self.emit(kind, header);
        let ns = lo + ((hi.saturating_sub(lo) + 1) as f64 * hold) as u64;
        self.held
            .hold(Instant::now() + Duration::from_nanos(ns), *header, body.clone());
        action
    }

    /// Annotate the victim's wire-level trace id on the shim's lane.
    fn emit(&self, kind: FaultKind, header: &Header) {
        if let Some(lane) = &self.lane {
            lane.emit(chant_obs::Event::Fault {
                kind,
                id: header.trace,
            });
        }
    }
}

#[derive(Default)]
struct HoldState {
    /// Held messages, earliest due first, FIFO within a tie.
    held: BTreeMap<(Instant, u64), (Header, Bytes)>,
    seq: u64,
    shutdown: bool,
}

/// Messages held until a due time, and the background thread that hands
/// each to the world's last hop when it comes due. The queue imposes no
/// order between messages beyond their due times (ties go by arrival):
/// a message held longer than the one behind it is overtaken, which is
/// what reorders.
#[derive(Default)]
struct HoldQueue {
    state: Mutex<HoldState>,
    cv: Condvar,
}

impl HoldQueue {
    /// Create the queue and start its deliverer thread.
    fn start(world: Weak<WorldInner>) -> Arc<HoldQueue> {
        let queue = Arc::new(HoldQueue::default());
        let q2 = Arc::clone(&queue);
        std::thread::Builder::new()
            .name("chant-comm-faults".into())
            .spawn(move || q2.run(world))
            .expect("spawn hold-queue deliverer");
        queue
    }

    /// Hold a message until `due`.
    fn hold(&self, due: Instant, header: Header, body: Bytes) {
        let mut st = self.state.lock();
        st.seq += 1;
        let seq = st.seq;
        st.held.insert((due, seq), (header, body));
        self.cv.notify_one();
    }

    /// Stop the deliverer (flushes nothing; pending messages are lost —
    /// only used on world teardown).
    fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.cv.notify_one();
    }

    fn run(&self, world: Weak<WorldInner>) {
        loop {
            // Pop the next due entry, or sleep until one is due.
            let (header, body) = {
                let mut st = self.state.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    let now = Instant::now();
                    match st.held.first_key_value() {
                        Some((&(due, _), _)) if due <= now => {
                            break st.held.pop_first().expect("peeked entry").1;
                        }
                        Some((&(due, _), _)) => {
                            self.cv.wait_for(&mut st, due - now);
                        }
                        None => {
                            self.cv.wait(&mut st);
                        }
                    }
                }
            };
            match world.upgrade() {
                // Through the last hop, not straight into the endpoint:
                // on a TCP world a held message to another endpoint must
                // still cross the socket like every other message.
                Some(w) => w.last_hop(header, body),
                None => return, // world is gone; stop delivering
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_distributed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64(), "nearby seeds must diverge");
    }

    #[test]
    fn unit_interval_and_ranges_are_in_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn config_validation_rejects_bad_probabilities() {
        let bad = FaultConfig::new(1).drop_p(1.5);
        let err = std::panic::catch_unwind(|| bad.validate());
        assert!(err.is_err());
    }

    #[test]
    fn queue_orders_by_due_then_seq() {
        let t0 = Instant::now();
        let header = Header {
            src: Address::new(0, 0),
            dst: Address::new(0, 0),
            tag: 0,
            ctx: 0,
            kind: 0,
            len: 0,
            trace: 0,
        };
        let q = HoldQueue::default();
        for (ms, tag) in [(5, 1), (1, 2), (5, 3)] {
            q.hold(t0 + Duration::from_millis(ms), Header { tag, ..header }, Bytes::new());
        }
        let mut st = q.state.lock();
        let order: Vec<i32> = std::iter::from_fn(|| st.held.pop_first())
            .map(|(_, (h, _))| h.tag)
            .collect();
        assert_eq!(order, [2, 1, 3]);
    }
}
