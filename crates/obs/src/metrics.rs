//! Metrics: monotone counters and log₂-bucketed latency histograms.
//!
//! Every always-on counter of the runtime is a [`Counter`] field of a
//! family declared once with [`counters!`](crate::counters) (`ult`,
//! `comm`, `transport`, `fault`, `rsr`, `kv`, `pubsub`); the macro
//! derives the snapshot struct, `snapshot()`, `delta()`, `+=` and the
//! dotted `("<family>.<field>", value)` names that telemetry, the
//! cluster report and the end-of-run fold into the named [`registry`]
//! all read. Histograms and ad-hoc counters live in the registry
//! directly.
//!
//! All metric updates use `Ordering::Relaxed`. That is sound here
//! because every metric is *monotone* — increment-only counters and
//! histogram cells — and is a statistic, not synchronization. Relaxed
//! still guarantees each cell is torn-free and never loses an increment
//! (its modification order is total), which is all a tally needs.
//! Stronger orderings would only buy happens-before edges *between*
//! cells — "if the snapshot saw the send, it also sees the byte count" —
//! and no reader relies on such edges: totals are consumed after the
//! traffic of interest has quiesced (end of run, end of phase, end of
//! bench iteration), and a live telemetry tick is a rate display, not an
//! invariant check. The stronger orderings would cost real time on
//! weakly-ordered machines for nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A family of counters declared with [`counters!`](crate::counters),
/// readable without naming its type: what a node keeps a list of so
/// telemetry and the cluster report reach families (KV, pub-sub) that
/// live in crates `chant-core` cannot name.
pub trait CounterFamily: Send + Sync {
    /// Every counter's current value as `("<family>.<field>", value)`,
    /// in declaration order.
    fn fields(&self) -> Vec<(&'static str, u64)>;
}

/// Declare a counter family once: from a prefix, two struct names and a
/// list of documented field names, produce the live struct (public
/// [`Counter`] fields; bump with `s.f.incr()` / `s.f.add(n)`), the
/// `Copy` snapshot struct with the same fields as `u64`, and on them
/// `snapshot()`, `delta()`, `+=`, `fields()` and [`CounterFamily`].
///
/// ```
/// chant_obs::counters! {
///     /// What the door did.
///     "door": pub struct DoorStats => pub struct DoorSnapshot {
///         /// Times it opened.
///         opened,
///         /// Times it slammed.
///         slammed,
///     }
/// }
/// let d = DoorStats::default();
/// d.opened.incr();
/// assert_eq!(d.snapshot().fields(), [("door.opened", 1), ("door.slammed", 0)]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $prefix:literal: $lvis:vis struct $Live:ident => $svis:vis struct $Snap:ident {
            $( $(#[$fmeta:meta])* $field:ident ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $lvis struct $Live {
            $( $(#[$fmeta])* pub $field: $crate::Counter, )+
        }

        #[doc = concat!("A point-in-time copy of `", stringify!($Live), "`.")]
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $svis struct $Snap {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $Live {
            /// Copy every counter out.
            pub fn snapshot(&self) -> $Snap {
                $Snap { $( $field: self.$field.get(), )+ }
            }
        }

        impl $crate::CounterFamily for $Live {
            fn fields(&self) -> Vec<(&'static str, u64)> {
                self.snapshot().fields()
            }
        }

        impl $Snap {
            /// Counter-wise `self - earlier`, for measuring one phase of
            /// a run. Saturates at zero, so a stale `earlier` cannot
            /// produce a wrapped count.
            pub fn delta(&self, earlier: &$Snap) -> $Snap {
                $Snap { $( $field: self.$field.saturating_sub(earlier.$field), )+ }
            }

            /// Every counter as `("<family>.<field>", value)`, in
            /// declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![ $( (concat!($prefix, ".", stringify!($field)), self.$field), )+ ]
            }
        }

        impl ::std::ops::AddAssign for $Snap {
            fn add_assign(&mut self, other: $Snap) {
                $( self.$field += other.$field; )+
            }
        }
    };
}

/// Number of log₂ buckets in a [`Histogram`].
pub const HIST_BUCKETS: usize = 64;

/// A lock-free histogram with power-of-two bucket boundaries.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`; the last bucket absorbs everything at or above
/// `2^62`. Recording is one relaxed `fetch_add` per cell — cheap enough
/// for per-event latency attribution on scheduler hot paths.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index `value` falls into.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((u64::BITS - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// The exclusive upper bound of bucket `i` (saturating at `u64::MAX`).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        1
    } else if i >= 63 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A plain-data copy of a [`Histogram`] at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket counts ([`HIST_BUCKETS`] entries; see
    /// [`bucket_index`] for boundaries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`), or 0 with no observations. Log₂ buckets give
    /// this a factor-of-two resolution — adequate for latency
    /// attribution, not for fine statistics.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }

    /// The `q`-quantile with linear interpolation inside the bucket
    /// containing it: where the quantile rank falls k-th of n
    /// observations into bucket `[lo, hi]`, the estimate is
    /// `lo + (hi - lo) · k/n`. Still bounded by the log₂ bucket width,
    /// but unbiased within it — the right call for reporting latency
    /// percentiles rather than attributing them to a power of two.
    pub fn quantile_interpolated(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && seen + c >= rank {
                let hi = bucket_upper_bound(i);
                let lo = if i == 0 { 0 } else { bucket_upper_bound(i - 1) };
                let into = (rank - seen) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * into).round() as u64;
            }
            seen += c;
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }

    /// The standard reporting percentiles in one extraction — the
    /// single source loadgen bins and `chant_top` read instead of each
    /// re-deriving quantiles from raw buckets.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.quantile_interpolated(0.50),
            p90: self.quantile_interpolated(0.90),
            p99: self.quantile_interpolated(0.99),
            p999: self.quantile_interpolated(0.999),
        }
    }

    /// Fold another snapshot into this one bucket-by-bucket: the merge
    /// of two histograms is exact (unlike merging percentiles), so
    /// cross-rank aggregation ships snapshots and extracts
    /// [`HistogramSnapshot::percentiles`] once at the end.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

/// The standard latency percentiles of one histogram (see
/// [`HistogramSnapshot::percentiles`]). Values carry the histogram's
/// unit (the runtime records nanoseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// A named collection of counters and histograms.
///
/// Lookup takes a mutex (call it once, cache the `Arc`); the returned
/// handles update lock-free.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// Create an empty registry (tests; production code uses the global
    /// [`registry`]).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Copy every metric's current value out.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Drop every registered metric. Existing `Arc` handles keep
    /// working but are no longer reachable from the registry — used
    /// between runs in one process (benches, multi-policy examples).
    pub fn clear(&self) {
        self.counters.lock().clear();
        self.histograms.lock().clear();
    }
}

/// Look `name` up, allocating the key only when it has to be inserted.
fn get_or_create<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock();
    if let Some(found) = map.get(name) {
        return Arc::clone(found);
    }
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// A plain-data copy of a [`MetricsRegistry`] at one instant,
/// serializable next to the trace it annotates.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// The process-wide registry all instrumented crates record into.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    crate::counters! {
        /// A family for the property test below.
        "door": struct DoorStats => struct DoorSnapshot {
            /// Times it opened.
            opened,
            /// Times it closed.
            closed,
            /// People through it.
            passed,
        }
    }

    proptest! {
        /// Random bump sequences against a plain-array model, with a
        /// snapshot taken somewhere in the middle.
        #[test]
        fn declared_family_counts_snapshots_and_subtracts(
            bumps in proptest::collection::vec((0usize..3, 1u64..1000), 0..200),
            cut in 0usize..200,
        ) {
            let live = DoorStats::default();
            let cells = [&live.opened, &live.closed, &live.passed];
            let mut model = [0u64; 3];
            let mut earlier = live.snapshot();
            for (i, &(field, n)) in bumps.iter().enumerate() {
                if i == cut {
                    earlier = live.snapshot();
                }
                if n == 1 {
                    cells[field].incr();
                } else {
                    cells[field].add(n);
                }
                model[field] += n;
            }
            let now = live.snapshot();
            prop_assert_eq!([now.opened, now.closed, now.passed], model);

            // delta() undoes +=, and saturates the other way round.
            let mut sum = now.delta(&earlier);
            sum += earlier;
            prop_assert_eq!(sum, now);
            prop_assert_eq!(earlier.delta(&now), DoorSnapshot::default());

            // Names are unique by construction if they are these, in
            // declaration order, with the family prefix.
            let expect = [("door.opened", model[0]), ("door.closed", model[1]), ("door.passed", model[2])];
            prop_assert_eq!(now.fields(), expect);
            prop_assert_eq!(CounterFamily::fields(&live), expect);
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for v in [0u64, 1, 2, 3, 5, 100, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v < bucket_upper_bound(i) || i == HIST_BUCKETS - 1);
            if i > 0 {
                assert!(v >= bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn histogram_totals_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 7, 100, 100, 100, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 5309);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        assert!((s.mean() - 5309.0 / 8.0).abs() < 1e-9);
        // Median falls in the [4,8) bucket holding the value 7.
        assert_eq!(s.quantile(0.5), 8);
        assert_eq!(s.quantile(1.0), 8192);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn interpolated_quantiles_and_percentiles() {
        // 1000 observations spread uniformly over one bucket [1024, 2048):
        // interpolation should land each percentile proportionally into
        // the bucket instead of pinning all of them to 2048.
        let h = Histogram::default();
        for _ in 0..1000 {
            h.record(1500);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 2048, "bucket-bound quantile is coarse");
        let p = s.percentiles();
        assert!(p.p50 > 1024 && p.p50 < p.p90, "{p:?}");
        assert!(p.p90 < p.p99 && p.p99 < p.p999 && p.p999 <= 2048, "{p:?}");
        // A bimodal distribution: 99 fast ops, 1 slow one. p50 stays in
        // the fast bucket, p999 reaches the slow one.
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        let p = s.percentiles();
        assert!(p.p50 <= 16, "{p:?}");
        assert!(p.p999 > 500_000, "{p:?}");
        assert_eq!(HistogramSnapshot::default().percentiles(), Percentiles::default());
    }

    #[test]
    fn snapshot_merge_is_bucketwise_exact() {
        let a = Histogram::default();
        let b = Histogram::default();
        let whole = Histogram::default();
        for v in [3u64, 9, 100, 2000] {
            a.record(v);
            whole.record(v);
        }
        for v in [5u64, 70_000, 1] {
            b.record(v);
            whole.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
        // Merging into an empty default snapshot (zero-length buckets)
        // adopts the other side wholesale.
        let mut empty = HistogramSnapshot::default();
        empty.merge(&whole.snapshot());
        assert_eq!(empty, whole.snapshot());
    }

    #[test]
    fn registry_get_or_create_and_snapshot() {
        let r = MetricsRegistry::new();
        r.counter("a").add(3);
        r.counter("a").incr();
        r.histogram("h").record(9);
        assert!(Arc::ptr_eq(&r.counter("a"), &r.counter("a")));
        assert!(Arc::ptr_eq(&r.histogram("h"), &r.histogram("h")));
        let s = r.snapshot();
        assert_eq!(s.counters["a"], 4);
        assert_eq!(s.histograms["h"].count, 1);
        let json = serde_json::to_string(&s).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.counters["a"], 4);
        r.clear();
        assert_eq!(r.snapshot().counters.len(), 0);
    }
}
