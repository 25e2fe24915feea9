//! Matching-table microbenchmarks: the cost of the comm layer's
//! two-sided matching and completion inquiry as the number of
//! *outstanding* requests grows.
//!
//! With the linear-scan queues these costs grew with the outstanding
//! count; the indexed matching table and the completion list make them
//! (amortized) constant. Each benchmark here holds the outstanding
//! population steady at `n` across iterations so the per-operation cost
//! at different `n` is directly comparable — the acceptance criterion is
//! a flat profile from `n = 8` to `n = 512`.
//!
//! The bodies live in the library (rather than the bench target) so the
//! `obs_overhead` gate can run the same measurements in two builds and
//! compare their medians.

use bytes::Bytes;
use criterion::{BenchmarkId, Criterion};

use chant_comm::{kind, testany, Address, CommWorld, CompletionSet, RecvSpec};

/// Outstanding-request populations every benchmark sweeps.
pub const OUTSTANDING: [usize; 4] = [8, 64, 256, 512];

/// Posted-receive match: deliver to one hot receive while `n - 1` cold
/// receives (distinct tags, never completed) stay posted. A linear
/// matcher scans past the cold entries; the indexed table probes at most
/// four buckets.
pub fn bench_posted_match(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching/posted_match");
    for n in OUTSTANDING {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let world = CommWorld::flat(2);
            let src = world.endpoint(Address::new(0, 0));
            let dst = world.endpoint(Address::new(1, 0));
            let _cold: Vec<_> = (1..n).map(|i| dst.irecv(RecvSpec::tag(i as i32))).collect();
            b.iter(|| {
                let h = dst.irecv(RecvSpec::tag(0));
                src.isend(Address::new(1, 0), 0, 0, kind::DATA, Bytes::new());
                h.take().expect("hot receive completes")
            })
        });
    }
    g.finish();
}

/// Unexpected-queue drain: claim one hot parked message while `n` cold
/// messages (distinct tags, never claimed) stay parked. A linear matcher
/// scans the parked backlog; the exact-shape index goes straight to the
/// hot message.
pub fn bench_unexpected_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching/unexpected_drain");
    for n in OUTSTANDING {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let world = CommWorld::flat(2);
            let src = world.endpoint(Address::new(0, 0));
            let dst = world.endpoint(Address::new(1, 0));
            for i in 1..=n {
                src.isend(Address::new(1, 0), i as i32, 0, kind::DATA, Bytes::new());
            }
            b.iter(|| {
                src.isend(Address::new(1, 0), 0, 0, kind::DATA, Bytes::new());
                dst.irecv(RecvSpec::tag(0)).take().expect("hot message claimed")
            })
        });
    }
    g.finish();
}

/// The scanning `msgtestany`: one inquiry probes every pending handle.
/// This is the pre-completion-list cost shape — linear in `n` — kept as
/// the baseline the completion list is measured against.
pub fn bench_testany_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching/testany_scan");
    for n in OUTSTANDING {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let world = CommWorld::flat(2);
            let dst = world.endpoint(Address::new(1, 0));
            let handles: Vec<_> = (0..n).map(|i| dst.irecv(RecvSpec::tag(i as i32))).collect();
            let refs: Vec<_> = handles.iter().collect();
            b.iter(|| testany(&refs))
        });
    }
    g.finish();
}

/// The completion-list `msgtestany`: each iteration inserts a fresh
/// receive into a [`CompletionSet`] holding `n - 1` pending members,
/// completes it, and pops it from the ready list — O(completed), however
/// many members are pending.
pub fn bench_testany_completion_list(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching/testany_completion_list");
    for n in OUTSTANDING {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let world = CommWorld::flat(2);
            let src = world.endpoint(Address::new(0, 0));
            let dst = world.endpoint(Address::new(1, 0));
            let mut set = CompletionSet::new();
            for i in 1..n {
                set.insert(dst.irecv(RecvSpec::tag(i as i32)));
            }
            b.iter(|| {
                set.insert(dst.irecv(RecvSpec::tag(0)));
                src.isend(Address::new(1, 0), 0, 0, kind::DATA, Bytes::new());
                set.testany().expect("the hot member completed")
            })
        });
    }
    g.finish();
}

/// Run every matching benchmark against `c` (the `obs_overhead` entry
/// point; the `matching_ops` bench target registers the same list).
pub fn run_all(c: &mut Criterion) {
    bench_posted_match(c);
    bench_unexpected_drain(c);
    bench_testany_scan(c);
    bench_testany_completion_list(c);
}
