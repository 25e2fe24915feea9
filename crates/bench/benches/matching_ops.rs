//! Criterion benchmarks for the indexed matching table and completion
//! list: posted-receive match, unexpected-queue drain, and `msgtestany`
//! (scanning vs completion-list) as outstanding requests grow 8 → 512.
//!
//! The benchmark bodies live in `chant_bench::matching` so the
//! `obs_overhead` gate can run the identical measurements.

use criterion::{criterion_group, criterion_main};

use chant_bench::matching::{
    bench_posted_match, bench_testany_completion_list, bench_testany_scan,
    bench_unexpected_drain,
};

criterion_group!(
    benches,
    bench_posted_match,
    bench_unexpected_drain,
    bench_testany_scan,
    bench_testany_completion_list
);
criterion_main!(benches);
