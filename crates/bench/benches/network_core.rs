//! Round-engine microbenchmark: the CSR / zero-allocation data plane against
//! the frozen pre-refactor engine, on pure-flood loads, plus GHS as a real
//! protocol load.
//!
//! Flood is the canonical round-engine probe: messages are one bit, so all
//! measured time is simulator overhead (send path, CONGEST enforcement,
//! delivery, arrival-port resolution, buffer management). The acceptance
//! target for the CSR refactor is ≥ 3× flood throughput over `legacy`.
//!
//! Run with `cargo bench --bench network_core`; machine-readable numbers for
//! the same workloads come from `experiments --bench-network`, which writes
//! `BENCH_network.json`.

use bench_harness::network_bench::{flood_legacy, flood_modern, ghs_modern, standard_topologies};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_flood_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("flood_round_engine");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[1024usize, 4096] {
        for (label, graph) in standard_topologies(n) {
            group.bench_with_input(BenchmarkId::new("csr", &label), &graph, |b, g| {
                b.iter(|| flood_modern(g));
            });
            group.bench_with_input(BenchmarkId::new("legacy", &label), &graph, |b, g| {
                b.iter(|| flood_legacy(g));
            });
        }
    }
    group.finish();
}

fn bench_ghs(c: &mut Criterion) {
    let mut group = c.benchmark_group("ghs_round_engine");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[256usize, 1024] {
        for (label, graph) in standard_topologies(n) {
            group.bench_with_input(BenchmarkId::new("csr", &label), &graph, |b, g| {
                b.iter(|| ghs_modern(g, 1));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_flood_engines, bench_ghs);
criterion_main!(benches);
