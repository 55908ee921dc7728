//! Microbenchmarks of the interned fast path: search-space build
//! (retrieval + profile pruning) and pseudo-iso refinement, seed
//! `Value` kernels vs interned bitset kernels, plus the refinement
//! kernel alone at several thread counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gql_bench::workload::Workload;
use gql_match::{
    feasible_mates, feasible_mates_reference, refine_search_space, refine_search_space_reference,
    LocalPruning, Pattern,
};

const PRUNING: LocalPruning = LocalPruning::Profiles { radius: 1 };

fn workload_and_query() -> (Workload, Pattern) {
    let w = Workload::synthetic(5_000, 0x4EF1E);
    let q = w
        .subgraphs(8, 20, 0x4EF)
        .into_iter()
        .next()
        .expect("generator yields at least one query");
    (w, Pattern::structural(q))
}

/// Retrieval + local pruning: per-candidate `Value` profiles vs the
/// signature-first interned id-profiles.
fn bench_search_space_build(c: &mut Criterion) {
    let (w, p) = workload_and_query();
    let mut group = c.benchmark_group("search_space_build");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("reference_value", |b| {
        b.iter(|| feasible_mates_reference(&p, &w.graph, &w.index, PRUNING))
    });
    group.bench_function("interned", |b| {
        b.iter(|| feasible_mates(&p, &w.graph, &w.index, PRUNING, 1, None).0)
    });
    group.finish();
}

/// Refinement alone over the same locally-pruned space: hashtable
/// kernel vs bitset kernel at 1/2/8 workers.
fn bench_refine_kernel(c: &mut Criterion) {
    let (w, p) = workload_and_query();
    let base = feasible_mates(&p, &w.graph, &w.index, PRUNING, 1, None).0;
    let level = p.node_count();
    let mut group = c.benchmark_group("refine_kernel");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("reference_hashtable", |b| {
        b.iter(|| {
            let mut mates = base.clone();
            refine_search_space_reference(&p, &w.graph, &mut mates, level)
        })
    });
    for threads in [1usize, 2, 8] {
        group.bench_with_input(
            BenchmarkId::new("bitset", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut mates = base.clone();
                    refine_search_space(&p, &w.index, &mut mates, level, threads, None)
                })
            },
        );
    }
    group.finish();
}

/// End-to-end build + refine, both paths — the headline number recorded
/// in `BENCH_refine.json`.
fn bench_build_and_refine(c: &mut Criterion) {
    let (w, p) = workload_and_query();
    let level = p.node_count();
    let mut group = c.benchmark_group("build_and_refine");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("reference", |b| {
        b.iter(|| {
            let mut mates = feasible_mates_reference(&p, &w.graph, &w.index, PRUNING);
            refine_search_space_reference(&p, &w.graph, &mut mates, level)
        })
    });
    group.bench_function("interned", |b| {
        b.iter(|| {
            let mut mates = feasible_mates(&p, &w.graph, &w.index, PRUNING, 1, None).0;
            refine_search_space(&p, &w.index, &mut mates, level, 1, None)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_search_space_build,
    bench_refine_kernel,
    bench_build_and_refine
);
criterion_main!(benches);
