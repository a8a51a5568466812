//! Ablation benchmarks (DESIGN.md §4, Ablations A–C):
//!
//! - **A.** strategic-selection floor on vs off (goal-driven);
//! - **B.** memoized-DAG counting vs streaming (deadline-driven);
//! - **C.** best-first top-k vs enumerate-then-sort (ranked);
//! - **D.** A* (admissible heuristic) vs plain best-first for the
//!   workload ranking, where accumulated-cost ordering floods the frontier.

use coursenav_bench::{
    paper_deadline_explorer, paper_goal_explorer, paper_instance, sparse_instance,
    synthetic_goal_explorer,
};
use coursenav_navigator::{PruneConfig, TimeRanking, WorkloadHeuristic, WorkloadRanking};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn bench_strategic_selections(c: &mut Criterion) {
    let data = paper_instance();
    let mut group = c.benchmark_group("ablation_a_strategic");
    group.sample_size(10);
    group.bench_function("floor_off_4sem", |b| {
        b.iter_batched(
            || paper_goal_explorer(&data, 4, PruneConfig::all()),
            |e| e.count_paths(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("floor_on_4sem", |b| {
        b.iter_batched(
            || paper_goal_explorer(&data, 4, PruneConfig::all()).with_strategic_selections(true),
            |e| e.count_paths(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_counting_modes(c: &mut Criterion) {
    let data = paper_instance();
    let mut group = c.benchmark_group("ablation_b_counting");
    group.sample_size(10);
    for semesters in [3i32, 4] {
        group.bench_function(format!("streaming_{semesters}sem"), |b| {
            b.iter_batched(
                || paper_deadline_explorer(&data, semesters),
                |e| e.count_paths(),
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("dedup_{semesters}sem"), |b| {
            b.iter_batched(
                || paper_deadline_explorer(&data, semesters),
                |e| e.count_paths_dedup(),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_topk_strategy(c: &mut Criterion) {
    let synth = sparse_instance(8);
    let mut group = c.benchmark_group("ablation_c_topk_strategy");
    group.sample_size(10);
    // Small horizon so enumerate-then-sort terminates quickly.
    group.bench_function("best_first_top10_5sem", |b| {
        b.iter_batched(
            || synthetic_goal_explorer(&synth, 5),
            |e| e.top_k(&TimeRanking, 10).expect("goal set"),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("enumerate_sort_top10_5sem", |b| {
        b.iter_batched(
            || synthetic_goal_explorer(&synth, 5),
            |e| e.top_k_by_enumeration(&TimeRanking, 10).expect("goal set"),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_astar(c: &mut Criterion) {
    let data = paper_instance();
    let mut group = c.benchmark_group("ablation_d_astar");
    group.sample_size(10);
    // 4-transition horizon: plain best-first is still tractable here, so
    // both variants can be sampled (at 6 transitions plain runs minutes).
    group.bench_function("workload_plain_top5_4sem", |b| {
        b.iter_batched(
            || paper_goal_explorer(&data, 4, PruneConfig::all()),
            |e| e.top_k(&WorkloadRanking, 5).expect("goal set"),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("workload_astar_top5_4sem", |b| {
        b.iter_batched(
            || paper_goal_explorer(&data, 4, PruneConfig::all()),
            |e| {
                e.top_k_astar(&WorkloadRanking, &WorkloadHeuristic, 5)
                    .expect("goal set")
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_strategic_selections,
    bench_counting_modes,
    bench_topk_strategy,
    bench_astar
);
criterion_main!(benches);
