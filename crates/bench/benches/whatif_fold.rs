//! Criterion benchmark for the what-if counting fold on its own: the
//! walk of `UniqueTable::whatif_counts` over a warm hash-consed path DAG,
//! with the whole-fold cache bypassed so every delta really walks.
//!
//! Bases are the sparse paper-shaped synthetic catalog's six- and
//! seven-semester degree plans starting from one or two intro courses
//! (m = 2, count output), built once before timing. Each sample folds one
//! whole sweep over a base:
//!
//! - `avoid-single`: drop each course in turn;
//! - `avoid-pair`: drop each pair of adjacent courses (catalog order);
//! - `cap`: cap the semester workload at every integer from 20 to 59.
//!
//! Run: `cargo bench -p coursenav-bench --bench whatif_fold`

use coursenav_catalog::{CourseId, CourseSet, SyntheticCatalog, SyntheticConfig};
use coursenav_navigator::{
    DagNodeId, ExplorationRequest, GoalSpec, NavigatorService, Restriction, UniqueTable,
    WhatIfRequest, WhatIfServed,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_whatif_fold(c: &mut Criterion) {
    let synth = SyntheticCatalog::generate(&SyntheticConfig::sparse());
    let service = NavigatorService::new(&synth.catalog)
        .with_degree(&synth.degree)
        .with_offering_model(&synth.offering);
    let courses: Vec<CourseId> = synth.catalog.courses().map(|c| c.id()).collect();
    let intro: Vec<CourseId> = synth
        .catalog
        .courses()
        .filter(|c| c.prereq_satisfied(&CourseSet::new()))
        .map(|c| c.id())
        .collect();
    let avoid = |ids: &[CourseId]| Restriction {
        avoid: ids.iter().copied().collect(),
        max_workload: None,
    };
    let sweeps: Vec<(&str, Vec<Restriction>)> = vec![
        (
            "avoid-single",
            courses.iter().map(|&id| avoid(&[id])).collect(),
        ),
        ("avoid-pair", courses.windows(2).map(avoid).collect()),
        (
            "cap",
            (20..60)
                .map(|cap| Restriction {
                    avoid: CourseSet::EMPTY,
                    max_workload: Some(f64::from(cap)),
                })
                .collect(),
        ),
    ];

    let mut group = c.benchmark_group("whatif_fold");
    group.sample_size(30);
    for done in 1..=intro.len().min(2) {
        let completed: CourseSet = intro[..done].iter().copied().collect();
        for semesters in [6, 7] {
            let mut base =
                ExplorationRequest::deadline_count(synth.start, synth.start + semesters, 2);
            base.goal = Some(GoalSpec::Degree);
            base.completed = completed
                .iter()
                .map(|id| synth.catalog.course(id).code().to_string())
                .collect();
            // The warm build: intern the base DAG, then find its root.
            let table = UniqueTable::new(0);
            let whatif = WhatIfRequest::new(base);
            let built = service
                .whatif_until(&whatif, None, 1, None, Some(&table))
                .expect("base DAG builds");
            assert_eq!(built.served, WhatIfServed::Applied);
            let root: DagNodeId = table
                .root_for(&whatif.base_exploration().dag_key())
                .expect("the build cached its root");
            for (name, sweep) in &sweeps {
                let id = format!("{semesters}sem-{done}intro/{name} ({} folds)", sweep.len());
                group.bench_function(id, |b| {
                    b.iter(|| {
                        for restriction in sweep {
                            black_box(table.whatif_counts_uncached(
                                root,
                                &synth.catalog,
                                restriction,
                                &CourseSet::EMPTY,
                                &completed,
                            ));
                        }
                    })
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_whatif_fold);
criterion_main!(benches);
