//! Property-based tests of the exploration engine on random catalogs.
//!
//! The central invariants of the paper:
//!
//! - **Lemma 1 / pruning safety+completeness**: goal-driven exploration with
//!   any pruning configuration produces exactly the goal paths of the
//!   unpruned exploration;
//! - **subset relation**: goal paths are a subset of the deadline-driven
//!   paths for the same deadline (§4.2);
//! - **Lemma 2 / top-k optimality**: best-first top-k equals
//!   enumerate-then-sort on costs;
//! - every produced path is a valid chain of transitions.

use std::collections::BTreeSet;
use std::ops::ControlFlow;

use coursenav_catalog::{Catalog, CatalogBuilder, CourseSet, CourseSpec, Semester, Term};
use coursenav_navigator::{
    Explorer, Goal, LeafKind, Path, PruneConfig, TimeHeuristic, TimeRanking, WorkloadHeuristic,
    WorkloadRanking,
};
use coursenav_prereq::Expr;
use proptest::prelude::*;

const MAX_COURSES: usize = 6;
const HORIZON: usize = 5;

#[derive(Debug, Clone)]
struct RandomCatalog {
    catalog: Catalog,
    start: Semester,
}

/// Builds a random but always-valid catalog: course `i` may depend only on
/// earlier courses (via a random AND of up to 2 atoms or an OR pair), and is
/// offered in a random nonempty subset of the horizon.
fn arb_catalog() -> impl Strategy<Value = RandomCatalog> {
    let spec = (
        2usize..=MAX_COURSES,
        prop::collection::vec(any::<u64>(), MAX_COURSES), // offering masks
        prop::collection::vec(any::<u64>(), MAX_COURSES), // prereq choices
    );
    spec.prop_map(|(n, offer_masks, prereq_picks)| {
        let start = Semester::new(2012, Term::Fall);
        let mut b = CatalogBuilder::new();
        for i in 0..n {
            let code = format!("C{i}");
            // Offerings: at least one semester in the horizon.
            let mask = offer_masks[i] % (1 << HORIZON);
            let mask = if mask == 0 { 1 } else { mask };
            let offered: Vec<Semester> = (0..HORIZON)
                .filter(|s| mask & (1 << s) != 0)
                .map(|s| start + s as i32)
                .collect();
            // Prerequisites from strictly earlier courses.
            let prereq = if i == 0 {
                Expr::True
            } else {
                let pick = prereq_picks[i];
                let a = (pick % i as u64) as usize;
                match pick % 4 {
                    0 => Expr::True,
                    1 => Expr::Atom(format!("C{a}").as_str().into()),
                    2 if i >= 2 => {
                        let c = ((pick / 7) % i as u64) as usize;
                        Expr::Atom(format!("C{a}").as_str().into())
                            .or(Expr::Atom(format!("C{c}").as_str().into()))
                    }
                    _ if i >= 2 => {
                        let c = ((pick / 11) % i as u64) as usize;
                        if c == a {
                            Expr::Atom(format!("C{a}").as_str().into())
                        } else {
                            Expr::Atom(format!("C{a}").as_str().into())
                                .and(Expr::Atom(format!("C{c}").as_str().into()))
                        }
                    }
                    _ => Expr::Atom(format!("C{a}").as_str().into()),
                }
            };
            b.add_course(
                CourseSpec::new(code.as_str(), "random")
                    .prereq(prereq)
                    .offered(offered)
                    .workload(4.0 + i as f64),
            );
        }
        RandomCatalog {
            catalog: b.build().expect("layered random catalogs are valid"),
            start,
        }
    })
}

/// Canonical form of a path for set comparison.
fn path_key(p: &Path) -> Vec<Vec<u16>> {
    p.selections()
        .iter()
        .map(|s| s.iter().map(|c| c.as_u16()).collect())
        .collect()
}

fn goal_from_mask(catalog: &Catalog, mask: u64) -> Goal {
    let ids: CourseSet = catalog
        .courses()
        .filter(|c| mask & (1 << c.id().as_u16()) != 0)
        .map(|c| c.id())
        .collect();
    Goal::complete_all(ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pruning (any configuration) preserves the goal-path set exactly.
    #[test]
    fn pruning_is_safe_and_complete(
        rc in arb_catalog(),
        goal_mask in any::<u64>(),
        m in 1usize..=3,
        horizon in 2i32..=4,
    ) {
        let goal = goal_from_mask(&rc.catalog, goal_mask);
        let start = coursenav_navigator::EnrollmentStatus::fresh(&rc.catalog, rc.start);
        let deadline = rc.start + horizon;
        let configs = [
            PruneConfig::none(),
            PruneConfig::all(),
            PruneConfig::time_only(),
            PruneConfig::availability_only(),
            PruneConfig { availability_respects_prereqs: true, ..PruneConfig::all() },
        ];
        let mut reference: Option<BTreeSet<Vec<Vec<u16>>>> = None;
        for config in configs {
            let e = Explorer::goal_driven(&rc.catalog, start, deadline, m, goal.clone())
                .unwrap()
                .with_prune(config);
            let paths: BTreeSet<Vec<Vec<u16>>> =
                e.collect_goal_paths().iter().map(path_key).collect();
            match &reference {
                None => reference = Some(paths),
                Some(r) => prop_assert_eq!(r, &paths, "config {:?} changed goal paths", config),
            }
        }
    }

    /// The strategic-selection optimization preserves the goal-path set.
    #[test]
    fn strategic_selections_preserve_goal_paths(
        rc in arb_catalog(),
        goal_mask in any::<u64>(),
        m in 1usize..=3,
    ) {
        let goal = goal_from_mask(&rc.catalog, goal_mask);
        let start = coursenav_navigator::EnrollmentStatus::fresh(&rc.catalog, rc.start);
        let deadline = rc.start + 3;
        let base = Explorer::goal_driven(&rc.catalog, start, deadline, m, goal).unwrap();
        let strategic = base.clone().with_strategic_selections(true);
        let a: BTreeSet<_> = base.collect_goal_paths().iter().map(path_key).collect();
        let b: BTreeSet<_> = strategic.collect_goal_paths().iter().map(path_key).collect();
        prop_assert_eq!(a, b);
    }

    /// Goal paths are a subset of the deadline-driven paths' prefixes:
    /// every goal path, extended or not, must be *derivable* under the same
    /// transition rules — here we verify every goal path validates and ends
    /// in a goal-satisfying state no later than the deadline.
    #[test]
    fn goal_paths_valid_and_within_deadline(
        rc in arb_catalog(),
        goal_mask in any::<u64>(),
        m in 1usize..=3,
    ) {
        let goal = goal_from_mask(&rc.catalog, goal_mask);
        let start = coursenav_navigator::EnrollmentStatus::fresh(&rc.catalog, rc.start);
        let deadline = rc.start + 3;
        let e = Explorer::goal_driven(&rc.catalog, start, deadline, m, goal.clone()).unwrap();
        for p in e.collect_goal_paths() {
            prop_assert_eq!(p.validate(&rc.catalog, m), Ok(()));
            prop_assert!(goal.satisfied(p.end().completed()));
            prop_assert!(p.end().semester() <= deadline);
            // Minimality: the goal is *not* satisfied before the leaf
            // (goal nodes are terminal, so no proper prefix satisfies it).
            for st in &p.statuses()[..p.statuses().len() - 1] {
                prop_assert!(!goal.satisfied(st.completed()));
            }
        }
    }

    /// Every deadline-driven path is valid and ends at the deadline or a
    /// dead end; counting modes agree with enumeration.
    #[test]
    fn deadline_paths_valid_and_counts_agree(
        rc in arb_catalog(),
        m in 1usize..=3,
        horizon in 1i32..=3,
    ) {
        let start = coursenav_navigator::EnrollmentStatus::fresh(&rc.catalog, rc.start);
        let deadline = rc.start + horizon;
        let e = Explorer::deadline_driven(&rc.catalog, start, deadline, m).unwrap();
        let paths = e.collect_paths();
        for p in &paths {
            prop_assert_eq!(p.validate(&rc.catalog, m), Ok(()));
            prop_assert!(p.end().semester() <= deadline);
        }
        let counts = e.count_paths();
        prop_assert_eq!(counts.total_paths, paths.len() as u128);
        prop_assert_eq!(e.count_paths_dedup().total_paths, counts.total_paths);
        // The materialized graph agrees too.
        let graph = e.build_graph(1_000_000).unwrap();
        prop_assert_eq!(graph.path_count() as u128, counts.total_paths);
    }

    /// Lemma 2: best-first top-k cost sequence equals enumerate-then-sort.
    #[test]
    fn top_k_is_optimal(
        rc in arb_catalog(),
        goal_mask in any::<u64>(),
        k in 1usize..=8,
    ) {
        let goal = goal_from_mask(&rc.catalog, goal_mask);
        let start = coursenav_navigator::EnrollmentStatus::fresh(&rc.catalog, rc.start);
        let e = Explorer::goal_driven(&rc.catalog, start, rc.start + 3, 3, goal).unwrap();
        for ranking in [&TimeRanking as &dyn coursenav_navigator::Ranking, &WorkloadRanking] {
            let fast: Vec<f64> = e.top_k(ranking, k).unwrap().iter().map(|p| p.cost).collect();
            let slow: Vec<f64> = e
                .top_k_by_enumeration(ranking, k)
                .unwrap()
                .iter()
                .map(|p| p.cost)
                .collect();
            prop_assert_eq!(fast, slow, "ranking {}", ranking.name());
        }
    }

    /// The lazy PathStream yields exactly the visitor's sequence, and the
    /// state DAG's root counts equal the streaming counts.
    #[test]
    fn stream_and_dag_agree_with_visitor(
        rc in arb_catalog(),
        goal_mask in any::<u64>(),
        m in 1usize..=3,
    ) {
        let goal = goal_from_mask(&rc.catalog, goal_mask);
        let start = coursenav_navigator::EnrollmentStatus::fresh(&rc.catalog, rc.start);
        let e = Explorer::goal_driven(&rc.catalog, start, rc.start + 3, m, goal).unwrap();
        let mut visited: Vec<(Vec<Vec<u16>>, LeafKind)> = Vec::new();
        e.visit_paths(|v| {
            visited.push((path_key(&v.to_path()), v.kind));
            ControlFlow::Continue(())
        });
        let streamed: Vec<(Vec<Vec<u16>>, LeafKind)> = e
            .paths_iter()
            .map(|(p, k)| (path_key(&p), k))
            .collect();
        prop_assert_eq!(&visited, &streamed);

        let counts = e.count_paths();
        let dag = e.build_state_dag(1_000_000).unwrap();
        prop_assert_eq!(dag.root().paths, counts.total_paths);
        prop_assert_eq!(dag.root().goal_paths, counts.goal_paths);
    }

    /// A* with either heuristic returns the same top-k costs as plain
    /// best-first (and hence as enumerate-then-sort).
    #[test]
    fn astar_heuristics_preserve_top_k(
        rc in arb_catalog(),
        goal_mask in any::<u64>(),
        k in 1usize..=6,
        m in 1usize..=3,
    ) {
        let goal = goal_from_mask(&rc.catalog, goal_mask);
        let start = coursenav_navigator::EnrollmentStatus::fresh(&rc.catalog, rc.start);
        let e = Explorer::goal_driven(&rc.catalog, start, rc.start + 3, m, goal).unwrap();

        let plain_time: Vec<f64> =
            e.top_k(&TimeRanking, k).unwrap().iter().map(|p| p.cost).collect();
        let astar_time: Vec<f64> = e
            .top_k_astar(&TimeRanking, &TimeHeuristic { max_per_semester: m }, k)
            .unwrap()
            .iter()
            .map(|p| p.cost)
            .collect();
        prop_assert_eq!(plain_time, astar_time);

        let plain_work: Vec<f64> =
            e.top_k(&WorkloadRanking, k).unwrap().iter().map(|p| p.cost).collect();
        let astar_work: Vec<f64> = e
            .top_k_astar(&WorkloadRanking, &WorkloadHeuristic, k)
            .unwrap()
            .iter()
            .map(|p| p.cost)
            .collect();
        prop_assert_eq!(plain_work, astar_work);
    }

    /// retain_leaves(Goal) keeps exactly the goal paths of the original graph.
    #[test]
    fn retain_leaves_preserves_goal_paths(
        rc in arb_catalog(),
        goal_mask in any::<u64>(),
        m in 1usize..=3,
    ) {
        let goal = goal_from_mask(&rc.catalog, goal_mask);
        let start = coursenav_navigator::EnrollmentStatus::fresh(&rc.catalog, rc.start);
        let e = Explorer::goal_driven(&rc.catalog, start, rc.start + 3, m, goal).unwrap();
        let graph = e.build_graph(10_000_000).unwrap();
        let goal_only = graph.retain_leaves(|k| k == LeafKind::Goal);
        let mut kept: Vec<Vec<Vec<u16>>> = goal_only.paths().map(|p| path_key(&p)).collect();
        let mut expected: Vec<Vec<Vec<u16>>> =
            e.collect_goal_paths().iter().map(path_key).collect();
        kept.sort();
        expected.sort();
        prop_assert_eq!(kept, expected);
        prop_assert!(goal_only.node_count() <= graph.node_count());
    }

    /// selection_impacts partitions the root's path counts exactly.
    #[test]
    fn impacts_partition_counts(
        rc in arb_catalog(),
        goal_mask in any::<u64>(),
        m in 1usize..=3,
    ) {
        let goal = goal_from_mask(&rc.catalog, goal_mask);
        let start = coursenav_navigator::EnrollmentStatus::fresh(&rc.catalog, rc.start);
        let e = Explorer::goal_driven(&rc.catalog, start, rc.start + 3, m, goal).unwrap();
        let impacts = e.selection_impacts();
        let counts = e.count_paths();
        if impacts.is_empty() {
            // Terminal root: either a single trivial path or fully pruned.
            prop_assert!(counts.total_paths <= 1);
        } else {
            let total: u128 = impacts.iter().map(|i| i.paths).sum();
            let goal_total: u128 = impacts.iter().map(|i| i.goal_paths).sum();
            prop_assert_eq!(total, counts.total_paths);
            prop_assert_eq!(goal_total, counts.goal_paths);
        }
    }

    /// Early termination via the visitor sees a prefix of the full stream.
    #[test]
    fn visitor_prefix_consistency(rc in arb_catalog(), stop_after in 1usize..=5) {
        let start = coursenav_navigator::EnrollmentStatus::fresh(&rc.catalog, rc.start);
        let e = Explorer::deadline_driven(&rc.catalog, start, rc.start + 2, 2).unwrap();
        let mut full: Vec<Vec<Vec<u16>>> = Vec::new();
        e.visit_paths(|v| {
            full.push(path_key(&v.to_path()));
            ControlFlow::Continue(())
        });
        let mut prefix: Vec<Vec<Vec<u16>>> = Vec::new();
        e.visit_paths(|v| {
            prefix.push(path_key(&v.to_path()));
            if prefix.len() >= stop_after {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        let expected: Vec<_> = full.iter().take(stop_after.min(full.len())).cloned().collect();
        prop_assert_eq!(prefix, expected);
    }
}
