//! Cross-crate integration: registrar file → catalog → algorithms →
//! transcripts → visualization, all through the facade crate.

use std::ops::ControlFlow;

use coursenavigator::navigator::{
    EnrollmentStatus, Explorer, Goal, PruneConfig, ReliabilityRanking, TimeRanking,
};
use coursenavigator::registrar::brandeis_cs;
use coursenavigator::transcript::{
    check_containment, GreedyCorePolicy, RandomValidPolicy, SelectionPolicy, TranscriptSimulator,
};
use coursenavigator::viz::{graph_to_dot, graph_to_json, render_path_list, DotOptions};

#[test]
fn registrar_to_goal_paths_pipeline() {
    let data = brandeis_cs();
    let degree = data.degree.clone().unwrap();
    let start = EnrollmentStatus::fresh(&data.catalog, data.horizon.0);
    let deadline = data.horizon.0 + 4;
    let explorer = Explorer::goal_driven(
        &data.catalog,
        start,
        deadline,
        3,
        Goal::degree(degree.clone()),
    )
    .unwrap();
    let counts = explorer.count_paths();
    assert!(
        counts.goal_paths > 0,
        "the CS major is completable in 5 semesters"
    );
    // Every returned path is a valid CS-major completion.
    for p in explorer.collect_goal_paths() {
        p.validate(&data.catalog, 3).unwrap();
        assert!(degree.satisfied(p.end().completed()));
    }
    // Pruning agreement between counting modes.
    assert_eq!(explorer.count_paths_dedup().goal_paths, counts.goal_paths);
}

#[test]
fn pruning_reproduces_table1_shape() {
    // The qualitative claims of Table 1: pruning removes the overwhelming
    // majority of explored paths and finds the same goal paths.
    let data = brandeis_cs();
    let degree = data.degree.clone().unwrap();
    let start = EnrollmentStatus::fresh(&data.catalog, data.horizon.0);
    let deadline = data.horizon.0 + 3;
    let goal = Goal::degree(degree);
    let pruned = Explorer::goal_driven(&data.catalog, start, deadline, 3, goal.clone()).unwrap();
    let unpruned = Explorer::goal_driven(&data.catalog, start, deadline, 3, goal)
        .unwrap()
        .with_prune(PruneConfig::none());
    let a = pruned.count_paths();
    let b = unpruned.count_paths();
    assert_eq!(a.goal_paths, b.goal_paths);
    assert!(
        a.total_paths * 10 < b.total_paths.max(10),
        "pruning must cut the explored path count drastically: {} vs {}",
        a.total_paths,
        b.total_paths
    );
    // The paper's §5.2 split: the time-based strategy dominates.
    assert!(a.stats.pruned_time > a.stats.pruned_availability);
}

#[test]
fn ranked_paths_agree_with_enumeration_on_sample() {
    let data = brandeis_cs();
    let degree = data.degree.clone().unwrap();
    let start = EnrollmentStatus::fresh(&data.catalog, data.horizon.0);
    let deadline = data.horizon.0 + 3;
    let explorer =
        Explorer::goal_driven(&data.catalog, start, deadline, 3, Goal::degree(degree)).unwrap();
    let fast = explorer.top_k(&TimeRanking, 10).unwrap();
    let slow = explorer.top_k_by_enumeration(&TimeRanking, 10).unwrap();
    let fc: Vec<f64> = fast.iter().map(|p| p.cost).collect();
    let sc: Vec<f64> = slow.iter().map(|p| p.cost).collect();
    assert_eq!(fc, sc);
}

#[test]
fn reliability_ranking_prefers_released_schedules() {
    let data = brandeis_cs();
    let degree = data.degree.clone().unwrap();
    let offering = data.offering.clone().unwrap();
    let start = EnrollmentStatus::fresh(&data.catalog, data.horizon.0);
    let explorer = Explorer::goal_driven(
        &data.catalog,
        start,
        data.horizon.0 + 4,
        3,
        Goal::degree(degree),
    )
    .unwrap();
    let ranking = ReliabilityRanking::new(&offering);
    let top = explorer.top_k(&ranking, 3).unwrap();
    assert!(!top.is_empty());
    for rp in &top {
        let p = ReliabilityRanking::cost_to_probability(rp.cost);
        assert!((0.0..=1.0).contains(&p));
    }
    // Best-first order: probabilities non-increasing.
    for pair in top.windows(2) {
        assert!(pair[0].cost <= pair[1].cost);
    }
}

#[test]
fn transcripts_contained_and_visualizable() {
    let data = brandeis_cs();
    let degree = data.degree.clone().unwrap();
    // Selections made in semester t complete at t+1, so students planning to
    // graduate by the period's end make their last selection one semester
    // before it.
    let sim = TranscriptSimulator::new(
        &data.catalog,
        &degree,
        data.horizon.0,
        data.horizon.1 + (-1),
        3,
    );
    let policies: Vec<&dyn SelectionPolicy> = vec![&GreedyCorePolicy, &RandomValidPolicy];
    let cohort = sim.simulate_cohort(&policies, 83, 7); // the paper's 83 students
    let grads = sim.graduating_paths(&cohort);
    assert!(!grads.is_empty());

    let start = EnrollmentStatus::fresh(&data.catalog, data.horizon.0);
    let explorer = Explorer::goal_driven(
        &data.catalog,
        start,
        data.horizon.1,
        3,
        Goal::degree(degree),
    )
    .unwrap();
    let mut paths = Vec::new();
    for t in &grads {
        paths.push(check_containment(&explorer, t).expect("every graduate is contained"));
    }
    // Render the first few for the front end.
    let listing = render_path_list(&paths[..paths.len().min(5)], &data.catalog);
    assert!(listing.lines().count() <= 5);
}

#[test]
fn graph_exports_are_consistent() {
    let data = brandeis_cs();
    let start = EnrollmentStatus::fresh(&data.catalog, data.horizon.0);
    let explorer = Explorer::deadline_driven(&data.catalog, start, data.horizon.0 + 2, 2).unwrap();
    let graph = explorer.build_graph(100_000).unwrap();
    let dot = graph_to_dot(&graph, &data.catalog, &DotOptions::default());
    assert!(dot.contains("digraph"));
    let json = graph_to_json(&graph, &data.catalog).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(
        parsed["nodes"].as_array().unwrap().len(),
        graph.node_count()
    );
}

#[test]
fn streaming_visitor_can_sample_large_runs() {
    let data = brandeis_cs();
    let start = EnrollmentStatus::fresh(&data.catalog, data.horizon.0);
    let explorer = Explorer::deadline_driven(&data.catalog, start, data.horizon.0 + 4, 3).unwrap();
    // Take just the first 100 paths of a ~10^5-path run.
    let mut sampled = 0usize;
    explorer.visit_paths(|v| {
        assert!(v.leaf().semester() <= data.horizon.0 + 4);
        sampled += 1;
        if sampled >= 100 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    assert_eq!(sampled, 100);
}
