//! Property-based tests for the request/service front-end boundary.

use coursenav_catalog::{Semester, SyntheticCatalog, SyntheticConfig, Term};
use coursenav_navigator::{
    ExplorationRequest, ExplorationResponse, GoalSpec, NavigatorService, OutputMode, PruneConfig,
    RankingSpec, WaitPolicy,
};
use proptest::prelude::*;

fn arb_goal() -> impl Strategy<Value = Option<GoalSpec>> {
    prop_oneof![
        Just(None),
        Just(Some(GoalSpec::Degree)),
        prop::collection::vec(0usize..12, 1..4).prop_map(|ids| {
            Some(GoalSpec::CompleteAll(
                ids.into_iter().map(|i| format!("CS {}", 10 + i)).collect(),
            ))
        }),
    ]
}

fn arb_ranking() -> impl Strategy<Value = RankingSpec> {
    let leaf = prop_oneof![
        Just(RankingSpec::Time),
        Just(RankingSpec::Workload),
        Just(RankingSpec::Reliability),
    ];
    leaf.prop_recursive(2, 6, 3, |inner| {
        prop::collection::vec((0.0f64..10.0, inner), 1..3).prop_map(RankingSpec::Weighted)
    })
}

fn arb_request() -> impl Strategy<Value = ExplorationRequest> {
    (
        0i32..3,   // start offset
        1i32..4,   // deadline offset beyond start
        1usize..4, // m
        arb_goal(),
        prop::option::of(arb_ranking()),
        prop_oneof![
            Just(OutputMode::Count),
            (1usize..30).prop_map(|limit| OutputMode::Collect { limit }),
            (1usize..10).prop_map(|k| OutputMode::TopK { k }),
        ],
        any::<bool>(), // no_prune
        any::<u8>(),   // wait policy selector
    )
        .prop_map(
            |(start_off, deadline_off, m, goal, ranking, output, no_prune, wait)| {
                let start = Semester::new(2012, Term::Fall) + start_off;
                ExplorationRequest {
                    start_semester: start,
                    completed: Vec::new(),
                    deadline: start + deadline_off,
                    max_per_semester: m,
                    goal,
                    avoid: Vec::new(),
                    max_semester_workload: None,
                    wait_policy: match wait % 3 {
                        0 => WaitPolicy::WhenNoOptions,
                        1 => WaitPolicy::Never,
                        _ => WaitPolicy::Always,
                    },
                    pruning: if no_prune {
                        PruneConfig::none()
                    } else {
                        PruneConfig::all()
                    },
                    ranking,
                    output,
                    budget_ms: None,
                    page_size: None,
                    cursor: None,
                    tenant: None,
                }
            },
        )
}

/// Everything [`arb_request`] generates, plus the fields and variants the
/// service test keeps out of play (expression goals, avoid lists, budgets):
/// the full wire surface, for the serialization round-trip.
fn arb_wire_request() -> impl Strategy<Value = ExplorationRequest> {
    let arb_codes = prop::collection::vec((0usize..20).prop_map(|i| format!("CS {i}")), 0..4);
    (
        arb_request(),
        arb_codes.clone(),
        arb_codes,
        prop::option::of(Just(GoalSpec::Expression("CS 1 and (CS 2 or CS 3)".into()))),
        prop::option::of(1.0f64..60.0),
        prop::option::of(1u64..5_000),
    )
        .prop_map(|(mut req, completed, avoid, expr_goal, workload, budget)| {
            req.completed = completed;
            req.avoid = avoid;
            if expr_goal.is_some() {
                req.goal = expr_goal;
            }
            req.max_semester_workload = workload;
            req.budget_ms = budget;
            req
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every request serializes to JSON and parses back identically — over
    /// the full wire surface: all three goal variants, all four ranking
    /// variants (nested weighted included), all three output modes, avoid
    /// lists, workload caps, and wall-clock budgets.
    #[test]
    fn requests_roundtrip_json(req in arb_wire_request()) {
        let json = req.to_json().unwrap();
        let back = ExplorationRequest::from_json(&json).unwrap();
        prop_assert_eq!(req, back);
    }

    /// Canonicalization is idempotent and cache keys respect equivalence:
    /// a request and its canonical form always share a key.
    #[test]
    fn canonicalization_is_idempotent(req in arb_wire_request()) {
        let canon = req.canonicalize();
        prop_assert_eq!(canon.canonicalize(), canon.clone());
        prop_assert_eq!(req.cache_key(), canon.cache_key());
    }

    /// The service either answers or fails with a *specific* error — never
    /// panics — and its answers are internally consistent with a direct
    /// explorer run.
    #[test]
    fn service_answers_or_errors_cleanly(req in arb_request()) {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let service = NavigatorService::new(&synth.catalog)
            .with_degree(&synth.degree)
            .with_offering_model(&synth.offering);
        match service.run(&req) {
            Ok(ExplorationResponse::Counts { total_paths, goal_paths, .. }) => {
                prop_assert!(goal_paths <= total_paths);
                let direct = service.build_explorer(&req).unwrap().count_paths();
                prop_assert_eq!(total_paths, direct.total_paths);
                prop_assert_eq!(goal_paths, direct.goal_paths);
            }
            Ok(ExplorationResponse::Paths { paths, truncated, .. }) => {
                let OutputMode::Collect { limit } = req.output else {
                    return Err(TestCaseError::fail("paths from non-collect request"));
                };
                prop_assert!(paths.len() <= limit);
                if truncated {
                    prop_assert_eq!(paths.len(), limit);
                }
                for p in &paths {
                    p.validate(&synth.catalog, req.max_per_semester)
                        .map_err(TestCaseError::fail)?;
                }
            }
            Ok(ExplorationResponse::Ranked { paths, .. }) => {
                let OutputMode::TopK { k } = req.output else {
                    return Err(TestCaseError::fail("ranking from non-topk request"));
                };
                prop_assert!(paths.len() <= k);
                for pair in paths.windows(2) {
                    prop_assert!(pair[0].cost <= pair[1].cost);
                }
            }
            Err(err) => {
                // Only the documented failure modes may occur here: top-k
                // without goal/ranking (unknown course names are possible
                // too, since CompleteAll draws from a fixed code pool).
                let msg = err.to_string();
                prop_assert!(
                    msg.contains("ranking") || msg.contains("unknown course"),
                    "unexpected error {}",
                    msg
                );
            }
        }
    }
}
