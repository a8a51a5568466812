//! The workload plans are pure functions of the seed: the same seed must
//! render byte-identical request streams, and another seed another one.

use coursenav_perfbench::plan::{http_request, Plan, WORKLOADS};

/// The rendered request bytes of a plan's first `n` interactions, plus
/// the tenants it registers.
fn stream(plan: &Plan, n: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for t in &plan.tenants {
        bytes.extend_from_slice(t.name.as_bytes());
        bytes.extend_from_slice(t.text.as_bytes());
    }
    for i in 0..n.min(plan.order.len()) {
        bytes.extend_from_slice(&http_request(plan.item(i), None));
    }
    bytes
}

#[test]
fn the_same_seed_renders_byte_identical_request_streams() {
    for workload in WORKLOADS {
        let a = Plan::generate(workload, 42).expect("known workload");
        let b = Plan::generate(workload, 42).expect("known workload");
        assert_eq!(a.order.len(), b.order.len(), "{workload}");
        assert!(
            stream(&a, usize::MAX) == stream(&b, usize::MAX),
            "{workload}: same seed, different bytes"
        );
        let c = Plan::generate(workload, 43).expect("known workload");
        assert!(
            stream(&a, 2000) != stream(&c, 2000),
            "{workload}: the seed does not reach the request stream"
        );
    }
}

#[test]
fn plans_outlast_the_longest_run_at_twice_todays_rate() {
    // Interactions a plan holds, against what the longest run (the
    // plan's warm-up, then 10 s stretched to 18 s while it waits for
    // quiet windows) would consume at twice the best rates measured on a
    // 2-core host (browse ~18k, explore-engine ~4.1k, advise-whatif ~1.9k
    // requests per second).
    for (workload, rate) in [
        ("browse", 18_000.0),
        ("explore-engine", 4_100.0),
        ("advise-whatif", 1_900.0),
    ] {
        let plan = Plan::generate(workload, 1).expect("known workload");
        let needed = plan.warmup + (rate * 18.0 * 2.0) as usize;
        assert!(
            plan.order.len() >= needed,
            "{workload}: {} interactions, want {needed}",
            plan.order.len()
        );
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(Plan::generate("no-such-workload", 1).is_err());
}
