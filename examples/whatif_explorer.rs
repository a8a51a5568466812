//! What-if explorer: deadline-driven exploration (§4.1) under student
//! constraints — "which options do I even have for the next few semesters
//! if I avoid course X and keep my load under 25 hours?"
//!
//! Also demonstrates the scaling machinery: streaming counts and the
//! memoized-DAG counter for horizons where materializing the graph would
//! exhaust memory (the paper's Table 2 "N/A" regime).
//!
//! ```text
//! cargo run --release --example whatif_explorer
//! ```

use std::sync::Arc;
use std::time::Instant;

use coursenavigator::catalog::CourseSet;
use coursenavigator::navigator::filter::{AvoidCourses, MaxSemesterWorkload};
use coursenavigator::navigator::{EnrollmentStatus, Explorer};
use coursenavigator::registrar::brandeis_cs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = brandeis_cs();
    let start = EnrollmentStatus::fresh(&data.catalog, data.horizon.0);
    let m = 3;

    println!("semesters |   unconstrained paths |   constrained paths");
    println!("----------+-----------------------+--------------------");
    for horizon in 1..=4 {
        let deadline = data.horizon.0 + horizon;
        let free = Explorer::deadline_driven(&data.catalog, start, deadline, m)?;
        // Constraints: avoid COSI 2A (non-major course), cap semester load.
        let avoid = CourseSet::from_iter([data.catalog.id_of_str("COSI 2A").unwrap()]);
        let constrained = Explorer::deadline_driven(&data.catalog, start, deadline, m)?
            .with_filter(Arc::new(AvoidCourses(avoid)))
            .with_filter(Arc::new(MaxSemesterWorkload(25.0)));
        println!(
            "{:>9} | {:>21} | {:>19}",
            horizon + 1,
            free.count_paths().total_paths,
            constrained.count_paths().total_paths
        );
    }

    // --- The Table 2 wall: materializing long horizons fails fast instead
    // of OOMing; the dedup counter still answers the counting question.
    let deadline = data.horizon.0 + 5;
    let explorer = Explorer::deadline_driven(&data.catalog, start, deadline, m)?;
    println!("\n6-semester horizon:");
    match explorer.build_graph(2_000_000) {
        Ok(g) => println!("  graph materialized with {} nodes", g.node_count()),
        Err(e) => println!("  materialization: {e} (the paper's 'N/A')"),
    }
    let t0 = Instant::now();
    let dedup = explorer.count_paths_dedup();
    println!(
        "  memoized-DAG count: {} paths across {} distinct states in {:?}",
        dedup.total_paths,
        explorer.distinct_states(),
        t0.elapsed()
    );
    Ok(())
}
