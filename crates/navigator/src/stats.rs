//! Exploration statistics and path counts.

use serde::{Deserialize, Serialize};

/// Counters accumulated during one exploration run.
///
/// `pruned_time` / `pruned_availability` drive the paper's §5.2 breakdown
/// ("82% of them are pruned using time-based pruning strategy and 18% …
/// course-availability"); when both strategies would fire on a node, the
/// time-based one is tested first and takes the credit, matching the
/// paper's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreStats {
    /// Nodes whose outgoing selections were enumerated.
    pub nodes_expanded: u64,
    /// Edges (selections) created or visited.
    pub edges_created: u64,
    /// Nodes cut by the time-based strategy (§4.2.1).
    pub pruned_time: u64,
    /// Nodes cut by the course-availability strategy (§4.2.2).
    pub pruned_availability: u64,
    /// Subtrees answered from the transposition table instead of being
    /// re-explored. Always zero in the *logical* (tree-equivalent) stats
    /// attached to responses — a memo hit replays the cached subtree's
    /// counters so warm and cold runs report identical breakdowns — and
    /// non-zero only in the *work* stats returned by the memoized entry
    /// points in [`crate::memo`].
    #[serde(default)]
    pub memo_hits: u64,
    /// Transposition-table lookups that missed (work stats only; see
    /// [`ExploreStats::memo_hits`]).
    #[serde(default)]
    pub memo_misses: u64,
    /// Entries evicted from the transposition table while this run held it
    /// (work stats only; see [`ExploreStats::memo_hits`]).
    #[serde(default)]
    pub memo_evictions: u64,
}

impl ExploreStats {
    /// Total nodes pruned by either strategy.
    pub fn pruned_total(&self) -> u64 {
        self.pruned_time + self.pruned_availability
    }

    /// Adds another subtree's counters to these (memoized and DAG folds
    /// sum their children's statistics this way).
    pub fn merge(&mut self, other: &ExploreStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.edges_created += other.edges_created;
        self.pruned_time += other.pruned_time;
        self.pruned_availability += other.pruned_availability;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.memo_evictions += other.memo_evictions;
    }

    /// The counters accumulated since `base` was captured (used by the
    /// memo-aware path stream to attribute work to a single subtree).
    pub(crate) fn since(&self, base: &ExploreStats) -> ExploreStats {
        ExploreStats {
            nodes_expanded: self.nodes_expanded - base.nodes_expanded,
            edges_created: self.edges_created - base.edges_created,
            pruned_time: self.pruned_time - base.pruned_time,
            pruned_availability: self.pruned_availability - base.pruned_availability,
            memo_hits: self.memo_hits - base.memo_hits,
            memo_misses: self.memo_misses - base.memo_misses,
            memo_evictions: self.memo_evictions - base.memo_evictions,
        }
    }
}

/// Result of a counting exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathCounts {
    /// Maximal paths (root-to-leaf), the paper's "# of paths" for
    /// deadline-driven runs.
    pub total_paths: u128,
    /// Paths ending in a node that satisfies the goal condition — the
    /// paper's "# of paths" for goal-driven runs. Zero when no goal is set.
    pub goal_paths: u128,
    /// Exploration counters.
    pub stats: ExploreStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = ExploreStats {
            nodes_expanded: 1,
            edges_created: 2,
            pruned_time: 3,
            pruned_availability: 4,
            memo_hits: 5,
            memo_misses: 6,
            memo_evictions: 7,
        };
        a.merge(&a.clone());
        assert_eq!(a.nodes_expanded, 2);
        assert_eq!(a.edges_created, 4);
        assert_eq!(a.pruned_time, 6);
        assert_eq!(a.pruned_availability, 8);
        assert_eq!(a.pruned_total(), 14);
        assert_eq!(a.memo_hits, 10);
        assert_eq!(a.memo_misses, 12);
        assert_eq!(a.memo_evictions, 14);
        assert_eq!(a.since(&a.clone()), ExploreStats::default());
    }
}
