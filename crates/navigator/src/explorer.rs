//! The exploration engine: Algorithms 1 and 2 of the paper in three modes.
//!
//! [`Explorer`] bundles one exploration request — catalog, start status,
//! deadline `d`, per-semester cap `m`, optional goal, pruning and filter
//! configuration — and runs it as:
//!
//! - [`Explorer::build_graph`]: materialize the learning graph under a node
//!   budget (Algorithm 1's literal output; the budget reproduces the
//!   paper's Table 2 "N/A" out-of-memory cells);
//! - [`Explorer::visit_paths`]: stream every learning path through a
//!   visitor without materializing the graph — the mode that scales to the
//!   paper's 10⁵–10⁷-path regimes;
//! - [`Explorer::count_paths`]: count paths and collect statistics only.
//!
//! With no goal configured the engine is exactly **Algorithm 1**
//! (deadline-driven, §4.1). Setting a goal turns it into **Algorithm 2**
//! (goal-driven, §4.2): goal-satisfying nodes become terminal, and the
//! [`PruneConfig`]-selected strategies cut hopeless nodes before expansion.

use std::ops::ControlFlow;
use std::sync::Arc;

use coursenav_catalog::{Catalog, CourseSet, Semester};

use crate::error::ExploreError;
use crate::expand::{SelectionIter, WaitPolicy};
use crate::filter::SelectionFilter;
use crate::goal::Goal;
use crate::graph::{LearningGraph, NodeId, NodeKind};
use crate::path::{LeafKind, Path, PathVisit};
use crate::pruning::{record_prune, PruneConfig, PruneDecision, Pruner};
use crate::stats::{ExploreStats, PathCounts};
use crate::status::EnrollmentStatus;

/// How a node should be handled, decided before expansion.
pub(crate) enum Disposition {
    Leaf(LeafKind),
    Pruned(crate::pruning::PruneReason),
    Expand {
        /// Strategic floor on selection size (§4.2.1's `min_i`); 0 = none.
        min_selection: usize,
        /// Emit the empty "wait" selection.
        include_empty: bool,
    },
}

/// One exploration request over a catalog. See the module docs.
#[derive(Clone)]
pub struct Explorer<'a> {
    catalog: &'a Catalog,
    start: EnrollmentStatus,
    deadline: Semester,
    max_per_semester: usize,
    wait_policy: WaitPolicy,
    goal: Option<Goal>,
    prune: PruneConfig,
    strategic_selections: bool,
    filters: Vec<Arc<dyn SelectionFilter>>,
}

impl<'a> Explorer<'a> {
    /// Algorithm 1: all learning paths from `start` to the `deadline`
    /// semester, taking at most `max_per_semester` courses per semester.
    pub fn deadline_driven(
        catalog: &'a Catalog,
        start: EnrollmentStatus,
        deadline: Semester,
        max_per_semester: usize,
    ) -> Result<Explorer<'a>, ExploreError> {
        if deadline < start.semester() {
            return Err(ExploreError::InvalidRequest(format!(
                "deadline {deadline} precedes start semester {}",
                start.semester()
            )));
        }
        if max_per_semester == 0 {
            return Err(ExploreError::InvalidRequest(
                "max courses per semester must be at least 1".into(),
            ));
        }
        Ok(Explorer {
            catalog,
            start,
            deadline,
            max_per_semester,
            wait_policy: WaitPolicy::default(),
            goal: None,
            prune: PruneConfig::none(),
            strategic_selections: false,
            filters: Vec::new(),
        })
    }

    /// Algorithm 2: learning paths that satisfy `goal` by `deadline`, with
    /// both pruning strategies enabled (§4.2's default configuration).
    pub fn goal_driven(
        catalog: &'a Catalog,
        start: EnrollmentStatus,
        deadline: Semester,
        max_per_semester: usize,
        goal: Goal,
    ) -> Result<Explorer<'a>, ExploreError> {
        let mut e = Explorer::deadline_driven(catalog, start, deadline, max_per_semester)?;
        e.goal = Some(goal);
        e.prune = PruneConfig::all();
        Ok(e)
    }

    /// Overrides the pruning configuration (only meaningful with a goal).
    pub fn with_prune(mut self, prune: PruneConfig) -> Self {
        self.prune = prune;
        self
    }

    /// Overrides the wait policy (default: the paper's
    /// [`WaitPolicy::WhenNoOptions`]).
    pub fn with_wait_policy(mut self, policy: WaitPolicy) -> Self {
        self.wait_policy = policy;
        self
    }

    /// Enables the strategic-selection optimization: skip selections smaller
    /// than the time-based `min_i` floor (§4.2.1, "the student has to take
    /// at least `min_i` courses in semester `s_i`"). Requires the time-based
    /// strategy; preserves the goal-path set exactly.
    pub fn with_strategic_selections(mut self, enabled: bool) -> Self {
        self.strategic_selections = enabled;
        self
    }

    /// Adds a selection filter (e.g. courses to avoid, workload caps).
    pub fn with_filter(mut self, filter: Arc<dyn SelectionFilter>) -> Self {
        self.filters.push(filter);
        self
    }

    /// The catalog being explored.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// The starting enrollment status.
    pub fn start(&self) -> &EnrollmentStatus {
        &self.start
    }

    /// The end semester `d`.
    pub fn deadline(&self) -> Semester {
        self.deadline
    }

    /// The per-semester course cap `m`.
    pub fn max_per_semester(&self) -> usize {
        self.max_per_semester
    }

    /// A copy of this request rooted at a different status (used by
    /// [`crate::impact`] to count the subtree each first selection opens).
    pub(crate) fn restarted(&self, start: EnrollmentStatus) -> Explorer<'a> {
        let mut e = self.clone();
        e.start = start;
        e
    }

    /// The configured goal, if this is a goal-driven exploration.
    pub fn goal(&self) -> Option<&Goal> {
        self.goal.as_ref()
    }

    /// The pruning configuration.
    pub fn prune_config(&self) -> PruneConfig {
        self.prune
    }

    /// The wait policy.
    pub fn wait_policy(&self) -> WaitPolicy {
        self.wait_policy
    }

    pub(crate) fn pruner(&self) -> Option<Pruner<'_>> {
        self.goal.as_ref().map(|goal| {
            Pruner::new(
                self.catalog,
                goal,
                self.deadline,
                self.max_per_semester,
                self.prune,
                self.start.semester(),
            )
        })
    }

    /// Whether a no-options node may advance with an empty selection under
    /// [`WaitPolicy::WhenNoOptions`]: some untaken course must still be
    /// offered in a semester strictly between `s_i` and `d` (the Fig. 3
    /// `W₄,₇ = {}` rule; node n6 stops because nothing remains).
    fn can_wait(&self, status: &EnrollmentStatus) -> bool {
        let first = status.semester().next();
        let last = self.deadline + (-1);
        if first > last {
            return false;
        }
        let future_pool = self.catalog.offered_between(first, last);
        !future_pool.difference(status.completed()).is_empty()
    }

    pub(crate) fn disposition(
        &self,
        status: &EnrollmentStatus,
        pruner: Option<&Pruner<'_>>,
    ) -> Disposition {
        if let Some(goal) = &self.goal {
            if goal.satisfied(status.completed()) {
                return Disposition::Leaf(LeafKind::Goal);
            }
        }
        if status.semester() >= self.deadline {
            return Disposition::Leaf(LeafKind::Deadline);
        }
        let mut min_selection = 0;
        if let Some(pruner) = pruner {
            match pruner.evaluate(status) {
                PruneDecision::Prune(reason) => return Disposition::Pruned(reason),
                PruneDecision::Explore { min_selection_size } => {
                    if self.strategic_selections {
                        min_selection = min_selection_size;
                    }
                }
            }
        }
        let has_options = !status.options().is_empty();
        let include_empty = match self.wait_policy {
            WaitPolicy::Always => true,
            WaitPolicy::Never => false,
            WaitPolicy::WhenNoOptions => !has_options && self.can_wait(status),
        };
        if !has_options && !include_empty {
            return Disposition::Leaf(LeafKind::DeadEnd);
        }
        // A strategic floor above zero also rules out the empty selection.
        if min_selection > 0 && !has_options {
            return Disposition::Pruned(crate::pruning::PruneReason::Time);
        }
        Disposition::Expand {
            min_selection,
            include_empty: include_empty && min_selection == 0,
        }
    }

    pub(crate) fn selection_allowed(
        &self,
        status: &EnrollmentStatus,
        selection: &CourseSet,
    ) -> bool {
        self.filters
            .iter()
            .all(|f| f.allow(self.catalog, status, selection))
    }

    // ------------------------------------------------------------------
    // Streaming mode
    // ------------------------------------------------------------------

    /// Streams every learning path to `visitor` in depth-first order.
    /// Pruned branches are not visited. The visitor may stop the run early
    /// by returning [`ControlFlow::Break`]. Returns the run's statistics.
    pub fn visit_paths(
        &self,
        mut visitor: impl FnMut(PathVisit<'_>) -> ControlFlow<()>,
    ) -> ExploreStats {
        let mut stats = ExploreStats::default();
        let pruner = self.pruner();
        let mut statuses = vec![self.start];
        let mut selections: Vec<CourseSet> = Vec::new();
        let _ = self.dfs(
            pruner.as_ref(),
            &mut statuses,
            &mut selections,
            &mut stats,
            &mut visitor,
        );
        stats
    }

    fn dfs(
        &self,
        pruner: Option<&Pruner<'_>>,
        statuses: &mut Vec<EnrollmentStatus>,
        selections: &mut Vec<CourseSet>,
        stats: &mut ExploreStats,
        visitor: &mut impl FnMut(PathVisit<'_>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let status = *statuses.last().expect("stack starts with the root");
        match self.disposition(&status, pruner) {
            Disposition::Leaf(kind) => visitor(PathVisit {
                statuses,
                selections,
                kind,
            }),
            Disposition::Pruned(reason) => {
                record_prune(stats, reason);
                ControlFlow::Continue(())
            }
            Disposition::Expand {
                min_selection,
                include_empty,
            } => {
                stats.nodes_expanded += 1;
                let mut emitted = 0usize;
                let mut floor_skipped = 0usize;
                let options = *status.options();
                let iter = if include_empty {
                    SelectionIter::with_empty(&options, self.max_per_semester)
                } else {
                    SelectionIter::new(&options, self.max_per_semester)
                };
                for selection in iter {
                    if selection.len() < min_selection {
                        floor_skipped += 1;
                        stats.pruned_time += 1;
                        continue;
                    }
                    if !self.selection_allowed(&status, &selection) {
                        continue;
                    }
                    emitted += 1;
                    stats.edges_created += 1;
                    statuses.push(status.advance(self.catalog, &selection));
                    selections.push(selection);
                    let flow = self.dfs(pruner, statuses, selections, stats, visitor);
                    statuses.pop();
                    selections.pop();
                    flow?;
                }
                if emitted == 0 && floor_skipped == 0 {
                    // Every selection was vetoed by filters: the node is a
                    // dead end under the active constraints.
                    return visitor(PathVisit {
                        statuses,
                        selections,
                        kind: LeafKind::DeadEnd,
                    });
                }
                ControlFlow::Continue(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Counting mode
    // ------------------------------------------------------------------

    /// Counts learning paths without materializing anything.
    pub fn count_paths(&self) -> PathCounts {
        let mut counts = PathCounts::default();
        let stats = self.visit_paths(|visit| {
            counts.total_paths += 1;
            if visit.kind == LeafKind::Goal {
                counts.goal_paths += 1;
            }
            ControlFlow::Continue(())
        });
        counts.stats = stats;
        counts
    }

    /// Collects every path (materialized). Convenience for small runs,
    /// examples, and tests; prefer [`Explorer::visit_paths`] at scale.
    pub fn collect_paths(&self) -> Vec<Path> {
        let mut out = Vec::new();
        self.visit_paths(|visit| {
            out.push(visit.to_path());
            ControlFlow::Continue(())
        });
        out
    }

    /// Collects only the goal-satisfying paths.
    pub fn collect_goal_paths(&self) -> Vec<Path> {
        let mut out = Vec::new();
        self.visit_paths(|visit| {
            if visit.kind == LeafKind::Goal {
                out.push(visit.to_path());
            }
            ControlFlow::Continue(())
        });
        out
    }

    // ------------------------------------------------------------------
    // Materializing mode
    // ------------------------------------------------------------------

    /// Algorithm 1/2 with a materialized [`LearningGraph`], within a node
    /// budget. Exceeding the budget aborts with
    /// [`ExploreError::BudgetExceeded`] — the paper's Table 2 "N/A".
    pub fn build_graph(&self, node_budget: usize) -> Result<LearningGraph, ExploreError> {
        let mut graph = LearningGraph::with_root(self.start);
        let pruner = self.pruner();
        let mut stats = ExploreStats::default();
        // Work stack of unexpanded nodes ("each node with outdegree = 0").
        let mut stack: Vec<NodeId> = vec![graph.root()];
        while let Some(id) = stack.pop() {
            let status = *graph.status(id);
            match self.disposition(&status, pruner.as_ref()) {
                Disposition::Leaf(kind) => {
                    graph.nodes[id.index()].kind = NodeKind::Leaf(kind);
                }
                Disposition::Pruned(reason) => {
                    record_prune(&mut stats, reason);
                    graph.nodes[id.index()].kind = NodeKind::Pruned(reason);
                }
                Disposition::Expand {
                    min_selection,
                    include_empty,
                } => {
                    stats.nodes_expanded += 1;
                    let options = *status.options();
                    let iter = if include_empty {
                        SelectionIter::with_empty(&options, self.max_per_semester)
                    } else {
                        SelectionIter::new(&options, self.max_per_semester)
                    };
                    let edge_start = graph.edges.len() as u32;
                    let mut emitted = 0usize;
                    let mut floor_skipped = 0usize;
                    for selection in iter {
                        if selection.len() < min_selection {
                            floor_skipped += 1;
                            stats.pruned_time += 1;
                            continue;
                        }
                        if !self.selection_allowed(&status, &selection) {
                            continue;
                        }
                        if graph.nodes.len() >= node_budget {
                            return Err(ExploreError::BudgetExceeded { node_budget });
                        }
                        let edge = graph.push_edge(id, selection);
                        let child = graph.push_node(status.advance(self.catalog, &selection), edge);
                        graph.edges[edge.index()].to = child;
                        stats.edges_created += 1;
                        emitted += 1;
                        stack.push(child);
                    }
                    graph.nodes[id.index()].children = edge_start..graph.edges.len() as u32;
                    graph.nodes[id.index()].kind = if emitted > 0 {
                        NodeKind::Interior
                    } else if floor_skipped > 0 {
                        NodeKind::Pruned(crate::pruning::PruneReason::Time)
                    } else {
                        NodeKind::Leaf(LeafKind::DeadEnd)
                    };
                }
            }
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coursenav_catalog::{CatalogBuilder, CourseSpec, Term};
    use coursenav_prereq::Expr;

    fn fall(y: i32) -> Semester {
        Semester::new(y, Term::Fall)
    }

    fn spring(y: i32) -> Semester {
        Semester::new(y, Term::Spring)
    }

    /// The paper's Figure 3 catalog.
    fn fig3() -> Catalog {
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("11A", "A").offered([fall(2011), fall(2012)]));
        b.add_course(CourseSpec::new("29A", "B").offered([fall(2011), fall(2012)]));
        b.add_course(
            CourseSpec::new("21A", "C")
                .prereq(Expr::Atom("11A".into()))
                .offered([spring(2012)]),
        );
        b.build().unwrap()
    }

    fn fig3_explorer(cat: &Catalog) -> Explorer<'_> {
        let start = EnrollmentStatus::fresh(cat, fall(2011));
        Explorer::deadline_driven(cat, start, spring(2013), 3).unwrap()
    }

    #[test]
    fn figure3_deadline_graph_shape() {
        // The paper's Figure 3: 9 nodes, 3 learning paths
        // (n1-n2-n5-n8, n1-n3-n6, n1-n4-n7-n9).
        let cat = fig3();
        let graph = fig3_explorer(&cat).build_graph(1_000).unwrap();
        assert_eq!(graph.node_count(), 9);
        assert_eq!(graph.edge_count(), 8);
        assert_eq!(graph.path_count(), 3);
    }

    #[test]
    fn figure3_counts_match_graph() {
        let cat = fig3();
        let counts = fig3_explorer(&cat).count_paths();
        assert_eq!(counts.total_paths, 3);
        assert_eq!(counts.goal_paths, 0, "deadline-driven has no goal");
    }

    #[test]
    fn figure3_paths_are_the_papers() {
        let cat = fig3();
        let paths = fig3_explorer(&cat).collect_paths();
        assert_eq!(paths.len(), 3);
        let course_sets: Vec<Vec<String>> = paths
            .iter()
            .map(|p| {
                p.courses_taken()
                    .iter()
                    .map(|id| cat.course(id).code().to_string())
                    .collect()
            })
            .collect();
        // Every path ultimately completes some subset; the three paths of
        // Fig. 3 complete {11A,29A,21A}... wait: n8 completes {11A,21A,29A},
        // n6 completes {11A,29A,21A}, n9 completes {11A,29A}.
        assert!(course_sets.iter().any(|c| c.len() == 2));
        assert!(course_sets.iter().filter(|c| c.len() == 3).count() == 2);
        for p in &paths {
            p.validate(&cat, 3).unwrap();
        }
    }

    #[test]
    fn figure3_leaf_kinds() {
        let cat = fig3();
        let graph = fig3_explorer(&cat).build_graph(1_000).unwrap();
        let kinds: Vec<LeafKind> = graph.path_leaves().map(|(_, k)| k).collect();
        // n8 and n9 end at the deadline; n6 is a dead end (nothing left).
        assert_eq!(
            kinds.iter().filter(|k| **k == LeafKind::Deadline).count(),
            2
        );
        assert_eq!(kinds.iter().filter(|k| **k == LeafKind::DeadEnd).count(), 1);
    }

    #[test]
    fn goal_driven_fig3_finds_single_path() {
        // §4.2.3: goal = all three courses, deadline Fall '12 → exactly the
        // n1→n3→n6 path.
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        let explorer = Explorer::goal_driven(&cat, start, fall(2012), 3, goal).unwrap();
        let paths = explorer.collect_goal_paths();
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.len(), 2);
        assert_eq!(p.courses_taken().len(), 3);
        // First semester: both 11A and 29A; second: 21A.
        assert_eq!(p.selections()[0].len(), 2);
        assert_eq!(p.selections()[1].len(), 1);
    }

    #[test]
    fn goal_driven_records_prunes() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        let explorer = Explorer::goal_driven(&cat, start, fall(2012), 3, goal).unwrap();
        let counts = explorer.count_paths();
        assert_eq!(counts.goal_paths, 1);
        assert!(
            counts.stats.pruned_total() > 0,
            "n4 (and others) must be pruned: {:?}",
            counts.stats
        );
    }

    #[test]
    fn goal_driven_without_pruning_same_goal_paths() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        let pruned = Explorer::goal_driven(&cat, start, fall(2012), 3, goal.clone()).unwrap();
        let unpruned = Explorer::goal_driven(&cat, start, fall(2012), 3, goal)
            .unwrap()
            .with_prune(PruneConfig::none());
        assert_eq!(
            pruned.count_paths().goal_paths,
            unpruned.count_paths().goal_paths
        );
        assert!(unpruned.count_paths().total_paths >= pruned.count_paths().total_paths);
        assert_eq!(unpruned.count_paths().stats.pruned_total(), 0);
    }

    #[test]
    fn budget_exceeded_is_reported() {
        let cat = fig3();
        let err = fig3_explorer(&cat).build_graph(4).unwrap_err();
        assert_eq!(err, ExploreError::BudgetExceeded { node_budget: 4 });
    }

    #[test]
    fn graph_paths_match_streamed_paths() {
        let cat = fig3();
        let explorer = fig3_explorer(&cat);
        let graph = explorer.build_graph(10_000).unwrap();
        let mut from_graph: Vec<Path> = graph.paths().collect();
        let mut from_stream = explorer.collect_paths();
        let key = |p: &Path| format!("{:?}", p.selections());
        from_graph.sort_by_key(key);
        from_stream.sort_by_key(key);
        assert_eq!(from_graph, from_stream);
    }

    #[test]
    fn m_limits_selection_sizes() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let explorer = Explorer::deadline_driven(&cat, start, spring(2013), 1).unwrap();
        for p in explorer.collect_paths() {
            for sel in p.selections() {
                assert!(sel.len() <= 1);
            }
        }
        // With m=1 the "take both 11A and 29A" branch disappears, leaving
        // two paths: 11A→21A→29A and 29A→(wait)→11A.
        assert_eq!(explorer.count_paths().total_paths, 2);
    }

    #[test]
    fn wait_policy_never_turns_waits_into_dead_ends() {
        let cat = fig3();
        let explorer = fig3_explorer(&cat).with_wait_policy(WaitPolicy::Never);
        let graph = explorer.build_graph(1_000).unwrap();
        // Without waiting, the n4→n7 transition is gone: n4 becomes a dead
        // end and n7/n9 disappear (9 − 2 = 7 nodes).
        assert_eq!(graph.node_count(), 7);
        assert_eq!(graph.path_count(), 3);
    }

    #[test]
    fn wait_policy_always_adds_paths() {
        let cat = fig3();
        let base = fig3_explorer(&cat).count_paths().total_paths;
        let always = fig3_explorer(&cat)
            .with_wait_policy(WaitPolicy::Always)
            .count_paths()
            .total_paths;
        assert!(always > base, "Always-wait must add skip branches");
    }

    #[test]
    fn strategic_selections_preserve_goal_paths() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        for m in 1..=3 {
            let base = Explorer::goal_driven(&cat, start, fall(2012), m, goal.clone()).unwrap();
            let strategic = base.clone().with_strategic_selections(true);
            let a: Vec<Path> = base.collect_goal_paths();
            let b: Vec<Path> = strategic.collect_goal_paths();
            assert_eq!(a, b, "m={m}");
        }
    }

    #[test]
    fn filters_shrink_the_space() {
        let cat = fig3();
        let avoid_29a =
            crate::filter::AvoidCourses(CourseSet::from_iter([cat.id_of_str("29A").unwrap()]));
        let explorer = fig3_explorer(&cat).with_filter(Arc::new(avoid_29a));
        for p in explorer.collect_paths() {
            assert!(!p.courses_taken().contains(cat.id_of_str("29A").unwrap()));
        }
        assert!(explorer.count_paths().total_paths < fig3_explorer(&cat).count_paths().total_paths);
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        assert!(matches!(
            Explorer::deadline_driven(&cat, start, fall(2010), 3),
            Err(ExploreError::InvalidRequest(_))
        ));
        assert!(matches!(
            Explorer::deadline_driven(&cat, start, fall(2012), 0),
            Err(ExploreError::InvalidRequest(_))
        ));
    }

    #[test]
    fn start_at_deadline_yields_single_trivial_path() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let explorer = Explorer::deadline_driven(&cat, start, fall(2011), 3).unwrap();
        let paths = explorer.collect_paths();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 0);
    }

    #[test]
    fn visitor_can_stop_early() {
        let cat = fig3();
        let mut seen = 0;
        fig3_explorer(&cat).visit_paths(|_| {
            seen += 1;
            ControlFlow::Break(())
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn retain_leaves_keeps_only_goal_branches() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let goal = Goal::complete_all(cat.all_courses());
        let explorer = Explorer::goal_driven(&cat, start, fall(2012), 3, goal).unwrap();
        let graph = explorer.build_graph(10_000).unwrap();
        let goal_only = graph.retain_leaves(|k| k == LeafKind::Goal);
        assert_eq!(goal_only.path_count(), 1);
        assert!(goal_only.node_count() <= graph.node_count());
        // The retained path is the paper's n1→n3→n6.
        let path = goal_only.paths().next().unwrap();
        assert_eq!(path.courses_taken().len(), 3);
    }
}
