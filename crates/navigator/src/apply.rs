//! BDD-style apply operations over hash-consed path DAGs.
//!
//! Once an exploration is interned in a [`UniqueTable`], its path set can
//! be *rewritten* instead of re-explored. Three operation families:
//!
//! - [`UniqueTable::restrict`] — "add constraint X": filter every edge by a
//!   selection predicate (courses to avoid, a workload cap). This is the
//!   `dag ∩ constraint-DAG` of the BDD literature with the constraint DAG
//!   kept implicit: the constraint is selection-local, so the product
//!   automaton has one state and the coupled DFS degenerates to a unary
//!   walk. The result is *canonical*: it is bit-for-bit the node a fresh
//!   exploration of the constrained request would intern, which is what
//!   makes what-if answers byte-identical to re-exploration.
//! - [`UniqueTable::through`] — "force course Y": keep only paths that
//!   complete every course of a set. The product automaton tracks the
//!   outstanding courses, but that state is a pure function of the node's
//!   completed-set, so the walk is again unary with a per-node cache.
//! - [`UniqueTable::set_apply`] — intersect/union/difference of two DAGs
//!   over the same anchor, the general coupled DFS with a pair-keyed
//!   apply cache (`(op, a, b) → result`), shared across calls.
//!
//! The serving path for counting what-ifs is
//! [`UniqueTable::whatif_counts`]: the restrict∘through composition
//! evaluated in the counting semiring, materializing nothing. Every node
//! carries its subtree's *support set* and heaviest-selection workload
//! (see [`crate::unique::DagNode`]), so any subtree the delta provably
//! cannot touch is answered from its stored counts in O(1) — a what-if
//! walks only the delta-affected frontier of the DAG, which is what makes
//! warm answers orders of magnitude faster than re-exploration.
//!
//! Every operation memoizes through the table's apply cache, so a repeated
//! what-if (or a what-if over a shared suffix) answers in microseconds.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use coursenav_catalog::{Catalog, CourseSet};

use crate::path::LeafKind;
use crate::stats::ExploreStats;
use crate::unique::{
    terminal_id, Counts, DagNodeId, DagNodeKind, FxMap, NodeView, Tag, UniqueTable,
};

/// The selection-local constraint delta of a what-if: courses that may no
/// longer be elected and/or a tightened per-semester workload cap. Applied
/// on top of whatever filters the base DAG was built with.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Restriction {
    /// Courses no selection may contain.
    pub avoid: CourseSet,
    /// Cap on a selection's summed weekly workload.
    pub max_workload: Option<f64>,
}

impl Restriction {
    /// Whether this restriction changes anything at all.
    pub fn is_empty(&self) -> bool {
        self.avoid.is_empty() && self.max_workload.is_none()
    }

    /// A selection's summed weekly workload, accumulated exactly as the
    /// serving filter (`MaxSemesterWorkload`) accumulates it — same
    /// iteration order, same float additions — so restriction decisions
    /// are bit-identical to a build with the filter installed.
    pub(crate) fn load(catalog: &Catalog, selection: &CourseSet) -> f64 {
        selection
            .iter()
            .map(|id| catalog.course(id).workload())
            .sum()
    }

    /// Whether `selection` survives the restriction. Must mirror the
    /// serving filters exactly (`AvoidCourses`, `MaxSemesterWorkload`).
    pub fn allows(&self, catalog: &Catalog, selection: &CourseSet) -> bool {
        if !selection.is_disjoint(&self.avoid) {
            return false;
        }
        match self.max_workload {
            None => true,
            Some(cap) => Self::load(catalog, selection) <= cap,
        }
    }

    /// [`Restriction::allows`] with the selection's workload already
    /// computed (callers that need the load anyway avoid summing twice).
    pub(crate) fn allows_load(&self, selection: &CourseSet, load: f64) -> bool {
        selection.is_disjoint(&self.avoid) && self.max_workload.is_none_or(|cap| load <= cap)
    }

    /// Whether a subtree with this support set and heaviest-selection
    /// workload is provably untouched: no avoided course is electable
    /// below, and the cap (if any) clears the heaviest selection below.
    /// `max_load` of `f64::INFINITY` (unknown) fails any finite cap, which
    /// is the conservative answer.
    fn cannot_touch(&self, support: &CourseSet, max_load: f64) -> bool {
        support.is_disjoint(&self.avoid) && self.max_workload.is_none_or(|cap| cap >= max_load)
    }

    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        0x52u8.hash(&mut h); // 'R'
        self.avoid.hash(&mut h);
        self.max_workload.map(f64::to_bits).hash(&mut h);
        h.finish()
    }
}

/// A set-algebraic operation over two path DAGs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// Paths present in both operands.
    Intersect,
    /// Paths present in either operand.
    Union,
    /// Paths of the first operand absent from the second.
    Diff,
}

/// Error from a binary apply: the operands do not describe path sets that
/// the operation can combine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// The operands are not anchored at the same `(semester, completed)`
    /// state, so their paths share no common frame.
    AnchorMismatch,
    /// The union is not representable: the operands classify the same
    /// state differently (one frame ends where the other continues), and a
    /// node cannot be both a leaf and an interior.
    Incompatible(String),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::AnchorMismatch => {
                write!(f, "apply operands are anchored at different states")
            }
            ApplyError::Incompatible(msg) => write!(f, "apply operands are incompatible: {msg}"),
        }
    }
}

impl std::error::Error for ApplyError {}

fn op_fingerprint(tag: u8, extra: u64) -> u64 {
    let mut h = DefaultHasher::new();
    tag.hash(&mut h);
    extra.hash(&mut h);
    h.finish()
}

const SLOT_WORDS: usize = 8;

/// The largest memo buffer (in words) a thread keeps between folds:
/// 2 MiB, enough for about 32k ids. Every worker thread keeps its own,
/// so the cap bounds what the reuse adds to the server's resident set;
/// a fold over a larger table allocates its own buffer and frees it
/// afterwards.
const RETAINED_WORDS: usize = 1 << 18;

/// Dense id-indexed memo for the restriction fold: one cache line (eight
/// words: the [`Counts`] of a subtree — paths, goal paths, four counters)
/// per visible id, probed with a single random access. The fold touches a
/// large fraction of the table, so a flat probe beats both hashing a key
/// per node and a two-level slot→result indirection. An all-zero line
/// means "unvisited": no fold result is all-zero except the empty path
/// set's, which is trivial to recompute on every probe.
///
/// A zeroed table-sized buffer per fold is not free: zeroing 1.2 MB
/// (about 19k ids) costs tens of microseconds, and once the allocator
/// hands the freed chunk back to the system, the next fold faults it in
/// again. So each thread keeps one buffer between folds
/// ([`FoldMemo::with`]), and a fold re-zeroes only the lines it wrote.
#[derive(Default)]
struct FoldMemo {
    words: Vec<u64>,
    /// Ids whose line was written, re-zeroed when the fold ends.
    touched: Vec<DagNodeId>,
}

impl FoldMemo {
    /// Runs `fold` over this thread's memo, all-zero and sized for ids
    /// below `id_bound`.
    fn with<R>(id_bound: usize, fold: impl FnOnce(&mut FoldMemo) -> R) -> R {
        thread_local! {
            static SPARE: std::cell::RefCell<FoldMemo> = std::cell::RefCell::default();
        }
        // Taken rather than borrowed: a fold that panics drops its dirty
        // buffer instead of leaving it for the next fold.
        let mut memo = SPARE.with(|spare| spare.take());
        let len = id_bound * SLOT_WORDS;
        if memo.words.len() < len {
            memo.words = vec![0; len];
        }
        let out = fold(&mut memo);
        for id in memo.touched.drain(..) {
            let at = id.raw() * SLOT_WORDS;
            memo.words[at..at + SLOT_WORDS].fill(0);
        }
        if memo.words.len() <= RETAINED_WORDS {
            SPARE.with(|spare| spare.replace(memo));
        }
        out
    }

    #[inline]
    fn get(&self, id: DagNodeId) -> Option<Counts> {
        let at = id.raw() * SLOT_WORDS;
        let w: &[u64; SLOT_WORDS] = self.words[at..at + SLOT_WORDS].try_into().unwrap();
        if w.iter().all(|&x| x == 0) {
            return None;
        }
        Some(Counts {
            paths: u128::from(w[0]) | (u128::from(w[1]) << 64),
            goal_paths: u128::from(w[2]) | (u128::from(w[3]) << 64),
            nodes_expanded: w[4],
            edges_created: w[5],
            pruned_time: w[6],
            pruned_availability: w[7],
        })
    }

    #[inline]
    fn put(&mut self, id: DagNodeId, acc: &Counts) {
        let at = id.raw() * SLOT_WORDS;
        let w: &mut [u64; SLOT_WORDS] = (&mut self.words[at..at + SLOT_WORDS]).try_into().unwrap();
        self.touched.push(id);
        w[0] = acc.paths as u64;
        w[1] = (acc.paths >> 64) as u64;
        w[2] = acc.goal_paths as u64;
        w[3] = (acc.goal_paths >> 64) as u64;
        w[4] = acc.nodes_expanded;
        w[5] = acc.edges_created;
        w[6] = acc.pruned_time;
        w[7] = acc.pruned_availability;
    }
}

impl UniqueTable {
    /// Interns the (shared) empty path set.
    fn empty(&self) -> DagNodeId {
        self.intern(0, CourseSet::EMPTY, DagNodeKind::Empty, None)
    }

    /// "Add constraint X" / "drop course Y": the sub-DAG of `root` whose
    /// edges all satisfy `restriction`. Canonical — equals the root a
    /// fresh build of the constrained exploration would intern (dead-end
    /// reclassification included), so counts *and* logical statistics are
    /// byte-identical to re-exploration.
    pub fn restrict(
        &self,
        root: DagNodeId,
        catalog: &Catalog,
        restriction: &Restriction,
    ) -> DagNodeId {
        if restriction.is_empty() {
            return root;
        }
        let op = restriction.fingerprint();
        let mut local = HashMap::new();
        self.restrict_node(root, catalog, restriction, op, &mut local)
    }

    fn restrict_node(
        &self,
        id: DagNodeId,
        catalog: &Catalog,
        restriction: &Restriction,
        op: u64,
        local: &mut HashMap<DagNodeId, DagNodeId>,
    ) -> DagNodeId {
        if let Some(&out) = local.get(&id) {
            return out;
        }
        let rec = self.with_node(id, |node| *node.rec);
        if restriction.cannot_touch(&rec.support, rec.max_load) {
            // The restriction vetoes nothing anywhere below, so a
            // cons-aware rebuild would re-derive this exact node.
            local.insert(id, id);
            return id;
        }
        let key = (op, id, DagNodeId::NONE);
        if let Some(out) = self.apply_get(&key) {
            local.insert(id, out);
            return out;
        }
        let out = match rec.tag {
            Tag::Leaf(_) | Tag::Pruned(_) | Tag::Empty => id,
            Tag::Interior => {
                // The surviving edges are copied out of the arena: the walk
                // interns below, so it must not hold the shard lock.
                let (kept, all) = self.with_node(id, |node| {
                    let kept: Vec<(CourseSet, DagNodeId)> = node
                        .edges()
                        .iter()
                        .map(|&(sel, child)| (node.selection(sel), child))
                        .filter(|(selection, _)| {
                            restriction.allows_load(&selection.set, selection.load(catalog))
                        })
                        .map(|(selection, child)| (selection.set, child))
                        .collect();
                    (kept, node.edges().len())
                });
                let new_edges: Vec<(CourseSet, DagNodeId)> = kept
                    .iter()
                    .map(|&(selection, child)| {
                        (
                            selection,
                            self.restrict_node(child, catalog, restriction, op, local),
                        )
                    })
                    .collect();
                if new_edges.is_empty() && rec.floor_skipped == 0 {
                    // Exactly the builder's dead-end reclassification: all
                    // selections vetoed, nothing floor-skipped.
                    self.intern(
                        rec.semester,
                        rec.completed,
                        DagNodeKind::Leaf(LeafKind::DeadEnd),
                        None,
                    )
                } else if kept.len() == all && new_edges == kept {
                    id
                } else {
                    self.intern(
                        rec.semester,
                        rec.completed,
                        DagNodeKind::Interior {
                            edges: new_edges,
                            floor_skipped: rec.floor_skipped,
                        },
                        Some(catalog),
                    )
                }
            }
        };
        self.apply_put(key, out);
        local.insert(id, out);
        out
    }

    /// "Force course Y": the sub-DAG of `root` keeping exactly the paths
    /// that complete every course in `want`. `completed_at_root` is the
    /// root's completed-set (interior roots carry it themselves; shared
    /// terminal roots are anchor-free, so the caller supplies it). Path and
    /// goal-path counts of the result are the counts of the forced subset;
    /// statistics are those of the retained structure.
    pub fn through(
        &self,
        root: DagNodeId,
        catalog: &Catalog,
        completed_at_root: &CourseSet,
        want: CourseSet,
    ) -> DagNodeId {
        let remaining = want.difference(completed_at_root);
        if remaining.is_empty() {
            return root;
        }
        match self.with_node(root, |node| node.rec.tag) {
            // A path already over without the forced courses: no path.
            Tag::Leaf(_) => self.empty(),
            Tag::Pruned(_) | Tag::Empty => root,
            Tag::Interior => {
                let mut h = DefaultHasher::new();
                want.hash(&mut h);
                let op = op_fingerprint(0x54, h.finish()); // 'T'
                let mut local = HashMap::new();
                self.through_node(root, catalog, &want, op, &mut local)
            }
        }
    }

    /// The interior walk of [`UniqueTable::through`]. Only called on
    /// interior nodes, whose anchors are real — the outstanding set
    /// `want − completed` is a pure function of the node, which is what
    /// makes the `(op, id)` cache key sound.
    fn through_node(
        &self,
        id: DagNodeId,
        catalog: &Catalog,
        want: &CourseSet,
        op: u64,
        local: &mut HashMap<DagNodeId, DagNodeId>,
    ) -> DagNodeId {
        if let Some(&out) = local.get(&id) {
            return out;
        }
        let key = (op, id, DagNodeId::NONE);
        if let Some(out) = self.apply_get(&key) {
            local.insert(id, out);
            return out;
        }
        // Copied out of the arena: the walk interns below.
        let (rec, edges) = self.with_node(id, |node| (*node.rec, node.edge_list()));
        assert_eq!(
            rec.tag,
            Tag::Interior,
            "through_node walks interior nodes only"
        );
        let remaining = want.difference(&rec.completed);
        let out = if !remaining.is_subset(&rec.support) {
            // Some outstanding course is not electable anywhere below:
            // nothing here can complete the forced set.
            self.empty()
        } else {
            let mut new_edges: Vec<(CourseSet, DagNodeId)> = Vec::with_capacity(edges.len());
            for &(selection, child) in &edges {
                let child_remaining = remaining.difference(&selection);
                let kept = if child_remaining.is_empty() {
                    // Every path through this edge completes the forced
                    // set; the subtree is kept untouched.
                    Some(child)
                } else {
                    match self.with_node(child, |node| node.rec.tag) {
                        Tag::Leaf(_) | Tag::Empty => None,
                        Tag::Pruned(_) => Some(child),
                        Tag::Interior => {
                            let out = self.through_node(child, catalog, want, op, local);
                            (out != terminal_id(Tag::Empty)).then_some(out)
                        }
                    }
                };
                if let Some(child) = kept {
                    new_edges.push((selection, child));
                }
            }
            if new_edges.is_empty() {
                self.empty()
            } else if new_edges == edges {
                id
            } else {
                self.intern(
                    rec.semester,
                    rec.completed,
                    DagNodeKind::Interior {
                        edges: new_edges,
                        floor_skipped: rec.floor_skipped,
                    },
                    Some(catalog),
                )
            }
        };
        self.apply_put(key, out);
        local.insert(id, out);
        out
    }

    /// The counting serving path of a what-if: `(paths, goal_paths,
    /// stats)` of `through(restrict(root, restriction), force)`, computed
    /// as one fold without materializing the intermediate DAGs. Exactly
    /// the composition's numbers — dead-end reclassification, pruned
    /// skeletons and all — but each provably-untouched subtree is answered
    /// from its stored summaries in O(1), so the walk touches only the
    /// delta-affected frontier. Whole-call results are cached in the
    /// table's fold cache, so a repeated what-if does no walk at all.
    pub fn whatif_counts(
        &self,
        root: DagNodeId,
        catalog: &Catalog,
        restriction: &Restriction,
        force: &CourseSet,
        completed_at_root: &CourseSet,
    ) -> (u128, u128, ExploreStats) {
        let remaining = force.difference(completed_at_root);
        if restriction.is_empty() && remaining.is_empty() {
            return self.with_node(root, |node| node.rec.counts.into_fold());
        }
        let mut h = DefaultHasher::new();
        restriction.avoid.hash(&mut h);
        restriction.max_workload.map(f64::to_bits).hash(&mut h);
        remaining.hash(&mut h);
        let op = op_fingerprint(0x57, h.finish()); // 'W'
        let key = (op, root, DagNodeId::NONE);
        if let Some(counts) = self.fold_get(&key) {
            return counts;
        }
        let out = self.whatif_counts_uncached(root, catalog, restriction, force, completed_at_root);
        self.fold_put(key, out);
        out
    }

    /// [`UniqueTable::whatif_counts`] without the fold cache: every call
    /// walks the delta-affected frontier (what the `whatif_fold` bench
    /// times).
    pub fn whatif_counts_uncached(
        &self,
        root: DagNodeId,
        catalog: &Catalog,
        restriction: &Restriction,
        force: &CourseSet,
        completed_at_root: &CourseSet,
    ) -> (u128, u128, ExploreStats) {
        let remaining = force.difference(completed_at_root);
        // The fold never interns, so it reads through a whole-table view:
        // one lock acquisition per shard instead of one per node visit.
        let view = self.view();
        FoldMemo::with(view.id_bound(), |memo| {
            if remaining.is_empty() {
                view.fold_restrict(root, catalog, restriction, memo)
                    .into_fold()
            } else {
                let mut forced = FxMap::default();
                view.fold_forced(root, remaining, catalog, restriction, &mut forced, memo)
                    .map_or((0, 0, ExploreStats::default()), Counts::into_fold)
            }
        })
    }

    /// Set algebra over two DAGs anchored at the same state: the coupled
    /// DFS with the pair-keyed apply cache. Children are matched by
    /// selection (equal selections from equal anchors reach equal states,
    /// so the anchor invariant is maintained by construction). Counts of
    /// the result are exactly the set-theoretic counts over the operands'
    /// path sets; statistics are those of the combined structure.
    pub fn set_apply(
        &self,
        op: SetOp,
        a: DagNodeId,
        b: DagNodeId,
    ) -> Result<DagNodeId, ApplyError> {
        let ra = self.with_node(a, |node| *node.rec);
        let rb = self.with_node(b, |node| *node.rec);
        // Terminal nodes are anchor-free (shared across states), so only
        // two interiors can — and must — prove a common frame.
        if (ra.tag, rb.tag) == (Tag::Interior, Tag::Interior)
            && (ra.semester != rb.semester || ra.completed != rb.completed)
        {
            return Err(ApplyError::AnchorMismatch);
        }
        let tag = match op {
            SetOp::Intersect => 0x49, // 'I'
            SetOp::Union => 0x55,     // 'U'
            SetOp::Diff => 0x44,      // 'D'
        };
        let fp = op_fingerprint(tag, 0);
        let mut local = HashMap::new();
        self.set_node(op, fp, a, b, &mut local)
    }

    fn set_node(
        &self,
        op: SetOp,
        fp: u64,
        a: DagNodeId,
        b: DagNodeId,
        local: &mut HashMap<(DagNodeId, DagNodeId), DagNodeId>,
    ) -> Result<DagNodeId, ApplyError> {
        if a == b {
            return Ok(match op {
                SetOp::Intersect | SetOp::Union => a,
                SetOp::Diff => self.empty(),
            });
        }
        if let Some(&out) = local.get(&(a, b)) {
            return Ok(out);
        }
        let key = (fp, a, b);
        if let Some(out) = self.apply_get(&key) {
            local.insert((a, b), out);
            return Ok(out);
        }
        let ra = self.with_node(a, |node| *node.rec);
        let rb = self.with_node(b, |node| *node.rec);
        let is_zero = |tag: Tag| matches!(tag, Tag::Pruned(_) | Tag::Empty);
        let out = if is_zero(ra.tag) {
            match op {
                SetOp::Intersect | SetOp::Diff => self.empty(),
                SetOp::Union => b,
            }
        } else if is_zero(rb.tag) {
            match op {
                SetOp::Intersect => self.empty(),
                SetOp::Union | SetOp::Diff => a,
            }
        } else {
            match (ra.tag, rb.tag) {
                (Tag::Leaf(ka), Tag::Leaf(kb)) => {
                    // Same kind would have hash-consed to a == b above, so
                    // the kinds differ here: the frames classify this path
                    // differently.
                    match op {
                        SetOp::Intersect => self.empty(),
                        SetOp::Diff => a,
                        SetOp::Union => {
                            return Err(ApplyError::Incompatible(format!(
                                "leaf kinds {ka:?} and {kb:?} at the same state"
                            )))
                        }
                    }
                }
                (Tag::Leaf(_), Tag::Interior) | (Tag::Interior, Tag::Leaf(_)) => match op {
                    // A leaf's path ends here; interior paths continue —
                    // disjoint sets.
                    SetOp::Intersect => self.empty(),
                    SetOp::Diff => a,
                    SetOp::Union => {
                        return Err(ApplyError::Incompatible(
                            "one frame ends where the other continues".into(),
                        ))
                    }
                },
                (Tag::Interior, Tag::Interior) => {
                    // Copied out of the arena: the walk interns below.
                    let ea = self.with_node(a, |node| node.edge_list());
                    let eb = self.with_node(b, |node| node.edge_list());
                    let b_children: HashMap<CourseSet, DagNodeId> = eb.iter().copied().collect();
                    let mut new_edges: Vec<(CourseSet, DagNodeId)> = Vec::new();
                    for &(selection, ca) in &ea {
                        match (op, b_children.get(&selection)) {
                            (_, Some(&cb)) => {
                                let child = self.set_node(op, fp, ca, cb, local)?;
                                new_edges.push((selection, child));
                            }
                            (SetOp::Intersect, None) => {}
                            (SetOp::Union | SetOp::Diff, None) => new_edges.push((selection, ca)),
                        }
                    }
                    if op == SetOp::Union {
                        let a_selections: HashMap<CourseSet, ()> =
                            ea.iter().map(|(s, _)| (*s, ())).collect();
                        for (selection, cb) in eb {
                            if !a_selections.contains_key(&selection) {
                                new_edges.push((selection, cb));
                            }
                        }
                    }
                    if new_edges.is_empty() {
                        self.empty()
                    } else if new_edges == ea {
                        a
                    } else {
                        // No catalog in scope here, so the selections are
                        // unpriced: the node's workload bound degrades to
                        // the conservative ∞.
                        self.intern(
                            ra.semester,
                            ra.completed,
                            DagNodeKind::Interior {
                                edges: new_edges,
                                floor_skipped: ra.floor_skipped,
                            },
                            None,
                        )
                    }
                }
                // Zero kinds were handled above.
                _ => unreachable!("zero operands already dispatched"),
            }
        };
        self.apply_put(key, out);
        local.insert((a, b), out);
        Ok(out)
    }
}

/// The counting folds read the arena in place through a whole-table view.
impl NodeView<'_> {
    /// The restriction-only counting fold — exactly `restrict`'s node
    /// summaries, never materialized. Total (every subtree keeps *some*
    /// answer, possibly a reclassified dead end), so the memo is keyed by
    /// node id alone. Untouched subtrees answer from their stored
    /// summaries before even probing the memo.
    fn fold_restrict(
        &self,
        id: DagNodeId,
        catalog: &Catalog,
        restriction: &Restriction,
        memo: &mut FoldMemo,
    ) -> Counts {
        // Probe the dense memo before touching the node: most edges point
        // at already-folded children, and the probe is one flat array read
        // against the node record fetch.
        if let Some(out) = memo.get(id) {
            return out;
        }
        let node = self.node(id);
        let rec = node.rec;
        if restriction.cannot_touch(&rec.support, rec.max_load) {
            // Nothing vetoable below: the subtree survives verbatim, and
            // its stored summaries are the answer. Memoized too, so the
            // proof is paid once per node, not once per incoming edge.
            memo.put(id, &rec.counts);
            return rec.counts;
        }
        let out = match rec.tag {
            // Terminal summaries are the answer (zero paths on pruned and
            // empty nodes).
            Tag::Leaf(_) | Tag::Pruned(_) | Tag::Empty => rec.counts,
            Tag::Interior => {
                let mut survivors = 0u64;
                let mut acc = Counts {
                    nodes_expanded: 1,
                    pruned_time: rec.floor_skipped,
                    ..Counts::default()
                };
                // Each edge is an 8-byte `(selection id, child)` pair; the
                // selection and its load come from the shard's pool.
                for &(sel, child) in node.edges() {
                    let selection = node.selection(sel);
                    if !selection.set.is_disjoint(&restriction.avoid) {
                        continue;
                    }
                    if let Some(cap) = restriction.max_workload {
                        if selection.load(catalog) > cap {
                            continue;
                        }
                    }
                    survivors += 1;
                    // Probe inline before recursing: the common case is an
                    // already-folded child, answered by one array read
                    // with no call and no node fetch.
                    let sub = match memo.get(child) {
                        Some(sub) => sub,
                        None => self.fold_restrict(child, catalog, restriction, memo),
                    };
                    acc.edges_created += 1;
                    acc.merge(&sub);
                }
                if survivors == 0 && rec.floor_skipped == 0 {
                    // restrict's dead-end reclassification: every selection
                    // vetoed, nothing floor-skipped — a DeadEnd leaf, one
                    // non-goal path.
                    Counts {
                        paths: 1,
                        ..Counts::default()
                    }
                } else {
                    acc
                }
            }
        };
        memo.put(id, &out);
        out
    }

    /// The general counting fold with forced courses still outstanding.
    /// `None` means "this subtree keeps no path" — the edge into it is
    /// dropped, exactly as `through` drops edges to emptied children (and
    /// contributes nothing to statistics). Branches whose outstanding set
    /// empties delegate to the cheaper [`NodeView::fold_restrict`].
    /// Invariant: `remaining` is nonempty here.
    fn fold_forced(
        &self,
        id: DagNodeId,
        remaining: CourseSet,
        catalog: &Catalog,
        restriction: &Restriction,
        forced: &mut FxMap<(DagNodeId, CourseSet), Option<Counts>>,
        memo: &mut FoldMemo,
    ) -> Option<Counts> {
        if let Some(out) = forced.get(&(id, remaining)) {
            return *out;
        }
        let node = self.node(id);
        let rec = node.rec;
        let out = match rec.tag {
            // The path ends without the forced courses: dropped.
            Tag::Leaf(_) => None,
            // Pruned skeletons are kept by restrict and through alike.
            Tag::Pruned(_) => Some(rec.counts),
            Tag::Empty => None,
            // Some forced course is not electable below: `through` would
            // empty this subtree, so the edge drops.
            Tag::Interior if !remaining.is_subset(&rec.support) => None,
            Tag::Interior => {
                let mut survivors = 0u64;
                let mut kept = 0u64;
                let mut acc = Counts {
                    nodes_expanded: 1,
                    pruned_time: rec.floor_skipped,
                    ..Counts::default()
                };
                for &(sel, child) in node.edges() {
                    let selection = node.selection(sel);
                    if !selection.set.is_disjoint(&restriction.avoid) {
                        continue;
                    }
                    if let Some(cap) = restriction.max_workload {
                        if selection.load(catalog) > cap {
                            continue;
                        }
                    }
                    survivors += 1;
                    let child_remaining = remaining.difference(&selection.set);
                    let sub = if child_remaining.is_empty() {
                        Some(match memo.get(child) {
                            Some(sub) => sub,
                            None => self.fold_restrict(child, catalog, restriction, memo),
                        })
                    } else {
                        self.fold_forced(child, child_remaining, catalog, restriction, forced, memo)
                    };
                    if let Some(sub) = sub {
                        kept += 1;
                        acc.edges_created += 1;
                        acc.merge(&sub);
                    }
                }
                // With forced courses outstanding, a subtree with no
                // surviving edge (dead end or skeleton) keeps no path,
                // and neither does one whose every child dropped.
                if survivors == 0 || kept == 0 {
                    None
                } else {
                    Some(acc)
                }
            }
        };
        forced.insert((id, remaining), out);
        out
    }
}

#[cfg(test)]
mod tests {
    use std::ops::ControlFlow;
    use std::sync::Arc;

    use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};

    use super::*;
    use crate::explorer::Explorer;
    use crate::filter::{AvoidCourses, MaxSemesterWorkload};
    use crate::status::EnrollmentStatus;
    use crate::unique::DagBudget;

    fn base_explorer(synth: &SyntheticCatalog) -> Explorer<'_> {
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        Explorer::deadline_driven(&synth.catalog, start, synth.start + 4, 2).unwrap()
    }

    fn avoid_set(synth: &SyntheticCatalog, n: usize) -> CourseSet {
        synth.catalog.courses().take(n).map(|c| c.id()).collect()
    }

    #[test]
    fn restrict_is_canonical_with_filtered_build() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        let avoid = avoid_set(&synth, 2);
        let restricted = table.restrict(
            base.root,
            &synth.catalog,
            &Restriction {
                avoid,
                max_workload: None,
            },
        );
        let filtered = base_explorer(&synth)
            .with_filter(Arc::new(AvoidCourses(avoid)))
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        assert_eq!(
            restricted, filtered.root,
            "restrict returns the exact node the filtered build interns"
        );
    }

    #[test]
    fn restrict_workload_matches_filtered_build() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        let cap = 12.0;
        let restricted = table.restrict(
            base.root,
            &synth.catalog,
            &Restriction {
                avoid: CourseSet::EMPTY,
                max_workload: Some(cap),
            },
        );
        let filtered = base_explorer(&synth)
            .with_filter(Arc::new(MaxSemesterWorkload(cap)))
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        assert_eq!(restricted, filtered.root);
    }

    #[test]
    fn restrict_untouched_subtrees_short_circuit() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        // A restriction avoiding nothing electable and capping above the
        // whole DAG's heaviest selection cannot touch the root.
        let root = table.node(base.root);
        assert!(root.max_load.is_finite(), "built DAGs have exact bounds");
        let r = Restriction {
            avoid: CourseSet::EMPTY,
            max_workload: Some(root.max_load + 1.0),
        };
        let before = table.snapshot();
        let restricted = table.restrict(base.root, &synth.catalog, &r);
        let after = table.snapshot();
        assert_eq!(
            restricted, base.root,
            "nothing to veto: the root is canonical"
        );
        assert_eq!(
            after.interned, before.interned,
            "the untouched proof interns nothing"
        );
    }

    #[test]
    fn restrict_warm_repeat_hits_the_apply_cache() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        let r = Restriction {
            avoid: avoid_set(&synth, 1),
            max_workload: None,
        };
        let first = table.restrict(base.root, &synth.catalog, &r);
        let before = table.snapshot();
        let second = table.restrict(base.root, &synth.catalog, &r);
        let after = table.snapshot();
        assert_eq!(first, second);
        assert!(after.apply_hits > before.apply_hits);
        assert_eq!(
            after.interned, before.interned,
            "warm repeat interns nothing"
        );
    }

    #[test]
    fn through_counts_match_brute_force_filtering() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let e = base_explorer(&synth);
        let table = UniqueTable::new(0);
        let base = e
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        for n in 1..=2 {
            let want = avoid_set(&synth, n);
            let forced = table.through(base.root, &synth.catalog, &CourseSet::EMPTY, want);
            let node = table.node(forced);
            let mut expected = 0u128;
            e.visit_paths(|visit| {
                let completed = visit.statuses.last().unwrap().completed();
                if want.is_subset(completed) {
                    expected += 1;
                }
                ControlFlow::Continue(())
            });
            assert_eq!(node.paths, expected, "forcing {n} course(s)");
        }
    }

    #[test]
    fn whatif_counts_match_the_materialized_composition() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        let c01 = avoid_set(&synth, 2);
        let c0 = avoid_set(&synth, 1);
        let cases: Vec<(Restriction, CourseSet)> = vec![
            (
                Restriction {
                    avoid: c0,
                    max_workload: None,
                },
                CourseSet::EMPTY,
            ),
            (
                Restriction {
                    avoid: CourseSet::EMPTY,
                    max_workload: Some(14.0),
                },
                CourseSet::EMPTY,
            ),
            (Restriction::default(), c01),
            (
                Restriction {
                    avoid: c0,
                    max_workload: Some(18.0),
                },
                avoid_set(&synth, 3).difference(&c01),
            ),
        ];
        for (restriction, force) in &cases {
            let (paths, goal_paths, stats) = table.whatif_counts(
                base.root,
                &synth.catalog,
                restriction,
                force,
                &CourseSet::EMPTY,
            );
            let restricted = table.restrict(base.root, &synth.catalog, restriction);
            let completed = table.node(base.root).completed;
            let forced = table.through(restricted, &synth.catalog, &completed, *force);
            let node = table.node(forced);
            assert_eq!(
                (paths, goal_paths),
                (node.paths, node.goal_paths),
                "fold counts equal the materialized composition"
            );
            assert_eq!(stats, node.stats, "fold stats equal the composition");
            // The fold is whole-call cached: asking again walks nothing.
            let before = table.snapshot();
            let again = table.whatif_counts(
                base.root,
                &synth.catalog,
                restriction,
                force,
                &CourseSet::EMPTY,
            );
            let after = table.snapshot();
            assert_eq!(again, (paths, goal_paths, stats));
            assert!(after.apply_hits > before.apply_hits);
        }
    }

    #[test]
    fn set_algebra_matches_inclusion_exclusion() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        // A = paths avoiding c0, B = paths avoiding c1 — same frame, both
        // subsets of the base path set.
        let c0 = avoid_set(&synth, 1);
        let c1 = avoid_set(&synth, 2).difference(&c0);
        let a = table.restrict(
            base.root,
            &synth.catalog,
            &Restriction {
                avoid: c0,
                max_workload: None,
            },
        );
        let b = table.restrict(
            base.root,
            &synth.catalog,
            &Restriction {
                avoid: c1,
                max_workload: None,
            },
        );
        let pa = table.node(a).paths;
        let pb = table.node(b).paths;
        let both = table.set_apply(SetOp::Intersect, a, b).unwrap();
        let p_both = table.node(both).paths;
        // A ∩ B = paths avoiding both — verifiable directly.
        let direct = table.restrict(
            base.root,
            &synth.catalog,
            &Restriction {
                avoid: c0.union(&c1),
                max_workload: None,
            },
        );
        // The intersection's *counts* must match the doubly-restricted
        // DAG's (the nodes may differ structurally: intersect keeps the
        // edge-to-pruned skeleton of its operands).
        assert_eq!(p_both, table.node(direct).paths);
        let either = table.set_apply(SetOp::Union, a, b).unwrap();
        assert_eq!(table.node(either).paths, pa + pb - p_both);
        let only_a = table.set_apply(SetOp::Diff, a, b).unwrap();
        assert_eq!(table.node(only_a).paths, pa - p_both);
        let only_b = table.set_apply(SetOp::Diff, b, a).unwrap();
        assert_eq!(table.node(only_b).paths, pb - p_both);
    }

    #[test]
    fn set_apply_rejects_mismatched_anchors() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        let node = table.node(base.root);
        let DagNodeKind::Interior { edges, .. } = &node.kind else {
            panic!("root should expand");
        };
        let child = edges
            .iter()
            .map(|(_, c)| *c)
            .find(|&c| matches!(table.node(c).kind, DagNodeKind::Interior { .. }))
            .expect("the root has an interior child");
        assert_eq!(
            table.set_apply(SetOp::Intersect, base.root, child),
            Err(ApplyError::AnchorMismatch)
        );
    }

    #[test]
    fn idempotent_ops_short_circuit() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let table = UniqueTable::new(0);
        let base = base_explorer(&synth)
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        assert_eq!(
            table
                .set_apply(SetOp::Intersect, base.root, base.root)
                .unwrap(),
            base.root
        );
        assert_eq!(
            table.set_apply(SetOp::Union, base.root, base.root).unwrap(),
            base.root
        );
        let none = table.set_apply(SetOp::Diff, base.root, base.root).unwrap();
        assert_eq!(table.node(none).paths, 0);
    }
}
