//! Hash-consed path-DAG nodes: the BDD-style unique table.
//!
//! The transposition table (`memo.rs`) caches subtree *answers*; this layer
//! caches the subtrees *themselves*. Interior nodes of the exploration DAG
//! are interned by `(semester, completed-set, children)` identity, so
//! structurally equal subtrees — across selections, across requests, even
//! across *different* requests whose suffixes coincide — are one shared
//! node. Terminal nodes (leaves, pruned states, the empty set) are interned
//! by kind alone, exactly like the two terminal nodes of a BDD: the
//! millions of distinct states a deep exploration *ends* in all collapse
//! onto a handful of shared sentinels, which is where the bulk of the
//! hash-consing compression comes from. Each interned node carries its
//! subtree's path counts, logical tree statistics, and a *support set* (the
//! courses electable anywhere below, with the heaviest selection's
//! workload), all pure functions of structure — so any root answers a
//! counting request in O(1) once built, and the apply engine
//! (`crate::apply`) can prove whole subtrees untouched by a what-if delta
//! without descending into them.
//!
//! Structure of the table mirrors the classic BDD unique table: nodes live
//! in sharded append-only arenas (the low `SHARD_BITS` bits of a
//! [`DagNodeId`] select the shard, so interning contends per-shard, not
//! globally), an intern index per shard maps structural hashes to candidate
//! ids, and a shared pair-keyed apply cache memoizes `crate::apply`
//! operations across calls. The table is `Sync`: parallel builds and
//! applies may share it, exactly like the transposition table.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

use coursenav_catalog::CourseSet;
use serde::{Deserialize, Serialize};

use crate::expand::SelectionIter;
use crate::explorer::{Disposition, Explorer};
use crate::path::LeafKind;
use crate::pruning::{record_prune, PruneReason, Pruner};
use crate::stats::ExploreStats;
use crate::status::EnrollmentStatus;

const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;

/// Anchor sentinel of shared terminal nodes (no real semester index is
/// negative enough to collide — semester indices are small non-negatives).
const TERMINAL_SEMESTER: i32 = i32::MIN;

/// Word-at-a-time multiply-xor hasher (the FxHash construction). Structural
/// hashing dominates interning cost — a build hashes every completed-set
/// and every edge list — and SipHash is ~10× slower on these short
/// fixed-width inputs without buying anything (the table is in-process,
/// not attacker-facing).
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_i32(&mut self, v: i32) {
        self.write_u64(v as u32 as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;
pub(crate) type FxMap<K, V> = HashMap<K, V, FxBuild>;

/// Compact handle to an interned node. The low bits select the shard, the
/// high bits index into that shard's arena. Ids are only meaningful within
/// the [`UniqueTable`] that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DagNodeId(u32);

impl DagNodeId {
    /// Sentinel used as the second operand of unary apply-cache entries.
    pub(crate) const NONE: DagNodeId = DagNodeId(u32::MAX);

    fn new(shard: usize, index: usize) -> DagNodeId {
        DagNodeId(((index as u32) << SHARD_BITS) | shard as u32)
    }

    fn shard(self) -> usize {
        (self.0 & (SHARDS as u32 - 1)) as usize
    }

    fn index(self) -> usize {
        (self.0 >> SHARD_BITS) as usize
    }

    /// The id as a dense array index (shard-interleaved, so values are
    /// compact up to [`NodeView::id_bound`]) — for flat fold memos.
    pub(crate) fn raw(self) -> usize {
        self.0 as usize
    }
}

/// What an interned node *is*. For interior nodes, the `(semester,
/// completed)` anchor plus the kind is the node's full identity: two
/// interiors with equal anchors and equal kinds are the same [`DagNodeId`].
/// Terminal kinds (`Leaf`, `Pruned`, `Empty`) are identified by kind alone
/// and shared across every state that ends there — the BDD terminal-node
/// rule, and the bulk of the hash-consing compression.
#[derive(Debug, Clone, PartialEq)]
pub enum DagNodeKind {
    /// A terminal path end (deadline reached, goal satisfied, dead end).
    Leaf(LeafKind),
    /// A pruned state: zero paths, but the prune is part of the structure
    /// (re-exploration statistics count it, and an interior node whose
    /// surviving children are all pruned is *not* a dead end).
    Pruned(PruneReason),
    /// The empty path set — produced only by apply operations (an
    /// exploration never builds one). Carries no statistics.
    Empty,
    /// An expanded state: one edge per admissible selection (including
    /// edges to pruned children), plus how many selections the strategic
    /// floor skipped (they contribute `pruned-time` per tree visit).
    Interior {
        /// `(selection, child)` in enumeration order.
        edges: Vec<(CourseSet, DagNodeId)>,
        /// Selections skipped by the strategic selection-size floor.
        floor_skipped: u64,
    },
}

/// One interned node: identity plus the derived subtree summaries.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// Semester index of the anchor (`EnrollmentStatus::state_key().0`)
    /// for interior nodes; shared terminal nodes are anchor-free and carry
    /// the `i32::MIN` sentinel here.
    pub semester: i32,
    /// Courses completed at the anchor (interior nodes only; empty on the
    /// shared terminals).
    pub completed: CourseSet,
    /// The node's structural identity below the anchor.
    pub kind: DagNodeKind,
    /// Maximal paths in the subtree.
    pub paths: u128,
    /// Goal-satisfying paths in the subtree.
    pub goal_paths: u128,
    /// The *logical tree* statistics of the subtree: exactly what a
    /// streaming (or memoized) re-exploration of this subtree reports,
    /// with shared descendants counted once per visit. Memo-traffic
    /// counters stay zero, matching served responses.
    pub stats: ExploreStats,
    /// The subtree's *support*: every course appearing in any selection
    /// anywhere below. A what-if delta whose avoided courses miss the
    /// support (and whose forced courses aren't all inside it) provably
    /// cannot change this subtree, so apply operations skip it in O(1).
    pub support: CourseSet,
    /// Summed workload of the heaviest single selection anywhere below
    /// (`f64::INFINITY` when unknown, e.g. on set-algebra results): a
    /// workload cap at or above this bound cannot veto anything here.
    pub max_load: f64,
    /// Summed workload of each of the node's own selections, parallel to
    /// the interior's edge list (empty on terminals, and on set-algebra
    /// results where no catalog was in scope — check the length). Derived
    /// data, not identity: workload-cap applies read it instead of
    /// re-summing per edge.
    pub(crate) loads: Box<[f64]>,
}

impl DagNode {
    /// Whether this node denotes the empty path set.
    pub fn is_zero(&self) -> bool {
        matches!(self.kind, DagNodeKind::Pruned(_) | DagNodeKind::Empty)
    }
}

fn node_hash(semester: i32, completed: &CourseSet, kind: &DagNodeKind) -> u64 {
    let mut h = FxHasher::default();
    semester.hash(&mut h);
    completed.hash(&mut h);
    match kind {
        DagNodeKind::Leaf(k) => {
            0u8.hash(&mut h);
            (*k as u8).hash(&mut h);
        }
        DagNodeKind::Pruned(r) => {
            1u8.hash(&mut h);
            (*r as u8).hash(&mut h);
        }
        DagNodeKind::Empty => 2u8.hash(&mut h),
        DagNodeKind::Interior {
            edges,
            floor_skipped,
        } => {
            3u8.hash(&mut h);
            floor_skipped.hash(&mut h);
            for (selection, child) in edges {
                selection.hash(&mut h);
                child.hash(&mut h);
            }
        }
    }
    h.finish()
}

#[derive(Default)]
struct Shard {
    nodes: Vec<Arc<DagNode>>,
    /// Structural hash → candidate arena indices (collision bucket).
    index: FxMap<u64, Vec<u32>>,
}

/// See [`UniqueTable::view`].
pub(crate) struct NodeView<'a> {
    guards: Vec<RwLockReadGuard<'a, Shard>>,
}

impl NodeView<'_> {
    #[inline]
    pub(crate) fn node(&self, id: DagNodeId) -> &DagNode {
        &self.guards[id.shard()].nodes[id.index()]
    }

    /// Exclusive upper bound on [`DagNodeId::raw`] over every node visible
    /// in this view: sizes a flat id-indexed memo.
    pub(crate) fn id_bound(&self) -> usize {
        let longest = self.guards.iter().map(|g| g.nodes.len()).max().unwrap_or(0);
        longest << SHARD_BITS
    }
}

/// Key of one apply-cache entry: an operation fingerprint (hashing the
/// operation tag and its parameters) plus the operand node(s).
pub(crate) type ApplyKey = (u64, DagNodeId, DagNodeId);

/// Result of one counting apply (`UniqueTable::whatif_counts`):
/// `(paths, goal_paths, logical tree stats)`.
pub(crate) type FoldCounts = (u128, u128, ExploreStats);

/// Observability counters for one unique table, serialized into the
/// `/v1/metrics` `unique-table` block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub struct UniqueTableStats {
    /// Nodes resident in the arenas.
    pub nodes: u64,
    /// Cached exploration roots (one per distinct request frame).
    pub roots: u64,
    /// Intern requests answered by an existing node (hash-cons hits).
    pub hash_cons_hits: u64,
    /// Nodes actually created (intern misses).
    pub interned: u64,
    /// Apply operations answered from the pair-keyed apply cache.
    pub apply_hits: u64,
    /// Apply operations computed and cached.
    pub apply_misses: u64,
    /// Root-cache hits (a what-if reused an already-built base DAG).
    pub root_hits: u64,
    /// Root-cache misses (the base DAG had to be built).
    pub root_misses: u64,
}

impl UniqueTableStats {
    /// Fraction of intern requests answered by sharing, in `[0, 1]`.
    pub fn hash_cons_hit_rate(&self) -> f64 {
        let total = self.hash_cons_hits + self.interned;
        if total == 0 {
            0.0
        } else {
            self.hash_cons_hits as f64 / total as f64
        }
    }

    /// Folds another table's counters into this one (for aggregation
    /// across tenants and retired tables).
    pub fn merge(&mut self, other: &UniqueTableStats) {
        self.nodes += other.nodes;
        self.roots += other.roots;
        self.hash_cons_hits += other.hash_cons_hits;
        self.interned += other.interned;
        self.apply_hits += other.apply_hits;
        self.apply_misses += other.apply_misses;
        self.root_hits += other.root_hits;
        self.root_misses += other.root_misses;
    }
}

/// The sharded, hash-consed unique table. See the module docs.
pub struct UniqueTable {
    shards: Vec<RwLock<Shard>>,
    apply: Vec<Mutex<HashMap<ApplyKey, DagNodeId>>>,
    /// Whole-operation results of counting applies, one entry per
    /// `(delta, root)` — a repeated what-if answers without any walk.
    folds: Mutex<HashMap<ApplyKey, FoldCounts>>,
    roots: Mutex<HashMap<String, DagNodeId>>,
    capacity: usize,
    hash_cons_hits: AtomicU64,
    interned: AtomicU64,
    apply_hits: AtomicU64,
    apply_misses: AtomicU64,
    root_hits: AtomicU64,
    root_misses: AtomicU64,
}

impl UniqueTable {
    /// A table that aims to keep at most `capacity` resident nodes. The
    /// cap is advisory — a single build may exceed it (its own budget
    /// bounds that); serving layers consult [`UniqueTable::is_full`] and
    /// retire over-full tables wholesale, the way memo tables rotate.
    pub fn new(capacity: usize) -> UniqueTable {
        UniqueTable {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            apply: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            folds: Mutex::new(HashMap::new()),
            roots: Mutex::new(HashMap::new()),
            capacity,
            hash_cons_hits: AtomicU64::new(0),
            interned: AtomicU64::new(0),
            apply_hits: AtomicU64::new(0),
            apply_misses: AtomicU64::new(0),
            root_hits: AtomicU64::new(0),
            root_misses: AtomicU64::new(0),
        }
    }

    /// The advisory node capacity this table was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident node count across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("unique shard poisoned").nodes.len())
            .sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the resident node count reached the advisory capacity.
    pub fn is_full(&self) -> bool {
        self.capacity != 0 && self.len() >= self.capacity
    }

    /// Reads a node. Panics on a foreign or stale id — ids never escape
    /// the table that issued them.
    pub fn node(&self, id: DagNodeId) -> Arc<DagNode> {
        let shard = self.shards[id.shard()]
            .read()
            .expect("unique shard poisoned");
        Arc::clone(&shard.nodes[id.index()])
    }

    /// A read-locked view of every shard at once: node access without
    /// per-node lock and refcount traffic, for walks that never intern
    /// (the counting fold). Interning threads block until the view drops;
    /// concurrent readers are unaffected.
    pub(crate) fn view(&self) -> NodeView<'_> {
        NodeView {
            guards: self
                .shards
                .iter()
                .map(|s| s.read().expect("unique shard poisoned"))
                .collect(),
        }
    }

    /// Interns a node, returning the id of the structurally equal resident
    /// node when one exists (a hash-cons hit) and creating it otherwise.
    /// Subtree counts, logical statistics, and the support set are derived
    /// here, bottom-up, so they are invariants of the structure no matter
    /// who interns it. `loads` is the summed workload of each of the
    /// node's *own* selections, parallel to an interior's edge list (the
    /// caller computes it because only the caller holds the catalog; pass
    /// an empty vector for terminals, or when no catalog is in scope — the
    /// node's [`DagNode::max_load`] bound then degrades to `∞`, the
    /// conservative "unknown").
    ///
    /// Terminal kinds ignore the anchor arguments: every state ending in
    /// the same [`DagNodeKind`] shares one node, the BDD terminal rule.
    pub fn intern(
        &self,
        semester: i32,
        completed: CourseSet,
        kind: DagNodeKind,
        loads: Vec<f64>,
    ) -> DagNodeId {
        let (semester, completed) = match kind {
            DagNodeKind::Interior { .. } => (semester, completed),
            _ => (TERMINAL_SEMESTER, CourseSet::EMPTY),
        };
        let (paths, goal_paths, stats, support, max_load) = self.summarize(&kind, &loads);
        let hash = node_hash(semester, &completed, &kind);
        let shard_idx = (hash as usize) & (SHARDS - 1);
        let mut shard = self.shards[shard_idx]
            .write()
            .expect("unique shard poisoned");
        if let Some(candidates) = shard.index.get(&hash) {
            for &cand in candidates {
                let node = &shard.nodes[cand as usize];
                if node.semester == semester && node.completed == completed && node.kind == kind {
                    self.hash_cons_hits.fetch_add(1, Ordering::Relaxed);
                    return DagNodeId::new(shard_idx, cand as usize);
                }
            }
        }
        let index = shard.nodes.len();
        shard.nodes.push(Arc::new(DagNode {
            semester,
            completed,
            kind,
            paths,
            goal_paths,
            stats,
            support,
            max_load,
            loads: loads.into_boxed_slice(),
        }));
        shard.index.entry(hash).or_default().push(index as u32);
        self.interned.fetch_add(1, Ordering::Relaxed);
        DagNodeId::new(shard_idx, index)
    }

    /// `(paths, goal_paths, logical tree stats, support, max_load)` of a
    /// node with this kind.
    fn summarize(
        &self,
        kind: &DagNodeKind,
        loads: &[f64],
    ) -> (u128, u128, ExploreStats, CourseSet, f64) {
        match kind {
            DagNodeKind::Leaf(k) => (
                1,
                u128::from(*k == LeafKind::Goal),
                ExploreStats::default(),
                CourseSet::EMPTY,
                0.0,
            ),
            DagNodeKind::Pruned(reason) => {
                let mut stats = ExploreStats::default();
                record_prune(&mut stats, *reason);
                (0, 0, stats, CourseSet::EMPTY, 0.0)
            }
            DagNodeKind::Empty => (0, 0, ExploreStats::default(), CourseSet::EMPTY, 0.0),
            DagNodeKind::Interior {
                edges,
                floor_skipped,
            } => {
                let mut stats = ExploreStats {
                    nodes_expanded: 1,
                    pruned_time: *floor_skipped,
                    ..ExploreStats::default()
                };
                let mut paths = 0u128;
                let mut goal_paths = 0u128;
                let mut support = CourseSet::EMPTY;
                // Without exact per-edge loads the bound degrades to ∞
                // ("a finite cap might veto something here").
                let mut max_load = if loads.len() == edges.len() {
                    loads.iter().copied().fold(0.0f64, f64::max)
                } else {
                    f64::INFINITY
                };
                for (selection, child) in edges {
                    let child = self.node(*child);
                    stats.edges_created += 1;
                    stats.merge(&child.stats);
                    paths += child.paths;
                    goal_paths += child.goal_paths;
                    support.union_with(selection);
                    support.union_with(&child.support);
                    max_load = max_load.max(child.max_load);
                }
                (paths, goal_paths, stats, support, max_load)
            }
        }
    }

    /// Looks up a cached exploration root by its frame key
    /// ([`crate::ExplorationRequest::dag_key`]), counting the hit/miss.
    pub fn root_for(&self, frame_key: &str) -> Option<DagNodeId> {
        let hit = self
            .roots
            .lock()
            .expect("unique roots poisoned")
            .get(frame_key)
            .copied();
        match hit {
            Some(id) => {
                self.root_hits.fetch_add(1, Ordering::Relaxed);
                Some(id)
            }
            None => {
                self.root_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Registers a built exploration root under its frame key.
    pub fn store_root(&self, frame_key: String, root: DagNodeId) {
        self.roots
            .lock()
            .expect("unique roots poisoned")
            .insert(frame_key, root);
    }

    pub(crate) fn apply_get(&self, key: &ApplyKey) -> Option<DagNodeId> {
        let shard = (key.0 as usize) & (SHARDS - 1);
        let hit = self.apply[shard]
            .lock()
            .expect("apply cache poisoned")
            .get(key)
            .copied();
        match hit {
            Some(id) => {
                self.apply_hits.fetch_add(1, Ordering::Relaxed);
                Some(id)
            }
            None => {
                self.apply_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    pub(crate) fn apply_put(&self, key: ApplyKey, value: DagNodeId) {
        let shard = (key.0 as usize) & (SHARDS - 1);
        self.apply[shard]
            .lock()
            .expect("apply cache poisoned")
            .insert(key, value);
    }

    pub(crate) fn fold_get(&self, key: &ApplyKey) -> Option<FoldCounts> {
        let hit = self
            .folds
            .lock()
            .expect("fold cache poisoned")
            .get(key)
            .copied();
        match hit {
            Some(counts) => {
                self.apply_hits.fetch_add(1, Ordering::Relaxed);
                Some(counts)
            }
            None => {
                self.apply_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    pub(crate) fn fold_put(&self, key: ApplyKey, value: FoldCounts) {
        self.folds
            .lock()
            .expect("fold cache poisoned")
            .insert(key, value);
    }

    /// Counter snapshot for metrics.
    pub fn snapshot(&self) -> UniqueTableStats {
        UniqueTableStats {
            nodes: self.len() as u64,
            roots: self.roots.lock().expect("unique roots poisoned").len() as u64,
            hash_cons_hits: self.hash_cons_hits.load(Ordering::Relaxed),
            interned: self.interned.load(Ordering::Relaxed),
            apply_hits: self.apply_hits.load(Ordering::Relaxed),
            apply_misses: self.apply_misses.load(Ordering::Relaxed),
            root_hits: self.root_hits.load(Ordering::Relaxed),
            root_misses: self.root_misses.load(Ordering::Relaxed),
        }
    }
}

/// Budget mode for [`Explorer::build_path_dag`]. The two bounded modes
/// replicate the two historical budget semantics of `dedup.rs` exactly, so
/// the thin views over this builder keep their documented behaviour.
#[derive(Debug, Clone, Copy)]
pub enum DagBudget {
    /// No bound.
    Unlimited,
    /// Bound the *distinct states visited* (including pruned states),
    /// checked before each new state — `count_paths_dedup_budgeted`'s
    /// contract.
    Distinct(usize),
    /// Bound the *materialized* (non-pruned) states, checked before each
    /// materialization — `build_state_dag`'s contract.
    Materialized(usize),
}

/// Why a build stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagBuildError {
    /// The [`DagBudget`] was exhausted.
    Budget {
        /// The configured budget that was hit.
        node_budget: usize,
    },
    /// The caller's wall-clock deadline passed mid-build.
    Deadline,
}

/// A completed build: the interned root plus per-build bookkeeping the
/// `dedup.rs` views need (the table itself is shared and warm, so the
/// traversal order and distinct-state count are per-build facts).
#[derive(Debug, Clone)]
pub struct DagBuild {
    /// The exploration's root node.
    pub root: DagNodeId,
    /// Distinct `(semester, completed)` states visited, pruned included.
    pub distinct: usize,
    /// Materialized (non-pruned) nodes in the traversal's post-order,
    /// paired with their enrollment statuses. The root is last. Shared
    /// terminal nodes appear once per distinct state that ends there, each
    /// with its own status.
    pub order: Vec<(DagNodeId, EnrollmentStatus)>,
    /// Per-*distinct-state* statistics of this build: every state
    /// contributes its expansion (or prune) exactly once no matter how
    /// many selection orders reach it — the historical `dedup.rs`
    /// contract. (The logical *tree* statistics live on the interned
    /// nodes themselves.)
    pub stats: ExploreStats,
}

struct BuildCtx {
    visited: FxMap<(i32, CourseSet), DagNodeId>,
    order: Vec<(DagNodeId, EnrollmentStatus)>,
    stats: ExploreStats,
    materialized: usize,
    ticks: u32,
}

impl Explorer<'_> {
    /// Materializes this exploration as a hash-consed path DAG in `table`,
    /// returning the interned root. Revisiting states already interned
    /// (by this build or any earlier one sharing the table) costs a hash
    /// lookup; the per-node counts and statistics come out identical to a
    /// fresh re-exploration by construction.
    pub fn build_path_dag(
        &self,
        table: &UniqueTable,
        budget: DagBudget,
        deadline: Option<Instant>,
    ) -> Result<DagBuild, DagBuildError> {
        let pruner = self.pruner();
        let mut ctx = BuildCtx {
            visited: FxMap::default(),
            order: Vec::new(),
            stats: ExploreStats::default(),
            materialized: 0,
            ticks: 0,
        };
        let root = self.dag_node(
            *self.start(),
            pruner.as_ref(),
            table,
            &mut ctx,
            budget,
            deadline,
        )?;
        Ok(DagBuild {
            root,
            distinct: ctx.visited.len().max(1),
            order: ctx.order,
            stats: ctx.stats,
        })
    }

    fn dag_node(
        &self,
        status: EnrollmentStatus,
        pruner: Option<&Pruner<'_>>,
        table: &UniqueTable,
        ctx: &mut BuildCtx,
        budget: DagBudget,
        deadline: Option<Instant>,
    ) -> Result<DagNodeId, DagBuildError> {
        let key = status.state_key();
        if let Some(&id) = ctx.visited.get(&key) {
            return Ok(id);
        }
        if let DagBudget::Distinct(node_budget) = budget {
            if ctx.visited.len() >= node_budget {
                return Err(DagBuildError::Budget { node_budget });
            }
        }
        ctx.ticks = ctx.ticks.wrapping_add(1);
        if ctx.ticks & 0x3F == 1 {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(DagBuildError::Deadline);
                }
            }
        }
        let id = match self.disposition(&status, pruner) {
            Disposition::Leaf(kind) => {
                self.check_materialized(ctx, budget)?;
                ctx.materialized += 1;
                let id = table.intern(key.0, key.1, DagNodeKind::Leaf(kind), Vec::new());
                ctx.order.push((id, status));
                id
            }
            Disposition::Pruned(reason) => {
                record_prune(&mut ctx.stats, reason);
                table.intern(key.0, key.1, DagNodeKind::Pruned(reason), Vec::new())
            }
            Disposition::Expand {
                min_selection,
                include_empty,
            } => {
                let options = *status.options();
                let iter = if include_empty {
                    SelectionIter::with_empty(&options, self.max_per_semester())
                } else {
                    SelectionIter::new(&options, self.max_per_semester())
                };
                let mut edges: Vec<(CourseSet, DagNodeId)> = Vec::new();
                let mut loads: Vec<f64> = Vec::new();
                let mut floor_skipped = 0u64;
                for selection in iter {
                    if selection.len() < min_selection {
                        floor_skipped += 1;
                        continue;
                    }
                    if !self.selection_allowed(&status, &selection) {
                        continue;
                    }
                    let load: f64 = selection
                        .iter()
                        .map(|id| self.catalog().course(id).workload())
                        .sum();
                    let child = status.advance(self.catalog(), &selection);
                    let child_id = self.dag_node(child, pruner, table, ctx, budget, deadline)?;
                    edges.push((selection, child_id));
                    loads.push(load);
                }
                self.check_materialized(ctx, budget)?;
                ctx.materialized += 1;
                let kind = if edges.is_empty() && floor_skipped == 0 {
                    // Filters vetoed every selection: dead-end leaf, exactly
                    // as re-exploration classifies it (`loads` is empty too).
                    DagNodeKind::Leaf(LeafKind::DeadEnd)
                } else {
                    ctx.stats.nodes_expanded += 1;
                    ctx.stats.edges_created += edges.len() as u64;
                    ctx.stats.pruned_time += floor_skipped;
                    DagNodeKind::Interior {
                        edges,
                        floor_skipped,
                    }
                };
                let id = table.intern(key.0, key.1, kind, loads);
                ctx.order.push((id, status));
                id
            }
        };
        ctx.visited.insert(key, id);
        Ok(id)
    }

    fn check_materialized(&self, ctx: &BuildCtx, budget: DagBudget) -> Result<(), DagBuildError> {
        if let DagBudget::Materialized(node_budget) = budget {
            if ctx.materialized >= node_budget {
                return Err(DagBuildError::Budget { node_budget });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};

    use crate::goal::Goal;

    fn small_explorer(synth: &SyntheticCatalog, horizon: i32) -> Explorer<'_> {
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        Explorer::deadline_driven(&synth.catalog, start, synth.start + horizon, 2).unwrap()
    }

    #[test]
    fn interning_is_canonical() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let e = small_explorer(&synth, 3);
        let table = UniqueTable::new(0);
        let a = e
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        let interned_after_first = table.snapshot().interned;
        let b = e
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        assert_eq!(a.root, b.root, "same exploration interns the same root");
        let snap = table.snapshot();
        assert_eq!(
            snap.interned, interned_after_first,
            "second build creates no nodes"
        );
        assert!(snap.hash_cons_hits > 0);
        assert_eq!(a.distinct, b.distinct);
    }

    #[test]
    fn root_counts_match_dedup() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let counts = e.count_paths_dedup();
        let table = UniqueTable::new(0);
        let build = e
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        let root = table.node(build.root);
        assert_eq!(root.paths, counts.total_paths);
        assert_eq!(root.goal_paths, counts.goal_paths);
    }

    #[test]
    fn root_stats_match_streaming_tree_stats() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let goal = Goal::degree(synth.degree.clone());
        let e = Explorer::goal_driven(&synth.catalog, start, synth.start + 4, 3, goal).unwrap();
        let tree = e.count_paths();
        let table = UniqueTable::new(0);
        let build = e
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        let root = table.node(build.root);
        assert_eq!(root.stats, tree.stats, "logical stats replay the tree");
        assert_eq!(root.paths, tree.total_paths);
        assert_eq!(root.goal_paths, tree.goal_paths);
    }

    #[test]
    fn budgets_are_enforced_in_both_modes() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let e = small_explorer(&synth, 3);
        let table = UniqueTable::new(0);
        assert_eq!(
            e.build_path_dag(&table, DagBudget::Distinct(2), None)
                .unwrap_err(),
            DagBuildError::Budget { node_budget: 2 }
        );
        let table = UniqueTable::new(0);
        assert_eq!(
            e.build_path_dag(&table, DagBudget::Materialized(3), None)
                .unwrap_err(),
            DagBuildError::Budget { node_budget: 3 }
        );
    }

    #[test]
    fn deadline_aborts_the_build() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let e = small_explorer(&synth, 4);
        let table = UniqueTable::new(0);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert_eq!(
            e.build_path_dag(&table, DagBudget::Unlimited, Some(past))
                .unwrap_err(),
            DagBuildError::Deadline
        );
    }

    #[test]
    fn overlapping_explorations_share_suffix_structure() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let deadline = synth.start + 4;
        let base = Explorer::deadline_driven(&synth.catalog, start, deadline, 2).unwrap();
        let table = UniqueTable::new(0);
        base.build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        let solo = base
            .build_path_dag(&UniqueTable::new(0), DagBudget::Unlimited, None)
            .unwrap();
        // A second exploration over the same catalog with an extra filter
        // re-derives many suffix states; hash-consing shares them.
        let avoid: CourseSet = synth.catalog.courses().take(1).map(|c| c.id()).collect();
        let filtered = Explorer::deadline_driven(&synth.catalog, start, deadline, 2)
            .unwrap()
            .with_filter(std::sync::Arc::new(crate::filter::AvoidCourses(avoid)));
        let before = table.snapshot();
        filtered
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap();
        let after = table.snapshot();
        assert!(
            after.hash_cons_hits > before.hash_cons_hits,
            "the filtered exploration reuses interned suffixes"
        );
        assert!(
            (after.nodes - before.nodes) < solo.order.len() as u64,
            "sharing keeps the union smaller than the sum"
        );
    }
}
