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
//! globally), an intern index per shard maps structural hashes to arena
//! indices, and a shared pair-keyed apply cache memoizes `crate::apply`
//! operations across calls. The table is `Sync`: the serving pool's
//! workers share one per tenant, exactly like the transposition table.
//!
//! Each shard is three flat vectors under one `RwLock`, so a walk over the
//! DAG reads contiguous memory instead of chasing one heap object per node:
//!
//! - *node records*: anchor, kind tag, `floor_skipped`, the subtree
//!   summaries, and the node's range in the edge arena;
//! - the *edge arena*: 8-byte `(selection id, child)` pairs, each node's
//!   edges contiguous and in enumeration order;
//! - the *selection pool*: every distinct selection of the shard's edges
//!   once, with its summed workload. A selection's load is a pure function
//!   of the selection (`Restriction::load`), so it is stored once per
//!   shard rather than once per edge.
//!
//! The six terminal sentinels (every [`LeafKind`], every [`PruneReason`],
//! and the empty set) are interned when the table is created, at fixed ids:
//! interning a terminal returns its id without hashing or locking.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

use coursenav_catalog::{Catalog, CourseSet};
use serde::{Deserialize, Serialize};

use crate::apply::Restriction;
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

/// The shared terminal kinds, pre-interned in this order at the head of
/// shard 0 by [`UniqueTable::new`].
const TERMINALS: [Tag; 6] = [
    Tag::Leaf(LeafKind::Deadline),
    Tag::Leaf(LeafKind::Goal),
    Tag::Leaf(LeafKind::DeadEnd),
    Tag::Pruned(PruneReason::Time),
    Tag::Pruned(PruneReason::Availability),
    Tag::Empty,
];

/// End of an intern-index collision chain.
const NO_NODE: u32 = u32::MAX;

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

/// One interned node, read back out of the arena by [`UniqueTable::node`]:
/// identity (the interior's edges materialized with their selections) plus
/// the derived subtree summaries. An owned copy — walks on the serving path
/// read the arena in place instead.
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

/// A node record's kind, without the interior's edges (those live in the
/// shard's edge arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    Leaf(LeafKind),
    Pruned(PruneReason),
    Empty,
    Interior,
}

impl Tag {
    fn of(kind: &DagNodeKind) -> Tag {
        match kind {
            DagNodeKind::Leaf(k) => Tag::Leaf(*k),
            DagNodeKind::Pruned(r) => Tag::Pruned(*r),
            DagNodeKind::Empty => Tag::Empty,
            DagNodeKind::Interior { .. } => Tag::Interior,
        }
    }
}

/// The id of a pre-interned terminal sentinel (`tag` is not `Interior`).
pub(crate) fn terminal_id(tag: Tag) -> DagNodeId {
    let slot = TERMINALS
        .iter()
        .position(|&t| t == tag)
        .expect("terminal tags only");
    DagNodeId::new(0, slot)
}

/// A subtree's two path counts plus the four logical tree counters an
/// interned node can carry. The transposition-table counters of
/// [`ExploreStats`] are zero on every interned node, so they are not
/// stored; the whole summary packs into one cache line, which is also the
/// unit the counting fold memoizes (`crate::apply`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Counts {
    pub(crate) paths: u128,
    pub(crate) goal_paths: u128,
    pub(crate) nodes_expanded: u64,
    pub(crate) edges_created: u64,
    pub(crate) pruned_time: u64,
    pub(crate) pruned_availability: u64,
}

impl Counts {
    #[inline]
    pub(crate) fn merge(&mut self, sub: &Counts) {
        self.paths += sub.paths;
        self.goal_paths += sub.goal_paths;
        self.nodes_expanded += sub.nodes_expanded;
        self.edges_created += sub.edges_created;
        self.pruned_time += sub.pruned_time;
        self.pruned_availability += sub.pruned_availability;
    }

    pub(crate) fn stats(&self) -> ExploreStats {
        ExploreStats {
            nodes_expanded: self.nodes_expanded,
            edges_created: self.edges_created,
            pruned_time: self.pruned_time,
            pruned_availability: self.pruned_availability,
            ..ExploreStats::default()
        }
    }

    pub(crate) fn into_fold(self) -> FoldCounts {
        (self.paths, self.goal_paths, self.stats())
    }
}

/// One node in a shard's arena. `Copy`, so walks that intern can take
/// the record out from under the shard lock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeRec {
    pub(crate) counts: Counts,
    pub(crate) support: CourseSet,
    pub(crate) completed: CourseSet,
    pub(crate) max_load: f64,
    pub(crate) floor_skipped: u64,
    pub(crate) semester: i32,
    pub(crate) tag: Tag,
    /// The node's edges: `edges[edges_start..edges_start + edges_len]` of
    /// its shard's arena.
    edges_start: u32,
    edges_len: u32,
}

/// One entry of a shard's selection pool.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Selection {
    pub(crate) set: CourseSet,
    /// Summed workload of `set` ([`Restriction::load`]), or NaN while no
    /// intern that pooled it had a catalog in scope (set-algebra results).
    load: f64,
}

impl Selection {
    /// The selection's summed workload, from the pool when known.
    #[inline]
    pub(crate) fn load(&self, catalog: &Catalog) -> f64 {
        if self.load.is_nan() {
            Restriction::load(catalog, &self.set)
        } else {
            self.load
        }
    }
}

#[derive(Default)]
struct Shard {
    nodes: Vec<NodeRec>,
    /// `(selection id, child)` pairs; each node's edges are contiguous.
    edges: Vec<(u32, DagNodeId)>,
    /// Distinct selections of this shard's edges.
    pool: Vec<Selection>,
    pool_index: FxMap<CourseSet, u32>,
    /// Structural hash → newest interior arena index with that hash;
    /// older ones with the same hash follow through `chain`. Terminals are
    /// not indexed: `intern` answers them by tag.
    index: FxMap<u64, u32>,
    /// Parallel to `nodes`: the next-older arena index in the same
    /// collision chain, or [`NO_NODE`].
    chain: Vec<u32>,
}

impl Shard {
    fn node(&self, index: usize) -> NodeRef<'_> {
        NodeRef {
            rec: &self.nodes[index],
            shard: self,
        }
    }

    /// The arena index of the interior node structurally equal to
    /// `(semester, completed, edges, floor_skipped)`, if resident.
    fn find(
        &self,
        hash: u64,
        semester: i32,
        completed: &CourseSet,
        edges: &[(CourseSet, DagNodeId)],
        floor_skipped: u64,
    ) -> Option<u32> {
        let mut cand = self.index.get(&hash).copied().unwrap_or(NO_NODE);
        while cand != NO_NODE {
            let node = self.node(cand as usize);
            let rec = node.rec;
            if rec.semester == semester
                && rec.completed == *completed
                && rec.floor_skipped == floor_skipped
                && node.edges().len() == edges.len()
                && node
                    .edges()
                    .iter()
                    .zip(edges)
                    .all(|(&(sel, child), (set, want))| {
                        child == *want && self.pool[sel as usize].set == *set
                    })
            {
                return Some(cand);
            }
            cand = self.chain[cand as usize];
        }
        None
    }

    /// Appends a node record, pooling its selections.
    fn push(
        &mut self,
        hash: u64,
        mut rec: NodeRec,
        edges: &[(CourseSet, DagNodeId)],
        catalog: Option<&Catalog>,
    ) -> u32 {
        rec.edges_start = self.edges.len() as u32;
        rec.edges_len = edges.len() as u32;
        for (set, child) in edges {
            let sel = match self.pool_index.get(set) {
                Some(&sel) => {
                    let pooled = &mut self.pool[sel as usize];
                    if pooled.load.is_nan() {
                        if let Some(catalog) = catalog {
                            pooled.load = Restriction::load(catalog, set);
                        }
                    }
                    sel
                }
                None => {
                    let sel = self.pool.len() as u32;
                    self.pool.push(Selection {
                        set: *set,
                        load: catalog.map_or(f64::NAN, |c| Restriction::load(c, set)),
                    });
                    self.pool_index.insert(*set, sel);
                    sel
                }
            };
            self.edges.push((sel, *child));
        }
        let index = self.nodes.len() as u32;
        self.nodes.push(rec);
        self.chain
            .push(self.index.insert(hash, index).unwrap_or(NO_NODE));
        index
    }
}

/// One node read in place: its record plus its shard's edge arena and
/// selection pool.
#[derive(Clone, Copy)]
pub(crate) struct NodeRef<'a> {
    pub(crate) rec: &'a NodeRec,
    shard: &'a Shard,
}

impl<'a> NodeRef<'a> {
    /// `(selection id, child)` in enumeration order; resolve the id with
    /// [`NodeRef::selection`]. Empty on terminals.
    #[inline]
    pub(crate) fn edges(&self) -> &'a [(u32, DagNodeId)] {
        let start = self.rec.edges_start as usize;
        &self.shard.edges[start..start + self.rec.edges_len as usize]
    }

    /// A pooled selection of this node's shard.
    #[inline]
    pub(crate) fn selection(&self, sel: u32) -> &'a Selection {
        &self.shard.pool[sel as usize]
    }

    /// The edges with their selections resolved, copied out (for walks
    /// that intern, and so must not hold the shard lock).
    pub(crate) fn edge_list(&self) -> Vec<(CourseSet, DagNodeId)> {
        self.edges()
            .iter()
            .map(|&(sel, child)| (self.selection(sel).set, child))
            .collect()
    }
}

/// See [`UniqueTable::view`].
pub(crate) struct NodeView<'a> {
    guards: Vec<RwLockReadGuard<'a, Shard>>,
}

impl NodeView<'_> {
    #[inline]
    pub(crate) fn node(&self, id: DagNodeId) -> NodeRef<'_> {
        self.guards[id.shard()].node(id.index())
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
    /// Nodes resident in the arenas, not counting the pre-interned
    /// terminal sentinels.
    pub nodes: u64,
    /// Cached exploration roots (one per distinct request frame).
    pub roots: u64,
    /// Intern requests answered by an existing node (hash-cons hits,
    /// terminal sentinels included).
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
    /// Cleared wholesale when it reaches `capacity` entries.
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
    /// A table sized for `capacity` nodes (0 = unlimited). The what-if
    /// service bounds each base build by it, and the whole-fold cache never
    /// holds more than `capacity` entries.
    pub fn new(capacity: usize) -> UniqueTable {
        let mut terminals = Shard::default();
        for tag in TERMINALS {
            let mut stats = ExploreStats::default();
            let (paths, goal_paths) = match tag {
                Tag::Leaf(k) => (1, u128::from(k == LeafKind::Goal)),
                Tag::Pruned(reason) => {
                    record_prune(&mut stats, reason);
                    (0, 0)
                }
                Tag::Empty | Tag::Interior => (0, 0),
            };
            terminals.nodes.push(NodeRec {
                counts: Counts {
                    paths,
                    goal_paths,
                    nodes_expanded: stats.nodes_expanded,
                    edges_created: stats.edges_created,
                    pruned_time: stats.pruned_time,
                    pruned_availability: stats.pruned_availability,
                },
                support: CourseSet::EMPTY,
                completed: CourseSet::EMPTY,
                max_load: 0.0,
                floor_skipped: 0,
                semester: TERMINAL_SEMESTER,
                tag,
                edges_start: 0,
                edges_len: 0,
            });
            // Terminals never enter the intern index: `intern` answers
            // them by tag before hashing.
            terminals.chain.push(NO_NODE);
        }
        let mut shards = vec![RwLock::new(terminals)];
        shards.extend((1..SHARDS).map(|_| RwLock::new(Shard::default())));
        UniqueTable {
            shards,
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

    /// The node capacity this table was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident node count across all shards, not counting the
    /// pre-interned terminal sentinels.
    pub fn len(&self) -> usize {
        let resident: usize = self
            .shards
            .iter()
            .map(|s| s.read().expect("unique shard poisoned").nodes.len())
            .sum();
        resident - TERMINALS.len()
    }

    /// Whether the table holds no node besides the terminal sentinels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads one node in place under its shard's read lock. `read` must
    /// not intern or take another shard lock: the lock order of
    /// [`UniqueTable::view`] is what keeps readers deadlock-free.
    pub(crate) fn with_node<R>(&self, id: DagNodeId, read: impl FnOnce(NodeRef<'_>) -> R) -> R {
        let shard = self.shards[id.shard()]
            .read()
            .expect("unique shard poisoned");
        read(shard.node(id.index()))
    }

    /// Reads a node back out of the arena, edges materialized. Panics on a
    /// foreign or stale id — ids never escape the table that issued them.
    pub fn node(&self, id: DagNodeId) -> DagNode {
        self.with_node(id, |node| {
            let rec = node.rec;
            let kind = match rec.tag {
                Tag::Leaf(k) => DagNodeKind::Leaf(k),
                Tag::Pruned(r) => DagNodeKind::Pruned(r),
                Tag::Empty => DagNodeKind::Empty,
                Tag::Interior => DagNodeKind::Interior {
                    edges: node.edge_list(),
                    floor_skipped: rec.floor_skipped,
                },
            };
            DagNode {
                semester: rec.semester,
                completed: rec.completed,
                kind,
                paths: rec.counts.paths,
                goal_paths: rec.counts.goal_paths,
                stats: rec.counts.stats(),
                support: rec.support,
                max_load: rec.max_load,
            }
        })
    }

    /// A read-locked view of every shard at once, taken in shard order:
    /// node access without per-node lock traffic, for walks that never
    /// intern (the counting fold). Interning threads block until the view
    /// drops; concurrent readers are unaffected.
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
    /// who interns it. `catalog` prices the node's own selections for the
    /// workload bound and the selection pool; pass `None` when no catalog
    /// is in scope — the node's [`DagNode::max_load`] bound then degrades
    /// to `∞`, the conservative "unknown".
    ///
    /// Terminal kinds ignore the anchor arguments: every state ending in
    /// the same [`DagNodeKind`] shares one pre-interned sentinel, the BDD
    /// terminal rule, returned without hashing or locking.
    pub fn intern(
        &self,
        semester: i32,
        completed: CourseSet,
        kind: DagNodeKind,
        catalog: Option<&Catalog>,
    ) -> DagNodeId {
        let tag = Tag::of(&kind);
        if tag != Tag::Interior {
            self.hash_cons_hits.fetch_add(1, Ordering::Relaxed);
            return terminal_id(tag);
        }
        let hash = node_hash(semester, &completed, &kind);
        let DagNodeKind::Interior {
            edges,
            floor_skipped,
        } = kind
        else {
            unreachable!("terminals returned above");
        };
        let shard_idx = (hash as usize) & (SHARDS - 1);
        // Probe first: a hit (the common case on a warm table) pays for
        // neither the summary nor the write lock.
        let seen = {
            let shard = self.shards[shard_idx]
                .read()
                .expect("unique shard poisoned");
            if let Some(index) = shard.find(hash, semester, &completed, &edges, floor_skipped) {
                self.hash_cons_hits.fetch_add(1, Ordering::Relaxed);
                return DagNodeId::new(shard_idx, index as usize);
            }
            shard.nodes.len()
        };
        let rec = self.summarize(semester, completed, &edges, floor_skipped, catalog);
        let mut shard = self.shards[shard_idx]
            .write()
            .expect("unique shard poisoned");
        // Arenas are append-only, so only nodes added since the probe can
        // match now.
        if shard.nodes.len() != seen {
            if let Some(index) = shard.find(hash, semester, &completed, &edges, floor_skipped) {
                self.hash_cons_hits.fetch_add(1, Ordering::Relaxed);
                return DagNodeId::new(shard_idx, index as usize);
            }
        }
        let index = shard.push(hash, rec, &edges, catalog);
        self.interned.fetch_add(1, Ordering::Relaxed);
        DagNodeId::new(shard_idx, index as usize)
    }

    /// The record of an interior node with these edges (edge range unset).
    fn summarize(
        &self,
        semester: i32,
        completed: CourseSet,
        edges: &[(CourseSet, DagNodeId)],
        floor_skipped: u64,
        catalog: Option<&Catalog>,
    ) -> NodeRec {
        let mut counts = Counts {
            nodes_expanded: 1,
            pruned_time: floor_skipped,
            ..Counts::default()
        };
        let mut support = CourseSet::EMPTY;
        // Without a catalog to price the selections the bound degrades to
        // ∞ ("a finite cap might veto something here").
        let mut max_load = match catalog {
            Some(catalog) => edges
                .iter()
                .map(|(selection, _)| Restriction::load(catalog, selection))
                .fold(0.0f64, f64::max),
            None => f64::INFINITY,
        };
        for (selection, child) in edges {
            let (child_counts, child_support, child_max_load) =
                self.with_node(*child, |c| (c.rec.counts, c.rec.support, c.rec.max_load));
            counts.edges_created += 1;
            counts.merge(&child_counts);
            support.union_with(selection);
            support.union_with(&child_support);
            max_load = max_load.max(child_max_load);
        }
        NodeRec {
            counts,
            support,
            completed,
            max_load,
            floor_skipped,
            semester,
            tag: Tag::Interior,
            edges_start: 0,
            edges_len: 0,
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

    /// Caches a whole-fold result. Folds intern nothing, so the node budget
    /// never sees them; the cache is bounded on its own, cleared wholesale
    /// once it holds `capacity` entries.
    pub(crate) fn fold_put(&self, key: ApplyKey, value: FoldCounts) {
        let mut folds = self.folds.lock().expect("fold cache poisoned");
        if self.capacity != 0 && folds.len() >= self.capacity {
            folds.clear();
        }
        folds.insert(key, value);
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
                let id = table.intern(key.0, key.1, DagNodeKind::Leaf(kind), None);
                ctx.order.push((id, status));
                id
            }
            Disposition::Pruned(reason) => {
                record_prune(&mut ctx.stats, reason);
                table.intern(key.0, key.1, DagNodeKind::Pruned(reason), None)
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
                let mut floor_skipped = 0u64;
                for selection in iter {
                    if selection.len() < min_selection {
                        floor_skipped += 1;
                        continue;
                    }
                    if !self.selection_allowed(&status, &selection) {
                        continue;
                    }
                    let child = status.advance(self.catalog(), &selection);
                    let child_id = self.dag_node(child, pruner, table, ctx, budget, deadline)?;
                    edges.push((selection, child_id));
                }
                self.check_materialized(ctx, budget)?;
                ctx.materialized += 1;
                let kind = if edges.is_empty() && floor_skipped == 0 {
                    // Filters vetoed every selection: dead-end leaf, exactly
                    // as re-exploration classifies it.
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
                let id = table.intern(key.0, key.1, kind, Some(self.catalog()));
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
    use coursenav_catalog::{CourseId, SyntheticCatalog, SyntheticConfig};
    use proptest::prelude::*;

    use crate::apply::SetOp;
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

    fn kind_of(tag: Tag) -> DagNodeKind {
        match tag {
            Tag::Leaf(k) => DagNodeKind::Leaf(k),
            Tag::Pruned(r) => DagNodeKind::Pruned(r),
            Tag::Empty => DagNodeKind::Empty,
            Tag::Interior => unreachable!("terminal tags only"),
        }
    }

    #[test]
    fn terminals_are_preinterned_sentinels() {
        let table = UniqueTable::new(0);
        assert!(table.is_empty(), "sentinels are not counted as nodes");
        let anchor: CourseSet = [CourseId::new(1)].into_iter().collect();
        for tag in TERMINALS {
            let id = table.intern(3, anchor, kind_of(tag), None);
            assert_eq!(id, terminal_id(tag));
            let node = table.node(id);
            assert_eq!(node.kind, kind_of(tag));
            assert_eq!(
                node.semester, TERMINAL_SEMESTER,
                "terminals are anchor-free"
            );
            assert_eq!(node.completed, CourseSet::EMPTY);
        }
        let goal = table.node(terminal_id(Tag::Leaf(LeafKind::Goal)));
        assert_eq!((goal.paths, goal.goal_paths), (1, 1));
        let pruned = table.node(terminal_id(Tag::Pruned(PruneReason::Availability)));
        assert_eq!((pruned.paths, pruned.stats.pruned_availability), (0, 1));
        let snap = table.snapshot();
        assert_eq!(
            (snap.hash_cons_hits, snap.interned, snap.nodes),
            (TERMINALS.len() as u64, 0, 0),
            "terminal interns count as hash-cons hits and create nothing"
        );
    }

    #[test]
    fn fold_cache_is_bounded_by_capacity() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let e = small_explorer(&synth, 4);
        let capacity = 4;
        let table = UniqueTable::new(capacity);
        let root = e
            .build_path_dag(&table, DagBudget::Unlimited, None)
            .unwrap()
            .root;
        let reference = UniqueTable::new(0);
        let reference_root = e
            .build_path_dag(&reference, DagBudget::Unlimited, None)
            .unwrap()
            .root;
        let mut most = 0;
        for k in 0..capacity + 7 {
            let restriction = Restriction {
                avoid: CourseSet::EMPTY,
                max_workload: Some(6.0 + k as f64),
            };
            let none = CourseSet::EMPTY;
            let want = reference.whatif_counts_uncached(
                reference_root,
                &synth.catalog,
                &restriction,
                &none,
                &none,
            );
            for _ in 0..2 {
                let got = table.whatif_counts(root, &synth.catalog, &restriction, &none, &none);
                assert_eq!(got, want, "cap {k}: answers do not depend on the cache");
            }
            let entries = table.folds.lock().unwrap().len();
            assert!(
                entries <= capacity,
                "{entries} fold entries > capacity {capacity}"
            );
            most = most.max(entries);
        }
        assert_eq!(most, capacity, "the cache fills up to its capacity");
    }

    /// Every node in `table`, by id.
    fn all_ids(table: &UniqueTable) -> Vec<DagNodeId> {
        let view = table.view();
        view.guards
            .iter()
            .enumerate()
            .flat_map(|(shard, g)| (0..g.nodes.len()).map(move |i| DagNodeId::new(shard, i)))
            .collect()
    }

    /// The arena invariants over a whole table: every node reads back as
    /// something that re-interns to itself, and each shard's pool holds
    /// each selection once, priced exactly as `Restriction::load` prices it.
    fn check_arena(table: &UniqueTable, catalog: &Catalog) -> Result<(), TestCaseError> {
        for id in all_ids(table) {
            let node = table.node(id);
            if let DagNodeKind::Interior { edges, .. } = &node.kind {
                let again = table.intern(node.semester, node.completed, node.kind.clone(), None);
                prop_assert_eq!(again, id, "{:?} re-interns to another node", edges);
            }
        }
        for (s, shard) in table.shards.iter().enumerate() {
            let shard = shard.read().unwrap();
            let distinct: std::collections::HashSet<CourseSet> =
                shard.pool.iter().map(|sel| sel.set).collect();
            prop_assert_eq!(
                distinct.len(),
                shard.pool.len(),
                "shard {} pools a selection twice",
                s
            );
            prop_assert_eq!(shard.pool_index.len(), shard.pool.len());
            for (i, sel) in shard.pool.iter().enumerate() {
                prop_assert_eq!(shard.pool_index.get(&sel.set).copied(), Some(i as u32));
                if !sel.load.is_nan() {
                    prop_assert_eq!(
                        sel.load.to_bits(),
                        Restriction::load(catalog, &sel.set).to_bits()
                    );
                }
                prop_assert_eq!(
                    sel.load(catalog).to_bits(),
                    Restriction::load(catalog, &sel.set).to_bits()
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn arena_round_trips(
            bases in prop::collection::vec((2i32..5, 1usize..3, any::<bool>()), 1..3),
            ops in prop::collection::vec((0u8..4, 0usize..12, 0usize..12, prop::option::of(6.0f64..30.0)), 1..6),
            direct in prop::collection::vec(
                (0i32..8, 0usize..12, prop::collection::vec((0usize..12, 0usize..12, 0usize..64), 0..4), 0u64..3, any::<bool>()),
                0..6,
            ),
        ) {
            let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
            let catalog = &synth.catalog;
            let course = |i: usize| catalog.courses().nth(i % catalog.len()).unwrap().id();
            let start = EnrollmentStatus::fresh(catalog, synth.start);
            let table = UniqueTable::new(0);
            let mut roots = Vec::new();
            for &(horizon, m, goal) in &bases {
                let e = if goal {
                    Explorer::goal_driven(catalog, start, synth.start + horizon, m, Goal::degree(synth.degree.clone()))
                } else {
                    Explorer::deadline_driven(catalog, start, synth.start + horizon, m)
                }
                .unwrap();
                roots.push(e.build_path_dag(&table, DagBudget::Unlimited, None).unwrap().root);
            }
            let root = roots[0];
            for &(op, a, b, cap) in &ops {
                let restriction = |c: usize| Restriction {
                    avoid: [course(c)].into_iter().collect(),
                    max_workload: cap,
                };
                match op {
                    0 => roots.push(table.restrict(root, catalog, &restriction(a))),
                    1 => {
                        let want = [course(a), course(b)].into_iter().collect();
                        roots.push(table.through(root, catalog, &CourseSet::EMPTY, want));
                    }
                    _ => {
                        let x = table.restrict(root, catalog, &restriction(a));
                        let y = table.restrict(root, catalog, &restriction(b));
                        let set_op = if op == 2 { SetOp::Intersect } else { SetOp::Diff };
                        roots.push(table.set_apply(set_op, x, y).unwrap());
                    }
                }
            }
            // Nodes interned directly, selections and children drawn at
            // random, some priced and some not.
            let mut interned = Vec::new();
            for (semester, c, edges, floor_skipped, priced) in &direct {
                let edges: Vec<(CourseSet, DagNodeId)> = edges
                    .iter()
                    .map(|&(x, y, child)| {
                        ([course(x), course(y)].into_iter().collect(), roots[child % roots.len()])
                    })
                    .collect();
                let kind = DagNodeKind::Interior { edges, floor_skipped: *floor_skipped };
                let completed: CourseSet = [course(*c)].into_iter().collect();
                let id = table.intern(*semester, completed, kind.clone(), priced.then_some(catalog));
                interned.push((id, *semester, completed, kind));
            }
            for (id, semester, completed, kind) in &interned {
                let node = table.node(*id);
                prop_assert_eq!((node.semester, node.completed), (*semester, *completed));
                prop_assert_eq!(&node.kind, kind, "node() returns the interned kind");
            }
            check_arena(&table, catalog)?;
        }
    }
}
