//! The CourseNavigator serving layer: a dependency-light concurrent
//! HTTP/1.1 server over [`NavigatorService`].
//!
//! The paper's system model (§3) puts a web front end in front of the
//! exploration engine; this crate is the boundary between them. Design
//! goals, in order:
//!
//! 1. **Interactivity.** Every engine request (`POST /v1/explore`,
//!    `/v1/advise`, `/v1/whatif`) runs under a wall-clock deadline threaded
//!    into the engine's `ControlFlow` machinery; a slow exploration returns
//!    a partial answer marked `truncated` instead of holding the connection.
//! 2. **Effective caching.** Responses are cached under the request's
//!    *canonical* form (`ExplorationRequest::cache_key`) — reordered course
//!    lists and rescaled ranking weights hit the same entry. Only complete
//!    answers are cached. One level deeper, the [`memo`] registry keeps the
//!    engine's transposition tables alive *across* requests that differ
//!    only in output mode, ranking, budget, or paging.
//! 3. **Bounded everything.** Fixed worker pool, bounded hand-off queue
//!    with 503 load-shedding, capped request bodies, byte-budgeted cache.
//! 4. **One engine run per answer.** Concurrent duplicates of a cold
//!    request coalesce onto a single computation ([`singleflight`]) on
//!    every engine route, and that computation runs the engine's one
//!    sequential path on one pool worker.
//!
//! **One request pipeline.** The private `routes` module holds the router
//! and two drivers. A single buffered driver, generic over a small
//! `Workload` trait that explore, advise and what-if implement, owns
//! admission and the breaker, typed 400s, tenant resolution, the cache,
//! singleflight, the deadline and the `x-cache`/`x-degraded` headers; a
//! single NDJSON driver does the same for `/v1/explore/stream` and
//! `/v1/advise/batch`. The buffered driver's first part — parse, tenant,
//! cache key, cache lookup — runs on the event loop, which answers
//! response-cache hits itself. This file keeps the [`Server`] lifecycle
//! and the metrics and durable snapshots.
//!
//! The complete wire-API reference — every `/v1` route, request/response
//! shapes, typed error codes, and the deprecation policy for the
//! unprefixed aliases (`308` redirects carrying `Deprecation`/`Sunset`
//! headers) — lives in `docs/WIRE_API.md` at the repository root; the
//! golden wire-contract suite (`crates/server/tests/wire_contract.rs`)
//! pins that document route by route.
//!
//! **Durability.** With a snapshot directory configured
//! ([`ServerConfig::snapshot_dir`]), a background thread periodically
//! writes every tenant's warm state — transposition tables and resumable
//! sessions — to an atomic, checksummed snapshot file ([`snapshot`]);
//! [`Server::warm_from`] loads one at startup. Restored state is
//! behaviorally invisible, and a snapshot that fails validation (or
//! mismatches the serving catalog) is rejected whole.
//!
//! **Multi-tenancy.** Each tenant of the [`registry::CatalogRegistry`]
//! serves at a monotonic epoch and owns its own response cache and memo
//! tables, so swapping one tenant's catalog never cools another's. The
//! request's `tenant` field or the `x-tenant` header picks the tenant;
//! neither resolves [`registry::DEFAULT_TENANT`]. Session tokens and
//! singleflight keys carry the `tenant@epoch` scope.
//!
//! **Resumable sessions.** A truncated page carries `next_cursor`, an
//! opaque signed token the [`session`] store resolves back to the engine's
//! serialized DFS frontier; concatenated pages are byte-identical to one
//! unpaged run. Pages bypass the response cache and singleflight.
//!
//! **Threading model.** No async runtime, no HTTP framework. One
//! event-loop thread owns every connection: nonblocking accept, raw
//! `epoll` readiness ([`sys`]), incremental parsing through a
//! per-connection state machine ([`conn`]), and writes as each socket
//! drains. The worker pool ([`pool`]) does *compute only*, so an idle
//! keep-alive connection costs a slab slot, not a parked thread; a
//! response-cache hit costs no worker at all. All
//! idle/408/write-stall deadlines live in one timer wheel ([`timer`]).
//!
//! [`NavigatorService`]: coursenav_navigator::NavigatorService

#![warn(missing_docs)]

/// Runs `$action` when the armed fault plan fires at `$site` — compiled
/// out entirely (no branch, no plan lookup) without the `chaos` feature.
#[cfg(feature = "chaos")]
macro_rules! chaos {
    ($state:expr, $site:expr, $action:block) => {
        if $state.faults.fires($site) $action
    };
}
#[cfg(not(feature = "chaos"))]
macro_rules! chaos {
    ($state:expr, $site:expr, $action:block) => {};
}

pub mod cache;
pub mod conn;
mod event;
pub mod faults;
pub mod http;
pub mod memo;
pub mod metrics;
pub mod overload;
pub mod pool;
pub mod registry;
mod routes;
pub mod session;
pub mod singleflight;
pub mod snapshot;
pub mod sys;
pub mod timer;

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coursenav_registrar::RegistrarData;

pub use memo::MemoRegistrySnapshot;
pub use metrics::MetricsSnapshot;
use metrics::{bump, Metrics};
use overload::Overload;
pub use overload::{OverloadConfig, OverloadSnapshot};
use registry::{CatalogRegistry, DEFAULT_TENANT};
pub use registry::{DagStoreSnapshot, Registered, TenantInfo, TenantSnapshot};
pub use routes::DEPRECATION_SUNSET;
use session::SessionStore;
use singleflight::Singleflight;
pub use snapshot::{RestoreError, RestoreReport, SnapshotStats};

/// Server tuning knobs. `Default` is sized for an interactive deployment.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:8080` (port 0 picks a free port).
    pub addr: String,
    /// Compute worker threads (the event loop owns every connection;
    /// workers only run routed requests).
    pub threads: usize,
    /// Response-cache budget in mebibytes, *per tenant partition* (the
    /// budget is a cap, not an allocation — an idle tenant's cache costs
    /// nothing).
    pub cache_mb: usize,
    /// Dispatched-but-unclaimed compute queue; a request arriving
    /// beyond it is shed with 503 (and under [`ServerConfig::max_connections`]'s
    /// default, connections beyond `threads + queue_depth` shed at
    /// accept — the same admission the bounded hand-off queue enforced
    /// under thread-per-connection).
    pub queue_depth: usize,
    /// Hard cap on concurrently held connections; beyond it, accepts
    /// answer the saturation 503 and close. `None` derives
    /// `threads + queue_depth`, matching the old thread-pool ceiling;
    /// raise it to hold large idle keep-alive populations.
    pub max_connections: Option<usize>,
    /// Byte cap on each streaming response's hand-off buffer between
    /// the compute worker and the event loop. A stalled client blocks
    /// its worker only until the write-stall reaper frees it.
    pub stream_buffer_bytes: usize,
    /// Per-request body cap in bytes.
    pub max_body_bytes: usize,
    /// How long a keep-alive connection may sit idle between requests.
    pub keep_alive: Duration,
    /// Wall-clock budget applied to explorations that do not carry their
    /// own `budget_ms`; `None` lets them run to completion.
    pub default_budget_ms: Option<u64>,
    /// Per-table cap on the cross-request transposition tables that let
    /// different requests over the same exploration tree share subtree
    /// work ([`memo::MemoRegistry`]). `0` disables memoization.
    pub memo_entries: usize,
    /// Per-tenant node cap on the hash-consed path-DAG table that
    /// `/v1/whatif` builds base explorations into. A base DAG that would
    /// outgrow it answers a typed, retryable `413 state-budget` and the
    /// saturated table is retired for a fresh one. The same number bounds
    /// the table's cache of whole what-if answers, which is cleared
    /// wholesale when full. `0` removes both caps.
    pub dag_nodes: usize,
    /// Live resumable sessions kept at once; beyond it, the least
    /// recently minted cursor is evicted (its token answers 410).
    pub session_capacity: usize,
    /// How long an unclaimed cursor stays resumable.
    pub session_ttl: Duration,
    /// Most tenants the registry accepts (the default tenant included);
    /// registering beyond it answers 409. Swaps of existing tenants are
    /// always admitted.
    pub max_tenants: usize,
    /// Where the background snapshotter writes its atomic snapshot file
    /// (and where `POST /v1/snapshot` lands). `None` disables durable
    /// snapshots entirely.
    pub snapshot_dir: Option<PathBuf>,
    /// Cadence of the background snapshotter (ignored when
    /// [`ServerConfig::snapshot_dir`] is `None`).
    pub snapshot_every: Duration,
    /// Degradation-ladder and circuit-breaker tuning.
    pub overload: OverloadConfig,
    /// The armed fault-injection plan (chaos builds only; the disarmed
    /// default never fires).
    #[cfg(feature = "chaos")]
    pub faults: Arc<faults::FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 4,
            cache_mb: 64,
            queue_depth: 64,
            max_connections: None,
            stream_buffer_bytes: 4 << 20,
            max_body_bytes: 1 << 20,
            keep_alive: Duration::from_secs(5),
            default_budget_ms: Some(10_000),
            memo_entries: 1 << 16,
            dag_nodes: 1 << 20,
            session_capacity: 1024,
            session_ttl: Duration::from_secs(300),
            max_tenants: 256,
            snapshot_dir: None,
            snapshot_every: Duration::from_secs(60),
            overload: OverloadConfig::default(),
            #[cfg(feature = "chaos")]
            faults: Arc::new(faults::FaultPlan::disabled()),
        }
    }
}

/// Shared server state: the tenant registry (every catalog and its
/// partitioned caches) plus the cross-tenant serving machinery.
struct AppState {
    registry: CatalogRegistry,
    metrics: Metrics,
    flights: Singleflight,
    sessions: SessionStore,
    overload: Overload,
    snapshots: SnapshotState,
    default_budget_ms: Option<u64>,
    #[cfg(feature = "chaos")]
    faults: Arc<faults::FaultPlan>,
}

/// Durable-snapshot configuration and the `snapshot` block on
/// `/v1/metrics`. Its counters change once per write or restore, so one
/// lock guards them all.
struct SnapshotState {
    /// Where snapshots land; `None` disables the feature.
    dir: Option<PathBuf>,
    stats: parking_lot::Mutex<SnapshotStats>,
}

/// The background snapshotter thread plus its stop signal.
struct Snapshotter {
    stop: Arc<(parking_lot::Mutex<bool>, parking_lot::Condvar)>,
    handle: std::thread::JoinHandle<()>,
}

/// A running server. Dropping it shuts it down gracefully.
///
/// Field order is teardown order: the event loop stops first (closing
/// every connection and stream buffer, which frees any blocked worker
/// and drops its pool handle), then the pool disconnects and joins.
pub struct Server {
    events: event::EventLoop,
    pool: pool::Pool,
    addr: SocketAddr,
    state: Arc<AppState>,
    snapshotter: Option<Snapshotter>,
}

impl Server {
    /// Binds `config.addr`, spawns the acceptor and workers, and starts
    /// serving `data`.
    pub fn start(config: ServerConfig, data: RegistrarData) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Route every partition's memo inserts through the armed fault
        // plan: when `MemoInsertDropped` fires, the store is skipped and
        // the subtree simply gets recomputed next time.
        #[cfg(feature = "chaos")]
        let gate: Option<coursenav_navigator::InsertGate> = {
            let faults = Arc::clone(&config.faults);
            Some(Arc::new(move || {
                !faults.fires(faults::FaultSite::MemoInsertDropped)
            }))
        };
        #[cfg(not(feature = "chaos"))]
        let gate: Option<coursenav_navigator::InsertGate> = None;
        let state = Arc::new(AppState {
            registry: CatalogRegistry::new(
                data,
                config.cache_mb.max(1) * (1 << 20),
                config.memo_entries,
                config.dag_nodes,
                config.max_tenants,
                gate,
            ),
            metrics: Metrics::default(),
            flights: Singleflight::new(),
            sessions: SessionStore::new(config.session_capacity, config.session_ttl),
            overload: Overload::new(config.overload.clone()),
            snapshots: SnapshotState {
                dir: config.snapshot_dir.clone(),
                stats: parking_lot::Mutex::new(SnapshotStats {
                    enabled: config.snapshot_dir.is_some(),
                    ..SnapshotStats::default()
                }),
            },
            default_budget_ms: config.default_budget_ms,
            #[cfg(feature = "chaos")]
            faults: Arc::clone(&config.faults),
        });

        let depth_gauge = state.overload.queue_gauge();
        let pool = pool::spawn(config.threads, Arc::clone(&depth_gauge));
        let hooks = {
            let metrics_accept = Arc::clone(&state);
            let metrics_request = Arc::clone(&state);
            let shed_state = Arc::clone(&state);
            let status_state = Arc::clone(&state);
            let reset_state = Arc::clone(&state);
            #[cfg(feature = "chaos")]
            let tear_state = Arc::clone(&state);
            #[cfg(feature = "chaos")]
            let stall_state = Arc::clone(&state);
            let handle_state = Arc::clone(&state);
            let submitter = pool.handle();
            let queue_depth = config.queue_depth.max(1) as u64;
            event::Hooks {
                on_accept: Box::new(move || bump(&metrics_accept.metrics.connections_accepted)),
                on_request: Box::new(move || bump(&metrics_request.metrics.requests_total)),
                can_dispatch: Box::new(move || depth_gauge.load(Ordering::Relaxed) < queue_depth),
                on_shed: Box::new(move || {
                    // Sheds get their own counter, deliberately *not*
                    // folded into `server_errors`: a shed is load-control
                    // working as designed, and overload dashboards need it
                    // distinguishable from handler failures.
                    bump(&shed_state.metrics.connections_shed);
                    // The advertised retry-after: the breaker's remaining
                    // cooldown when it is open (rounded up), else the
                    // minimum.
                    shed_state
                        .overload
                        .remaining_open()
                        .map(|d| d.as_secs() + u64::from(d.subsec_nanos() > 0))
                        .unwrap_or(1)
                        .max(1)
                }),
                on_status: Box::new(move |status| status_state.metrics.count_status(status)),
                on_reset: Box::new(move || bump(&reset_state.metrics.connections_reset)),
                #[cfg(feature = "chaos")]
                chaos_tear: Box::new(move || {
                    if tear_state.faults.fires(faults::FaultSite::ResetMidWrite) {
                        // Count before the tear goes on the wire: the
                        // moment the peer sees the torn bytes the counter
                        // must already reflect it.
                        bump(&tear_state.metrics.connections_reset);
                        true
                    } else {
                        false
                    }
                }),
                #[cfg(not(feature = "chaos"))]
                chaos_tear: Box::new(|| false),
                #[cfg(feature = "chaos")]
                chaos_stall: Box::new(move || {
                    stall_state.faults.fires(faults::FaultSite::ConnectionStall)
                }),
                #[cfg(not(feature = "chaos"))]
                chaos_stall: Box::new(|| false),
                handle: Box::new(move |request, responder| {
                    routes::handle(&handle_state, &submitter, request, responder)
                }),
            }
        };
        let max_connections = config
            .max_connections
            .unwrap_or(config.threads.max(1) + config.queue_depth.max(1));
        let events = event::EventLoop::spawn(
            listener,
            event::EventConfig {
                max_body: config.max_body_bytes,
                keep_alive: config.keep_alive,
                max_connections,
                stream_buffer: config.stream_buffer_bytes,
            },
            hooks,
            Arc::clone(&state.metrics.event),
        )?;
        // The periodic snapshotter: one thread, woken early by shutdown.
        // It writes on each tick; the first snapshot lands one period in
        // (startup state is exactly what `--warm-from` just restored).
        let snapshotter = config.snapshot_dir.is_some().then(|| {
            let stop = Arc::new((parking_lot::Mutex::new(false), parking_lot::Condvar::new()));
            let thread_stop = Arc::clone(&stop);
            let thread_state = Arc::clone(&state);
            let every = config.snapshot_every.max(Duration::from_millis(10));
            let handle = std::thread::Builder::new()
                .name("snapshotter".into())
                .spawn(move || {
                    let (lock, cv) = &*thread_stop;
                    let mut stopped = lock.lock();
                    loop {
                        cv.wait_for(&mut stopped, every);
                        if *stopped {
                            return;
                        }
                        let _ = write_snapshot_now(&thread_state);
                    }
                })
                .expect("spawn snapshotter thread");
            Snapshotter { stop, handle }
        });
        Ok(Server {
            events,
            pool,
            addr,
            state,
            snapshotter,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time metrics snapshot (what `GET /metrics` serves).
    pub fn metrics(&self) -> MetricsSnapshot {
        full_snapshot(&self.state)
    }

    /// Replaces the **default tenant's** catalog — the single-catalog
    /// reload path. The swap bumps the tenant's epoch and retires its
    /// caches and memo tables; in-flight requests finish against the
    /// partition they resolved. Returns the cached responses retired.
    pub fn swap_catalog(&self, data: RegistrarData) -> u64 {
        self.state
            .registry
            .register(DEFAULT_TENANT, data)
            .expect("the default tenant always exists")
            .dropped_entries
    }

    /// Registers (or hot-swaps) a tenant catalog programmatically — the
    /// in-process spelling of `PUT /v1/catalogs/{tenant}`.
    pub fn register_tenant(
        &self,
        name: &str,
        data: RegistrarData,
    ) -> Result<Registered, registry::RegistryError> {
        self.state.registry.register(name, data)
    }

    /// Registered tenants and their epochs (the in-process spelling of
    /// `GET /v1/catalogs`).
    pub fn tenants(&self) -> Vec<TenantInfo> {
        self.state.registry.list()
    }

    /// Writes a snapshot of every tenant's warm state right now — the
    /// in-process spelling of `POST /v1/snapshot`. Returns the final file
    /// path and its size in bytes; `ErrorKind::Unsupported` when no
    /// snapshot directory is configured.
    pub fn write_snapshot(&self) -> std::io::Result<(PathBuf, u64)> {
        write_snapshot_now(&self.state)
    }

    /// Loads the snapshot in `dir` (if any) and warms this server's
    /// serving state from it: memo tables for every tenant whose
    /// catalog fingerprint and epoch still match, plus the resumable
    /// sessions scoped to those partitions. A missing file is a normal
    /// cold start (`loaded: false`), not an error; a corrupt file rejects
    /// whole. Call before taking traffic — restored state is behaviorally
    /// invisible, but restoring mid-flight would race the snapshotter.
    pub fn warm_from(&self, dir: &Path) -> Result<RestoreReport, RestoreError> {
        let bytes = match std::fs::read(dir.join(snapshot::SNAPSHOT_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(RestoreReport::default());
            }
            Err(e) => return Err(RestoreError::Io(e.to_string())),
        };
        let snap = snapshot::decode(&bytes).map_err(|e| RestoreError::Corrupt(e.to_string()))?;
        let mut report = RestoreReport {
            loaded: true,
            ..RestoreReport::default()
        };
        // Per-tenant acceptance: a partition restores whole or not at all.
        // Accepted scopes gate the session import below — a session's
        // cursor references memoized state that must have come along.
        let mut restored_scopes = Vec::new();
        for tenant in snap.tenants {
            match self.state.registry.restore_partition(
                &tenant.name,
                tenant.epoch,
                tenant.fingerprint,
            ) {
                Ok(partition) => {
                    report.tenants_restored += 1;
                    restored_scopes.push(partition.scope());
                    for table in tenant.tables {
                        report.entries_restored += partition
                            .memo()
                            .import_table(&table.memo_key, table.entries);
                    }
                }
                Err(_) => report.tenants_rejected += 1,
            }
        }
        let mut sessions = snap.sessions;
        sessions
            .entries
            .retain(|rec| restored_scopes.contains(&rec.scope));
        if !sessions.entries.is_empty() {
            report.sessions_restored = self.state.sessions.import(sessions);
        }
        let mut stats = self.state.snapshots.stats.lock();
        stats.restored_tenants += report.tenants_restored;
        stats.rejected_tenants += report.tenants_rejected;
        stats.restored_entries += report.entries_restored;
        stats.restored_sessions += report.sessions_restored;
        Ok(report)
    }

    /// Graceful shutdown: the snapshotter first (so no write races the
    /// teardown), then the event loop (closing every connection and
    /// stream buffer, which unblocks any streaming worker and drops the
    /// loop's pool handle), then the compute pool disconnects and joins.
    pub fn shutdown(mut self) {
        if let Some(snapshotter) = self.snapshotter.take() {
            {
                let (lock, cv) = &*snapshotter.stop;
                *lock.lock() = true;
                cv.notify_all();
            }
            let _ = snapshotter.handle.join();
        }
        self.events.shutdown();
        self.pool.shutdown();
    }

    /// Blocks this thread forever (the CLI's `serve` loop); the server
    /// keeps running on its own threads.
    pub fn block_forever(self) -> ! {
        loop {
            std::thread::park();
        }
    }
}

/// The full `/v1/metrics` payload: process counters plus the registry's
/// aggregated (and per-tenant) cache/memo state.
fn full_snapshot(state: &AppState) -> MetricsSnapshot {
    let (cache, memo) = state.registry.aggregate();
    MetricsSnapshot {
        cache,
        memo,
        sessions: state.sessions.stats(),
        overload: state.overload.snapshot(),
        tenants: state.registry.tenants_snapshot(),
        snapshot: *state.snapshots.stats.lock(),
        unique_table: state.registry.aggregate_dag(),
        invalidate_tenant_requests: state.registry.tenant_invalidations(),
        invalidate_global_requests: state.registry.global_invalidations(),
        ..state.metrics.snapshot()
    }
}

/// Collects every tenant partition's warm state plus the session store
/// into one serializable [`snapshot::SnapshotFile`].
fn collect_snapshot(state: &AppState) -> snapshot::SnapshotFile {
    let tenants = state
        .registry
        .partitions()
        .into_iter()
        .map(|partition| snapshot::TenantRecord {
            name: partition.name().to_string(),
            epoch: partition.epoch(),
            fingerprint: snapshot::catalog_fingerprint(partition.data()),
            tables: partition
                .memo()
                .export_tables()
                .into_iter()
                .map(|(memo_key, entries)| snapshot::TableRecord { memo_key, entries })
                .collect(),
        })
        .collect();
    snapshot::SnapshotFile {
        tenants,
        sessions: state.sessions.export(),
    }
}

/// Encodes and atomically writes one snapshot, keeping the counters on
/// [`SnapshotState`] truthful either way. `ErrorKind::Unsupported` when no
/// snapshot directory is configured.
fn write_snapshot_now(state: &AppState) -> std::io::Result<(PathBuf, u64)> {
    let Some(dir) = state.snapshots.dir.clone() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "no snapshot directory configured",
        ));
    };
    let t0 = Instant::now();
    let bytes = snapshot::encode(&collect_snapshot(state));
    // The chaos tear: persist half the temp file, then fail — exactly the
    // on-disk state a mid-write crash leaves. The rename never happens, so
    // a restart sees the previous complete snapshot or none.
    #[cfg(feature = "chaos")]
    let tear = state
        .faults
        .fires(faults::FaultSite::SnapshotWriteTorn)
        .then_some(bytes.len() / 2);
    #[cfg(not(feature = "chaos"))]
    let tear = None;
    let written = snapshot::write_atomic(&dir, &bytes, tear);
    let mut stats = state.snapshots.stats.lock();
    match written {
        Ok(path) => {
            stats.writes += 1;
            stats.last_write_bytes = bytes.len() as u64;
            stats.last_write_ms = t0.elapsed().as_millis() as u64;
            Ok((path, bytes.len() as u64))
        }
        Err(e) => {
            stats.write_errors += 1;
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coursenav_registrar::brandeis_cs;

    fn tiny_server(config: ServerConfig) -> Server {
        Server::start(config, brandeis_cs()).expect("bind loopback")
    }

    #[test]
    fn starts_on_an_ephemeral_port_and_shuts_down() {
        let server = tiny_server(ServerConfig::default());
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0, "port 0 resolves to a real port");
        server.shutdown();
    }

    #[test]
    fn swap_catalog_invalidates_the_default_tenant() {
        let server = tiny_server(ServerConfig::default());
        let tenant = server.state.registry.get(DEFAULT_TENANT).expect("default");
        tenant.cache().put("k", b"v");
        assert_eq!(server.swap_catalog(brandeis_cs()), 1);
        assert_eq!(server.metrics().cache.entries, 0);
        // The swap bumped the default tenant's epoch past the seed's 1.
        let infos = server.tenants();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].epoch, 2);
        server.shutdown();
    }
}
