//! The buffered request pipeline: one driver, generic over [`Workload`],
//! serves `POST /v1/explore`, `/v1/advise` and `/v1/whatif`.
//!
//! The driver alone owns every step the three routes share — admission
//! and the breaker, the typed 400s, tenant resolution, degradation, the
//! response cache (with the leader's second lookup and put-before-publish),
//! singleflight, the deadline, the chaos compute sites, and the `x-cache`
//! / `x-degraded` headers. A workload only says how to parse, validate,
//! key, compute and page itself.
//!
//! The driver runs in two parts: [`probe`] on the event loop, up to the
//! cache lookup, and a [`Remainder`] on a compute worker for anything the
//! probe did not answer. A miss is admitted only when the worker picks it
//! up, so the queue gauge, the breaker and the ladder see the load they
//! always saw.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use coursenav_navigator::{
    AdviseOutcome, AdviseRequest, ExplorationCursor, ExplorationRequest, ExplorationResponse,
    ExploreError, PageOutcome, PageSink, ServiceError, WhatIfRequest, WhatIfServed,
};

use super::{degrade, parse_body, resolve_tenant, to_json, Body, Engine};
use crate::http::{Request, Response};
use crate::metrics::{bump, Metrics, RouteCounters};
use crate::overload::Admission;
use crate::registry::Tenant;
use crate::singleflight::{Published, Role};
use crate::AppState;

/// One buffered engine workload, as the driver sees it.
pub(super) trait Workload: Body + Send + 'static {
    /// The route's request/cache/compute/coalesce counters.
    fn counters(metrics: &Metrics) -> &RouteCounters;
    /// Refusals that need the resolved tenant (the transcript check).
    fn validate(&self, _tenant: &Tenant) -> Result<(), Response> {
        Ok(())
    }
    /// Clamps the budget and page size to the admitted level's caps.
    fn degrade(&mut self, budget_cap_ms: u64, page_cap: usize);
    /// The request's own wall-clock budget.
    fn budget_ms(&self) -> Option<u64>;
    /// Whether the request is a resumable page: pages are single-use, so
    /// they bypass the response cache and singleflight.
    fn paged(&self) -> bool;
    /// The response-cache (and singleflight) key. It masks the budget
    /// and page size, so degradation never changes it.
    fn cache_key(&self) -> String;
    /// Runs the engine for an unpaged request: the serialized answer and
    /// whether it is complete (only complete answers are cached; a
    /// truncated one reflects this request's deadline, not the answer).
    fn compute(&self, engine: &Engine) -> Result<(String, bool), Response>;
    /// Serves one page of a resumable request, minting its next cursor.
    fn page(&self, engine: &Engine) -> Result<String, Response>;
}

/// What the loop-side [`probe`] made of one buffered engine request.
pub(super) enum Probe {
    /// A response-cache hit, already admitted and stamped.
    Hit(Response),
    /// Work for a compute worker.
    Miss(Remainder),
}

/// The worker-side rest of the driver for a request the probe did not
/// answer.
pub(super) type Remainder = Box<dyn FnOnce(&AppState) -> Response + Send>;

/// A request as the probe left it: parsed, on its resolved tenant,
/// validated, and keyed when unpaged.
struct Parsed<W> {
    req: W,
    tenant: Arc<Tenant>,
    /// The response-cache key; `None` for a resumable page.
    key: Option<String>,
}

/// The loop-side part of the driver: parse, resolve, validate, key, and
/// answer a response-cache hit. A refusal (bad body, unknown tenant, bad
/// transcript) is not answered here: it rides the [`Remainder`] to the
/// worker, which answers it after admission, exactly as before the split.
pub(super) fn probe<W: Workload>(state: &AppState, request: &Request) -> Probe {
    chaos!(state, crate::faults::FaultSite::PanicInProbe, {
        panic!("chaos: panic in the loop-side probe");
    });
    let counters = W::counters(&state.metrics);
    bump(&counters.requests);
    let parsed = parse::<W>(state, request);
    if let Ok(Parsed {
        tenant,
        key: Some(key),
        ..
    }) = &parsed
    {
        if let Some(cached) = tenant.cache().get(key) {
            return Probe::Hit(admitted(state, |_| {
                Ok(with_x_cache(hit(counters, &cached), "hit"))
            }));
        }
    }
    Probe::Miss(Box::new(move |state| finish(state, parsed)))
}

/// Decodes the body, resolves the tenant, validates, and keys an unpaged
/// request; `Err` is the ready-to-send refusal.
fn parse<W: Workload>(state: &AppState, request: &Request) -> Result<Parsed<W>, Response> {
    let req: W = parse_body(request)?;
    let tenant = resolve_tenant(state, request, req.tenant())?;
    req.validate(&tenant)?;
    let key = (!req.paged()).then(|| req.cache_key());
    Ok(Parsed { req, tenant, key })
}

/// The worker-side remainder: admission, degradation, then the
/// resumable-page path or the singleflight → compute chain.
fn finish<W: Workload>(state: &AppState, parsed: Result<Parsed<W>, Response>) -> Response {
    admitted(state, |level| {
        let Parsed {
            mut req,
            tenant,
            key,
        } = parsed?;
        degrade(state, &mut req, level);
        Ok(match key {
            Some(key) => cached_or_computed(state, &tenant, &req, &key),
            None => {
                let engine = Engine::new(state, &tenant, req.budget_ms());
                match req.page(&engine) {
                    Ok(json) => with_x_cache(Response::json(200, json), "bypass"),
                    Err(resp) => resp,
                }
            }
        })
    })
}

/// Runs `serve` at the admitted degradation level. The breaker answers a
/// fast typed 503 with `Retry-After` when open. An `Ok` answer is
/// observed by the overload controller and stamped `x-degraded: <level>`
/// below full fidelity; an `Err` is a refusal before the engine (bad
/// body, unknown tenant, bad transcript), never observed.
fn admitted(state: &AppState, serve: impl FnOnce(u8) -> Result<Response, Response>) -> Response {
    let (level, probe) = match state.overload.admit() {
        Admission::Reject { retry_after } => return Response::overloaded(retry_after),
        Admission::Go { level, probe } => (level, probe),
    };
    let t0 = Instant::now();
    let mut resp = match serve(level) {
        Ok(resp) => resp,
        Err(refusal) => return refusal,
    };
    state
        .overload
        .observe(t0.elapsed(), resp.status < 500, probe);
    if level > 0 {
        resp.extra_headers
            .push(("x-degraded".into(), level.to_string()));
    }
    resp
}

/// A response-cache hit's 200, counted on the route.
fn hit(counters: &RouteCounters, cached: &[u8]) -> Response {
    bump(&counters.cache_hits);
    Response::json(200, cached.to_vec())
}

/// Stamps the `x-cache` header that tells a client how its answer was
/// produced: `hit` (response cache), `miss` (this worker ran the engine),
/// `coalesced` (another worker's in-flight computation answered it), or
/// `bypass` (a resumable page).
fn with_x_cache(mut resp: Response, how: &str) -> Response {
    resp.extra_headers.push(("x-cache".into(), how.into()));
    resp
}

/// The singleflight → compute chain for one unpaged request the probe
/// missed in the cache: coalesce concurrent duplicates onto one engine
/// run, cache complete answers.
fn cached_or_computed<W: Workload>(
    state: &AppState,
    tenant: &Tenant,
    req: &W,
    key: &str,
) -> Response {
    let counters = W::counters(&state.metrics);
    // One deadline per request: a follower waits on the leader within
    // its own budget, and computing for itself afterwards does not
    // restart it.
    let engine = Engine::new(state, tenant, req.budget_ms());
    // Flights coalesce within one (tenant, epoch) only: the same request
    // against a freshly swapped catalog is *different work*, and must not
    // ride a computation started against the old epoch.
    let flight_key = format!("{}\n{key}", tenant.scope());
    let (resp, how) = match state.flights.begin(&flight_key) {
        Role::Leader(leader) => {
            // Double-check the cache: a previous leader may have published
            // between the probe's miss and winning this flight.
            let (resp, how) = match tenant.cache().get(key) {
                Some(cached) => (hit(counters, &cached), "hit"),
                None => (compute(&engine, req, key, counters), "miss"),
            };
            leader.publish(resp.clone());
            (resp, how)
        }
        Role::Follower(follower) => {
            let t0 = Instant::now();
            match follower.wait(engine.deadline) {
                Some(Published::Done(resp)) => {
                    bump(&counters.coalesced);
                    counters
                        .wait_ms
                        .fetch_add(t0.elapsed().as_millis() as u64, Ordering::Relaxed);
                    (resp, "coalesced")
                }
                // The leader abandoned (panicked), or our own budget ran
                // out first: compute for ourselves. An already-expired
                // deadline makes that a fast truncated partial — the
                // follower never waits past its budget for someone else.
                Some(Published::Abandoned) | None => (compute(&engine, req, key, counters), "miss"),
            }
        }
    };
    with_x_cache(resp, how)
}

/// One engine run for an unpaged request, behind the chaos compute
/// sites. A complete answer is cached *before* the caller publishes it:
/// once the flight retires, a racing request must either hit the cache
/// or lead a fresh flight — never recompute what the leader just
/// finished.
fn compute<W: Workload>(engine: &Engine, req: &W, key: &str, counters: &RouteCounters) -> Response {
    bump(&counters.computed);
    chaos!(
        engine.state,
        crate::faults::FaultSite::PanicBeforeCompute,
        {
            panic!("chaos: worker panic before compute");
        }
    );
    chaos!(engine.state, crate::faults::FaultSite::ComputeDelay, {
        std::thread::sleep(engine.state.faults.delay);
    });
    let (json, complete) = match req.compute(engine) {
        Ok(answer) => answer,
        Err(resp) => return resp,
    };
    chaos!(engine.state, crate::faults::FaultSite::PanicAfterCompute, {
        panic!("chaos: worker panic after compute");
    });
    if complete {
        // A dropped put is the cache-layer failure the chaos suite proves
        // harmless: it costs a recompute, never a wrong answer.
        chaos!(engine.state, crate::faults::FaultSite::DropCachePut, {
            return Response::json(200, json);
        });
        engine.tenant.cache().put(key, json.as_bytes());
    }
    Response::json(200, json)
}

impl Body for ExplorationRequest {
    const NOUN: &'static str = "exploration";

    /// Parses and canonicalizes: the server executes the *canonical* form,
    /// not the submitted one. Two spellings that share a cache key must
    /// produce byte-identical answers, and a weighted ranking's reported
    /// costs depend on the weight scale; the canonical scale (largest
    /// weight = 1) is the one the cache stores.
    fn parse(body: &str) -> serde_json::Result<Self> {
        ExplorationRequest::from_json(body).map(|req| req.canonicalize())
    }

    fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }
}

/// Runs one page of an exploration (streaming each item into `sink` when
/// given) from the cursor the request carries. Shared by the buffered
/// page and `/v1/explore/stream`.
pub(super) fn explore_page(
    engine: &Engine,
    req: &ExplorationRequest,
    sink: Option<&mut PageSink<'_>>,
) -> Result<PageOutcome, Response> {
    let cursor = engine.cursor(req.cursor.as_deref())?;
    bump(&engine.state.metrics.explore.computed);
    let table = engine.tenant.memo().table_for(&req.memo_key());
    engine
        .service
        .run_page_memo(
            req,
            cursor.as_ref(),
            engine.deadline,
            sink,
            table.as_deref(),
        )
        .map_err(Response::from)
}

/// Seals a served exploration page: counts truncation and mints the
/// resume token into `next_cursor`.
pub(super) fn seal_page(engine: &Engine, outcome: PageOutcome) -> ExplorationResponse {
    let mut response = outcome.response;
    if response.truncated() {
        bump(&engine.state.metrics.explore_truncated);
    }
    response.set_next_cursor(engine.mint(outcome.cursor));
    response
}

impl Workload for ExplorationRequest {
    fn counters(metrics: &Metrics) -> &RouteCounters {
        &metrics.explore
    }

    fn degrade(&mut self, budget_cap_ms: u64, page_cap: usize) {
        self.apply_degradation(budget_cap_ms, page_cap);
    }

    fn budget_ms(&self) -> Option<u64> {
        self.budget_ms
    }

    fn paged(&self) -> bool {
        self.cursor.is_some() || self.page_size.is_some()
    }

    fn cache_key(&self) -> String {
        ExplorationRequest::cache_key(self)
    }

    /// Different requests over the same exploration tree share one
    /// transposition table *within the tenant's partition*; the engine
    /// consults and warms it as it runs.
    fn compute(&self, engine: &Engine) -> Result<(String, bool), Response> {
        let table = engine.tenant.memo().table_for(&self.memo_key());
        let response = engine.service.run_until_memo(
            self,
            engine.deadline,
            engine.state.parallelism,
            table.as_deref(),
        )?;
        if response.truncated() {
            bump(&engine.state.metrics.explore_truncated);
        }
        Ok((to_json(&response)?, !response.truncated()))
    }

    fn page(&self, engine: &Engine) -> Result<String, Response> {
        bump(&engine.state.metrics.explore_paged);
        let outcome = explore_page(engine, self, None)?;
        to_json(&seal_page(engine, outcome))
    }
}

impl Body for AdviseRequest {
    const NOUN: &'static str = "advise";

    fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }
}

/// Advising rides the same pipeline as exploration, keyed under the
/// advise cache key so advising and exploration answers never collide
/// while their memo tables still do (by design) overlap.
impl Workload for AdviseRequest {
    fn counters(metrics: &Metrics) -> &RouteCounters {
        &metrics.advise
    }

    fn validate(&self, tenant: &Tenant) -> Result<(), Response> {
        super::validate_transcript(tenant, &self.transcript)
    }

    fn degrade(&mut self, budget_cap_ms: u64, page_cap: usize) {
        self.apply_degradation(budget_cap_ms, page_cap);
    }

    fn budget_ms(&self) -> Option<u64> {
        self.budget_ms
    }

    fn paged(&self) -> bool {
        self.cursor.is_some() || self.page_size.is_some()
    }

    fn cache_key(&self) -> String {
        AdviseRequest::cache_key(self)
    }

    fn compute(&self, engine: &Engine) -> Result<(String, bool), Response> {
        let outcome = advise(engine, self, None)?;
        Ok((to_json(&outcome.response)?, !outcome.response.truncated))
    }

    /// One page of ranked completions, riding the same scoped session
    /// store as exploration pages — advise cursors expire on catalog
    /// swaps and refuse foreign tenants exactly as exploration cursors do.
    fn page(&self, engine: &Engine) -> Result<String, Response> {
        let cursor = engine.cursor(self.cursor.as_deref())?;
        bump(&engine.state.metrics.advise.computed);
        let mut outcome = advise(engine, self, cursor.as_ref())?;
        outcome.response.next_cursor = engine.mint(outcome.cursor);
        to_json(&outcome.response)
    }
}

/// Runs one advising request from `cursor`. The derived exploration's memo
/// key is the same one `/v1/explore` uses over this tree: advising warms
/// exploration and vice versa.
fn advise(
    engine: &Engine,
    req: &AdviseRequest,
    cursor: Option<&ExplorationCursor>,
) -> Result<AdviseOutcome, Response> {
    let table = engine.tenant.memo().table_for(&req.memo_key());
    Ok(engine.service.advise_until_memo(
        req,
        cursor,
        engine.deadline,
        engine.state.parallelism,
        table.as_deref(),
    )?)
}

impl Body for WhatIfRequest {
    const NOUN: &'static str = "what-if";

    fn tenant(&self) -> Option<&str> {
        WhatIfRequest::tenant(self)
    }
}

/// A base exploration plus a constraint delta, answered by set-algebraic
/// apply over the tenant's hash-consed path DAG when possible. A no-force
/// what-if even shares the explore cache entry of its merged request,
/// because the answers are byte-identical by construction.
impl Workload for WhatIfRequest {
    fn counters(metrics: &Metrics) -> &RouteCounters {
        &metrics.whatif
    }

    fn validate(&self, tenant: &Tenant) -> Result<(), Response> {
        match &self.transcript {
            Some(spec) => super::validate_transcript(tenant, spec),
            None => Ok(()),
        }
    }

    fn degrade(&mut self, budget_cap_ms: u64, page_cap: usize) {
        self.apply_degradation(budget_cap_ms, page_cap);
    }

    fn budget_ms(&self) -> Option<u64> {
        self.base.budget_ms
    }

    /// The merged request carries the base's paging fields unchanged.
    fn paged(&self) -> bool {
        self.base.cursor.is_some() || self.base.page_size.is_some()
    }

    fn cache_key(&self) -> String {
        WhatIfRequest::cache_key(self)
    }

    /// Runs against the tenant's shared path-DAG table, and against its
    /// shared memo table only when the what-if explores: an applied
    /// answer neither keys nor registers one, so it never evicts a live
    /// table from the registry.
    fn compute(&self, engine: &Engine) -> Result<(String, bool), Response> {
        let dag = engine.tenant.dag().table();
        let outcome = engine
            .service
            .whatif_until_lazy(
                self,
                engine.deadline,
                engine.state.parallelism,
                || engine.tenant.memo().table_for(&self.memo_key()),
                Some(&dag),
            )
            .map_err(|e| {
                if e.code() == "state-budget" {
                    // Retire the saturated table so the retry the typed
                    // 413 invites starts against a fresh one; in-flight
                    // requests holding the old table finish unharmed.
                    engine.tenant.dag().retire();
                }
                Response::from(e)
            })?;
        bump(match outcome.served {
            WhatIfServed::Applied => &engine.state.metrics.whatif_applied,
            WhatIfServed::Explored => &engine.state.metrics.whatif_explored,
        });
        Ok((to_json(&outcome.response)?, !outcome.response.truncated()))
    }

    /// A paged what-if is a paged exploration of the merged request;
    /// forced courses have no paged form.
    fn page(&self, engine: &Engine) -> Result<String, Response> {
        if !self.delta.force.is_empty() {
            return Err(ServiceError::Explore(ExploreError::InvalidRequest(
                "forced courses require count output without paging".into(),
            ))
            .into());
        }
        Workload::page(&self.merged_request(), engine)
    }
}
