//! Request routing and the two request pipelines behind it.
//!
//! Every engine route runs through one of two drivers:
//!
//! - [`buffered`] serves `POST /v1/explore`, `/v1/advise` and `/v1/whatif`
//!   through one generic driver over the [`buffered::Workload`] trait:
//!   body parsing, tenant resolution, validation, the cache key and the
//!   cache lookup, then admission, degradation and the singleflight →
//!   compute chain (or the resumable-page path) under one deadline.
//! - [`stream`] serves the chunked NDJSON routes, `POST /v1/explore/stream`
//!   and `/v1/advise/batch`, through one driver that owns admission, the
//!   lazy chunked head, and the panic firewall.
//!
//! What runs where: [`handle`] runs on the event loop. For the buffered
//! routes it runs the driver's first part, [`buffered::probe`], under
//! `catch_unwind`: from the route match to the cache lookup. A hit is
//! admitted, stamped and answered on the loop. Everything else runs on a
//! compute worker ([`run_request`]): the rest of the buffered driver with
//! the request, tenant and key the probe parsed, or — for streams, batch
//! and admin routes — the whole route from scratch.
//!
//! This module holds what both drivers share — body parsing, tenant and
//! cursor resolution, the engine context and its deadline, the typed
//! engine errors — plus the non-engine routes (catalog, health, metrics,
//! snapshot and tenant administration).

mod buffered;
mod stream;

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coursenav_navigator::{
    AdviseRequest, BatchAdviseRequest, ExplorationCursor, ExplorationRequest, NavigatorService,
    ServiceError, TranscriptSpec, WhatIfRequest,
};
use coursenav_registrar::{json::catalog_to_json, parse_registrar_file};
use coursenav_transcript::{Transcript, TranscriptError};

use crate::event;
use crate::http::{Request, Response};
use crate::pool::PoolHandle;
use crate::registry::{CatalogRegistry, RegistryError, Tenant, DEFAULT_TENANT};
use crate::session::SessionError;
use crate::AppState;

/// One dispatched request, on the event loop: returns the reply of a
/// response-cache hit (or of a panicking probe, a 500); otherwise submits
/// the rest to the compute pool with a responder minted by `responder`
/// and returns `None`.
pub(crate) fn handle(
    state: &Arc<AppState>,
    pool: &PoolHandle,
    request: Request,
    responder: &dyn Fn() -> event::Responder,
) -> Option<Response> {
    let t0 = Instant::now();
    let remainder = match std::panic::catch_unwind(AssertUnwindSafe(|| probe(state, &request))) {
        Ok(Some(buffered::Probe::Hit(response))) => {
            state.metrics.observe_latency(&request.path, t0.elapsed());
            return Some(response);
        }
        Ok(Some(buffered::Probe::Miss(remainder))) => Some(remainder),
        Ok(None) => None,
        Err(_) => {
            state.metrics.observe_latency(&request.path, t0.elapsed());
            return Some(Response::error(500, "internal error"));
        }
    };
    let probed = t0.elapsed();
    let state = Arc::clone(state);
    let responder = responder();
    pool.submit(Box::new(move || {
        run_request(&state, request, remainder, probed, responder);
    }));
    None
}

/// The loop-side router: the buffered engine routes' POSTs get probed,
/// every other request is routed on a worker.
fn probe(state: &AppState, request: &Request) -> Option<buffered::Probe> {
    if request.method != "POST" {
        return None;
    }
    Some(match request.path.as_str() {
        "/v1/explore" => buffered::probe::<ExplorationRequest>(state, request),
        "/v1/advise" => buffered::probe::<AdviseRequest>(state, request),
        "/v1/whatif" => buffered::probe::<WhatIfRequest>(state, request),
        _ => return None,
    })
}

/// One dispatched request, on a compute worker: run the probe's
/// `remainder` or route the request, and hand the result back to the
/// event loop through `responder`. Parsing, status accounting for
/// buffered responses, the `ResetMidWrite` chaos site, and all
/// connection lifecycle live in the event loop; this function only
/// computes. `probed` is the loop time already spent on the request,
/// counted into its latency.
///
/// Streaming routes bypass the buffered request→response shape: the
/// handler writes chunked frames into the responder's stream buffer and
/// the loop relays them as the socket drains. Always closes when done —
/// chunked framing is self-delimiting, but a mid-stream abort has no
/// other way to signal failure. Stream statuses are accounted here (the
/// handler is the only place that knows them), buffered statuses at
/// delivery in the loop.
fn run_request(
    state: &Arc<AppState>,
    request: Request,
    remainder: Option<buffered::Remainder>,
    probed: Duration,
    responder: event::Responder,
) {
    let t0 = Instant::now();
    let path = request.path.as_str();
    if request.method == "POST" && matches!(path, "/v1/explore/stream" | "/v1/advise/batch") {
        let mut writer = responder.stream();
        let status = if path == "/v1/explore/stream" {
            stream::serve::<ExplorationRequest, _>(state, &mut writer, &request)
        } else {
            stream::serve::<BatchAdviseRequest, _>(state, &mut writer, &request)
        };
        state.metrics.observe_latency(&request.path, t0.elapsed());
        state.metrics.count_status(status);
        writer.finish();
        return;
    }
    let keep = request.keep_alive;
    // A panicking handler becomes a 500, not a dead worker.
    let response = std::panic::catch_unwind(AssertUnwindSafe(|| match remainder {
        Some(remainder) => remainder(state),
        None => route(state, &request),
    }))
    .unwrap_or_else(|_| Response::error(500, "internal error"));
    state
        .metrics
        .observe_latency(&request.path, probed + t0.elapsed());
    responder.respond(response, keep);
}

/// Every fixed `/v1` path with the one method it answers (any other
/// method gets 405 naming it) and whether its unversioned spelling — the
/// pre-`/v1` wire API — still answers a deprecated redirect.
const PATHS: [(&str, &str, bool); 11] = [
    ("/explore", "POST", true),
    ("/explore/stream", "POST", true),
    ("/advise", "POST", true),
    ("/advise/batch", "POST", true),
    ("/whatif", "POST", false),
    ("/snapshot", "POST", false),
    ("/cache/invalidate", "POST", true),
    ("/catalog", "GET", true),
    ("/healthz", "GET", true),
    ("/metrics", "GET", true),
    ("/catalogs", "GET", false),
];

/// The HTTP-date after which the deprecated spellings (the unprefixed
/// aliases and `POST /v1/cache/invalidate`) stop answering. Stated in
/// `docs/WIRE_API.md`; every deprecated response carries it in a
/// `Sunset` header alongside `Deprecation: true`.
pub const DEPRECATION_SUNSET: &str = "Wed, 01 Sep 2027 00:00:00 GMT";

/// Stamps the deprecation headers on a response to a deprecated spelling
/// and counts the hit under `deprecated-route-hits` in `/v1/metrics`.
fn with_deprecation(state: &AppState, path: &str, mut resp: Response) -> Response {
    resp.extra_headers
        .push(("deprecation".into(), "true".into()));
    resp.extra_headers
        .push(("sunset".into(), DEPRECATION_SUNSET.into()));
    state.metrics.count_deprecated(path);
    resp
}

/// A 405 naming the one method the path answers.
fn method_not_allowed(allow: &str) -> Response {
    let mut resp = Response::error(405, "method not allowed");
    resp.extra_headers.push(("allow".into(), allow.into()));
    resp
}

/// A value serialized for a 200 body, or the 500 its serialization
/// failed with.
fn to_json<T: serde::Serialize>(value: &T) -> Result<String, Response> {
    serde_json::to_string(value).map_err(|e| Response::error(500, &e.to_string()))
}

fn route(state: &AppState, request: &Request) -> Response {
    let Some(path) = request.path.strip_prefix("/v1") else {
        // Unprefixed spellings of known endpoints answer a permanent
        // redirect so pre-v1 clients learn the new home; everything else
        // is a plain 404.
        if PATHS
            .iter()
            .any(|&(p, _, aliased)| aliased && p == request.path)
        {
            let mut resp = Response::error(308, "moved to the /v1 API");
            resp.extra_headers
                .push(("location".into(), format!("/v1{}", request.path)));
            return with_deprecation(state, &request.path, resp);
        }
        return Response::error(404, "no such route");
    };
    // Tenant-admin routes carry the tenant name in the path.
    if let Some(rest) = path.strip_prefix("/catalogs/") {
        return catalogs_admin(state, request, rest);
    }
    match (request.method.as_str(), path) {
        ("GET", "/catalog") => match resolve_tenant(state, request, None) {
            Ok(tenant) => match catalog_to_json(&tenant.data().catalog) {
                Ok(json) => Response::json(200, json),
                Err(e) => Response::error(500, &e.to_string()),
            },
            Err(resp) => resp,
        },
        ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}"),
        ("GET", "/metrics") => match to_json(&crate::full_snapshot(state)) {
            Ok(json) => Response::json(200, json),
            Err(resp) => resp,
        },
        ("GET", "/catalogs") => match serde_json::to_string(&state.registry.list()) {
            Ok(json) => Response::json(200, format!("{{\"tenants\":{json}}}")),
            Err(e) => Response::error(500, &e.to_string()),
        },
        ("POST", "/snapshot") => {
            // The admin trigger: flush warm state to disk right now (a
            // deploy about to restart does this instead of waiting out the
            // cadence). 409 when the server runs without a snapshot dir.
            match crate::write_snapshot_now(state) {
                Ok((path, bytes)) => Response::json(
                    200,
                    format!(
                        "{{\"path\":{},\"bytes\":{bytes}}}",
                        serde_json::to_string(&path.display().to_string())
                            .unwrap_or_else(|_| "\"\"".into())
                    ),
                ),
                Err(e) if e.kind() == std::io::ErrorKind::Unsupported => Response::error_coded(
                    409,
                    "snapshot-disabled",
                    "no snapshot directory configured",
                    false,
                ),
                Err(e) => Response::error_coded(500, "snapshot-failed", &e.to_string(), true),
            }
        }
        ("POST", "/cache/invalidate") => {
            // Deprecated global alias: one sweep over *every* tenant's
            // response cache and memo tables. Per-tenant invalidation
            // lives at `POST /v1/catalogs/{tenant}/invalidate`.
            let dropped = state.registry.invalidate_all_tenants();
            with_deprecation(
                state,
                &request.path,
                Response::json(
                    200,
                    format!("{{\"invalidated\":{dropped},\"deprecated\":true}}"),
                ),
            )
        }
        // Right path, wrong verb → 405 with the allowed method. The
        // engine routes land here too: their POSTs are probed on the loop
        // or intercepted as streams before routing, so any method that
        // reaches route() is wrong.
        _ => match PATHS.iter().find(|&&(p, _, _)| p == path) {
            Some(&(_, allow, _)) => method_not_allowed(allow),
            None => Response::error(404, "no such route"),
        },
    }
}

/// `/v1/catalogs/{tenant}` and `/v1/catalogs/{tenant}/invalidate`: the
/// tenant-admin surface. `rest` is everything after `/v1/catalogs/`.
fn catalogs_admin(state: &AppState, request: &Request, rest: &str) -> Response {
    if let Some(name) = rest.strip_suffix("/invalidate") {
        if request.method != "POST" {
            return method_not_allowed("POST");
        }
        return match state.registry.invalidate_tenant(name) {
            Ok(dropped) => Response::json(
                200,
                format!("{{\"tenant\":\"{name}\",\"invalidated\":{dropped}}}"),
            ),
            Err(e) => registry_error(&e),
        };
    }
    let name = rest;
    if name.is_empty() || name.contains('/') {
        return Response::error(404, "no such route");
    }
    if request.method != "PUT" {
        return method_not_allowed("PUT");
    }
    // Refuse unusable names before doing any body work.
    if let Err(e) = CatalogRegistry::validate_name(name) {
        return registry_error(&e);
    }
    // The body is a registrar catalog file — the same text format the CLI
    // loads from disk — so an operator can `curl -T dept.cnav`.
    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let data = match parse_registrar_file(body) {
        Ok(data) => data,
        Err(e) => return Response::error(400, &format!("bad catalog file: {e}")),
    };
    match state.registry.register(name, data) {
        Ok(outcome) => Response::json(
            200,
            format!(
                "{{\"tenant\":\"{name}\",\"epoch\":{},\"swapped\":{},\"invalidated\":{}}}",
                outcome.epoch, outcome.swapped, outcome.dropped_entries
            ),
        ),
        Err(e) => registry_error(&e),
    }
}

/// Maps a registry refusal to its typed wire error: 404 `unknown-tenant`
/// (nothing registered under that name), 400 `invalid-tenant` (the name
/// itself is unusable), 409 `tenant-limit` (the registry is full).
fn registry_error(e: &RegistryError) -> Response {
    let (status, code) = match e {
        RegistryError::UnknownTenant { .. } => (404, "unknown-tenant"),
        RegistryError::InvalidName { .. } => (400, "invalid-tenant"),
        RegistryError::Full { .. } => (409, "tenant-limit"),
    };
    Response::error_coded(status, code, &e.to_string(), false)
}

/// Resolves the tenant a request addresses: the request body's `tenant`
/// field wins, then the `x-tenant` header, then [`DEFAULT_TENANT`] — so
/// clients that never mention tenants keep their pre-registry behaviour
/// byte for byte. `Err` carries the ready-to-send 404 `unknown-tenant`.
fn resolve_tenant(
    state: &AppState,
    request: &Request,
    from_body: Option<&str>,
) -> Result<Arc<Tenant>, Response> {
    let name = from_body
        .or_else(|| request.header("x-tenant"))
        .unwrap_or(DEFAULT_TENANT);
    state.registry.get(name).ok_or_else(|| {
        Response::error_coded(
            404,
            "unknown-tenant",
            &format!("no catalog registered for tenant `{name}`"),
            false,
        )
    })
}

/// A request body both drivers parse: the noun its typed 400 names, its
/// parser, and the `tenant` field it may carry.
trait Body: serde::Deserialize {
    /// Completes `bad {NOUN} request: <parse error>`.
    const NOUN: &'static str;
    /// Parses the body (exploration also canonicalizes it).
    fn parse(body: &str) -> serde_json::Result<Self> {
        serde_json::from_str(body)
    }
    /// The tenant named in the body, which wins over `x-tenant`.
    fn tenant(&self) -> Option<&str>;
}

/// Decodes a request body into `B`, or the typed 400 `invalid-request`
/// (field `body`) that both drivers answer for bytes that are not UTF-8
/// or do not parse.
fn parse_body<B: Body>(request: &Request) -> Result<B, Response> {
    let refuse =
        |message: &str| Response::error_field(400, "invalid-request", "body", message, false);
    let text = std::str::from_utf8(&request.body).map_err(|_| refuse("body is not UTF-8"))?;
    B::parse(text).map_err(|e| refuse(&format!("bad {} request: {e}", B::NOUN)))
}

/// Clamps a request to the admitted degradation level: level 1 gets the
/// soft budget, level 2 the floor. The clamp shrinks `budget_ms` and caps
/// `page_size`; it never loosens what the client asked for.
fn degrade<W: buffered::Workload>(state: &AppState, req: &mut W, level: u8) {
    let c = state.overload.config();
    match level {
        0 => {}
        1 => req.degrade(c.soft_budget_ms, c.degraded_page_size),
        _ => req.degrade(c.floor_budget_ms, c.degraded_page_size),
    }
}

/// What a workload's engine step runs against: the tenant partition, the
/// engine configured over its catalog, and the request's deadline.
struct Engine<'a> {
    state: &'a AppState,
    tenant: &'a Tenant,
    service: NavigatorService<'a>,
    deadline: Option<Instant>,
}

impl<'a> Engine<'a> {
    /// The engine over `tenant`'s catalog, degree rule and offering
    /// history, with the deadline `budget_ms` from now — or the server's
    /// default budget when the request names none, and no deadline when
    /// neither does.
    fn new(state: &'a AppState, tenant: &'a Tenant, budget_ms: Option<u64>) -> Engine<'a> {
        let data = tenant.data();
        let mut service = NavigatorService::new(&data.catalog);
        if let Some(degree) = &data.degree {
            service = service.with_degree(degree);
        }
        if let Some(offering) = &data.offering {
            service = service.with_offering_model(offering);
        }
        // The one place a request budget becomes a deadline.
        let deadline = budget_ms
            .or(state.default_budget_ms)
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        Engine {
            state,
            tenant,
            service,
            deadline,
        }
    }

    /// Resolves an opaque cursor token to the engine cursor it names,
    /// consuming the session. A token minted under any other
    /// `tenant@epoch` scope — another tenant, or this tenant before a
    /// catalog swap — answers 410 `cursor-expired`, exactly as if it had
    /// aged out. `Err` carries the ready-to-send refusal: 400
    /// `invalid-cursor` for bad tokens, 410 `cursor-expired` for
    /// consumed/aged/evicted/out-of-scope sessions.
    fn cursor(&self, token: Option<&str>) -> Result<Option<ExplorationCursor>, Response> {
        let Some(token) = token else {
            return Ok(None);
        };
        let json = self
            .state
            .sessions
            .take_scoped(token, &self.tenant.scope())
            .map_err(|e| {
                let (status, code) = match e {
                    SessionError::Invalid => (400, "invalid-cursor"),
                    SessionError::Expired => (410, "cursor-expired"),
                };
                Response::error_coded(status, code, &e.to_string(), false)
            })?;
        // The store only holds JSON the engine minted, so a parse failure
        // is a server-side defect, not client input — but refusing the
        // token beats serving a wrong page.
        ExplorationCursor::from_json(&json).map(Some).map_err(|e| {
            Response::error_coded(
                500,
                "internal",
                &format!("stored cursor failed to parse: {e}"),
                false,
            )
        })
    }

    /// Mints the resume token for a page that paused with more to
    /// deliver, scoped to this tenant's epoch.
    fn mint(&self, cursor: Option<ExplorationCursor>) -> Option<String> {
        chaos!(self.state, crate::faults::FaultSite::EvictSessions, {
            // The session store blown away under the minting request's
            // feet: every outstanding cursor must answer 410, never a
            // wrong page.
            self.state.sessions.evict_all();
        });
        let scope = self.tenant.scope();
        cursor.map(|c| self.state.sessions.mint_scoped(c.to_json(), &scope))
    }
}

/// Maps an engine failure to its typed wire error: the stable kebab-case
/// code from [`ServiceError::code`], under 400 for cursor problems (the
/// client sent reusable garbage), 413 for a state budget the server ran
/// out of (the answer is too large to materialize — retryable once the
/// saturated table rotates), and 422 otherwise (the request was
/// well-formed but unservable).
impl From<ServiceError> for Response {
    fn from(e: ServiceError) -> Response {
        let status = match e.code() {
            "invalid-cursor" => 400,
            "state-budget" => 413,
            _ => 422,
        };
        Response::error_coded(status, e.code(), &e.to_string(), e.retryable())
    }
}

/// Replays a wire transcript against the tenant's catalog: resolves every
/// code and validates each semester's eligibility. The advising routes
/// refuse a transcript the catalog cannot replay *before* touching the
/// engine, so the typed error names the exact transcript field at fault.
fn transcript_status(tenant: &Tenant, spec: &TranscriptSpec) -> Result<(), TranscriptError> {
    let catalog = &tenant.data().catalog;
    let transcript = Transcript::from_codes(catalog, spec.start, &spec.selections)?;
    transcript.status_after(catalog)?;
    Ok(())
}

/// [`transcript_status`] rendered as the wire refusal: 422 for codes the
/// catalog lacks (the transcript belongs to another catalog revision),
/// 400 for a history the catalog cannot replay (ineligible selections).
fn validate_transcript(tenant: &Tenant, spec: &TranscriptSpec) -> Result<(), Response> {
    transcript_status(tenant, spec).map_err(|e| {
        let status = match e {
            TranscriptError::UnknownCourse { .. } => 422,
            TranscriptError::IneligibleSelection { .. } => 400,
        };
        Response::error_field(status, e.code(), &e.field(), &e.to_string(), false)
    })
}
