//! The in-process replay: each request of a plan served through the
//! public functions of every layer, in the order the server calls them.
//!
//! One pipeline serves two purposes. Untraced, it computes the reference
//! answer every loopback response is checked against (same catalog, same
//! engine, no deadline). Traced, it wraps each layer call in a span and
//! yields the per-layer self times. Nothing here touches a socket: the
//! request bytes go through the server's own connection state machine,
//! and the response through its own HTTP encoder into a buffer.

use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coursenav_navigator::{
    AdviseRequest, ExplorationCursor, ExplorationRequest, ExplorationResponse, NavigatorService,
    OutputMode, Ranking, RankingSpec, ReliabilityRanking, ServiceError, StreamedItem,
    WhatIfRequest, WorkloadRanking, API_VERSION,
};
use coursenav_registrar::{brandeis_cs, parse_registrar_file, RegistrarData};
use coursenav_server::conn::{ConnMachine, Step};
use coursenav_server::http::{self, Request, Response};
use coursenav_server::registry::{CatalogRegistry, Tenant, DEFAULT_TENANT};
use coursenav_server::session::{SessionError, SessionStore};
use coursenav_server::singleflight::{Published, Role, Singleflight};
use coursenav_server::ServerConfig;
use coursenav_transcript::Transcript;

use crate::plan::{http_request, parse_fixture, Item, Plan};

/// One answered HTTP request: what a client would see.
#[derive(Debug, Clone)]
pub struct Answer {
    /// HTTP status.
    pub status: u16,
    /// Response body; for streams, the de-chunked NDJSON lines.
    pub body: Vec<u8>,
    /// The `x-cache` disposition.
    pub x_cache: &'static str,
}

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, `<layer>.<operation>` (the root is `request`).
    pub name: &'static str,
    /// Request id: the request's position in the replay.
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Span recorder. Spans stay in memory until the run ends; with tracing
/// off every call is a plain function call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
    /// Named per-call samples that are not spans (counts, latencies).
    pub samples: Vec<(&'static str, f64)>,
    root: Option<u32>,
    req: u64,
}

impl Tracer {
    /// A tracer; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            samples: Vec::new(),
            root: None,
            req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open_root(&mut self, req: u64) {
        self.req = req;
        if self.on {
            self.root = Some(self.spans.len() as u32);
            let now = self.now_ns();
            self.spans.push(Span {
                name: "request",
                req,
                parent: None,
                start_ns: now,
                end_ns: now,
            });
        }
    }

    fn close_root(&mut self) {
        if let Some(root) = self.root.take() {
            let now = self.now_ns();
            self.spans[root as usize].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.root,
            start_ns,
            end_ns,
        });
        out
    }

    /// Renames the most recent span (for calls whose layer is known only
    /// from their outcome).
    fn rename_last(&mut self, name: &'static str) {
        if let Some(last) = self.spans.last_mut() {
            last.name = name;
        }
    }

    fn sample(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.samples.push((name, value));
        }
    }
}

/// The serving state an in-process replay runs against: the same
/// registry, singleflight table and session store the server builds,
/// with the server's default sizes.
pub struct Replayer {
    registry: CatalogRegistry,
    flights: Singleflight,
    sessions: SessionStore,
    max_body: usize,
}

/// Pages a paged interaction may take before the run gives up on it.
pub(crate) const MAX_PAGES: usize = 64;

impl Replayer {
    /// Serving state for `plan`: brandeis as the default tenant plus the
    /// plan's tenants, registered from the same text the client `PUT`s.
    pub fn new(plan: &Plan) -> Replayer {
        let config = ServerConfig::default();
        let registry = CatalogRegistry::new(
            brandeis_cs(),
            config.cache_mb << 20,
            config.memo_entries,
            config.dag_nodes,
            config.max_tenants,
            None,
        );
        for t in &plan.tenants {
            registry
                .register(&t.name, parse_fixture(t))
                .expect("fixture tenants register");
        }
        Replayer {
            registry,
            flights: Singleflight::new(),
            sessions: SessionStore::new(config.session_capacity, config.session_ttl),
            max_body: config.max_body_bytes,
        }
    }

    /// Serves one interaction (following its pages) and returns one
    /// answer per HTTP request.
    pub fn interaction(&self, item: &Item, req_id: u64, t: &mut Tracer) -> Vec<Answer> {
        let mut answers = Vec::new();
        let mut cursor: Option<String> = None;
        loop {
            let raw = http_request(item, cursor.as_deref());
            t.open_root(req_id);
            let answer = self.serve(&raw, t);
            t.close_root();
            let next = if item.paged && answer.status == 200 {
                next_cursor(&answer.body)
            } else {
                None
            };
            answers.push(answer);
            match next {
                Some(token) if answers.len() < MAX_PAGES => cursor = Some(token),
                _ => return answers,
            }
        }
    }

    fn serve(&self, raw: &[u8], t: &mut Tracer) -> Answer {
        let request = t.span("http.parse", || {
            let mut machine = ConnMachine::new(self.max_body);
            match machine.on_bytes(raw) {
                Step::Dispatch(request) => request,
                other => panic!("generated request did not parse: {other:?}"),
            }
        });
        if request.method == "POST" && request.path == "/v1/explore/stream" {
            return self.stream(&request, t);
        }
        let (mut resp, x_cache) = match request.path.as_str() {
            "/v1/explore" => self.explore(&request, t),
            "/v1/advise" => self.advise(&request, t),
            "/v1/whatif" => self.whatif(&request, t),
            path => (self.swap(&request, path, t), "none"),
        };
        resp.extra_headers
            .push(("x-cache".into(), x_cache.to_string()));
        let mut wire = Vec::with_capacity(resp.body.len() + 256);
        t.span("http.encode", || {
            http::write_response(&mut wire, &resp, true).expect("writing to a Vec")
        });
        Answer {
            status: resp.status,
            body: resp.body,
            x_cache,
        }
    }

    fn tenant(&self, request: &Request, from_body: Option<&str>, t: &mut Tracer) -> Arc<Tenant> {
        t.span("registry.resolve", || {
            let name = from_body
                .or_else(|| request.header("x-tenant"))
                .unwrap_or(DEFAULT_TENANT);
            self.registry
                .get(name)
                .expect("plans address registered tenants")
        })
    }

    /// The cache → singleflight → compute → cache-put pipeline the server
    /// runs for every unpaged route.
    fn cached(
        &self,
        tenant: &Tenant,
        key: &str,
        t: &mut Tracer,
        compute: impl FnOnce(&mut Tracer) -> (Response, bool),
    ) -> (Response, &'static str) {
        if let Some(hit) = t.span("cache.get", || tenant.cache().get(key)) {
            return (Response::json(200, hit.to_vec()), "hit");
        }
        let flight_key = format!("{}\n{key}", tenant.scope());
        let leader = match t.span("singleflight.begin", || self.flights.begin(&flight_key)) {
            Role::Leader(leader) => leader,
            Role::Follower(follower) => match follower.wait(None) {
                Some(Published::Done(resp)) => return (resp, "coalesced"),
                _ => {
                    let (resp, _) = compute(t);
                    return (resp, "miss");
                }
            },
        };
        let (resp, cacheable) = compute(t);
        if cacheable {
            t.span("cache.put", || tenant.cache().put(key, &resp.body));
        }
        t.span("singleflight.publish", || leader.publish(resp.clone()));
        (resp, "miss")
    }

    fn explore(&self, request: &Request, t: &mut Tracer) -> (Response, &'static str) {
        let (req, key, memo_key) = t.span("request.decode", || {
            let body = std::str::from_utf8(&request.body).expect("UTF-8 body");
            let req = ExplorationRequest::from_json(body)
                .expect("generated requests decode")
                .canonicalize();
            let key = req.cache_key();
            let memo_key = req.memo_key();
            (req, key, memo_key)
        });
        let tenant = self.tenant(request, req.tenant.as_deref(), t);
        if req.cursor.is_some() || req.page_size.is_some() {
            return (self.page(&tenant, &req, &memo_key, t), "bypass");
        }
        self.cached(&tenant, &key, t, |t| {
            let data = Arc::clone(tenant.data());
            let service = service(&data);
            let table = t.span("memo.table", || tenant.memo().table_for(&memo_key));
            let before = table.as_ref().map(|m| m.snapshot().misses).unwrap_or(0);
            let (name, k) = match req.output {
                OutputMode::Count => ("engine.count", None),
                OutputMode::Collect { .. } => ("engine.collect", None),
                OutputMode::TopK { k } => ("engine.topk", Some(k)),
            };
            let best_first = k.zip(best_first_ranking(&req, &data));
            // A memoized call's work is the subtrees it had to explore,
            // its memo misses; a best-first search's is its own expansions.
            let (result, expanded) = match best_first {
                Some((k, ranking)) => {
                    match t.span(name, || {
                        best_first_top_k(&service, &req, ranking.as_ref(), k)
                    }) {
                        Ok((response, expanded)) => (Ok(response), expanded),
                        Err(e) => (Err(e), 0),
                    }
                }
                None => {
                    let result = t.span(name, || {
                        service.run_until_memo(&req, None, 1, table.as_deref())
                    });
                    let after = table.as_ref().map(|m| m.snapshot().misses).unwrap_or(0);
                    (result, after.saturating_sub(before))
                }
            };
            t.sample("engine.nodes_expanded", expanded as f64);
            let response = match result {
                Ok(response) => response,
                Err(e) => return (engine_error(&e), false),
            };
            let json = t.span("serialize.response", || {
                serde_json::to_string(&response).expect("responses serialize")
            });
            t.sample("serialize.bytes", json.len() as f64);
            (Response::json(200, json), !response.truncated())
        })
    }

    /// One page of a resumable exploration (`/v1/explore` with paging).
    fn page(
        &self,
        tenant: &Tenant,
        req: &ExplorationRequest,
        memo_key: &str,
        t: &mut Tracer,
    ) -> Response {
        let scope = tenant.scope();
        let cursor = match self.resolve_cursor(req, &scope, t) {
            Ok(cursor) => cursor,
            Err(resp) => return resp,
        };
        let data = Arc::clone(tenant.data());
        let service = service(&data);
        let table = t.span("memo.table", || tenant.memo().table_for(memo_key));
        let mut outcome = match t.span("session.page", || {
            service.run_page_memo(req, cursor.as_ref(), None, None, table.as_deref())
        }) {
            Ok(outcome) => outcome,
            Err(e) => return engine_error(&e),
        };
        let token = t.span("session.mint", || {
            outcome
                .cursor
                .take()
                .map(|c| self.sessions.mint_scoped(c.to_json(), &scope))
        });
        outcome.response.set_next_cursor(token);
        let json = t.span("serialize.response", || {
            serde_json::to_string(&outcome.response).expect("responses serialize")
        });
        t.sample("serialize.bytes", json.len() as f64);
        Response::json(200, json)
    }

    fn resolve_cursor(
        &self,
        req: &ExplorationRequest,
        scope: &str,
        t: &mut Tracer,
    ) -> Result<Option<ExplorationCursor>, Response> {
        let Some(token) = req.cursor.as_deref() else {
            return Ok(None);
        };
        let json = t
            .span("session.take", || self.sessions.take_scoped(token, scope))
            .map_err(|e| {
                let (status, code) = match e {
                    SessionError::Invalid => (400, "invalid-cursor"),
                    SessionError::Expired => (410, "cursor-expired"),
                };
                Response::error_coded(status, code, &e.to_string(), false)
            })?;
        Ok(Some(
            ExplorationCursor::from_json(&json).expect("the store holds cursors it minted"),
        ))
    }

    /// `/v1/explore/stream`: NDJSON lines as the engine yields them, then
    /// the `done` summary with the streamed paths cleared.
    fn stream(&self, request: &Request, t: &mut Tracer) -> Answer {
        let (req, memo_key) = t.span("request.decode", || {
            let body = std::str::from_utf8(&request.body).expect("UTF-8 body");
            let req = ExplorationRequest::from_json(body)
                .expect("generated requests decode")
                .canonicalize();
            let memo_key = req.memo_key();
            (req, memo_key)
        });
        let tenant = self.tenant(request, req.tenant.as_deref(), t);
        let scope = tenant.scope();
        let cursor = match self.resolve_cursor(&req, &scope, t) {
            Ok(cursor) => cursor,
            Err(resp) => {
                return Answer {
                    status: resp.status,
                    body: resp.body,
                    x_cache: "bypass",
                }
            }
        };
        let data = Arc::clone(tenant.data());
        let service = service(&data);
        let table = t.span("memo.table", || tenant.memo().table_for(&memo_key));
        let mut lines: Vec<Vec<u8>> = Vec::new();
        let mut first_line: Option<Duration> = None;
        let t0 = Instant::now();
        let result = t.span("session.stream", || {
            let mut sink = |item: StreamedItem<'_>| -> ControlFlow<()> {
                first_line.get_or_insert_with(|| t0.elapsed());
                lines.push(stream_line(item));
                ControlFlow::Continue(())
            };
            service.run_page_memo(
                &req,
                cursor.as_ref(),
                None,
                Some(&mut sink),
                table.as_deref(),
            )
        });
        let total = t0.elapsed();
        t.sample(
            "stream.first_line_ms",
            first_line.unwrap_or(total).as_secs_f64() * 1e3,
        );
        let mut outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                let resp = engine_error(&e);
                return Answer {
                    status: resp.status,
                    body: resp.body,
                    x_cache: "bypass",
                };
            }
        };
        let token = t.span("session.mint", || {
            outcome
                .cursor
                .take()
                .map(|c| self.sessions.mint_scoped(c.to_json(), &scope))
        });
        outcome.response.set_next_cursor(token);
        let done = t.span("serialize.response", || done_line(&outcome.response));
        lines.push(done);
        let mut wire = Vec::new();
        let headers = vec![("x-cache".to_string(), "bypass".to_string())];
        t.span("http.encode", || {
            http::write_chunked_head(&mut wire, 200, "application/x-ndjson", &headers)
                .expect("writing to a Vec");
            for line in &lines {
                http::write_chunk(&mut wire, line).expect("writing to a Vec");
            }
            http::finish_chunks(&mut wire).expect("writing to a Vec");
        });
        Answer {
            status: 200,
            body: lines.concat(),
            x_cache: "bypass",
        }
    }

    fn advise(&self, request: &Request, t: &mut Tracer) -> (Response, &'static str) {
        let (req, key, memo_key) = t.span("request.decode", || {
            let body = std::str::from_utf8(&request.body).expect("UTF-8 body");
            let req = AdviseRequest::from_json(body).expect("generated requests decode");
            let key = req.cache_key();
            let memo_key = req.memo_key();
            (req, key, memo_key)
        });
        let tenant = self.tenant(request, req.tenant.as_deref(), t);
        t.span("request.transcript", || {
            let catalog = &tenant.data().catalog;
            let spec = &req.transcript;
            Transcript::from_codes(catalog, spec.start, &spec.selections)
                .and_then(|tr| tr.status_after(catalog))
                .expect("generated transcripts replay")
        });
        self.cached(&tenant, &key, t, |t| {
            let data = Arc::clone(tenant.data());
            let service = service(&data);
            let table = t.span("memo.table", || tenant.memo().table_for(&memo_key));
            let outcome = match t.span("advise.run", || {
                service.advise_until_memo(&req, None, None, 1, table.as_deref())
            }) {
                Ok(outcome) => outcome,
                Err(e) => return (engine_error(&e), false),
            };
            let json = t.span("serialize.response", || {
                serde_json::to_string(&outcome.response).expect("responses serialize")
            });
            t.sample("serialize.bytes", json.len() as f64);
            (Response::json(200, json), !outcome.response.truncated)
        })
    }

    fn whatif(&self, request: &Request, t: &mut Tracer) -> (Response, &'static str) {
        let (req, key, memo_key) = t.span("request.decode", || {
            let body = std::str::from_utf8(&request.body).expect("UTF-8 body");
            let req = WhatIfRequest::from_json(body).expect("generated requests decode");
            let key = req.cache_key();
            let memo_key = req.memo_key();
            (req, key, memo_key)
        });
        let tenant = self.tenant(request, req.tenant(), t);
        self.cached(&tenant, &key, t, |t| {
            let data = Arc::clone(tenant.data());
            let service = service(&data);
            let table = t.span("memo.table", || tenant.memo().table_for(&memo_key));
            let dag = t.span("dag.table", || tenant.dag().table());
            let before = dag.snapshot();
            let outcome = match t.span("apply.run", || {
                service.whatif_until(&req, None, 1, table.as_deref(), Some(&dag))
            }) {
                Ok(outcome) => outcome,
                Err(e) => return (engine_error(&e), false),
            };
            let after = dag.snapshot();
            if after.roots > before.roots {
                // This call interned its base: the span is a DAG build
                // (with one apply on top), not a warm apply.
                t.rename_last("dag.build");
                t.sample("dag.nodes", (after.interned - before.interned) as f64);
            }
            let json = t.span("serialize.response", || {
                serde_json::to_string(&outcome.response).expect("responses serialize")
            });
            t.sample("serialize.bytes", json.len() as f64);
            (Response::json(200, json), !outcome.response.truncated())
        })
    }

    fn swap(&self, request: &Request, path: &str, t: &mut Tracer) -> Response {
        let name = path
            .strip_prefix("/v1/catalogs/")
            .expect("swaps address /v1/catalogs/{tenant}");
        let data = t.span("registrar.parse", || {
            let text = std::str::from_utf8(&request.body).expect("UTF-8 body");
            parse_registrar_file(text).expect("fixture catalogs parse")
        });
        let outcome = t.span("registry.swap", || {
            self.registry.register(name, data).expect("swap registers")
        });
        Response::json(
            200,
            format!(
                "{{\"tenant\":\"{name}\",\"epoch\":{},\"swapped\":{},\"invalidated\":{}}}",
                outcome.epoch, outcome.swapped, outcome.dropped_entries
            ),
        )
    }
}

/// An engine failure as the server renders it (its status mapping).
fn engine_error(e: &ServiceError) -> Response {
    let status = match e.code() {
        "invalid-cursor" => 400,
        "state-budget" => 413,
        _ => 422,
    };
    Response::error_coded(status, e.code(), &e.to_string(), e.retryable())
}

/// The ranking of a top-k request that `run_until_memo` serves with the
/// un-memoized best-first search (rankings that are not
/// suffix-decomposable), when the workloads use it.
fn best_first_ranking<'a>(
    req: &ExplorationRequest,
    data: &'a RegistrarData,
) -> Option<Box<dyn Ranking + 'a>> {
    match req.ranking.as_ref()? {
        RankingSpec::Workload => Some(Box::new(WorkloadRanking)),
        RankingSpec::Reliability => {
            Some(Box::new(ReliabilityRanking::new(data.offering.as_ref()?)))
        }
        _ => None,
    }
}

/// The best-first top-k search `run_until_memo` falls back to for
/// `ranking` (the same explorer and search it runs at parallelism 1, with
/// no deadline), through the entry point that also returns the search's
/// statistics; the second value is its node expansions.
fn best_first_top_k(
    service: &NavigatorService<'_>,
    req: &ExplorationRequest,
    ranking: &dyn Ranking,
    k: usize,
) -> Result<(ExplorationResponse, u64), ServiceError> {
    let explorer = service.build_explorer(req)?;
    let t0 = Instant::now();
    let (paths, stats) = explorer.top_k_with_stats(ranking, k)?;
    let response = ExplorationResponse::Ranked {
        api_version: API_VERSION,
        ranking: ranking.name().to_string(),
        paths,
        truncated: false,
        next_cursor: None,
        millis: t0.elapsed().as_millis(),
    };
    Ok((response, stats.nodes_expanded))
}

fn service(data: &RegistrarData) -> NavigatorService<'_> {
    let mut service = NavigatorService::new(&data.catalog);
    if let Some(degree) = &data.degree {
        service = service.with_degree(degree);
    }
    if let Some(offering) = &data.offering {
        service = service.with_offering_model(offering);
    }
    service
}

/// One streamed NDJSON line, exactly as the stream route frames it.
fn stream_line(item: StreamedItem<'_>) -> Vec<u8> {
    let value = match item {
        StreamedItem::Path(p) => {
            serde_json::Value::Object(vec![("path".to_string(), serde_json::to_value(p))])
        }
        StreamedItem::Ranked(r) => {
            serde_json::Value::Object(vec![("ranked".to_string(), serde_json::to_value(r))])
        }
    };
    let mut line = serde_json::to_string(&value)
        .expect("stream lines serialize")
        .into_bytes();
    line.push(b'\n');
    line
}

/// The stream's final `{"done":…}` line: the response with its `paths`
/// cleared (they were already streamed).
fn done_line(response: &ExplorationResponse) -> Vec<u8> {
    let mut done = serde_json::to_value(response);
    if let serde_json::Value::Object(variants) = &mut done {
        for (_, body) in variants.iter_mut() {
            if let serde_json::Value::Object(fields) = body {
                for (key, value) in fields.iter_mut() {
                    if key == "paths" {
                        *value = serde_json::Value::Array(Vec::new());
                    }
                }
            }
        }
    }
    let envelope = serde_json::Value::Object(vec![("done".to_string(), done)]);
    let mut line = serde_json::to_string(&envelope)
        .expect("done lines serialize")
        .into_bytes();
    line.push(b'\n');
    line
}

/// The resume token in a paged response body, if it carries one.
pub(crate) fn next_cursor(body: &[u8]) -> Option<String> {
    let value: serde_json::Value = serde_json::from_slice(body).ok()?;
    fn find(v: &serde_json::Value) -> Option<String> {
        match v {
            serde_json::Value::Object(fields) => fields.iter().find_map(|(k, v)| {
                if k == "next_cursor" || k == "next-cursor" {
                    v.as_str().map(str::to_string)
                } else {
                    find(v)
                }
            }),
            _ => None,
        }
    }
    find(&value)
}
