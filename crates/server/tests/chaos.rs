//! The chaos suite: replay seeded fault plans against a live loopback
//! server under concurrent load and assert the graceful-degradation
//! invariants hold no matter how the faults interleave:
//!
//! - the server never deadlocks and never leaks the worker pool — every
//!   run finishes under a watchdog, and shutdown joins every thread;
//! - every connection gets either a well-formed response or a clean
//!   close/reset — never a hang, never frame garbage that parses as
//!   something else;
//! - the cache and singleflight never serve bytes from a failed or
//!   truncated flight — an `x-cache: hit` answer is always a complete,
//!   correct answer;
//! - degraded and fault-afflicted responses are still *valid* responses
//!   (typed errors, correct framing, consistent metrics).
//!
//! Runs only with `--features chaos`; fault schedules are pure functions
//! of the plan seed (see `faults::FaultPlan`), so a failing run reproduces
//! with its seed.
#![cfg(feature = "chaos")]

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use common::{count_request, parse_response, roundtrip, WireResponse};
use coursenav_navigator::{OutputMode, RankingSpec};
use coursenav_registrar::brandeis_cs;
use coursenav_server::faults::{FaultPlan, FaultSite, SITES};
use coursenav_server::{Server, ServerConfig};

/// Runs `f` on its own thread and panics if it neither finishes nor
/// panics within `timeout` — the suite's deadlock/pool-leak detector.
fn with_watchdog<F>(label: &str, timeout: Duration, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(timeout) {
        Ok(()) => thread.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The body panicked: join to propagate the original message.
            thread.join().unwrap();
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: watchdog expired — deadlock or leaked pool")
        }
    }
}

fn chaos_server(plan: FaultPlan) -> Server {
    Server::start(
        ServerConfig {
            threads: 4,
            queue_depth: 16,
            keep_alive: Duration::from_secs(1),
            session_capacity: 64,
            faults: Arc::new(plan),
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("start chaos server")
}

/// Replaces every `millis` field (timing metadata) with zero so bodies
/// can be compared for semantic identity.
fn zero_millis(value: &mut serde_json::Value) {
    use serde_json::{Number, Value};
    match value {
        Value::Object(pairs) => {
            for (key, v) in pairs.iter_mut() {
                if key == "millis" {
                    *v = Value::Num(Number::U(0));
                } else {
                    zero_millis(v);
                }
            }
        }
        Value::Array(items) => {
            for item in items.iter_mut() {
                zero_millis(item);
            }
        }
        _ => {}
    }
}

fn normalized(body: &str) -> String {
    let mut value: serde_json::Value = serde_json::from_str(body).expect("JSON body");
    zero_millis(&mut value);
    serde_json::to_string(&value).unwrap()
}

/// The fault-free reference answer for `json` (computed on a pristine
/// server with memoization disabled — the ground truth no transposition
/// table ever touched), normalized for comparison against chaos-run
/// responses.
fn reference_answer(json: &str) -> String {
    let server = Server::start(
        ServerConfig {
            memo_entries: 0,
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("reference server");
    let resp = roundtrip(server.local_addr(), "POST", "/v1/explore", Some(json))
        .expect("reference answer");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let answer = normalized(resp.text());
    server.shutdown();
    answer
}

#[test]
fn fault_schedules_are_deterministic_and_seed_sensitive() {
    // Same seed + same probabilities ⇒ byte-identical schedules at every
    // site; a different seed diverges. This is what makes a chaos failure
    // reproducible from its seed alone.
    let mk = |seed: u64| {
        FaultPlan::new(seed)
            .with(FaultSite::PanicBeforeCompute, 80)
            .with(FaultSite::PanicAfterCompute, 40)
            .with(FaultSite::ComputeDelay, 150)
            .with(FaultSite::DropCachePut, 300)
            .with(FaultSite::EvictSessions, 250)
            .with(FaultSite::ResetMidWrite, 100)
            .with(FaultSite::MemoInsertDropped, 350)
    };
    let (a, b, c) = (mk(0xC0FFEE), mk(0xC0FFEE), mk(0xBEEF));
    for site in SITES {
        assert_eq!(
            a.schedule(site, 2_000),
            b.schedule(site, 2_000),
            "{site:?}: same seed must replay the same schedule"
        );
    }
    assert!(
        SITES
            .iter()
            .any(|&site| a.schedule(site, 2_000) != c.schedule(site, 2_000)),
        "different seeds must produce different schedules"
    );
}

#[test]
fn storm_with_every_fault_armed_keeps_the_invariants() {
    with_watchdog("storm", Duration::from_secs(90), || {
        let plan = FaultPlan::new(0xC0FFEE)
            .with(FaultSite::PanicBeforeCompute, 80)
            .with(FaultSite::PanicAfterCompute, 40)
            .with(FaultSite::ComputeDelay, 150)
            .with(FaultSite::DropCachePut, 300)
            .with(FaultSite::EvictSessions, 250)
            .with(FaultSite::ResetMidWrite, 100)
            .with(FaultSite::MemoInsertDropped, 350)
            .with_delay(Duration::from_millis(5));
        let server = chaos_server(plan);
        let addr = server.local_addr();

        let count_json = count_request().to_json().unwrap();
        let ranked_json = {
            let mut req = count_request();
            req.output = OutputMode::TopK { k: 5 };
            req.ranking = Some(RankingSpec::Time);
            req.to_json().unwrap()
        };
        let references = [
            reference_answer(&count_json),
            reference_answer(&ranked_json),
        ];

        const CLIENTS: usize = 8;
        const REQUESTS: usize = 24;
        let torn = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let (count_json, ranked_json, references) =
                    (&count_json, &ranked_json, &references);
                let torn = &torn;
                scope.spawn(move || {
                    for i in 0..REQUESTS {
                        let outcome = match (client + i) % 6 {
                            0 => roundtrip(addr, "GET", "/v1/metrics", None),
                            1 => paged_roundtrip(addr),
                            2 => roundtrip(addr, "POST", "/v1/explore/stream", Some(count_json)),
                            3 => slow_explore(addr, ranked_json),
                            _ => roundtrip(addr, "POST", "/v1/explore", Some(count_json)),
                        };
                        let Some(resp) = outcome else {
                            // Clean close or injected reset: a legal
                            // outcome under this plan, but count it so the
                            // run proves resets actually happened.
                            torn.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            continue;
                        };
                        assert_invariants(&resp, references);
                    }
                });
            }
        });

        // The pool survived the storm: fresh requests are served, and the
        // metric counters are consistent with what the clients saw.
        let health = retry_until_whole(addr, "GET", "/v1/healthz", None);
        assert_eq!(health.status, 200);
        let snapshot = server.metrics();
        assert_eq!(
            snapshot.overload.breaker, "closed",
            "a storm this size must not trip the breaker"
        );
        assert!(
            snapshot.connections_reset >= torn.load(std::sync::atomic::Ordering::Relaxed),
            "every torn client connection is accounted: {} counted, {} observed",
            snapshot.connections_reset,
            torn.load(std::sync::atomic::Ordering::Relaxed),
        );
        server.shutdown(); // watchdog catches a hang here = leaked pool
    });
}

#[test]
fn memo_drop_storm_answers_never_depend_on_table_contents() {
    with_watchdog("memo storm", Duration::from_secs(90), || {
        // Half of all transposition-table stores silently vanish, against
        // a table sized below the storm's working set of subtree entries
        // so per-shard eviction stays active the whole run. The memo is
        // pure optimization: whatever arbitrary subset of subtrees the
        // table happens to retain, every answer must equal the memo-free
        // ground truth.
        let plan = Arc::new(FaultPlan::new(0xD1A6).with(FaultSite::MemoInsertDropped, 500));
        let server = Server::start(
            ServerConfig {
                threads: 4,
                memo_entries: 64,
                faults: Arc::clone(&plan),
                ..ServerConfig::default()
            },
            brandeis_cs(),
        )
        .expect("start memo-chaos server");
        let addr = server.local_addr();

        // Every variant canonicalizes to the same `memo_key` (output
        // mode, k, limit, and paging are masked), so all of them share
        // one table — and varying the shape gives each its own
        // response-cache key, forcing fresh engine runs through the
        // battered memo instead of repeat-serving cached bytes. The
        // paged counts go further: pages bypass the cache and
        // singleflight entirely, so every one of them re-walks the exact
        // same statuses and hits whatever inserts survived the drops
        // (page_size exceeds the path count, so each completes in one
        // page, byte-identical to the unpaged answer).
        let mut variants = vec![count_request().to_json().unwrap()];
        for page_size in [90_000usize, 100_000] {
            let mut req = count_request();
            req.page_size = Some(page_size);
            variants.push(req.to_json().unwrap());
        }
        for k in [1usize, 3, 7, 12] {
            let mut req = count_request();
            req.output = OutputMode::TopK { k };
            req.ranking = Some(RankingSpec::Time);
            variants.push(req.to_json().unwrap());
        }
        for limit in [5usize, 20, 120] {
            let mut req = count_request();
            req.output = OutputMode::Collect { limit };
            variants.push(req.to_json().unwrap());
        }
        let references: Vec<String> = variants.iter().map(|v| reference_answer(v)).collect();

        const CLIENTS: usize = 6;
        const ROUNDS: usize = 3;
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let (variants, references) = (&variants, &references);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        for step in 0..variants.len() {
                            // Stagger the order per client so different
                            // shapes race each other over the table.
                            let i = (step + client + round) % variants.len();
                            let resp = roundtrip(addr, "POST", "/v1/explore", Some(&variants[i]))
                                .expect("no reset site armed: responses arrive whole");
                            assert!(resp.complete, "torn without a reset fault");
                            assert_eq!(resp.status, 200, "{}", resp.text());
                            assert_eq!(
                                normalized(resp.text()),
                                references[i],
                                "an answer depended on what the memo retained"
                            );
                        }
                    }
                });
            }
        });

        let snapshot = server.metrics();
        let memo = &snapshot.memo;
        assert!(
            plan.arrivals(FaultSite::MemoInsertDropped) > 0,
            "the drop site was never consulted — the memo path did not run"
        );
        assert!(memo.misses > 0, "the storm never probed the table");
        assert!(
            memo.hits > 0,
            "surviving inserts must still pay off across request shapes"
        );
        assert!(
            memo.inserts < memo.misses,
            "with half the stores dropped, inserts ({}) must trail misses ({})",
            memo.inserts,
            memo.misses
        );
        assert_eq!(
            memo.tables, 1,
            "count, top-k, and collect over one tree share one table"
        );
        assert!(
            memo.entries <= memo.capacity,
            "the table leaked past its cap: {} entries > {} capacity",
            memo.entries,
            memo.capacity
        );
        server.shutdown();
    });
}

/// One buffered exploration written slowly, in three stalling pieces —
/// the misbehaving-client half of the chaos matrix.
fn slow_explore(addr: std::net::SocketAddr, json: &str) -> Option<WireResponse> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!(
        "POST /v1/explore HTTP/1.1\r\nhost: a\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{json}",
        json.len()
    );
    let bytes = request.as_bytes();
    for piece in bytes.chunks(bytes.len() / 3 + 1) {
        stream.write_all(piece).ok()?;
        std::thread::sleep(Duration::from_millis(25));
    }
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    parse_response(&raw)
}

/// One page plus one resume of its cursor; the resume may find the store
/// chaos-evicted (410) but must never be double-honored or mis-paged.
fn paged_roundtrip(addr: std::net::SocketAddr) -> Option<WireResponse> {
    let mut req = count_request();
    req.output = OutputMode::Collect { limit: 20 };
    req.page_size = Some(7);
    let first = roundtrip(addr, "POST", "/v1/explore", Some(&req.to_json().unwrap()))?;
    if first.status != 200 || !first.complete {
        return Some(first);
    }
    let value: serde_json::Value = serde_json::from_str(first.text()).ok()?;
    let Some(token) = value["paths"]["next_cursor"].as_str() else {
        return Some(first);
    };
    req.cursor = Some(token.to_string());
    let resume = roundtrip(addr, "POST", "/v1/explore", Some(&req.to_json().unwrap()))?;
    if resume.complete {
        assert!(
            resume.status == 200 || resume.status == 410,
            "a genuine cursor resumes or is gone, never {}: {}",
            resume.status,
            resume.text()
        );
        if resume.status == 410 {
            assert!(
                resume.text().contains("\"code\":\"cursor-expired\""),
                "{}",
                resume.text()
            );
        }
    }
    Some(resume)
}

/// The per-response invariants every parsed (non-torn) response obeys.
/// `references` holds the fault-free answers for the two request shapes
/// the storm sends (counts, then ranked).
fn assert_invariants(resp: &WireResponse, references: &[String; 2]) {
    assert!(
        matches!(resp.status, 200 | 400 | 408 | 410 | 500 | 503),
        "unexpected status {}: {}",
        resp.status,
        resp.text()
    );
    if !resp.complete {
        // A response torn mid-body (injected reset or mid-stream panic):
        // nothing further to check — the framing made the tear detectable,
        // which is itself the guarantee.
        return;
    }
    if resp.status != 200 {
        // Every error is a typed envelope, even under fault injection.
        let value: serde_json::Value =
            serde_json::from_str(resp.text()).expect("error bodies are JSON");
        assert!(
            value["error"]["code"].as_str().is_some(),
            "untyped error: {}",
            resp.text()
        );
        return;
    }
    if resp.header("x-cache") == Some("hit") {
        // The load-bearing cache invariant: a hit is always the complete,
        // correct answer — never bytes from a failed or truncated flight.
        let answer = normalized(resp.text());
        let reference = if resp.text().contains("\"counts\"") {
            &references[0]
        } else {
            &references[1]
        };
        assert_eq!(
            &answer, reference,
            "cache served bytes that differ from the true answer"
        );
    }
}

/// Retries a roundtrip until it lands whole — post-storm verification
/// must itself survive the still-armed reset site.
fn retry_until_whole(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> WireResponse {
    for _ in 0..20 {
        if let Some(resp) = roundtrip(addr, method, path, body) {
            if resp.complete {
                return resp;
            }
        }
    }
    panic!("no whole response in 20 attempts");
}

#[test]
fn always_panicking_workers_answer_500_and_never_wedge_singleflight() {
    with_watchdog("panic-storm", Duration::from_secs(60), || {
        // Every engine run panics. Singleflight leaders abandon their
        // flights; followers must notice, recompute, panic themselves, and
        // still answer 500 — nobody waits forever on a dead leader.
        let plan = FaultPlan::new(7).with(FaultSite::PanicBeforeCompute, 1000);
        let server = chaos_server(plan);
        let addr = server.local_addr();
        let json = count_request().to_json().unwrap();

        std::thread::scope(|scope| {
            for _ in 0..8 {
                let json = &json;
                scope.spawn(move || {
                    for _ in 0..6 {
                        let resp = roundtrip(addr, "POST", "/v1/explore", Some(json))
                            .expect("a buffered 500, not a hang");
                        assert_eq!(resp.status, 500, "{}", resp.text());
                    }
                });
            }
        });

        let snapshot = server.metrics();
        assert_eq!(snapshot.server_errors, 48, "every request failed loudly");
        assert_eq!(snapshot.cache.entries, 0, "failed flights are never cached");
        let health = roundtrip(addr, "GET", "/v1/healthz", None).expect("pool alive");
        assert_eq!(health.status, 200);
        server.shutdown();
    });
}

/// The fault-free answer for `json` on `path`, from a pristine server with
/// memoization disabled, normalized for comparison.
fn reference_on(path: &str, json: &str) -> String {
    let server = Server::start(
        ServerConfig {
            memo_entries: 0,
            ..ServerConfig::default()
        },
        brandeis_cs(),
    )
    .expect("reference server");
    let resp = roundtrip(server.local_addr(), "POST", path, Some(json)).expect("reference");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let answer = normalized(resp.text());
    server.shutdown();
    answer
}

#[test]
fn advise_and_whatif_worker_panics_answer_500_and_the_pool_survives() {
    with_watchdog("advise/whatif panics", Duration::from_secs(90), || {
        // Half of all engine runs panic before computing. Advising and
        // what-if share explore's compute step, so their leaders abandon
        // flights and answer typed 500s exactly as explore's do, while
        // every answer that does arrive is the fault-free one.
        let plan = Arc::new(FaultPlan::new(0xAD515E).with(FaultSite::PanicBeforeCompute, 500));
        let server = Server::start(
            ServerConfig {
                threads: 4,
                faults: Arc::clone(&plan),
                ..ServerConfig::default()
            },
            brandeis_cs(),
        )
        .expect("start chaos server");
        let addr = server.local_addr();

        // Distinct cache keys, so panics keep firing after the first
        // success of any one shape is cached.
        let mut requests = Vec::new();
        for k in 1..=3 {
            let advise = format!(
                r#"{{"transcript":{{"start":"Fall 2012","selections":[["COSI 10A","COSI 11A","COSI 29A"]]}},"deadline":"Fall 2014","goal":"degree","k":{k}}}"#
            );
            requests.push(("/v1/advise", advise));
        }
        let base = count_request().to_json().unwrap();
        for avoid in ["COSI 12B", "COSI 21A", "COSI 29A"] {
            let whatif = format!(r#"{{"base":{base},"delta":{{"avoid":["{avoid}"]}}}}"#);
            requests.push(("/v1/whatif", whatif));
        }
        let references: Vec<String> = requests
            .iter()
            .map(|(path, json)| reference_on(path, json))
            .collect();

        let failed = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for client in 0..4 {
                let (requests, references, failed) = (&requests, &references, &failed);
                scope.spawn(move || {
                    for round in 0..3 {
                        for step in 0..requests.len() {
                            let i = (step + client + round) % requests.len();
                            let (path, json) = &requests[i];
                            let resp = roundtrip(addr, "POST", path, Some(json))
                                .expect("a buffered answer, not a hang");
                            assert!(resp.complete, "torn without a reset fault");
                            match resp.status {
                                200 => assert_eq!(
                                    normalized(resp.text()),
                                    references[i],
                                    "{path} answered differently under faults"
                                ),
                                500 => {
                                    assert!(
                                        resp.text().contains("\"code\":\"internal\""),
                                        "untyped 500: {}",
                                        resp.text()
                                    );
                                    failed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                                other => panic!("{path} answered {other}: {}", resp.text()),
                            }
                        }
                    }
                });
            }
        });

        let failed = failed.load(std::sync::atomic::Ordering::Relaxed);
        assert!(failed > 0, "the panic site never fired on advise/what-if");
        assert!(plan.arrivals(FaultSite::PanicBeforeCompute) >= failed);
        let snapshot = server.metrics();
        assert_eq!(snapshot.server_errors, failed, "every panic answered 500");
        assert!(snapshot.advise_computed > 0 && snapshot.whatif_computed > 0);
        // The worker pool survived every panic.
        let health = roundtrip(addr, "GET", "/v1/healthz", None).expect("pool alive");
        assert_eq!(health.status, 200);
        for (i, (path, json)) in requests.iter().enumerate() {
            let resp = retry_until_200(addr, path, json);
            assert_eq!(normalized(resp.text()), references[i], "{path}");
        }
        server.shutdown();
    });
}

/// Retries a request until it is not a chaos 500.
fn retry_until_200(addr: std::net::SocketAddr, path: &str, json: &str) -> WireResponse {
    for _ in 0..64 {
        let resp = roundtrip(addr, "POST", path, Some(json)).expect("served");
        if resp.status == 200 {
            return resp;
        }
        assert_eq!(resp.status, 500, "{}", resp.text());
    }
    panic!("{path} never answered 200");
}

#[test]
fn dropped_cache_puts_cost_recompute_never_wrong_bytes() {
    with_watchdog("drop-put", Duration::from_secs(60), || {
        // Every put is dropped: the cache never fills, every request
        // recomputes, and all answers stay semantically identical.
        let plan = FaultPlan::new(11).with(FaultSite::DropCachePut, 1000);
        let server = chaos_server(plan);
        let addr = server.local_addr();
        let json = count_request().to_json().unwrap();
        let reference = reference_answer(&json);

        for _ in 0..4 {
            let resp = roundtrip(addr, "POST", "/v1/explore", Some(&json)).expect("served");
            assert_eq!(resp.status, 200, "{}", resp.text());
            assert_eq!(
                resp.header("x-cache"),
                Some("miss"),
                "with every put dropped there is nothing to hit"
            );
            assert_eq!(normalized(resp.text()), reference);
        }

        let snapshot = server.metrics();
        assert_eq!(snapshot.cache.entries, 0, "no put ever landed");
        assert_eq!(snapshot.explore_computed, 4, "every request recomputed");
        server.shutdown();
    });
}

#[test]
fn mid_write_resets_are_counted_and_service_survives() {
    with_watchdog("reset-storm", Duration::from_secs(60), || {
        // Every buffered response is torn mid-status-line. Clients see a
        // clean tear (no parseable head), the reset counter accounts each
        // one, and the next connection is served fresh.
        let plan = FaultPlan::new(13).with(FaultSite::ResetMidWrite, 1000);
        let server = chaos_server(plan);
        let addr = server.local_addr();
        let json = count_request().to_json().unwrap();

        for _ in 0..5 {
            assert!(
                roundtrip(addr, "POST", "/v1/explore", Some(&json)).is_none(),
                "a torn head must not parse as a response"
            );
        }
        let snapshot = server.metrics();
        assert_eq!(snapshot.connections_reset, 5, "every tear is counted");
        assert_eq!(
            snapshot.server_errors, 0,
            "a reset is not a handler failure"
        );
        server.shutdown();
    });
}

#[test]
fn chaos_evicted_sessions_die_loudly_never_resume_wrong() {
    with_watchdog("evict-storm", Duration::from_secs(60), || {
        // Every mint first flushes the store: concurrent pagers constantly
        // kill each other's cursors. Every resume must be a correct next
        // page or a clean 410 — and the single-use guarantee must hold.
        let plan = FaultPlan::new(17).with(FaultSite::EvictSessions, 1000);
        let server = chaos_server(plan);
        let addr = server.local_addr();

        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(move || {
                    for _ in 0..8 {
                        let resp = paged_roundtrip(addr).expect("paged flow answers");
                        assert!(
                            matches!(resp.status, 200 | 410),
                            "{}: {}",
                            resp.status,
                            resp.text()
                        );
                    }
                });
            }
        });

        let snapshot = server.metrics();
        let s = &snapshot.sessions;
        assert_eq!(
            s.resumed + s.evicted + s.live,
            s.created,
            "chaos evictions must conserve sessions: {s:?}"
        );
        server.shutdown();
    });
}

#[test]
fn stalling_clients_time_out_without_poisoning_the_pool() {
    with_watchdog("stall", Duration::from_secs(60), || {
        // Clients that stop mid-request-head: the worker's read deadline
        // fires, answers 408, and the worker moves on — a handful of
        // stallers cannot wedge the pool.
        let server = Server::start(
            ServerConfig {
                threads: 2,
                keep_alive: Duration::from_millis(300),
                faults: Arc::new(FaultPlan::disabled()),
                ..ServerConfig::default()
            },
            brandeis_cs(),
        )
        .expect("start server");
        let addr = server.local_addr();

        let stallers: Vec<TcpStream> = (0..4)
            .map(|_| {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(b"POST /v1/explore HTT").unwrap();
                s // ...and never another byte
            })
            .collect();
        // Both workers are stuck on stallers for at most `keep_alive`;
        // afterwards real traffic flows again.
        std::thread::sleep(Duration::from_millis(700));
        let resp = retry_until_whole(addr, "GET", "/v1/healthz", None);
        assert_eq!(resp.status, 200, "{}", resp.text());
        for mut s in stallers {
            // Each staller was told 408 before the close (it had bytes in
            // flight, so the close is not silent).
            let mut raw = Vec::new();
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            let _ = s.read_to_end(&mut raw);
            if let Some(resp) = parse_response(&raw) {
                assert_eq!(resp.status, 408, "{}", resp.text());
            }
        }
        server.shutdown();
    });
}

/// A snapshot-enabled chaos config over `dir`, with the given plan.
fn snapshot_chaos_config(dir: &std::path::Path, plan: FaultPlan) -> ServerConfig {
    ServerConfig {
        snapshot_dir: Some(dir.to_path_buf()),
        snapshot_every: Duration::from_secs(3600),
        default_budget_ms: None,
        faults: Arc::new(plan),
        ..ServerConfig::default()
    }
}

#[test]
fn torn_first_snapshot_leaves_no_file_and_the_restart_is_cold_correct() {
    with_watchdog("torn-first-snapshot", Duration::from_secs(60), || {
        let json = count_request().to_json().unwrap();
        let reference = reference_answer(&json);
        let dir = std::env::temp_dir().join(format!("coursenav-chaos-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Every snapshot write tears mid-temp-file: the rename never
        // happens, so no snapshot file ever appears.
        let plan = FaultPlan::new(19).with(FaultSite::SnapshotWriteTorn, 1000);
        let server =
            Server::start(snapshot_chaos_config(&dir, plan), brandeis_cs()).expect("start server");
        let addr = server.local_addr();
        let warmup = roundtrip(addr, "POST", "/v1/explore", Some(&json)).expect("answers");
        assert_eq!(warmup.status, 200, "{}", warmup.text());

        let resp = roundtrip(addr, "POST", "/v1/snapshot", None).expect("route answers");
        assert_eq!(resp.status, 500, "{}", resp.text());
        assert!(resp.text().contains("snapshot-failed"), "{}", resp.text());
        assert!(
            !dir.join(coursenav_server::snapshot::SNAPSHOT_FILE).exists(),
            "a torn write must never be promoted to the final name"
        );
        let metrics = common::fetch_metrics(addr);
        assert!(
            metrics["snapshot"]["write-errors"].as_u64().unwrap() >= 1,
            "{metrics:?}"
        );
        server.shutdown();

        // The restart finds nothing to restore and serves cold-correct.
        let restarted = Server::start(
            snapshot_chaos_config(&dir, FaultPlan::disabled()),
            brandeis_cs(),
        )
        .expect("restart");
        let report = restarted
            .warm_from(&dir)
            .expect("cold start is not an error");
        assert!(!report.loaded, "{report:?}");
        let resp =
            roundtrip(restarted.local_addr(), "POST", "/v1/explore", Some(&json)).expect("answers");
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(
            normalized(resp.text()),
            reference,
            "cold-correct after the tear"
        );
        restarted.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn a_tear_preserves_the_prior_snapshot_and_the_restart_restores_it() {
    with_watchdog("torn-second-snapshot", Duration::from_secs(60), || {
        let json = count_request().to_json().unwrap();
        let reference = reference_answer(&json);
        let dir =
            std::env::temp_dir().join(format!("coursenav-chaos-prior-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snap_path = dir.join(coursenav_server::snapshot::SNAPSHOT_FILE);

        // A clean first snapshot, then a kill -9 spelled as shutdown.
        let server = Server::start(
            snapshot_chaos_config(&dir, FaultPlan::disabled()),
            brandeis_cs(),
        )
        .expect("start server");
        let warm =
            roundtrip(server.local_addr(), "POST", "/v1/explore", Some(&json)).expect("answers");
        assert_eq!(warm.status, 200, "{}", warm.text());
        let resp = roundtrip(server.local_addr(), "POST", "/v1/snapshot", None).expect("answers");
        assert_eq!(resp.status, 200, "{}", resp.text());
        let good_bytes = std::fs::read(&snap_path).expect("first snapshot exists");
        server.shutdown();

        // The next incarnation restores, then tears its own write: the
        // prior complete snapshot must survive byte-for-byte.
        let plan = FaultPlan::new(23).with(FaultSite::SnapshotWriteTorn, 1000);
        let torn = Server::start(snapshot_chaos_config(&dir, plan), brandeis_cs())
            .expect("restart under chaos");
        let report = torn.warm_from(&dir).expect("restore applies");
        assert_eq!(report.tenants_restored, 1, "{report:?}");
        let resp = roundtrip(torn.local_addr(), "POST", "/v1/snapshot", None).expect("answers");
        assert_eq!(resp.status, 500, "{}", resp.text());
        assert_eq!(
            std::fs::read(&snap_path).expect("prior snapshot still present"),
            good_bytes,
            "a torn write must not touch the last complete snapshot"
        );

        // Warm answers off the restored state are byte-identical to the
        // memo-free ground truth, tear or no tear.
        let answer =
            roundtrip(torn.local_addr(), "POST", "/v1/explore", Some(&json)).expect("answers");
        assert_eq!(answer.status, 200, "{}", answer.text());
        assert_eq!(
            normalized(answer.text()),
            reference,
            "warm equals ground truth"
        );
        torn.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn stalled_writers_are_reaped_without_blocking_the_loop_or_a_worker() {
    with_watchdog("connection-stall", Duration::from_secs(60), || {
        // `ConnectionStall` freezes a connection's writes at dispatch —
        // the peer has, as far as the loop is concerned, stopped reading
        // mid-response. The invariants: the worker finishes its compute
        // and moves on immediately (the response parks in the loop's
        // output buffer, not in a thread), the event loop keeps serving
        // every other connection, and the write-stall reaper resets the
        // frozen connection within the keep-alive window.
        let plan = FaultPlan::new(97).with(FaultSite::ConnectionStall, 500);
        let server = Server::start(
            ServerConfig {
                threads: 2,
                keep_alive: Duration::from_millis(300),
                faults: Arc::new(plan),
                ..ServerConfig::default()
            },
            brandeis_cs(),
        )
        .expect("start server");
        let addr = server.local_addr();

        // A burst wider than the worker pool: with ~half the dispatches
        // stalling, two stalled writers would wedge a 2-thread pool in
        // under a second if stalls held workers. Every client either
        // gets a whole response or a clean reset — and the server keeps
        // answering throughout.
        let mut whole = 0usize;
        let mut torn = 0usize;
        for _ in 0..24 {
            match roundtrip(addr, "GET", "/v1/healthz", None) {
                Some(resp) if resp.complete => {
                    assert_eq!(resp.status, 200, "{}", resp.text());
                    whole += 1;
                }
                _ => torn += 1, // stalled, then reaped: a clean close/reset
            }
        }
        assert!(whole > 0, "some dispatches dodge the 500-per-mille stall");
        assert!(torn > 0, "some dispatches hit the stall");

        // The reaper needs at most the keep-alive window per stall; the
        // serial client above already waited most of it out.
        std::thread::sleep(Duration::from_millis(700));
        let resp = retry_until_whole(addr, "GET", "/v1/metrics", None);
        let metrics: serde_json::Value = serde_json::from_str(resp.text()).expect("metrics JSON");
        assert!(
            metrics["event-loop"]["reaped-stalled"].as_u64().unwrap() >= torn as u64,
            "{metrics:?}"
        );
        // A reaped stall is a reset, and resets are accounted.
        assert!(
            metrics["connections-reset"].as_u64().unwrap() >= torn as u64,
            "{metrics:?}"
        );
        // No stalled connection holds its slot past the reap.
        assert!(
            metrics["event-loop"]["connections-held"].as_u64().unwrap() <= 2,
            "{metrics:?}"
        );

        // Both workers are demonstrably free: compute-bound requests are
        // served back-to-back after the stall storm.
        let json = count_request().to_json().unwrap();
        for _ in 0..3 {
            let resp = retry_until_whole(addr, "POST", "/v1/explore", Some(&json));
            assert_eq!(resp.status, 200, "{}", resp.text());
        }

        server.shutdown();
    });
}

#[test]
fn an_aborted_peer_mid_dispatch_never_spins_the_loop() {
    with_watchdog("hup-mid-dispatch", Duration::from_secs(60), || {
        // A peer that RSTs while its request is dispatched leaves the
        // connection with an empty interest mask (reads paused, nothing
        // owed) — but epoll reports EPOLLHUP/EPOLLERR regardless of the
        // mask. The regression this pins: the loop must consume that
        // event by reaping the connection, not redeliver-spin at 100%
        // CPU until the worker's completion finally arrives.
        let plan = FaultPlan::new(11)
            .with(FaultSite::ComputeDelay, 1000)
            .with_delay(Duration::from_millis(600));
        let server = chaos_server(plan);
        let addr = server.local_addr();

        // Two pipelined explores (distinct bodies, so the second cannot
        // answer from cache), never read: the first's response lands
        // unread in our receive buffer while the second dispatches into
        // its 600 ms ComputeDelay. Dropping the socket with unread data
        // then sends RST, which reaches the server mid-dispatch.
        let first = count_request().to_json().unwrap();
        let second = {
            let mut req = count_request();
            req.output = OutputMode::TopK { k: 5 };
            req.ranking = Some(RankingSpec::Time);
            req.to_json().unwrap()
        };
        let raw = format!(
            "POST /v1/explore HTTP/1.1\r\nhost: a\r\ncontent-length: {}\r\n\r\n{first}\
             POST /v1/explore HTTP/1.1\r\nhost: a\r\ncontent-length: {}\r\n\r\n{second}",
            first.len(),
            second.len(),
        );
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        // First reply ~600 ms in; the second dispatch then sleeps until
        // ~1200 ms. At 900 ms the abort lands squarely mid-dispatch.
        std::thread::sleep(Duration::from_millis(900));
        drop(s); // unread response in our buffer ⇒ RST, not FIN

        // While the second compute still sleeps, the loop must stay
        // quiet. Pre-fix it spins here, racking up tens of thousands of
        // wakeups in these 250 ms; a healthy loop logs a handful for
        // the whole test.
        std::thread::sleep(Duration::from_millis(250));
        let metrics = common::fetch_metrics(addr);
        let wakeups = metrics["event-loop"]["epoll-wakeups"].as_u64().unwrap();
        assert!(
            wakeups < 20_000,
            "event loop is spinning on the hung-up connection: {wakeups} wakeups"
        );
        // The aborted connection was reaped the moment the hangup
        // arrived — before its dispatched compute ever finished — and
        // the reap is a counted reset. Only the metrics probe's own
        // connection may still be held.
        assert!(
            metrics["event-loop"]["connections-held"].as_u64().unwrap() <= 1,
            "{metrics:?}"
        );
        assert!(
            metrics["connections-reset"].as_u64().unwrap() >= 1,
            "{metrics:?}"
        );

        // The worker's late completion for the bumped generation is
        // dropped harmlessly; the pool and loop both keep serving.
        let resp = retry_until_whole(addr, "GET", "/v1/healthz", None);
        assert_eq!(resp.status, 200, "{}", resp.text());

        server.shutdown();
    });
}
