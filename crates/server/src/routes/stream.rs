//! The NDJSON request pipeline: one driver serves the chunked routes,
//! `POST /v1/explore/stream` and `POST /v1/advise/batch`.
//!
//! The driver owns admission, body parsing, tenant resolution, the panic
//! firewall, and the lazy chunked head: a refusal found before the first
//! line is still an ordinary buffered error on the same connection; one
//! found after it rides the last line as `{"error":{...}}`.

use std::io::Write;
use std::ops::ControlFlow;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

use coursenav_navigator::{
    BatchAdviseRequest, ExplorationRequest, ExplorationResponse, StreamedItem,
};
use serde_json::{Number, Value};

use super::buffered::{explore_page, seal_page};
use super::{degrade, parse_body, resolve_tenant, Body, Engine};
use crate::http::{self, Request, Response};
use crate::metrics::{bump, Metrics};
use crate::overload::Admission;
use crate::registry::Tenant;
use crate::AppState;

/// One NDJSON workload, as the streaming driver sees it.
pub(super) trait Streamed: Body {
    /// Counts the request (before admission, like buffered routes).
    fn count(metrics: &Metrics);
    /// Refusals that need no tenant.
    fn check(&self) -> Result<(), Response> {
        Ok(())
    }
    /// Runs the workload at degradation `level`, writing its lines to
    /// `out`. `Err` is the typed refusal.
    fn run<W: Write>(
        self,
        state: &AppState,
        tenant: &Tenant,
        level: u8,
        out: &mut Ndjson<'_, W>,
    ) -> Result<(), Response>;
}

/// A chunked `application/x-ndjson` body whose `200` head goes out with
/// the first line.
pub(super) struct Ndjson<'c, W: Write> {
    conn: &'c mut W,
    headers: Vec<(String, String)>,
    started: bool,
    /// The connection died mid-stream (the event loop reaped or reset it
    /// and closed our buffer). The loop owns the reset accounting.
    broken: bool,
}

impl<W: Write> Ndjson<'_, W> {
    /// Writes one line; `false` once the connection is gone.
    fn line(&mut self, value: &Value) -> bool {
        let mut bytes = serde_json::to_string(value)
            .unwrap_or_default()
            .into_bytes();
        bytes.push(b'\n');
        self.raw(&bytes)
    }

    fn raw(&mut self, line: &[u8]) -> bool {
        if !self.started {
            self.started = true;
            self.broken =
                http::write_chunked_head(self.conn, 200, "application/x-ndjson", &self.headers)
                    .is_err();
        }
        self.broken = self.broken || http::write_chunk(self.conn, line).is_err();
        !self.broken
    }
}

/// Serves one NDJSON request end to end and returns the status to
/// account under `/v1/metrics`. A panic after the chunked head is on the
/// wire cannot be turned into an error response; dropping the connection
/// mid-body is the signal.
pub(super) fn serve<T: Streamed, W: Write>(
    state: &AppState,
    conn: &mut W,
    request: &Request,
) -> u16 {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        T::count(&state.metrics);
        let (level, probe) = match state.overload.admit() {
            Admission::Reject { retry_after } => {
                return fail(conn, &Response::overloaded(retry_after))
            }
            Admission::Go { level, probe } => (level, probe),
        };
        let t0 = Instant::now();
        let status = admitted::<T, W>(state, conn, request, level);
        state.overload.observe(t0.elapsed(), status < 500, probe);
        status
    }))
    .unwrap_or(500)
}

/// A refusal before any chunk: an ordinary buffered response.
fn fail<W: Write>(conn: &mut W, resp: &Response) -> u16 {
    let _ = http::write_response(conn, resp, false);
    resp.status
}

fn admitted<T: Streamed, W: Write>(
    state: &AppState,
    conn: &mut W,
    request: &Request,
    level: u8,
) -> u16 {
    let mut headers = vec![("x-cache".to_string(), "bypass".to_string())];
    if level > 0 {
        headers.push(("x-degraded".to_string(), level.to_string()));
    }
    let mut out = Ndjson {
        conn,
        headers,
        started: false,
        broken: false,
    };
    let result = parse_body::<T>(request).and_then(|req| {
        req.check()?;
        let tenant = resolve_tenant(state, request, req.tenant())?;
        req.run(state, &tenant, level, &mut out)
    });
    let status = match result {
        _ if out.broken => return 200,
        Ok(()) => 200,
        Err(resp) if !out.started => return fail(out.conn, &resp),
        // Mid-stream failure: the 200 head is already on the wire, so the
        // typed error rides the last line instead.
        Err(resp) => {
            out.raw(&[&resp.body[..], b"\n"].concat());
            resp.status
        }
    };
    let _ = http::finish_chunks(out.conn);
    status
}

/// A `{"<key>":<value>}` line.
fn single(key: &str, value: Value) -> Value {
    Value::Object(vec![(key.to_string(), value)])
}

fn number(n: usize) -> Value {
    Value::Num(Number::U(n as u128))
}

/// `POST /v1/explore/stream`: the same exploration (and the same
/// resumable-session semantics) as `/v1/explore`, delivered as chunked
/// NDJSON — one `{"path":...}` or `{"ranked":...}` line the moment the
/// engine yields it, then one final `{"done":<response>}` line whose
/// `paths` are cleared (they were already streamed) and whose
/// `next_cursor` carries the resume token.
impl Streamed for ExplorationRequest {
    fn count(metrics: &Metrics) {
        bump(&metrics.explore.requests);
        bump(&metrics.explore_streamed);
    }

    fn run<W: Write>(
        mut self,
        state: &AppState,
        tenant: &Tenant,
        level: u8,
        out: &mut Ndjson<'_, W>,
    ) -> Result<(), Response> {
        degrade(state, &mut self, level);
        let engine = Engine::new(state, tenant, self.budget_ms);
        let mut sink = |item: StreamedItem<'_>| {
            let line = match item {
                StreamedItem::Path(p) => single("path", serde_json::to_value(p)),
                StreamedItem::Ranked(r) => single("ranked", serde_json::to_value(r)),
            };
            if out.line(&line) {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        };
        let outcome = explore_page(&engine, &self, Some(&mut sink))?;
        if out.broken {
            return Ok(());
        }
        // The summary line: the response minus the already-streamed paths.
        let mut response = seal_page(&engine, outcome);
        match &mut response {
            ExplorationResponse::Paths { paths, .. } => paths.clear(),
            ExplorationResponse::Ranked { paths, .. } => paths.clear(),
            ExplorationResponse::Counts { .. } => {}
        }
        out.line(&single("done", serde_json::to_value(&response)));
        Ok(())
    }
}

impl Body for BatchAdviseRequest {
    const NOUN: &'static str = "advise batch";

    fn parse(body: &str) -> serde_json::Result<Self> {
        BatchAdviseRequest::from_json(body)
    }

    fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }
}

/// `POST /v1/advise/batch`: cohort advising. One shared `(tenant, epoch)`
/// transposition table warms across every student (their derived
/// explorations share a memo key by construction). Lines are
/// `{"student":i,"advise":<response>}` or `{"student":i,"error":{...}}`
/// (one student's bad transcript never sinks the cohort), closed by one
/// `{"done":{"students":N,"errors":E,"truncated":bool}}` summary. The
/// batch bypasses the response cache — the shared memo table is where
/// the cohort's overlap pays off.
impl Streamed for BatchAdviseRequest {
    fn count(metrics: &Metrics) {
        bump(&metrics.advise_batch_requests);
    }

    fn check(&self) -> Result<(), Response> {
        if self.students.is_empty() {
            return Err(Response::error_field(
                400,
                "invalid-request",
                "students",
                "at least one student is required",
                false,
            ));
        }
        Ok(())
    }

    fn run<W: Write>(
        self,
        state: &AppState,
        tenant: &Tenant,
        level: u8,
        out: &mut Ndjson<'_, W>,
    ) -> Result<(), Response> {
        // Every student in the cohort derives the same memo key (the key
        // masks transcript-specific state), so one table fetch serves them
        // all — student 1's subtrees answer student 2's overlapping
        // suffixes.
        let table = tenant.memo().table_for(&self.student(0).memo_key());
        let mut errors = 0;
        let mut truncated = false;
        for i in 0..self.students.len() {
            bump(&state.metrics.advise_batch_students);
            let mut req = self.student(i);
            degrade(state, &mut req, level);
            // The budget is per student, restarted each iteration: a
            // cohort of N gets N budgets, not one split N ways.
            let engine = Engine::new(state, tenant, req.budget_ms);
            let answer = super::transcript_status(tenant, &req.transcript)
                .map_err(|e| {
                    // Re-root the field path at this student's slot in the
                    // batch: `transcript.selections[2]` → `students[4].selections[2]`.
                    let field = format!(
                        "students[{i}].{}",
                        e.field().trim_start_matches("transcript.")
                    );
                    http::error_object(e.code(), Some(&field), &e.to_string(), false)
                })
                .and_then(|()| {
                    engine
                        .service
                        .advise_until_memo(&req, None, engine.deadline, 1, table.as_deref())
                        .map_err(|e| engine_error_object(&e))
                });
            let (key, value) = match answer {
                Ok(outcome) => {
                    truncated |= outcome.response.truncated;
                    ("advise", serde_json::to_value(&outcome.response))
                }
                Err(error) => {
                    errors += 1;
                    ("error", error)
                }
            };
            let line = Value::Object(vec![
                ("student".to_string(), number(i)),
                (key.to_string(), value),
            ]);
            if !out.line(&line) {
                return Ok(());
            }
        }
        out.line(&single(
            "done",
            Value::Object(vec![
                ("students".to_string(), number(self.students.len())),
                ("errors".to_string(), number(errors)),
                ("truncated".to_string(), Value::Bool(truncated)),
            ]),
        ));
        Ok(())
    }
}

/// The `error` object of an engine failure's buffered body, for an
/// NDJSON line.
fn engine_error_object(e: &coursenav_navigator::ServiceError) -> Value {
    http::error_object(e.code(), None, &e.to_string(), e.retryable())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coursenav_navigator::{ExploreError, ServiceError};

    #[test]
    fn batch_error_lines_carry_the_buffered_error_object() {
        for e in [
            ServiceError::Explore(ExploreError::InvalidRequest("no paging here".into())),
            ServiceError::Explore(ExploreError::InvalidCursor("forged".into())),
        ] {
            let buffered: Value = serde_json::from_slice(&Response::from(e.clone()).body).unwrap();
            let Value::Object(fields) = buffered else {
                panic!("typed error bodies are objects");
            };
            assert_eq!(fields.len(), 1, "the body is {{\"error\":...}} alone");
            assert_eq!(fields[0].0, "error");
            assert_eq!(engine_error_object(&e), fields[0].1);
        }
    }
}
