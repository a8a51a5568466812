//! The answer check: every loopback response against the in-process
//! answer to the same request on the same catalog.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use serde_json::Value;

use crate::client::{LoopRun, Record};
use crate::plan::{Op, Plan};
use crate::replay::{Answer, Replayer, Tracer};

/// The outcome of checking one run.
#[derive(Debug, Default)]
pub struct Checked {
    /// Requests sent.
    pub attempted: usize,
    /// Requests that failed, by reason (`error`, `degraded`,
    /// `truncated`, `mismatch`); each request counts under one reason.
    pub failed: BTreeMap<&'static str, usize>,
    /// The first failure, described, for the log.
    pub example: Option<String>,
}

impl Checked {
    /// Total failed requests.
    pub fn failures(&self) -> usize {
        self.failed.values().sum()
    }
}

/// Replays the run's interactions in-process on `threads` threads and
/// compares every recorded response with its reference answer.
pub fn check(plan: &Plan, run: &LoopRun, threads: usize) -> Checked {
    let replayer = Replayer::new(plan);
    // Records are sorted by (interaction, page), and every started
    // interaction has at least one: index each interaction's slice once.
    let mut starts = Vec::with_capacity(run.interactions + 1);
    for (i, r) in run.records.iter().enumerate() {
        while starts.len() <= r.n as usize {
            starts.push(i);
        }
    }
    while starts.len() <= run.interactions {
        starts.push(run.records.len());
    }
    let next = AtomicUsize::new(0);
    let total = Mutex::new(Checked {
        attempted: run.records.len(),
        ..Checked::default()
    });
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut seen: HashMap<(u32, u64), Option<&'static str>> = HashMap::new();
                let mut local = Checked::default();
                let mut tracer = Tracer::new(false);
                loop {
                    let n = next.fetch_add(1, Ordering::SeqCst);
                    if n >= run.interactions {
                        break;
                    }
                    let item = plan.item(n);
                    let records = &run.records[starts[n]..starts[n + 1]];
                    let answers = replayer.interaction(item, n as u64, &mut tracer);
                    for record in records {
                        let verdict = judge(
                            record,
                            answers.get(record.page as usize),
                            run,
                            item.op,
                            &mut seen,
                        );
                        if let Some(reason) = verdict {
                            *local.failed.entry(reason).or_default() += 1;
                            if local.example.is_none() {
                                local.example = Some(format!(
                                    "interaction {n} page {} ({:?}): {reason}; status {}; body {}",
                                    record.page,
                                    item.op,
                                    record.status,
                                    run.bodies
                                        .get(record.body as usize)
                                        .map(|b| String::from_utf8_lossy(&b[..b.len().min(300)])
                                            .into_owned())
                                        .unwrap_or_default()
                                ));
                            }
                        }
                    }
                }
                let mut total = total
                    .lock()
                    .expect("no checker thread panics holding the lock");
                for (reason, count) in local.failed {
                    *total.failed.entry(reason).or_default() += count;
                }
                if total.example.is_none() {
                    total.example = local.example;
                }
            });
        }
    });
    total
        .into_inner()
        .expect("no checker thread panics holding the lock")
}

/// Why `record` failed, if it did.
fn judge(
    record: &Record,
    expected: Option<&Answer>,
    run: &LoopRun,
    op: Op,
    seen: &mut HashMap<(u32, u64), Option<&'static str>>,
) -> Option<&'static str> {
    if !(200..300).contains(&record.status) {
        return Some("error");
    }
    if record.degraded {
        return Some("degraded");
    }
    let Some(expected) = expected else {
        return Some("mismatch");
    };
    let mut h = std::collections::hash_map::DefaultHasher::new();
    expected.body.hash(&mut h);
    *seen.entry((record.body, h.finish())).or_insert_with(|| {
        let got = normalize(&run.bodies[record.body as usize], op);
        let want = normalize(&expected.body, op);
        match (got, want) {
            (Some(got), Some(want)) if got == want => None,
            // A truncated flag the deadline-free reference does not share
            // means the server cut the answer short; a collect limit or a
            // page boundary marks both sides alike.
            (Some(got), Some(want)) if truncated(&got) && !truncated(&want) => Some("truncated"),
            _ => Some("mismatch"),
        }
    })
}

/// A response body as comparable JSON: NDJSON streams become an array of
/// lines; wall-clock fields (`millis`) are dropped; resume tokens become
/// a placeholder (they are signed per process), keeping whether one was
/// issued. Swap answers keep only what does not depend on interleaving
/// (the epoch and the count of cache entries dropped do).
fn normalize(body: &[u8], op: Op) -> Option<Value> {
    let mut value = match serde_json::from_slice::<Value>(body) {
        Ok(v) => v,
        Err(_) => Value::Array(
            body.split(|&b| b == b'\n')
                .filter(|l| !l.is_empty())
                .map(serde_json::from_slice)
                .collect::<Result<Vec<Value>, _>>()
                .ok()?,
        ),
    };
    scrub(&mut value, op == Op::Swap);
    Some(value)
}

fn scrub(value: &mut Value, swap: bool) {
    match value {
        Value::Object(fields) => {
            fields
                .retain(|(k, _)| k != "millis" && !(swap && (k == "epoch" || k == "invalidated")));
            for (k, v) in fields.iter_mut() {
                if (k == "next_cursor" || k == "next-cursor") && v.as_str().is_some() {
                    *v = Value::Str("<cursor>".into());
                } else {
                    scrub(v, swap);
                }
            }
        }
        Value::Array(items) => items.iter_mut().for_each(|v| scrub(v, swap)),
        _ => {}
    }
}

/// The first `truncated` flag in a response.
fn truncated(value: &Value) -> bool {
    match value {
        Value::Object(fields) => fields.iter().any(|(k, v)| {
            if k == "truncated" {
                v.as_bool() == Some(true)
            } else {
                truncated(v)
            }
        }),
        Value::Array(items) => items.iter().any(truncated),
        _ => false,
    }
}
