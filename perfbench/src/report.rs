//! Turning a run into metrics: client-side percentiles, `/v1/metrics`
//! counter deltas, the traced replay's per-layer self times, provenance,
//! and the result line.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::check::Checked;
use crate::client::{LoopRun, SERVER_ARGS};
use crate::plan::{Op, Plan};
use crate::replay::{Replayer, Span, Tracer};

/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".perfbench";

/// A named metric value with its unit, in output order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The `q`-quantile of `values` (nearest rank on a sorted copy).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Deltas of `/v1/metrics` counters across the timed window.
pub struct Counters {
    before: Value,
    after: Value,
}

impl Counters {
    /// Snapshots from just before and just after the closed loop.
    pub fn new(before: &Value, after: &Value) -> Counters {
        Counters {
            before: before.clone(),
            after: after.clone(),
        }
    }

    /// `after − before` of the counter at `path`.
    pub fn delta(&self, path: &[&str]) -> f64 {
        read(&self.after, path) - read(&self.before, path)
    }

    /// The gauge at `path` at the end of the loop.
    pub fn end(&self, path: &[&str]) -> f64 {
        read(&self.after, path)
    }
}

fn read(v: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// The end-to-end figures of one untraced run, over its kept windows.
pub struct EndToEnd {
    setup_s: f64,
    all_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    by_family: BTreeMap<&'static str, Vec<f64>>,
    requests_per_s: f64,
    rss_mb: f64,
    cpu_ms_per_req: f64,
}

impl EndToEnd {
    /// Summarizes the closed loop's kept windows and the set-up repeats.
    pub fn new(run: &LoopRun, setups: &[f64], rss_mb: f64) -> EndToEnd {
        let mut by_family: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut all_ms = Vec::with_capacity(run.records.len());
        let mut hit_ms = Vec::new();
        for r in &run.records {
            if !run.is_kept(r) {
                continue;
            }
            let ms = r.latency_ns as f64 / 1e6;
            all_ms.push(ms);
            if r.hit {
                hit_ms.push(ms);
            }
            by_family.entry(r.op.family()).or_default().push(ms);
        }
        let (mut seconds, mut server_cpu_s) = (0.0, 0.0);
        for (w, _) in run.windows.iter().zip(&run.kept).filter(|(_, &k)| k) {
            seconds += (w.end - w.start).as_secs_f64();
            server_cpu_s += w.server_cpu_s;
        }
        EndToEnd {
            setup_s: median(setups),
            requests_per_s: all_ms.len() as f64 / seconds,
            cpu_ms_per_req: server_cpu_s * 1e3 / all_ms.len().max(1) as f64,
            all_ms,
            hit_ms,
            by_family,
            rss_mb,
        }
    }

    fn family_p50(&self, family: &str) -> f64 {
        self.by_family
            .get(family)
            .map(|v| median(v))
            .unwrap_or(f64::NAN)
    }

    /// The `--trace 0` metrics, named as in `BENCHMARK.json`.
    pub fn metrics(&self) -> Metrics {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("requests_per_s", self.requests_per_s, "1/s"),
            ("latency_p50_ms", median(&self.all_ms), "ms"),
            ("latency_p99_ms", quantile(&self.all_ms, 0.99), "ms"),
            ("explore_p50_ms", self.family_p50("explore"), "ms"),
            ("advise_p50_ms", self.family_p50("advise"), "ms"),
            ("whatif_p50_ms", self.family_p50("whatif"), "ms"),
            ("swap_p50_ms", self.family_p50("swap"), "ms"),
            ("server_rss_mb", self.rss_mb, "MiB"),
            ("server_cpu_ms_per_req", self.cpu_ms_per_req, "ms"),
        ]
    }
}

/// The traced in-process replay of a fixed, seed-determined prefix of the
/// plan, plus the same replay untraced (the tracing overhead).
pub struct Traced {
    tracer: Tracer,
    /// Every replayed request, in order: its interaction, its page within
    /// it, its root-span duration in microseconds, and whether the replay
    /// answered it from cache.
    roots: Vec<(u32, u16, f64, bool)>,
    on: Duration,
    off: Duration,
}

/// Interactions the traced replay covers: the plan's base prefix,
/// extended until every request kind occurs at least three times.
fn trace_prefix(plan: &Plan) -> usize {
    let mut seen: BTreeMap<(Op, bool), usize> = BTreeMap::new();
    let kinds: std::collections::BTreeSet<(Op, bool)> =
        plan.items.iter().map(|i| (i.op, i.paged)).collect();
    for n in 0..plan.order.len() {
        let item = plan.item(n);
        *seen.entry((item.op, item.paged)).or_default() += 1;
        if n + 1 >= plan.trace_len && kinds.iter().all(|k| seen.get(k).copied().unwrap_or(0) >= 3) {
            return n + 1;
        }
    }
    plan.order.len()
}

/// Replays the first `len` interactions on fresh serving state; returns
/// the wall time and, when `on`, the filled tracer.
fn replay(plan: &Plan, len: usize, on: bool) -> (Duration, Tracer, Vec<bool>) {
    let replayer = Replayer::new(plan);
    let mut tracer = Tracer::new(on);
    let mut hits = Vec::new();
    let t0 = Instant::now();
    for n in 0..len {
        let answers = replayer.interaction(plan.item(n), n as u64, &mut tracer);
        hits.extend(answers.iter().map(|a| a.x_cache == "hit"));
    }
    (t0.elapsed(), tracer, hits)
}

impl Traced {
    /// Replays the prefix once to warm the process up, then untraced,
    /// traced, traced, untraced (each on fresh serving state, so drift
    /// cancels); the overhead compares the two traced wall times with the
    /// two untraced ones.
    pub fn run(plan: &Plan) -> Traced {
        let len = trace_prefix(plan);
        replay(plan, len, false);
        let (off_a, _, _) = replay(plan, len, false);
        let (on_a, _, _) = replay(plan, len, true);
        let (on_b, tracer, hits) = replay(plan, len, true);
        let (off_b, _, _) = replay(plan, len, false);
        let mut roots = Vec::with_capacity(hits.len());
        for (span, hit) in tracer.spans.iter().filter(|s| s.parent.is_none()).zip(hits) {
            let page = match roots.last() {
                Some(&(n, page, _, _)) if n as u64 == span.req => page + 1,
                _ => 0,
            };
            let us = (span.end_ns - span.start_ns) as f64 / 1e3;
            roots.push((span.req as u32, page, us, hit));
        }
        Traced {
            tracer,
            roots,
            on: (on_a + on_b) / 2,
            off: (off_a + off_b) / 2,
        }
    }

    /// The socket, event-loop and queue share of a request: the client's
    /// median latency minus the replay's median, both over the requests
    /// the replay covers (the same interactions and pages). Cache hits on
    /// both sides where the workload has them, else all those requests.
    fn residual_us(&self, run: &LoopRun) -> f64 {
        let replayed: HashMap<(u32, u16), (f64, bool)> = self
            .roots
            .iter()
            .map(|&(n, page, us, hit)| ((n, page), (us, hit)))
            .collect();
        let hits_only = self.roots.iter().any(|r| r.3);
        let (mut client_us, mut replay_us) = (Vec::new(), Vec::new());
        for r in &run.records {
            if let Some(&(us, hit)) = replayed.get(&(r.n, r.page)) {
                if !hits_only || (hit && r.hit) {
                    client_us.push(r.latency_ns as f64 / 1e3);
                    replay_us.push(us);
                }
            }
        }
        median(&client_us) - median(&replay_us)
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.tracer
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Median duration of the spans named `name`, in microseconds.
    fn span_us(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    fn samples(&self, name: &str) -> Vec<f64> {
        self.tracer
            .samples
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect()
    }

    /// Self time per layer, in microseconds: each span's duration minus
    /// the part of it its child spans cover.
    fn layer_self_us(&self) -> BTreeMap<&'static str, f64> {
        let spans = &self.tracer.spans;
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *layers.entry(layer_of(s)).or_default() += own as f64 / 1e3;
        }
        layers
    }

    /// Writes every span, one tab-separated line each, to
    /// `.perfbench/spans-<workload>-<seed>.tsv`.
    pub fn write_spans(&self, plan: &Plan) -> Result<(), String> {
        std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("{SPAN_DIR}: {e}"))?;
        let path = format!("{SPAN_DIR}/spans-{}-{}.tsv", plan.workload, plan.seed);
        let mut out = String::from("name\treq\tparent\tstart_ns\tend_ns\n");
        for s in &self.tracer.spans {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}",
                s.name, s.req, s.start_ns, s.end_ns
            );
        }
        std::fs::write(&path, out).map_err(|e| format!("{path}: {e}"))
    }
}

/// The layer a span belongs to (`BENCHMARK.json`'s layer names); the
/// root's own time is the replay's glue between layer calls.
fn layer_of(span: &Span) -> &'static str {
    let prefix = span.name.split('.').next().unwrap_or(span.name);
    match prefix {
        "request" if span.parent.is_none() => "glue",
        "registrar" => "registry",
        "http" | "request" | "cache" | "singleflight" | "registry" | "engine" | "memo"
        | "session" | "advise" | "dag" | "apply" | "serialize" => prefix,
        _ => "glue",
    }
}

/// Every layer a share of traced time is reported for, with the metric
/// name it is reported under.
const LAYERS: [(&str, &str); 13] = [
    ("http", "share.http"),
    ("request", "share.request"),
    ("cache", "share.cache"),
    ("singleflight", "share.singleflight"),
    ("registry", "share.registry"),
    ("engine", "share.engine"),
    ("memo", "share.memo"),
    ("session", "share.session"),
    ("advise", "share.advise"),
    ("dag", "share.dag"),
    ("apply", "share.apply"),
    ("serialize", "share.serialize"),
    ("glue", "share.glue"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `--trace 1` metrics: span medians from the traced replay, counter
/// deltas from the loopback run, and each layer's share of traced time.
pub fn per_layer(t: &Traced, c: &Counters, run: &LoopRun) -> Metrics {
    let ms = |us: f64| us / 1e3;
    let lookups = c.delta(&["cache", "hits"]) + c.delta(&["cache", "misses"]);
    let memo_lookups = c.delta(&["memo", "hits"]) + c.delta(&["memo", "misses"]);
    let constructions =
        c.delta(&["unique-table", "interned"]) + c.delta(&["unique-table", "hash-cons-hits"]);
    let whatif_computed = c.delta(&["whatif-computed"]);
    let requests = run.records.len() as f64;
    let mut m: Metrics = vec![
        ("http.parse_us", t.span_us("http.parse"), "us"),
        ("http.encode_us", t.span_us("http.encode"), "us"),
        (
            "event.wakeups_per_req",
            ratio(c.delta(&["event-loop", "epoll-wakeups"]), requests),
            "count",
        ),
        ("event.residual_us", t.residual_us(run), "us"),
        ("request.decode_us", t.span_us("request.decode"), "us"),
        ("cache.get_us", t.span_us("cache.get"), "us"),
        (
            "cache.hit_ratio",
            ratio(c.delta(&["cache", "hits"]), lookups),
            "ratio",
        ),
        ("cache.lookups", lookups, "count"),
        (
            "singleflight.coalesced",
            run.records.iter().filter(|r| r.coalesced).count() as f64,
            "count",
        ),
        ("registrar.parse_ms", ms(t.span_us("registrar.parse")), "ms"),
        ("registry.swap_ms", ms(t.span_us("registry.swap")), "ms"),
        ("engine.count_ms", ms(t.span_us("engine.count")), "ms"),
        ("engine.collect_ms", ms(t.span_us("engine.collect")), "ms"),
        ("engine.topk_ms", ms(t.span_us("engine.topk")), "ms"),
        (
            "engine.nodes_expanded",
            t.samples("engine.nodes_expanded").iter().sum(),
            "count",
        ),
        (
            "memo.hit_ratio",
            ratio(c.delta(&["memo", "hits"]), memo_lookups),
            "ratio",
        ),
        ("memo.lookups", memo_lookups, "count"),
        ("memo.evictions", c.delta(&["memo", "evictions"]), "count"),
        ("session.page_ms", ms(t.span_us("session.page")), "ms"),
        (
            "stream.first_line_ms",
            median(&t.samples("stream.first_line_ms")),
            "ms",
        ),
        (
            "session.created",
            c.delta(&["sessions", "created"]),
            "count",
        ),
        ("serialize.us", t.span_us("serialize.response"), "us"),
        (
            "serialize.bytes",
            median(&t.samples("serialize.bytes")),
            "bytes",
        ),
        ("advise.run_ms", ms(t.span_us("advise.run")), "ms"),
        ("dag.build_ms", ms(t.span_us("dag.build")), "ms"),
        ("dag.nodes", c.delta(&["unique-table", "interned"]), "count"),
        (
            "dag.hash_cons_hit_ratio",
            ratio(c.delta(&["unique-table", "hash-cons-hits"]), constructions),
            "ratio",
        ),
        ("dag.constructions", constructions, "count"),
        ("apply.run_ms", ms(t.span_us("apply.run")), "ms"),
        (
            "whatif.applied_ratio",
            ratio(c.delta(&["whatif-applied"]), whatif_computed),
            "ratio",
        ),
        ("whatif.computed", whatif_computed, "count"),
        (
            "trace.overhead_pct",
            (t.on.as_secs_f64() / t.off.as_secs_f64() - 1.0) * 100.0,
            "%",
        ),
        ("trace.on_s", t.on.as_secs_f64(), "s"),
        ("trace.off_s", t.off.as_secs_f64(), "s"),
        ("trace.requests", t.roots.len() as f64, "count"),
    ];
    let layers = t.layer_self_us();
    let total: f64 = layers.values().sum();
    for (layer, name) in LAYERS {
        m.push((
            name,
            ratio(layers.get(layer).copied().unwrap_or(0.0), total),
            "ratio",
        ));
    }
    m
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&Value::Str(s.to_string())).expect("strings serialize")
}

/// The provenance and detail line printed before the result: commit,
/// host, cores, toolchain, profile, server flags, seed, sample counts,
/// failure reasons and counter bases.
pub fn details(
    plan: &Plan,
    clients: usize,
    run: &LoopRun,
    checked: &Checked,
    c: &Counters,
    e2e: &EndToEnd,
) -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut failed = String::new();
    for (reason, count) in &checked.failed {
        let _ = write!(
            failed,
            "{}{}:{count}",
            if failed.is_empty() { "" } else { "," },
            json_str(reason)
        );
    }
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); run.windows.len()];
    for r in &run.records {
        if let Some(i) = run.window_of(r) {
            per_window[i].push(r.latency_ns as f64 / 1e6);
        }
    }
    let mut windows = String::new();
    for ((w, ms), kept) in run.windows.iter().zip(&per_window).zip(&run.kept) {
        let p99 = match quantile(ms, 0.99) {
            q if q.is_finite() => format!("{q:.4}"),
            _ => "null".into(),
        };
        let _ = write!(
            windows,
            "{}[{:.3},{:.3},{},{p99},{}]",
            if windows.is_empty() { "" } else { "," },
            (w.end - w.start).as_secs_f64(),
            w.foreign_s,
            ms.len(),
            u8::from(*kept)
        );
    }
    let foreign_s: f64 = run.windows.iter().map(|w| w.foreign_s).sum();
    let mut samples = String::new();
    for (family, v) in &e2e.by_family {
        let _ = write!(samples, ",\"{family}\":{}", v.len());
    }

    format!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"commit\":{},\"host\":{},\"cpu\":{},\
         \"nproc\":{nproc},\"clients\":{clients},\"rustc\":{},\"profile\":\"{profile}\",\
         \"server_profile\":\"release\",\"server_args\":{}}},\
         \"details\":{{\"plan_interactions\":{},\"interactions\":{},\"requests\":{},\"elapsed_s\":{},\
         \"samples\":{{\"all\":{},\"hits\":{}{samples}}},\"beyond_p99\":{},\
         \"foreign_cpu_s\":{foreign_s},\"warmup_windows\":{},\"kept_windows\":{},\
         \"windows\":{{\"fields\":[\"seconds\",\"foreign_cpu_s\",\"requests\",\"p99_ms\",\"kept\"],\
         \"values\":[{windows}]}},\"failed\":{{{failed}}},\
         \"cache_hits\":{},\"cache_misses\":{},\"memo_hits\":{},\"memo_misses\":{},\
         \"explore_coalesced\":{},\"coalesced_replies\":{},\"whatif_applied\":{},\"whatif_explored\":{},\
         \"sessions_created\":{},\"epoll_wakeups\":{},\"unique_interned\":{},\
         \"unique_hash_cons_hits\":{},\"end_cache_bytes\":{},\"end_memo_entries\":{},\
         \"end_unique_nodes\":{},\"end_sessions_live\":{}}}}}",
        json_str(plan.workload),
        plan.seed,
        json_str(&command_output("git", &["rev-parse", "HEAD"])),
        json_str(&host),
        json_str(&cpu),
        json_str(&command_output("rustc", &["--version"])),
        json_str(&SERVER_ARGS.join(" ")),
        plan.order.len(),
        run.interactions,
        run.records.len(),
        run.elapsed.as_secs_f64(),
        e2e.all_ms.len(),
        e2e.hit_ms.len(),
        e2e.all_ms.len() / 100,
        run.warmup_windows,
        run.kept.iter().filter(|&&k| k).count(),
        c.delta(&["cache", "hits"]),
        c.delta(&["cache", "misses"]),
        c.delta(&["memo", "hits"]),
        c.delta(&["memo", "misses"]),
        c.delta(&["explore-coalesced"]),
        run.records.iter().filter(|r| r.coalesced).count(),
        c.delta(&["whatif-applied"]),
        c.delta(&["whatif-explored"]),
        c.delta(&["sessions", "created"]),
        c.delta(&["event-loop", "epoll-wakeups"]),
        c.delta(&["unique-table", "interned"]),
        c.delta(&["unique-table", "hash-cons-hits"]),
        c.end(&["cache", "bytes"]),
        c.end(&["memo", "entries"]),
        c.end(&["unique-table", "nodes"]),
        c.end(&["sessions", "live"]),
    )
}

/// The final stdout line the benchmark contract reads.
pub fn result_line(checked: &Checked, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (name, value, unit) in metrics {
        let number = if value.is_finite() {
            format!("{value}")
        } else {
            "null".into()
        };
        let _ = write!(
            body,
            "{}\"{name}\":{{\"value\":{number},\"unit\":\"{unit}\"}}",
            if body.is_empty() { "" } else { "," }
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        checked.failures() == 0 && checked.attempted > 0,
        checked.attempted,
        checked.failures(),
    )
}
