//! The loopback side: the `coursenav serve` child process, a keep-alive
//! HTTP/1.1 client, and the closed loop that times every request.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::plan::{http_request, Op, Plan};
use crate::replay::{next_cursor, MAX_PAGES};

/// The serve flags the benchmark passes: only an ephemeral loopback
/// address, so the server runs with its shipped defaults.
pub const SERVER_ARGS: [&str; 4] = ["builtin:brandeis", "serve", "--addr", "127.0.0.1:0"];

/// A running `coursenav serve`. Dropping it kills the process and waits
/// for it.
pub struct ServerProc {
    child: Child,
    /// Held open for the process's lifetime: the server prints after the
    /// listening line too, and a closed pipe would kill it.
    _stdout: BufReader<ChildStdout>,
    /// The bound loopback address.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the server and waits for its "listening" line.
    pub fn spawn(bin: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(SERVER_ARGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // The server prints two short lines and then nothing, so the pipe
        // never fills even though nobody reads past the address line.
        let mut line = String::new();
        loop {
            line.clear();
            let read = stdout.read_line(&mut line);
            if matches!(read, Ok(0) | Err(_)) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before listening".into());
            }
            if let Some(addr) = line.strip_prefix("coursenav-server listening on http://") {
                let parsed = addr.trim().parse();
                // Constructed before the address is checked, so a bad one
                // still kills the child on drop.
                let mut server = ServerProc {
                    child,
                    _stdout: stdout,
                    addr: SocketAddr::from(([127, 0, 0, 1], 0)),
                };
                server.addr = parsed.map_err(|e| format!("bad address {addr:?}: {e}"))?;
                return Ok(server);
            }
        }
    }

    /// Polls `GET /v1/healthz` until it answers 200.
    pub fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let ok = Conn::connect(self.addr)
                .and_then(|mut c| c.send(b"GET /v1/healthz HTTP/1.1\r\nhost: perfbench\r\n\r\n"))
                .map(|r| r.status == 200)
                .unwrap_or(false);
            if ok {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("server never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET /v1/metrics` as JSON.
    pub fn metrics(&self) -> Result<serde_json::Value, String> {
        let reply = Conn::connect(self.addr)
            .and_then(|mut c| c.send(b"GET /v1/metrics HTTP/1.1\r\nhost: perfbench\r\n\r\n"))
            .map_err(|e| format!("metrics: {e}"))?;
        serde_json::from_slice(&reply.body).map_err(|e| format!("metrics JSON: {e}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The peak resident set (`VmHWM`) of process `pid`, in MiB.
fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// One parsed HTTP response.
struct Reply {
    /// Status code.
    status: u16,
    /// The `x-cache` header value.
    x_cache: Option<String>,
    /// Whether an `x-degraded` header was present.
    degraded: bool,
    /// Whether the server closes the connection after this response.
    close: bool,
    /// The body, de-chunked when the response was chunked.
    body: Vec<u8>,
}

/// A keep-alive client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off (requests are single small writes).
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Writes one request and reads its whole response.
    fn send(&mut self, raw: &[u8]) -> std::io::Result<Reply> {
        self.stream.write_all(raw)?;
        let head_end = loop {
            if let Some(p) = find(&self.buf, b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut reply = Reply {
            status,
            x_cache: None,
            degraded: false,
            close: false,
            body: Vec::new(),
        };
        let mut length = 0usize;
        let mut chunked = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = value.parse().map_err(|_| bad("bad content-length"))?
                }
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => reply.close = value.eq_ignore_ascii_case("close"),
                "x-cache" => reply.x_cache = Some(value.to_string()),
                "x-degraded" => reply.degraded = true,
                _ => {}
            }
        }
        self.buf.drain(..head_end);
        if chunked {
            reply.body = self.read_chunks()?;
        } else {
            while self.buf.len() < length {
                self.fill()?;
            }
            reply.body = self.buf.drain(..length).collect();
        }
        Ok(reply)
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk)? {
            0 => Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }

    fn read_chunks(&mut self) -> std::io::Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let line_end = loop {
                if let Some(p) = find(&self.buf, b"\r\n") {
                    break p;
                }
                self.fill()?;
            };
            let size_text = String::from_utf8_lossy(&self.buf[..line_end]).into_owned();
            let size =
                usize::from_str_radix(size_text.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            self.buf.drain(..line_end + 2);
            while self.buf.len() < size + 2 {
                self.fill()?;
            }
            body.extend_from_slice(&self.buf[..size]);
            self.buf.drain(..size + 2);
            if size == 0 {
                return Ok(body);
            }
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Registers every plan tenant over `PUT /v1/catalogs/{tenant}`.
pub fn register_tenants(addr: SocketAddr, plan: &Plan) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for t in &plan.tenants {
        let item = crate::plan::Item {
            op: Op::Swap,
            tenant: Some(t.name.clone()),
            body: t.text.clone(),
            paged: false,
        };
        let reply = conn
            .send(&http_request(&item, None))
            .map_err(|e| format!("registering {}: {e}", t.name))?;
        if reply.status != 200 {
            return Err(format!("registering {}: HTTP {}", t.name, reply.status));
        }
    }
    Ok(())
}

/// How one timed request went.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// The interaction's send position.
    pub n: u32,
    /// Page number within the interaction (0 for unpaged requests).
    pub page: u16,
    /// Request kind.
    pub op: Op,
    /// HTTP status (0 on a transport error).
    pub status: u16,
    /// Whether the server answered from its response cache.
    pub hit: bool,
    /// Whether the server answered with a concurrent identical request's
    /// result (`x-cache: coalesced`).
    pub coalesced: bool,
    /// Whether the response carried `x-degraded`.
    pub degraded: bool,
    /// Client-side latency: write of the first byte to read of the last.
    pub latency_ns: u64,
    /// When the reply's last byte was read, from the start of the loop.
    pub done_ns: u64,
    /// Body id, unique per distinct body across the run (`u32::MAX` when
    /// no response arrived).
    pub body: u32,
}

/// Everything one closed-loop run observed.
pub struct LoopRun {
    /// One record per request, across all clients.
    pub records: Vec<Record>,
    /// Distinct response bodies, indexed by [`Record::body`].
    pub bodies: Vec<Vec<u8>>,
    /// Interactions started (a prefix of the plan's send order).
    pub interactions: usize,
    /// From the first send to the last reply.
    pub elapsed: Duration,
    /// The loop cut into [`WINDOW`]-long windows. Replies that arrive
    /// after the last window ends (the requests in flight when the loop
    /// stopped) are checked but fall in no window.
    pub windows: Vec<Window>,
    /// How many of the first windows were the unmeasured warm-up.
    pub warmup_windows: usize,
    /// Which windows the end-to-end figures are taken from, one flag per
    /// window: see [`closed_loop`].
    pub kept: Vec<bool>,
    /// The server's peak resident set in MiB once the loop had run the
    /// warm-up and `seconds` (or at its end, if it ended sooner). The
    /// server's memory grows with the work it has done, so a reading at
    /// the end of a loop stretched for quiet windows would measure the
    /// stretch.
    pub server_rss_mb: Result<f64, String>,
}

impl LoopRun {
    /// The window a reply completed in, if any.
    pub fn window_of(&self, record: &Record) -> Option<usize> {
        let done = Duration::from_nanos(record.done_ns);
        let i = self.windows.partition_point(|w| w.end <= done);
        (i < self.windows.len()).then_some(i)
    }

    /// Whether a reply completed in a kept window.
    pub fn is_kept(&self, record: &Record) -> bool {
        self.window_of(record).is_some_and(|i| self.kept[i])
    }
}

/// Length of one measurement window of the closed loop. Short, so that
/// the quiet stretches between a shared host's bursts of contention can
/// still be kept.
pub const WINDOW: Duration = Duration::from_millis(250);

/// The longest warm-up: past it, the loop measures even when not all of
/// the plan's warm-up interactions (see [`Plan::warmup`]) were sent.
const MAX_WARMUP: Duration = Duration::from_secs(15);

/// A window is quiet when its foreign CPU time (see
/// [`Window::foreign_s`]) is at most this share of its CPU capacity, the
/// window's length times the cores.
const QUIET_SHARE: f64 = 0.05;

/// How much longer than asked the loop may measure to collect quiet
/// windows.
const MAX_STRETCH: f64 = 1.8;

/// The least share of the asked-for time the figures are taken from.
/// Fewer quiet windows than that are topped up with the least disturbed
/// others; a disturbed window inflates the tail even when only slightly
/// disturbed, so beyond this no window but a quiet one is kept.
const MIN_KEPT: f64 = 0.25;

/// One measurement window of the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Start, from the start of the loop.
    pub start: Duration,
    /// End, from the start of the loop.
    pub end: Duration,
    /// CPU time the server process used in the window, in seconds.
    pub server_cpu_s: f64,
    /// CPU time neither the benchmark nor its server used but that was
    /// taken from this machine's CPUs in the window, in seconds: steal
    /// (time the hypervisor gave to other guests) plus every other
    /// process's user and system time. It is what a shared host adds to
    /// the window's figures.
    pub foreign_s: f64,
}

/// Cumulative CPU counters, in seconds (clock ticks of 1/100 s).
#[derive(Debug, Clone, Copy)]
struct CpuSample {
    at: Duration,
    /// User, nice, system, irq and softirq time of all CPUs.
    busy: f64,
    /// Steal time of all CPUs.
    steal: f64,
    /// User + system time of this process and of the server.
    own: f64,
    server: f64,
}

impl CpuSample {
    fn take(t0: Instant, server_pid: u32) -> CpuSample {
        let at = t0.elapsed();
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let cpu: Vec<f64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap_or(0.0) / 100.0)
            .collect();
        let field = |i: usize| cpu.get(i).copied().unwrap_or(0.0);
        let server = process_cpu_s(&server_pid.to_string());
        CpuSample {
            at,
            busy: field(0) + field(1) + field(2) + field(5) + field(6),
            steal: field(7),
            own: process_cpu_s("self") + server,
            server,
        }
    }
}

/// User + system CPU time of `/proc/<pid>`, all threads, in seconds (0
/// where the file is missing).
fn process_cpu_s(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let field = |n: usize| {
        rest.split_whitespace()
            .nth(n)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field(11) + field(12)) / 100.0
}

impl Window {
    /// Foreign CPU time as a share of the window's CPU capacity.
    fn foreign_share(&self, cores: usize) -> f64 {
        self.foreign_s / ((self.end - self.start).as_secs_f64() * cores as f64).max(1e-9)
    }
}

fn window(a: &CpuSample, b: &CpuSample) -> Window {
    let others = (b.busy - a.busy) - (b.own - a.own);
    Window {
        start: a.at,
        end: b.at,
        server_cpu_s: b.server - a.server,
        foreign_s: (others.max(0.0) + (b.steal - a.steal)).max(0.0),
    }
}

/// Runs the closed loop: `clients` keep-alive connections, each sending
/// its next interaction only after the previous reply.
///
/// A shared host takes CPU time away in bursts. So a monitor thread cuts
/// the loop into [`WINDOW`]s and samples the CPU counters at each
/// boundary. The windows up to the one in which the plan's last warm-up
/// interaction is sent are not measured. After them, the monitor stops
/// the loop once it has `seconds` worth of quiet windows, or after
/// [`MAX_STRETCH`] times `seconds`. The end-to-end figures come from the
/// quiet windows after the warm-up, topped up with the least disturbed
/// others to [`MIN_KEPT`] of `seconds` when too few were quiet.
pub fn closed_loop(
    plan: &Plan,
    addr: SocketAddr,
    server_pid: u32,
    clients: usize,
    seconds: u64,
    cores: usize,
) -> LoopRun {
    let target = ((Duration::from_secs(seconds).as_millis() / WINDOW.as_millis()) as usize).max(1);
    let cap = (target as f64 * MAX_STRETCH) as usize;
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let clients_done = AtomicBool::new(false);
    let t0 = Instant::now();
    let first = CpuSample::take(t0, server_pid);
    let (per_client, (windows, warm, server_rss_mb)) = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let mut windows: Vec<Window> = Vec::new();
            let mut last = first;
            // Windows before measuring starts, once the warm-up is over.
            let mut warm: Option<usize> = None;
            let mut quiet = 0;
            let mut rss = None;
            for k in 1u32.. {
                let due = WINDOW * k;
                loop {
                    let now = t0.elapsed();
                    if now >= due || clients_done.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep((due - now).min(Duration::from_millis(20)));
                }
                let sample = CpuSample::take(t0, server_pid);
                let w = window(&last, &sample);
                last = sample;
                windows.push(w);
                match warm {
                    None => {
                        if next.load(Ordering::SeqCst) >= plan.warmup || sample.at >= MAX_WARMUP {
                            warm = Some(windows.len());
                        }
                    }
                    Some(start) => {
                        if w.foreign_share(cores) <= QUIET_SHARE {
                            quiet += 1;
                        }
                        let measured = windows.len() - start;
                        if measured == target {
                            rss = Some(peak_rss_mb(server_pid));
                        }
                        if quiet >= target || measured >= cap {
                            break;
                        }
                    }
                }
                if clients_done.load(Ordering::SeqCst) {
                    break;
                }
            }
            stop.store(true, Ordering::SeqCst);
            let rss = rss.unwrap_or_else(|| peak_rss_mb(server_pid));
            let warm = warm.unwrap_or(windows.len());
            (windows, warm, rss)
        });
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| client(plan, addr, &next, t0, &stop)))
            .collect();
        let per_client: Vec<(Vec<Record>, Vec<Vec<u8>>)> = handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect();
        clients_done.store(true, Ordering::SeqCst);
        let monitored = monitor.join().expect("the monitor thread does not panic");
        (per_client, monitored)
    });
    let elapsed = t0.elapsed();
    let kept = kept_windows(&windows, cores, target, warm);
    // Merge the per-client body tables into one.
    let mut ids: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut bodies = Vec::new();
    let mut records = Vec::new();
    for (recs, local) in per_client {
        let remap: Vec<u32> = local
            .into_iter()
            .map(|b| {
                *ids.entry(b).or_insert_with_key(|b| {
                    bodies.push(b.clone());
                    bodies.len() as u32 - 1
                })
            })
            .collect();
        records.extend(recs.into_iter().map(|mut r| {
            if let Some(&id) = remap.get(r.body as usize) {
                r.body = id;
            }
            r
        }));
    }
    records.sort_by_key(|r| (r.n, r.page));
    LoopRun {
        records,
        bodies,
        interactions: next.load(Ordering::SeqCst).min(plan.order.len()),
        elapsed,
        windows,
        warmup_windows: warm,
        kept,
        server_rss_mb,
    }
}

/// The quiet windows after the first `warm`, topped up to [`MIN_KEPT`]
/// of `target` with the least disturbed of the rest.
fn kept_windows(windows: &[Window], cores: usize, target: usize, warm: usize) -> Vec<bool> {
    let share: Vec<f64> = windows.iter().map(|w| w.foreign_share(cores)).collect();
    let mut keep: Vec<bool> = share
        .iter()
        .enumerate()
        .map(|(i, &s)| i >= warm && s <= QUIET_SHARE)
        .collect();
    let mut rest: Vec<usize> = (warm..windows.len()).filter(|&i| !keep[i]).collect();
    rest.sort_by(|&a, &b| share[a].total_cmp(&share[b]).then(a.cmp(&b)));
    let least = (target as f64 * MIN_KEPT).ceil() as usize;
    let missing = least.saturating_sub(keep.iter().filter(|&&k| k).count());
    for &i in rest.iter().take(missing) {
        keep[i] = true;
    }
    keep
}

fn client(
    plan: &Plan,
    addr: SocketAddr,
    next: &AtomicUsize,
    t0: Instant,
    stop: &AtomicBool,
) -> (Vec<Record>, Vec<Vec<u8>>) {
    let mut records = Vec::new();
    let mut ids: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    let mut conn: Option<Conn> = None;
    while !stop.load(Ordering::SeqCst) {
        let n = next.fetch_add(1, Ordering::SeqCst);
        if n >= plan.order.len() {
            break;
        }
        let item = plan.item(n);
        let mut cursor: Option<String> = None;
        for page in 0..MAX_PAGES {
            let raw = http_request(item, cursor.as_deref());
            let start = Instant::now();
            let result = match conn.take() {
                Some(c) => Ok(c),
                None => Conn::connect(addr),
            }
            .and_then(|mut c| c.send(&raw).map(|reply| (c, reply)));
            let latency_ns = start.elapsed().as_nanos() as u64;
            let done_ns = t0.elapsed().as_nanos() as u64;
            let mut record = Record {
                n: n as u32,
                page: page as u16,
                op: item.op,
                status: 0,
                hit: false,
                coalesced: false,
                degraded: false,
                latency_ns,
                done_ns,
                body: u32::MAX,
            };
            let Ok((c, reply)) = result else {
                records.push(record);
                break;
            };
            if !reply.close {
                conn = Some(c);
            }
            record.status = reply.status;
            record.hit = reply.x_cache.as_deref() == Some("hit");
            record.coalesced = reply.x_cache.as_deref() == Some("coalesced");
            record.degraded = reply.degraded;
            cursor = if item.paged && reply.status == 200 {
                next_cursor(&reply.body)
            } else {
                None
            };
            record.body = *ids.entry(reply.body).or_insert_with_key(|b| {
                bodies.push(b.clone());
                bodies.len() as u32 - 1
            });
            records.push(record);
            if cursor.is_none() {
                break;
            }
        }
    }
    (records, bodies)
}
