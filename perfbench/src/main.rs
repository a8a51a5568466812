//! `perfbench`: the loopback serving benchmark for `coursenav serve`.
//!
//! ```text
//! perfbench --server <coursenav binary> --workload <name> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Starts the server (several times, to time set-up), registers the
//! workload's tenants, drives the seeded request stream over one or two
//! keep-alive connections in a closed loop for `--seconds`, checks every
//! answer against the in-process engine, and prints one JSON line with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced in-process replay (`--trace 1`). `perfbench/README.md` has the
//! workloads and the metric-to-layer map; `perfbench/run.sh` builds both
//! binaries and runs this one.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use coursenav_perfbench::client::{closed_loop, register_tenants, ServerProc};
use coursenav_perfbench::plan::Plan;
use coursenav_perfbench::{check, report};

/// Server starts per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    if !args.server.is_file() {
        return Err(format!("no server binary at {}", args.server.display()));
    }
    let plan = Plan::generate(&args.workload, args.seed)?;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let clients = cores.min(plan.clients);

    // Set-up: spawn to first healthy /v1/healthz, plus the workload's
    // tenant registration. The last server started serves the run.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut server: Option<ServerProc> = None;
    for _ in 0..SETUP_REPEATS {
        drop(server.take());
        let t0 = Instant::now();
        let started = ServerProc::spawn(&args.server)?;
        started.wait_healthy()?;
        register_tenants(started.addr, &plan)?;
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(started);
    }
    let server = server.expect("at least one set-up ran");

    let before = server.metrics()?;
    let run = closed_loop(
        &plan,
        server.addr,
        server.pid(),
        clients,
        args.seconds,
        cores,
    );
    let after = server.metrics()?;
    let rss_mb = run.server_rss_mb.clone()?;
    drop(server);

    let checked = check::check(&plan, &run, cores);
    if let Some(example) = &checked.example {
        eprintln!("perfbench: first failed request: {example}");
    }
    let counters = report::Counters::new(&before, &after);
    let e2e = report::EndToEnd::new(&run, &setups, rss_mb);
    let metrics = if args.trace {
        let traced = report::Traced::run(&plan);
        traced.write_spans(&plan)?;
        report::per_layer(&traced, &counters, &run)
    } else {
        e2e.metrics()
    };
    println!(
        "{}",
        report::details(&plan, clients, &run, &checked, &counters, &e2e)
    );
    Ok(report::result_line(&checked, &metrics))
}
