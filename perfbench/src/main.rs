//! `perfbench`: the end-to-end and per-layer benchmark of the
//! `perpetuum-serve` daemon.
//!
//! ```text
//! perfbench --serve-bin <path> --workload <plan_cold|serve_mix|simulate>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench spread < results      # median and quartile spread per metric
//! ```
//!
//! With `--trace 0` one generator process (at most two threads, each with
//! one connection at a time) drives the release daemon and reports the
//! end-to-end metrics. With `--trace 1` the same run is followed by a
//! traced replay of the same generated inputs through each layer's public
//! functions in-process, and the per-layer metrics are reported instead.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed or wrong
//! operation makes the run exit non-zero.

mod daemon;
mod gen;
mod http;
mod ledger;
mod plan_cold;
mod provenance;
mod serve_mix;
mod simulate;
mod stats;
mod trace;

use daemon::Daemon;
use ledger::{Failure, Ledger};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;
use trace::Tracer;

/// Daemon launches per run; set-up time is their median.
const SETUP_REPEATS: usize = 3;

/// Share of `--seconds` a traced replay may spend past its minimum.
pub const REPLAY_SHARE: f64 = 0.5;

/// Largest share of the in-process handler total the summed stages may
/// miss (either way) before the traced run counts as wrong.
pub const STAGE_TOLERANCE: f64 = 0.10;

/// End-to-end metrics: name and unit. Every workload reports each one for
/// its own primary request class (see README.md).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("service_cost", "m"),
];

/// Per-layer metrics: name and unit, in report order. A layer a workload
/// does not reach reports 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("serve.http.overhead_ms", "ms"),
    ("serve.json.parse_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.lookups", "count"),
    ("serve.write.open_p50_ms", "ms"),
    ("serve.write.open_tail_ms", "ms"),
    ("serve.read.p50_ms", "ms"),
    ("serve.read.tail_ms", "ms"),
    ("exp.scenario.world_ms", "ms"),
    ("core.network.instance_ms", "ms"),
    ("core.qmsf.alg1_ms", "ms"),
    ("core.qtsp.alg2_ms", "ms"),
    ("core.mtd.alg3_ms", "ms"),
    ("core.mtd.assembly_ms", "ms"),
    ("core.refine.ms", "ms"),
    ("core.refine.improvement_ratio", "ratio"),
    ("opt.refiner.steps", "count"),
    ("serve.handlers.render_ms", "ms"),
    ("serve.handlers.render_bytes", "bytes"),
    ("serve.handlers.plan_ms", "ms"),
    ("serve.handlers.batch_ms", "ms"),
    ("serve.handlers.sim_ms", "ms"),
    ("stage_gap_ratio", "ratio"),
    ("serve.wire.decode_us", "us"),
    ("serve.wire.encode_us", "us"),
    ("serve.wire.bytes_per_frame", "bytes"),
    ("serve.session.get_us", "us"),
    ("serve.session.lock_wait_us", "us"),
    ("online.controller.ingest_us", "us"),
    ("online.controller.replans_none", "per_1k_frames"),
    ("online.controller.replans_incremental", "per_1k_frames"),
    ("online.controller.replans_full", "per_1k_frames"),
    ("online.controller.planner_calls", "per_1k_frames"),
    ("online.controller.sync_refusals", "count"),
    ("serve.journal.append_us", "us"),
    ("serve.journal.flush_ms", "ms"),
    ("serve.journal.bytes_per_frame", "bytes"),
    ("serve.journal.fsyncs_per_s", "1/s"),
    ("serve.server.queue_rejected", "count"),
    ("serve.server.queue_depth_max", "count"),
    ("sim.engine.self_ms", "ms"),
    ("sim.policy.plan_ms", "ms"),
    ("core.var.replans_incremental", "count"),
    ("core.var.replans_full", "count"),
    ("bench.generator_late_ms", "ms"),
    ("bench.trace_spans", "count"),
    ("trace_overhead_ratio", "ratio"),
];

/// What a run needs: its arguments, the failure ledger and a scratch
/// directory inside the checkout.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Workload seed; the same seed generates the same requests.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Whether to follow the run with the traced replay.
    pub trace: bool,
    /// Attempts and failures of every operation.
    pub ledger: Ledger,
    /// Scratch directory of this run (journal directories live here).
    pub work: PathBuf,
    /// Directory the span file is written to.
    pub out: PathBuf,
    /// The `perpetuum-serve` binary.
    pub serve_bin: PathBuf,
}

/// Everything a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Flags the measured daemon ran with.
    pub daemon_flags: Vec<String>,
    /// Median set-up time (s).
    pub setup_s: f64,
    /// Daemon peak RSS (MiB).
    pub peak_rss_mb: f64,
    /// Work completed per second on the primary request class.
    pub ops_per_s: f64,
    /// Mean service cost of a fixed, seed-determined set of schedules.
    pub service_cost: f64,
    /// Latency (ms) of every primary request; a failure is infinite.
    pub latencies_ms: Vec<f64>,
    /// Percentile reported as the tail.
    pub tail_p: f64,
    /// Per-layer metrics by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Starts the daemon [`SETUP_REPEATS`] times — each time with the flags
/// `flags` gives for a fresh scratch directory, then `prepare` — and keeps
/// the last one running. Returns it, what its `prepare` returned, the
/// median set-up time in seconds, and its flags.
pub fn launch_with<T>(
    ctx: &Ctx,
    flags: &dyn Fn(&Path) -> Vec<String>,
    prepare: &dyn Fn(&Daemon) -> Result<T, String>,
) -> Result<(Daemon, T, f64, Vec<String>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for attempt in 0..SETUP_REPEATS {
        let dir = ctx.work.join(format!("daemon-{attempt}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let f = flags(&dir);
        let t0 = Instant::now();
        let d = Daemon::start(&ctx.serve_bin, &f)?;
        let prepared = prepare(&d)?;
        times.push(t0.elapsed().as_secs_f64());
        if attempt + 1 == SETUP_REPEATS {
            let setup_s = stats::median(&times).unwrap_or(f64::NAN);
            return Ok((d, prepared, setup_s, f));
        }
        d.shutdown()?;
    }
    unreachable!("SETUP_REPEATS is positive")
}

/// Closed loop: `clients` threads each send their next request as soon as
/// the previous one completes, for `seconds` and at least `min_requests`
/// requests. `request(i)` sends request `i` and returns its latency (ms).
/// Returns the latencies by request index and the elapsed seconds.
pub fn closed_loop(
    clients: usize,
    seconds: f64,
    min_requests: usize,
    request: &(dyn Fn(usize) -> f64 + Sync),
) -> (Vec<f64>, f64) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                if started.elapsed().as_secs_f64() >= seconds && next.load(Relaxed) >= min_requests
                {
                    break;
                }
                let i = next.fetch_add(1, Relaxed);
                let ms = request(i);
                done.lock().unwrap_or_else(|e| e.into_inner()).push((i, ms));
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut done = done.into_inner().unwrap_or_else(|e| e.into_inner());
    done.sort_by_key(|&(i, _)| i);
    (done.into_iter().map(|(_, ms)| ms).collect(), elapsed)
}

/// Shared end of every traced replay: reconciles the stages against the
/// in-process handler total, reports the tracing overhead and writes the
/// spans out.
///
/// `handler` names the span around the in-process handler call; the
/// stages are the direct children of the `stages` spans. A gap beyond
/// [`STAGE_TOLERANCE`] is a wrong output.
pub fn finish_trace(ctx: &Ctx, tr: &Tracer, handler: &str, m: &mut Measured) {
    let (handler_ms, calls) = tr.total(handler);
    let stages_ms = tr.children_ms("stages");
    let gap = if handler_ms > 0.0 { (handler_ms - stages_ms) / handler_ms } else { 0.0 };
    m.layers.insert("stage_gap_ratio", gap);
    m.notes.push(format!(
        "reconciliation: {calls} {handler} calls total {handler_ms:.1} ms in-process, their \
         stages {stages_ms:.1} ms; gap {:.2}% (tolerance ±{:.0}%)",
        gap * 100.0,
        STAGE_TOLERANCE * 100.0
    ));
    let outcome: ledger::Checked<()> = if gap.abs() <= STAGE_TOLERANCE {
        Ok(())
    } else {
        Err(Failure::wrong(format!("stages miss the handler total by {:.1}%", gap * 100.0)))
    };
    ctx.ledger.record("reconcile", &outcome);
    // Tracing overhead: measured cost of one span times the spans
    // recorded, over the traced requests' total time.
    let (traced_ms, _) = tr.total("request");
    let overhead =
        if traced_ms > 0.0 { trace::span_cost_ms() * tr.len() as f64 / traced_ms } else { 0.0 };
    m.layers.insert("trace_overhead_ratio", overhead);
    m.layers.insert("bench.trace_spans", tr.len() as f64);
    let path = ctx.out.join(format!("trace-{}.jsonl", ctx.workload));
    match tr.write_jsonl(&path) {
        Ok(()) => m.notes.push(format!("spans: {} written to {}", tr.len(), path.display())),
        Err(e) => m.notes.push(format!("spans: could not write {}: {e}", path.display())),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut serve_bin) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| format!("bad {flag}"))?),
            "--trace" => trace = Some(value == "1"),
            "--serve-bin" => serve_bin = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
    })
}

fn run(ctx: &Ctx) -> Result<Measured, String> {
    match ctx.workload.as_str() {
        "plan_cold" => plan_cold::run(ctx),
        "serve_mix" => serve_mix::run(ctx),
        "simulate" => simulate::run(ctx),
        other => Err(format!("unknown workload {other:?} (plan_cold, serve_mix, simulate)")),
    }
}

/// A JSON number with all its digits; non-finite values become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `perfbench spread`: reads result lines as the benchmark prints them on
/// standard input and prints, per metric, the number of runs, the median
/// and the quartile spread as a share of the median.
fn spread() -> ExitCode {
    use serde_json::Value;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in std::io::stdin().lines().map_while(Result::ok) {
        let Ok(v) = serde_json::parse_value(line.trim()) else { continue };
        let Some(Value::Obj(metrics)) = v.get("metrics") else { continue };
        for (name, metric) in metrics {
            if let Some(Value::Num(x)) = metric.get("value") {
                values.entry(name.clone()).or_default().push(*x);
            }
        }
    }
    for (name, xs) in &values {
        println!(
            "{name}: runs {} median {} spread {:.4}",
            xs.len(),
            stats::median(xs).unwrap_or(f64::NAN),
            stats::relative_spread(xs).unwrap_or(f64::NAN)
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("spread") {
        return spread();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".perfbench");
    let work = out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        ledger: Ledger::default(),
        work,
        out,
        serve_bin: args.serve_bin,
    };
    let result = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let m = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            for line in ctx.ledger.report() {
                eprintln!("perfbench: {line}");
            }
            return ExitCode::FAILURE;
        }
    };

    println!("provenance {}", provenance::json(&ctx, &m.daemon_flags));
    for line in m.notes.iter().chain(&ctx.ledger.report()) {
        println!("# {line}");
    }

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if ctx.trace {
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, m.layers.get(name).copied().unwrap_or(0.0)));
        }
    } else {
        let n = m.latencies_ms.len();
        let beyond = stats::beyond_count(n, m.tail_p);
        if beyond < stats::TAIL_BEYOND {
            ctx.ledger.invalidate(format!(
                "only {n} samples: p{} leaves {beyond} beyond it, fewer than {}",
                m.tail_p,
                stats::TAIL_BEYOND
            ));
        }
        let p50 = stats::median(&m.latencies_ms).unwrap_or(f64::NAN);
        let tail = stats::percentile(&m.latencies_ms, m.tail_p).unwrap_or(f64::NAN);
        println!(
            "# latency: p50 {p50:.3} ms, p{} {tail:.3} ms over {n} samples ({beyond} beyond the tail)",
            m.tail_p
        );
        let values = [m.setup_s, m.peak_rss_mb, p50, tail, m.ops_per_s, m.service_cost];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, v));
        }
    }
    for (name, unit, v) in &metrics {
        println!("# {name} = {v} {unit}");
    }

    let (attempted, failed) = ctx.ledger.totals();
    let invalid = ctx.ledger.invalid();
    let all_finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let correct = failed == 0 && invalid.is_empty() && attempted > 0 && all_finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
