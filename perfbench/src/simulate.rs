//! `simulate`: the paper's Section VI algorithm in the event engine. One
//! closed-loop client posts distinct variable-cycle Section VII topologies
//! (n = 1000) to `POST /simulate` with `algo: "MtdVar"`.

use crate::gen::{self, number_after, result_part};
use crate::http;
use crate::ledger::{expect_ok, Checked, Failure};
use crate::trace::{SpanId, Tracer};
use crate::{closed_loop, daemon, finish_trace, launch_with, stats, Ctx, Measured, REPLAY_SHARE};
use perpetuum_core::schedule::TourSet;
use perpetuum_exp::scenario::{world_from_value, ParsedWorld, Scenario};
use perpetuum_serve::handlers;
use perpetuum_sim::{
    run_with_faults, ChargingPolicy, CheckContext, FaultModel, Observation, PlanUpdate, SimConfig,
    VarPolicy,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

const N: usize = 1000;
/// Reported tail percentile; [`MIN_REQUESTS`] leaves ten samples beyond.
const TAIL_P: f64 = 75.0;
/// Runs a measurement completes at the least, past the deadline if need be.
const MIN_REQUESTS: usize = 40;
/// Runs whose mean service cost is reported: a fixed prefix, so the
/// figure depends on the seed alone.
const COST_SAMPLE: usize = 16;
const CLASS: &str = "simulate";
/// Topology index of the warm-up run, far from the measured ones.
const WARMUP_INDEX: u64 = 1 << 40;

fn body(scenario: &str, seed: u64, i: usize) -> String {
    gen::body(scenario, seed, i as u64, ",\"algo\":\"MtdVar\"")
}

/// One `/simulate` reply: no sensor died and the service cost is
/// positive. Returns the handler-reported time (µs) and the cost.
fn check(reply: std::io::Result<http::Reply>) -> Checked<(f64, f64)> {
    let reply = expect_ok(reply)?;
    let text =
        std::str::from_utf8(&reply.body).map_err(|_| Failure::wrong("reply is not UTF-8"))?;
    let v = serde_json::parse_value(text).map_err(|e| Failure::wrong(e.to_string()))?;
    let result = v.get("result").ok_or_else(|| Failure::wrong("no result"))?;
    match result.get("deaths") {
        Some(Value::Arr(deaths)) if deaths.is_empty() => {}
        Some(Value::Arr(deaths)) => {
            return Err(Failure::wrong(format!("{} sensor deaths", deaths.len())))
        }
        _ => return Err(Failure::wrong("no deaths list")),
    }
    let sim_us = number_after(text, "sim_us").ok_or_else(|| Failure::wrong("no sim_us"))?;
    match result.get("service_cost") {
        Some(Value::Num(c)) if c.is_finite() && *c > 0.0 => Ok((sim_us, *c)),
        _ => Err(Failure::wrong("no positive service_cost")),
    }
}

/// Runs the workload against the daemon, then the traced replay if asked.
pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let scenario = gen::scenario_json(&Scenario { n: N, ..Scenario::paper_variable() });
    let seed = gen::request_seed(ctx.seed);
    let (d, (), setup_s, flags) =
        launch_with(ctx, &|_| daemon::flags(&["--cache", "16", "--sessions", "16"]), &|d| {
            // Set-up ends with one warm-up run outside the measured range.
            let body = gen::body(&scenario, seed, WARMUP_INDEX, ",\"algo\":\"MtdVar\"");
            let outcome = check(http::post_json(d.addr, "/simulate", body.as_bytes()));
            ctx.ledger.record("warmup", &outcome);
            outcome.map(|_| ()).map_err(|f| f.to_string())
        })?;
    let addr = d.addr;
    let seen = Mutex::new(BTreeMap::new());
    let (latencies, elapsed) = closed_loop(1, ctx.seconds, MIN_REQUESTS, &|i| {
        let body = body(&scenario, seed, i);
        let t0 = Instant::now();
        let reply = http::post_json(addr, "/simulate", body.as_bytes());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let outcome = check(reply);
        ctx.ledger.record(CLASS, &outcome);
        let Ok(found) = outcome else { return f64::INFINITY };
        seen.lock().expect("no panic while held").insert(i, found);
        ms
    });
    let peak_rss_mb = d.peak_rss_mb()?;
    let scraped = d.metrics()?;
    let drained = d.shutdown()?;

    let seen = seen.into_inner().expect("no panic while held");
    let costs: Vec<f64> = (0..COST_SAMPLE).filter_map(|i| seen.get(&i).map(|s| s.1)).collect();
    if costs.len() < COST_SAMPLE {
        ctx.ledger
            .invalidate(format!("only {} of the first {COST_SAMPLE} runs succeeded", costs.len()));
    }
    let overhead: Vec<f64> =
        seen.iter().map(|(&i, s)| latencies[i] - s.0 / 1e3).filter(|v| v.is_finite()).collect();
    let mut m = Measured {
        daemon_flags: flags,
        setup_s,
        peak_rss_mb,
        ops_per_s: latencies.len() as f64 / elapsed,
        service_cost: stats::mean(&costs).unwrap_or(f64::NAN),
        tail_p: TAIL_P,
        ..Measured::default()
    };
    m.layers.insert("serve.http.overhead_ms", stats::median(&overhead).unwrap_or(0.0));
    m.layers.insert(
        "serve.server.queue_rejected",
        scraped.get("perpetuum_queue_rejected_total").copied().unwrap_or(0.0),
    );
    m.notes.push(format!(
        "simulate: {} MtdVar runs (n = {N}, variable cycles) from 1 closed-loop client in \
         {elapsed:.2} s",
        latencies.len()
    ));
    m.notes.push(format!("daemon: {drained}"));
    m.latencies_ms = latencies;
    if ctx.trace {
        replay(ctx, &scenario, seed, m.latencies_ms.len(), &mut m)?;
    }
    Ok(m)
}

/// Times every call the engine makes into the wrapped policy as a
/// `sim.policy` span under the run's span.
struct Timed<'t, P> {
    inner: P,
    tr: &'t mut Tracer,
    parent: SpanId,
    request: usize,
}

impl<P> Timed<'_, P> {
    fn timed<T>(&mut self, f: impl FnOnce(&mut P) -> T) -> T {
        let s = self.tr.open("sim.policy", Some(self.parent), self.request);
        let out = f(&mut self.inner);
        self.tr.close(s);
        out
    }
}

impl<P: ChargingPolicy> ChargingPolicy for Timed<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn check_interval(&self) -> Option<f64> {
        self.inner.check_interval()
    }

    fn initialize(&mut self, obs: &Observation) -> PlanUpdate {
        self.timed(|p| p.initialize(obs))
    }

    fn on_slot_boundary(&mut self, obs: &Observation) -> PlanUpdate {
        self.timed(|p| p.on_slot_boundary(obs))
    }

    fn on_check(&mut self, ctx: &mut CheckContext) -> Option<TourSet> {
        self.timed(|p| p.on_check(ctx))
    }
}

/// The traced replay: each run goes through the handler in-process
/// (`serve.handlers.sim`), then stage by stage — parse, world build, the
/// event engine with its `VarPolicy` calls timed, render — and must
/// reproduce the handler's result bytes.
fn replay(
    ctx: &Ctx,
    scenario: &str,
    seed: u64,
    count: usize,
    m: &mut Measured,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let (mut incremental, mut full) = (0usize, 0usize);
    let started = Instant::now();
    let mut done = 0;
    while done < count.max(2)
        && (done < 2 || started.elapsed().as_secs_f64() < ctx.seconds * REPLAY_SHARE)
    {
        let i = done;
        done += 1;
        let body = body(scenario, seed, i);
        let root = tr.open("request", None, i);
        let h = tr.open("serve.handlers.sim", Some(root), i);
        let resp = handlers::simulate(body.as_bytes());
        tr.close(h);

        let st = tr.open("stages", Some(root), i);
        let s = tr.open("serve.json.parse", Some(st), i);
        let tree = serde_json::parse_value(&body).map_err(|e| e.to_string())?;
        tr.close(s);
        let s = tr.open("exp.scenario.world", Some(st), i);
        let parsed = world_from_value(tree.get("scenario").ok_or("no scenario")?, seed, i as u64)
            .map_err(|e| e.to_string())?;
        tr.close(s);
        let engine = tr.open("sim.engine", Some(st), i);
        let ParsedWorld { scenario: sc, topology, world } = parsed;
        let cfg = SimConfig {
            horizon: sc.horizon,
            slot: sc.slot,
            seed: topology.sim_seed,
            charger_speed: None,
        };
        let inner = VarPolicy::new(&topology.network);
        let mut policy = Timed { inner, tr: &mut tr, parent: engine, request: i };
        let mut result = run_with_faults(world, &cfg, &mut policy, &FaultModel::none());
        result.replans = policy.inner.replans();
        incremental += policy.inner.incremental_replans();
        full += policy.inner.full_replans();
        tr.close(engine);
        let s = tr.open("serve.handlers.render", Some(st), i);
        let rendered = serde_json::to_string(&result).map_err(|e| e.to_string())?;
        tr.close(s);
        tr.close(st);
        tr.close(root);

        let ours = result_part(&resp.body).and_then(|r| r.strip_suffix(b"}".as_slice()));
        let outcome: Checked<()> = if resp.status == 200 && ours == Some(rendered.as_bytes()) {
            Ok(())
        } else {
            Err(Failure::wrong(format!("run {i}: the stages disagree with the handler")))
        };
        ctx.ledger.record("replay_simulate", &outcome);
    }

    let n = done as f64;
    let layers = &mut m.layers;
    layers.insert("serve.handlers.sim_ms", tr.mean_ms("serve.handlers.sim"));
    layers.insert("serve.json.parse_ms", tr.mean_ms("serve.json.parse"));
    layers.insert("exp.scenario.world_ms", tr.mean_ms("exp.scenario.world"));
    layers.insert("sim.engine.self_ms", tr.self_ms("sim.engine") / n);
    layers.insert("sim.policy.plan_ms", tr.total("sim.policy").0 / n);
    layers.insert("core.var.replans_incremental", incremental as f64 / n);
    layers.insert("core.var.replans_full", full as f64 / n);
    layers.insert("serve.handlers.render_ms", tr.mean_ms("serve.handlers.render"));
    m.notes.push(format!("replay: {done} /simulate runs in-process"));
    finish_trace(ctx, &tr, "serve.handlers.sim", m);
    Ok(())
}
