//! `plan_cold`: the operator's planning call. Two closed-loop clients post
//! distinct Section VII topologies (n = 2000, fixed cycles) to
//! `POST /plan`; every fourth request asks for inline refinement, so the
//! plan cache only ever misses.

use crate::gen::{self, number_after, result_part};
use crate::http;
use crate::ledger::{expect_ok, Checked, Failure};
use crate::trace::Tracer;
use crate::{closed_loop, daemon, finish_trace, launch_with, stats, Ctx, Measured, REPLAY_SHARE};
use perpetuum_core::feasibility::check_series;
use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum_core::qmsf::q_rooted_msf_src;
use perpetuum_core::qtsp::{tours_for_forest_src, Routing};
use perpetuum_core::refine::{refine, Budget};
use perpetuum_core::rounding::partition_cycles;
use perpetuum_exp::scenario::{world_from_value, Scenario};
use perpetuum_serve::handlers::{self, render_plan_result, PlanMeta, DEFAULT_REFINE_STEPS};
use perpetuum_serve::{canonical_hash, AppState, PlanCache};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

const N: usize = 2000;
const CLIENTS: usize = 2;
/// Reported tail percentile; [`MIN_REQUESTS`] leaves ten samples beyond.
const TAIL_P: f64 = 90.0;
const MIN_REQUESTS: usize = 100;
/// Requests whose schedules are rebuilt and checked off the timed path,
/// and whose mean service cost is reported.
const CHECKED: usize = 8;
/// Requests the traced replay runs at the least.
const MIN_REPLAY: usize = 8;
const CLASS: &str = "plan";
/// Topology index of the warm-up request, far from the measured ones.
const WARMUP_INDEX: u64 = 1 << 40;

fn refines(i: usize) -> bool {
    i.is_multiple_of(4)
}

fn body(scenario: &str, seed: u64, i: usize) -> String {
    let extra = if refines(i) { ",\"refine\":\"inline\"" } else { "" };
    gen::body(scenario, seed, i as u64, extra)
}

/// One `/plan` reply: a cold miss with a positive service cost. Returns
/// the handler-reported time (µs) and the `result` bytes.
fn check(reply: std::io::Result<http::Reply>) -> Checked<(f64, Vec<u8>)> {
    let reply = expect_ok(reply)?;
    let text =
        std::str::from_utf8(&reply.body).map_err(|_| Failure::wrong("reply is not UTF-8"))?;
    if !text.starts_with("{\"cache_hit\":false,") {
        return Err(Failure::wrong("a distinct topology hit the plan cache"));
    }
    let plan_us = number_after(text, "plan_us").ok_or_else(|| Failure::wrong("no plan_us"))?;
    match number_after(text, "service_cost") {
        Some(c) if c.is_finite() && c > 0.0 => {}
        _ => return Err(Failure::wrong("no positive service_cost")),
    }
    let result = result_part(&reply.body).ok_or_else(|| Failure::wrong("no result"))?;
    let result = result.strip_suffix(b"}".as_slice()).ok_or_else(|| Failure::wrong("unframed"))?;
    Ok((plan_us, result.to_vec()))
}

/// Rebuilds request `i` locally and checks the daemon's `result` bytes
/// against it: the schedule must be the benchmark's own, feasible for the
/// benchmark's own realised instance. Returns the service cost.
fn verify(scenario: &str, seed: u64, i: usize, got: &[u8]) -> Checked<f64> {
    let tree = serde_json::parse_value(&body(scenario, seed, i))
        .map_err(|e| Failure::wrong(e.to_string()))?;
    let sv = tree.get("scenario").ok_or_else(|| Failure::wrong("no scenario"))?;
    let parsed = world_from_value(sv, seed, i as u64).map_err(|e| Failure::wrong(e.to_string()))?;
    let instance = parsed.instance();
    let constructive = plan_min_total_distance(&instance, &MtdConfig::default());
    let meta = PlanMeta {
        n: instance.n(),
        q: instance.q(),
        seed,
        index: i as u64,
        sparse: false,
        refine_steps: DEFAULT_REFINE_STEPS,
    };
    let (schedule, rendered) = if refines(i) {
        let (refined, report) =
            refine(instance.network(), &constructive, &Budget::steps(DEFAULT_REFINE_STEPS), seed);
        let v = render_plan_result(&meta, &refined, Some(("inline", true, Some(&report))));
        (refined, v)
    } else {
        let v = render_plan_result(&meta, &constructive, None);
        (constructive, v)
    };
    let ours = serde_json::to_string(&rendered).map_err(|e| Failure::wrong(e.to_string()))?;
    if ours.as_bytes() != got {
        return Err(Failure::wrong(format!("request {i}: schedule differs from the local plan")));
    }
    check_series(&instance, &schedule)
        .map_err(|v| Failure::wrong(format!("request {i}: {} feasibility violations", v.len())))?;
    Ok(schedule.service_cost())
}

/// Runs the workload against the daemon, then the traced replay if asked.
pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let scenario = gen::scenario_json(&Scenario { n: N, ..Scenario::paper_fixed() });
    let seed = gen::request_seed(ctx.seed);
    let (d, (), setup_s, flags) = launch_with(
        ctx,
        &|_| daemon::flags(&["--cache", "64", "--sessions", "16", "--refine-workers", "1"]),
        &|d| {
            // Set-up ends with one warm-up plan outside the measured range.
            let body = gen::body(&scenario, seed, WARMUP_INDEX, "");
            let outcome = check(http::post_json(d.addr, "/plan", body.as_bytes()));
            ctx.ledger.record("warmup", &outcome);
            outcome.map(|_| ()).map_err(|f| f.to_string())
        },
    )?;
    let addr = d.addr;
    let seen = Mutex::new(BTreeMap::new());
    let (latencies, elapsed) = closed_loop(CLIENTS, ctx.seconds, MIN_REQUESTS, &|i| {
        let body = body(&scenario, seed, i);
        let t0 = Instant::now();
        let reply = http::post_json(addr, "/plan", body.as_bytes());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let outcome = check(reply);
        ctx.ledger.record(CLASS, &outcome);
        let Ok(found) = outcome else { return f64::INFINITY };
        seen.lock().unwrap_or_else(|e| e.into_inner()).insert(i, found);
        ms
    });
    let peak_rss_mb = d.peak_rss_mb()?;
    let scraped = d.metrics()?;
    let drained = d.shutdown()?;
    let seen = seen.into_inner().unwrap_or_else(|e| e.into_inner());

    // Off the timed path: rebuild and check a fixed prefix.
    let mut costs = Vec::with_capacity(CHECKED);
    for i in 0..CHECKED {
        let outcome = match seen.get(&i) {
            Some((_, got)) => verify(&scenario, seed, i, got),
            None => Err(Failure::wrong(format!("request {i} has no result to check"))),
        };
        ctx.ledger.record("plan_check", &outcome);
        costs.extend(outcome.ok());
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
        "plan_cold: {} /plan requests (n = {N}, one in four refined inline) from {CLIENTS} \
         closed-loop clients in {elapsed:.2} s",
        latencies.len()
    ));
    m.notes.push(format!("daemon: {drained}"));
    m.latencies_ms = latencies;
    if ctx.trace {
        replay(ctx, &scenario, seed, m.latencies_ms.len(), &mut m)?;
    }
    Ok(m)
}

/// The traced replay. Each request runs through `handlers::plan`
/// in-process (`serve.handlers.plan`), then stage by stage through the
/// layers' public functions — parse and hash, cache lookup, world build,
/// network instance, Algorithm 3, refinement, render — and must reproduce
/// the handler's bytes. Afterwards, off the stage sum, Algorithms 1 and 2
/// run alone on the same cumulative sets so Algorithm 3 splits into its
/// parts.
fn replay(
    ctx: &Ctx,
    scenario: &str,
    seed: u64,
    count: usize,
    m: &mut Measured,
) -> Result<(), String> {
    let state = AppState::new(0);
    let cache = PlanCache::new(0);
    let mut tr = Tracer::new();
    let (mut lookups, mut hits, mut refined) = (0usize, 0usize, 0usize);
    let (mut improvement, mut steps, mut bytes) = (0.0, 0u64, 0usize);
    let started = Instant::now();
    let mut done = 0;
    while done < count.max(MIN_REPLAY)
        && (done < MIN_REPLAY || started.elapsed().as_secs_f64() < ctx.seconds * REPLAY_SHARE)
    {
        let i = done;
        done += 1;
        let body = body(scenario, seed, i);
        let root = tr.open("request", None, i);
        let resp = tr
            .span("serve.handlers.plan", Some(root), i, || handlers::plan(&state, body.as_bytes()));

        let st = tr.open("stages", Some(root), i);
        let (tree, key) = tr.span("serve.json.parse", Some(st), i, || {
            let tree = serde_json::parse_value(&body).map_err(|e| e.to_string())?;
            let key = canonical_hash(&tree);
            Ok::<_, String>((tree, key))
        })?;
        let cached = tr.span("serve.cache.lookup", Some(st), i, || cache.get(key));
        lookups += 1;
        hits += usize::from(cached.is_some());
        let sv = tree.get("scenario").ok_or("no scenario")?;
        let parsed = tr
            .span("exp.scenario.world", Some(st), i, || world_from_value(sv, seed, i as u64))
            .map_err(|e| e.to_string())?;
        let instance = tr.span("core.network.instance", Some(st), i, || parsed.instance());
        let schedule = tr.span("core.mtd.alg3", Some(st), i, || {
            plan_min_total_distance(&instance, &MtdConfig::default())
        });
        let meta = PlanMeta {
            n: instance.n(),
            q: instance.q(),
            seed,
            index: i as u64,
            sparse: false,
            refine_steps: DEFAULT_REFINE_STEPS,
        };
        let refinement = refines(i).then(|| {
            tr.span("core.refine", Some(st), i, || {
                refine(instance.network(), &schedule, &Budget::steps(DEFAULT_REFINE_STEPS), seed)
            })
        });
        let rendered = tr.span("serve.handlers.render", Some(st), i, || {
            let v = match &refinement {
                Some((r, report)) => {
                    render_plan_result(&meta, r, Some(("inline", true, Some(report))))
                }
                None => render_plan_result(&meta, &schedule, None),
            };
            serde_json::to_string(&v).map_err(|e| e.to_string())
        })?;
        tr.close(st);
        tr.close(root);

        if let Some((_, report)) = &refinement {
            refined += 1;
            improvement += report.improvement_ratio();
            steps += report.steps;
        }
        bytes += rendered.len();
        let ours = result_part(&resp.body).and_then(|r| r.strip_suffix(b"}".as_slice()));
        let same: crate::ledger::Checked<()> =
            if resp.status == 200 && ours == Some(rendered.as_bytes()) {
                Ok(())
            } else {
                Err(Failure::wrong(format!("request {i}: the stages disagree with the handler")))
            };
        ctx.ledger.record("replay_plan", &same);

        // Algorithms 1 and 2 alone over Algorithm 3's cumulative sets.
        let probe = tr.open("probe", None, i);
        let network = instance.network();
        let src = network.dist_source();
        let depots = network.depot_nodes();
        let partition = partition_cycles(instance.cycles());
        let mut probe_cost = 0.0;
        for k in 0..=partition.k_max() {
            let terminals = partition.cumulative(k);
            let forest = tr.span("core.qmsf.alg1", Some(probe), i, || {
                q_rooted_msf_src(&src, &terminals, &depots)
            });
            let workers = if terminals.len() >= 256 {
                perpetuum_par::default_workers(depots.len())
            } else {
                1
            };
            let tours = tr.span("core.qtsp.alg2", Some(probe), i, || {
                tours_for_forest_src(
                    &src,
                    &forest,
                    &terminals,
                    &depots,
                    Routing::Doubling,
                    0,
                    workers,
                )
            });
            probe_cost += tours.cost;
        }
        tr.close(probe);
        let set_cost: f64 = schedule.sets().iter().map(|s| s.cost()).sum();
        let agrees: crate::ledger::Checked<()> =
            if (probe_cost - set_cost).abs() <= 1e-9 * set_cost.max(1.0) {
                Ok(())
            } else {
                Err(Failure::wrong(format!(
                    "request {i}: Algorithms 1+2 cost {probe_cost} vs sets {set_cost}"
                )))
            };
        ctx.ledger.record("replay_probe", &agrees);
    }

    let n = done as f64;
    let per_request = |name: &str| tr.total(name).0 / n;
    let layers = &mut m.layers;
    layers.insert("serve.handlers.plan_ms", tr.mean_ms("serve.handlers.plan"));
    layers.insert("serve.json.parse_ms", tr.mean_ms("serve.json.parse"));
    layers.insert("serve.cache.lookups", lookups as f64);
    layers.insert("serve.cache.hit_ratio", hits as f64 / lookups.max(1) as f64);
    layers.insert("exp.scenario.world_ms", tr.mean_ms("exp.scenario.world"));
    layers.insert("core.network.instance_ms", tr.mean_ms("core.network.instance"));
    layers.insert("core.mtd.alg3_ms", tr.mean_ms("core.mtd.alg3"));
    layers.insert("core.qmsf.alg1_ms", per_request("core.qmsf.alg1"));
    layers.insert("core.qtsp.alg2_ms", per_request("core.qtsp.alg2"));
    layers.insert(
        "core.mtd.assembly_ms",
        tr.mean_ms("core.mtd.alg3") - per_request("core.qmsf.alg1") - per_request("core.qtsp.alg2"),
    );
    layers.insert("core.refine.ms", tr.mean_ms("core.refine"));
    layers.insert("core.refine.improvement_ratio", improvement / refined.max(1) as f64);
    layers.insert("opt.refiner.steps", steps as f64 / refined.max(1) as f64);
    layers.insert("serve.handlers.render_ms", tr.mean_ms("serve.handlers.render"));
    layers.insert("serve.handlers.render_bytes", bytes as f64 / n);
    m.notes.push(format!("replay: {done} /plan requests in-process ({refined} refined)"));
    finish_trace(ctx, &tr, "serve.handlers.plan", m);
    Ok(())
}
