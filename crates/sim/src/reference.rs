//! The dense-sweep reference engine.
//!
//! This is the simulator the event-driven core in [`crate::engine`]
//! replaced: between events it drains *every* battery across the segment
//! and checks each one for a zero crossing, so every slot boundary,
//! polling check, dispatch and travel-time arrival costs O(n). It is kept
//! for two jobs:
//!
//! - [`run_reference`] is the baseline the `sim` benchmark and the
//!   equivalence test suite compare the event-driven engine against — it
//!   produces the same discrete outputs (charges, dispatches, costs) and
//!   the same deaths up to float re-association;
//! - [`run_fixed_step`] caps every drain segment at `max_step`, turning
//!   the sweep into a naive small-step integrator whose only analytic
//!   ingredient is the in-segment death interpolation. With a step well
//!   below every event spacing it is an independent ground truth that
//!   shares almost no code path with the lazy accounting.
//!
//! Policies see exactly the interface the event-driven engine offers:
//! full [`Observation`]s at initialisation and slot boundaries, a
//! [`CheckContext`] (wrapping a dense observation) at polling checks.

use crate::engine::{extend_plan, ChargeArrival, SimConfig};
use crate::metrics::{DeathEvent, SimResult};
use crate::policy::{ChargingPolicy, CheckContext, Observation, PlanUpdate};
use crate::world::World;
use perpetuum_core::schedule::{ScheduleSeries, TourSet};
use perpetuum_energy::EwmaPredictor;
use perpetuum_graph::Metric;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Runs `policy` against `world` on the dense-sweep engine.
pub fn run_reference<P: ChargingPolicy>(
    world: World,
    cfg: &SimConfig,
    policy: &mut P,
) -> SimResult {
    run_dense(world, cfg, policy, None)
}

/// Like [`run_reference`], additionally capping every drain segment at
/// `max_step` (a naive fixed-small-step integrator for equivalence
/// testing).
///
/// # Panics
/// Panics unless `max_step` is strictly positive.
pub fn run_fixed_step<P: ChargingPolicy>(
    world: World,
    cfg: &SimConfig,
    policy: &mut P,
    max_step: f64,
) -> SimResult {
    assert!(max_step > 0.0, "max_step must be positive");
    run_dense(world, cfg, policy, Some(max_step))
}

fn run_dense<P: ChargingPolicy>(
    mut world: World,
    cfg: &SimConfig,
    policy: &mut P,
    max_step: Option<f64>,
) -> SimResult {
    assert!(cfg.horizon > 0.0, "horizon must be positive");
    assert!(cfg.slot > 0.0, "slot must be positive");
    let n = world.n();
    let q = world.q();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut result = SimResult {
        per_charger_distance: vec![0.0; q],
        charge_log: vec![Vec::new(); n],
        ..Default::default()
    };

    // Slot 0: initial rates; predictors start at the observed (possibly
    // noisy) rate. Energy always drains at the true rate; what sensors
    // *report* — and therefore everything the policies see — carries the
    // world's measurement noise.
    let noise = world.measurement_noise;
    let mut measure = {
        let mut noise_rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
        move |true_rate: f64| -> f64 {
            if noise == 0.0 {
                true_rate
            } else {
                use rand::Rng;
                true_rate * (1.0 + noise_rng.gen_range(-noise..=noise))
            }
        }
    };
    let mut rates: Vec<f64> =
        world.processes.iter_mut().map(|p| p.rate_for_slot(0, &mut rng)).collect();
    let mut reported: Vec<f64> = rates.iter().map(|&r| measure(r)).collect();
    let mut predictors: Vec<EwmaPredictor> =
        reported.iter().map(|&r| EwmaPredictor::new(world.gamma, r)).collect();
    let mut capacities = world.capacities();

    let mut plan = ScheduleSeries::new();
    let mut dptr = 0usize; // next pending dispatch in `plan`
                           // Death bookkeeping lives here, not in `Battery`: a battery at exactly
                           // zero at a charging instant is *alive* (the paper allows charge gaps
                           // equal to the cycle), so death means strictly crossing zero between
                           // charges.
    let mut dead = vec![false; n];
    // Travel-time mode state: in-transit charges and per-charger return
    // times.
    let mut arrivals: BinaryHeap<Reverse<ChargeArrival>> = BinaryHeap::new();
    let mut busy_until = vec![0.0f64; q];
    if let Some(speed) = cfg.charger_speed {
        assert!(speed > 0.0, "charger speed must be positive");
    }

    // Scratch buffers refreshed before each policy call.
    let mut levels: Vec<f64> = world.batteries.iter().map(|b| b.level()).collect();
    let mut rho_hat: Vec<f64> = predictors.iter().map(|p| p.predicted_rate()).collect();

    // The first slot boundary; observations name it as the next decision.
    let mut next_slot = cfg.slot;

    macro_rules! observation {
        ($t:expr) => {{
            for (i, b) in world.batteries.iter().enumerate() {
                levels[i] = b.level();
                capacities[i] = b.capacity(); // batteries may age
            }
            for (i, p) in predictors.iter().enumerate() {
                rho_hat[i] = p.predicted_rate();
            }
            Observation {
                time: $t,
                horizon: cfg.horizon,
                next_decision: next_slot.min(cfg.horizon),
                levels: &levels,
                rho_hat: &rho_hat,
                rho_now: &reported,
                capacities: &capacities,
            }
        }};
    }

    macro_rules! apply_update {
        ($upd:expr, $t:expr) => {
            match $upd {
                PlanUpdate::Keep => {}
                PlanUpdate::Replace(series) => {
                    debug_assert!(series.dispatches().iter().all(|d| d.time >= $t - 1e-9));
                    plan = series;
                    dptr = 0;
                }
                PlanUpdate::Extend(series) => {
                    debug_assert!(series.dispatches().iter().all(|d| d.time >= $t - 1e-9));
                    extend_plan(&mut plan, &mut dptr, series);
                }
            }
        };
    }

    macro_rules! check {
        ($t:expr) => {{
            let obs = observation!($t);
            let mut ctx = CheckContext::from_observation(obs);
            policy.on_check(&mut ctx)
        }};
    }

    // t = 0: initial plan.
    {
        let obs = observation!(0.0);
        let upd = policy.initialize(&obs);
        apply_update!(upd, 0.0);
    }

    let tick = policy.check_interval();
    let mut next_check = tick;
    let mut slot_idx: u64 = 1;
    let mut t = 0.0f64;

    // Immediate dispatches a polling policy can trigger at t = 0 are not a
    // thing in the paper's model (all sensors start full), so checks start
    // at the first tick.

    loop {
        // Next event time.
        let mut tn = cfg.horizon;
        if next_slot < tn {
            tn = next_slot;
        }
        if let Some(c) = next_check {
            if c < tn {
                tn = c;
            }
        }
        if let Some(d) = plan.dispatches().get(dptr) {
            if d.time < tn {
                tn = d.time;
            }
        }
        if let Some(Reverse(a)) = arrivals.peek() {
            if a.time < tn {
                tn = a.time;
            }
        }
        if let Some(step) = max_step {
            // Synthetic segment boundary: nothing happens there, the
            // sweep just integrates in smaller pieces.
            let cap = t + step;
            if cap < tn {
                tn = cap;
            }
        }

        // Drain across [t, tn).
        let dt = tn - t;
        if dt > 0.0 {
            for (i, b) in world.batteries.iter_mut().enumerate() {
                if dead[i] {
                    continue;
                }
                // Strict crossing (with float slack): draining exactly to
                // zero at a boundary is survivable if a charge lands there.
                if rates[i] * dt > b.level() + 1e-9 {
                    dead[i] = true;
                    let when = t + b.lifetime_at(rates[i]);
                    result.deaths.push(DeathEvent { sensor: i, time: when });
                }
                b.drain(rates[i], dt);
            }
        }
        t = tn;
        if t >= cfg.horizon {
            break;
        }

        // Events at time t: in-transit arrivals land first, then slot,
        // check and dispatch processing.
        while let Some(Reverse(a)) = arrivals.peek() {
            if a.time > t {
                break;
            }
            let a = arrivals.pop().expect("peeked").0;
            world.batteries[a.sensor].charge_full();
            dead[a.sensor] = false;
            result.charges += 1;
            result.charge_log[a.sensor].push(a.time);
            let delay = a.time - a.dispatched_at;
            result.total_charge_delay += delay;
            result.max_charge_delay = result.max_charge_delay.max(delay);
        }

        if t == next_slot {
            for (i, p) in world.processes.iter_mut().enumerate() {
                let r = p.rate_for_slot(slot_idx, &mut rng);
                rates[i] = r;
                reported[i] = measure(r);
                predictors[i].observe(reported[i]);
            }
            slot_idx += 1;
            next_slot = slot_idx as f64 * cfg.slot;
            let obs = observation!(t);
            let upd = policy.on_slot_boundary(&obs);
            apply_update!(upd, t);
            // Polling policies also get a check right after rates change,
            // so a slot boundary that falls between two ticks cannot hide
            // a rate spike for most of a tick.
            if tick.is_some() && Some(t) != next_check {
                if let Some(set) = check!(t) {
                    execute(
                        &set,
                        t,
                        &mut world,
                        &mut result,
                        &mut dead,
                        n,
                        cfg.charger_speed,
                        &mut arrivals,
                        &mut busy_until,
                    );
                }
            }
        }

        if Some(t) == next_check {
            if let Some(set) = check!(t) {
                execute(
                    &set,
                    t,
                    &mut world,
                    &mut result,
                    &mut dead,
                    n,
                    cfg.charger_speed,
                    &mut arrivals,
                    &mut busy_until,
                );
            }
            next_check = tick.map(|k| t + k);
        }

        while let Some(d) = plan.dispatches().get(dptr) {
            if d.time > t {
                break;
            }
            execute(
                plan.set_of(d),
                t,
                &mut world,
                &mut result,
                &mut dead,
                n,
                cfg.charger_speed,
                &mut arrivals,
                &mut busy_until,
            );
            dptr += 1;
        }
    }

    result
}

/// Executes one charging scheduling at time `t` (dense-sweep flavour:
/// charges mutate `world.batteries` directly).
#[allow(clippy::too_many_arguments)]
fn execute(
    set: &TourSet,
    t: f64,
    world: &mut World,
    result: &mut SimResult,
    dead: &mut [bool],
    n: usize,
    charger_speed: Option<f64>,
    arrivals: &mut BinaryHeap<Reverse<ChargeArrival>>,
    busy_until: &mut [f64],
) {
    result.service_cost += set.cost();
    result.dispatches += 1;
    result.max_dispatch_cost = result.max_dispatch_cost.max(set.cost());
    let src = world.network.dist_source();
    for (l, tour) in set.tours().iter().enumerate() {
        let len = set.tour_lengths()[l];
        result.per_charger_distance[l] += len;
        result.max_tour_length = result.max_tour_length.max(len);
        if let Some(speed) = charger_speed {
            if tour.len() < 2 {
                continue;
            }
            let depart = t.max(busy_until[l]);
            let nodes = tour.nodes();
            let mut prefix = 0.0;
            for w in nodes.windows(2) {
                prefix += src.get(w[0], w[1]);
                let sensor = w[1];
                debug_assert!(sensor < n, "tours visit the depot only first");
                arrivals.push(Reverse(ChargeArrival {
                    time: depart + prefix / speed,
                    sensor,
                    dispatched_at: t,
                    charger: l,
                }));
            }
            busy_until[l] = depart + len / speed;
        }
    }
    if charger_speed.is_none() {
        for &node in set.sensors() {
            debug_assert!(node < n, "tour sets must only list sensor nodes");
            world.batteries[node].charge_full();
            dead[node] = false;
            result.charges += 1;
            result.charge_log[node].push(t);
        }
    }
}
