//! The event-driven simulation engine.
//!
//! Time advances through a merged stream of three event kinds:
//!
//! 1. **slot boundaries** (`t = m·ΔT`) — every sensor's rate process is
//!    resampled, predictors observe the new rate (sensors monitor their
//!    energy far more often than `ΔT`, Section VI.A), and the policy may
//!    replace its pending plan or append the plan's next window (a policy
//!    learns when it decides next from `Observation::next_decision`);
//! 2. **policy checks** (`t = m·tick`, only for polling policies) — the
//!    policy may trigger an immediate dispatch;
//! 3. **dispatches** — the next pending scheduling of the active plan is
//!    executed: its tour costs are charged to the service-cost meter and
//!    every covered sensor is recharged to full, instantaneously (the
//!    paper ignores charging and travel time, Section III.A).
//!
//! Between events, batteries drain linearly at the current rates — but
//! the engine never sweeps them. Energy lives in a crate-private
//! `EnergyCore` that
//! keeps each battery at its last touch point and predicts zero crossings
//! into a binary heap, so a sensor whose level crosses zero inside a
//! segment still dies at the analytically interpolated instant (and stays
//! at zero until recharged) while inter-event processing costs O(log n)
//! instead of the O(n) sweep of the dense reference engine (preserved in
//! [`crate::reference`], which also serves as the equivalence oracle).
//! The O(n) work that remains — resampling rates, materialising a full
//! [`crate::policy::Observation`] — happens only at slot boundaries,
//! where it is unavoidable anyway.
//!
//! # Travel-time mode
//!
//! Setting [`SimConfig::charger_speed`] replaces the instant-charge model
//! with physical chargers: each sensor on a tour is charged when the
//! vehicle *reaches* it (dispatch time + prefix distance / speed, delayed
//! further if the charger is still out on a previous tour). The paper
//! argues its zero-duration model is valid because a charging task is
//! "several orders of magnitude" shorter than sensor lifetimes; this mode
//! lets the `speed` extension experiment measure exactly where that
//! argument breaks (deaths appear as speed drops).
//!
//! # Fault injection
//!
//! [`run_with_faults`] merges a fourth event source into the stream: the
//! seeded fault process of a [`FaultModel`] (charger phase transitions and
//! recovery evaluations — see [`crate::faults`]). A down charger's tours
//! are skipped at dispatch time and its in-transit stops are cancelled;
//! the orphaned sensors are pooled and, once urgent, re-planned onto the
//! surviving depots ([`perpetuum_core::recovery::degraded_tour_set`]) as
//! an emergency dispatch, with bounded exponential backoff while no
//! charger is up. With [`FaultModel::none`] the fault path is never
//! entered — no fault RNG is even constructed — so [`run`] and fault-free
//! [`run_with_faults`] runs are bit-identical.

use crate::energy_core::EnergyCore;
use crate::faults::{FaultModel, FaultState};
use crate::metrics::{DeathEvent, SimResult};
use crate::policy::{ChargingPolicy, CheckContext, PlanUpdate};
use crate::trace::{SimTrace, TraceEvent};
use crate::world::World;
use perpetuum_core::schedule::{ScheduleSeries, TourSet};
use perpetuum_energy::EwmaPredictor;
use perpetuum_graph::Metric;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pending in-transit charge (travel-time mode): the charger reaches
/// `sensor` at `time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ChargeArrival {
    pub(crate) time: f64,
    pub(crate) sensor: usize,
    pub(crate) dispatched_at: f64,
    /// The charger (depot index) carrying this stop — a breakdown cancels
    /// its still-travelling arrivals.
    pub(crate) charger: usize,
}

impl Eq for ChargeArrival {}

impl PartialOrd for ChargeArrival {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ChargeArrival {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.total_cmp(&other.time).then(self.sensor.cmp(&other.sensor))
    }
}

/// Engine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Monitoring period `T`.
    pub horizon: f64,
    /// Slot length `ΔT` (rates are constant within a slot).
    pub slot: f64,
    /// Seed for the rate-resampling stream.
    pub seed: u64,
    /// Charger travel speed in distance units per time unit. `None` (the
    /// paper's model) charges every toured sensor instantaneously at the
    /// dispatch time.
    pub charger_speed: Option<f64>,
}

impl SimConfig {
    /// The paper's defaults: `T = 1000`, `ΔT = 10`, instant charging.
    pub fn paper_default(seed: u64) -> Self {
        Self { horizon: 1000.0, slot: 10.0, seed, charger_speed: None }
    }
}

/// Runs `policy` against `world` and returns the measured results.
///
/// The world is consumed (batteries and rate processes are stateful).
pub fn run<P: ChargingPolicy>(world: World, cfg: &SimConfig, policy: &mut P) -> SimResult {
    run_inner(world, cfg, policy, None, &FaultModel::none())
}

/// Like [`run`], additionally recording every simulation event.
pub fn run_traced<P: ChargingPolicy>(
    world: World,
    cfg: &SimConfig,
    policy: &mut P,
) -> (SimResult, SimTrace) {
    let mut trace = SimTrace::default();
    let result = run_inner(world, cfg, policy, Some(&mut trace), &FaultModel::none());
    (result, trace)
}

/// Like [`run`], with the fault process of `faults` merged into the event
/// stream. With [`FaultModel::none`] this is bit-identical to [`run`].
///
/// # Panics
///
/// Panics when `faults` has invalid parameters ([`FaultModel::validate`]).
pub fn run_with_faults<P: ChargingPolicy>(
    world: World,
    cfg: &SimConfig,
    policy: &mut P,
    faults: &FaultModel,
) -> SimResult {
    run_inner(world, cfg, policy, None, faults)
}

/// Like [`run_with_faults`], additionally recording every simulation
/// event (fault events included).
pub fn run_with_faults_traced<P: ChargingPolicy>(
    world: World,
    cfg: &SimConfig,
    policy: &mut P,
    faults: &FaultModel,
) -> (SimResult, SimTrace) {
    let mut trace = SimTrace::default();
    let result = run_inner(world, cfg, policy, Some(&mut trace), faults);
    (result, trace)
}

fn run_inner<P: ChargingPolicy>(
    mut world: World,
    cfg: &SimConfig,
    policy: &mut P,
    mut trace: Option<&mut SimTrace>,
    faults: &FaultModel,
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
    // Fault process state — `None` (and therefore zero extra RNG draws,
    // preserving bit-identity with the fault-free engine) unless the model
    // enables at least one fault kind.
    let mut fstate: Option<FaultState> = FaultState::new(faults, q, n, cfg.seed);
    let rates: Vec<f64> = world
        .processes
        .iter_mut()
        .enumerate()
        .map(|(i, p)| {
            let r = p.rate_for_slot(0, &mut rng);
            match fstate.as_mut() {
                Some(fs) => fs.transform_rate(i, r),
                None => r,
            }
        })
        .collect();
    let reported: Vec<f64> = rates.iter().map(|&r| measure(r)).collect();
    let mut predictors: Vec<EwmaPredictor> =
        reported.iter().map(|&r| EwmaPredictor::new(world.gamma, r)).collect();
    let rho_hat: Vec<f64> = predictors.iter().map(|p| p.predicted_rate()).collect();
    let capacities = world.capacities();
    // Batteries move into the lazy accounting core; the rest of the world
    // (network, rate processes) stays put.
    let batteries = std::mem::take(&mut world.batteries);
    let mut core = EnergyCore::new(batteries, rates, reported, rho_hat, capacities);
    core.begin_slot(cfg.slot);

    let mut plan = ScheduleSeries::new();
    let mut dptr = 0usize; // next pending dispatch in `plan`
                           // Travel-time mode state: in-transit charges and per-charger return
                           // times.
    let mut arrivals: BinaryHeap<Reverse<ChargeArrival>> = BinaryHeap::new();
    let mut busy_until = vec![0.0f64; q];
    if let Some(speed) = cfg.charger_speed {
        assert!(speed > 0.0, "charger speed must be positive");
    }

    // The first slot boundary; observations name it as the next decision.
    let mut next_slot = cfg.slot;

    macro_rules! apply_update {
        ($upd:expr, $t:expr) => {
            match $upd {
                PlanUpdate::Keep => {}
                PlanUpdate::Replace(series) => {
                    debug_assert!(series.dispatches().iter().all(|d| d.time >= $t - 1e-9));
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.events.push(TraceEvent::PlanReplaced {
                            time: $t,
                            pending: series.dispatch_count(),
                        });
                    }
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
            let next_decision = next_slot.min(cfg.horizon);
            let mut ctx = CheckContext::lazy($t, cfg.horizon, next_decision, &mut core);
            policy.on_check(&mut ctx)
        }};
    }

    macro_rules! execute {
        ($set:expr, $t:expr) => {
            execute(
                $set,
                $t,
                &world,
                &mut core,
                &mut result,
                cfg.charger_speed,
                &mut arrivals,
                &mut busy_until,
                trace.as_deref_mut(),
                fstate.as_mut(),
            )
        };
    }

    // t = 0: initial plan.
    {
        let upd = {
            let obs = core.observation(0.0, cfg.horizon, next_slot.min(cfg.horizon));
            policy.initialize(&obs)
        };
        apply_update!(upd, 0.0);
    }

    let tick = policy.check_interval();
    let mut next_check = tick;
    let mut slot_idx: u64 = 1;

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
        if let Some(fs) = fstate.as_ref() {
            let f = fs.next_event();
            if f < tn {
                tn = f;
            }
        }

        // Deaths strictly inside [t, tn): the heap's strict `key < tn`
        // pop mirrors the dense sweep's per-segment crossing test, so a
        // charge landing exactly at a depletion instant still rescues.
        core.pop_deaths(tn, |sensor, when| {
            if let Some(tr) = trace.as_deref_mut() {
                tr.events.push(TraceEvent::Death { time: when, sensor });
            }
            result.deaths.push(DeathEvent { sensor, time: when });
        });
        let t = tn;
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
            if let Some(dead_for) = core.charge(a.sensor, a.time) {
                result.faults.deadline_misses += 1;
                result.faults.dead_sensor_time += dead_for;
            }
            result.charges += 1;
            result.charge_log[a.sensor].push(a.time);
            if let Some(tr) = trace.as_deref_mut() {
                tr.events.push(TraceEvent::Charge { time: a.time, sensor: a.sensor });
            }
            let delay = a.time - a.dispatched_at;
            result.total_charge_delay += delay;
            result.max_charge_delay = result.max_charge_delay.max(delay);
        }

        // Charger breakdowns / repairs due at t. A breakdown aborts the
        // charger's in-transit stops (travel-time mode); the cancelled
        // sensors join the orphan pool. A repair wakes the recovery
        // planner so a waiting pool can be served immediately.
        if let Some(fs) = fstate.as_mut() {
            while let Some(l) = fs.pop_due_transition(t) {
                if fs.up[l] {
                    fs.breakdown(l, t);
                    result.faults.breakdowns += 1;
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.events.push(TraceEvent::ChargerDown { time: t, charger: l });
                    }
                    if cfg.charger_speed.is_some() {
                        let mut kept = Vec::with_capacity(arrivals.len());
                        let mut cancelled: Vec<usize> = Vec::new();
                        for Reverse(a) in arrivals.drain() {
                            if a.charger == l && a.time > t {
                                cancelled.push(a.sensor);
                            } else {
                                kept.push(Reverse(a));
                            }
                        }
                        arrivals.extend(kept);
                        busy_until[l] = t;
                        if !cancelled.is_empty() {
                            cancelled.sort_unstable();
                            result.faults.orphaned_charges += cancelled.len();
                            if let Some(tr) = trace.as_deref_mut() {
                                tr.events.push(TraceEvent::TourAborted {
                                    time: t,
                                    charger: l,
                                    orphans: cancelled.len(),
                                });
                            }
                            for s in cancelled {
                                let stamp = core.stamp_of(s);
                                fs.add_orphan(s, t, stamp);
                            }
                        }
                    }
                } else {
                    let down_for = fs.repair(l, t);
                    result.faults.repairs += 1;
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.events.push(TraceEvent::ChargerRepaired {
                            time: t,
                            charger: l,
                            downtime: down_for,
                        });
                    }
                    fs.request_recovery(t);
                }
            }
        }

        if t == next_slot {
            // The old rates apply up to the boundary; settle before
            // resampling (this is the slot's one O(n) pass).
            core.settle_all(t);
            for (i, p) in world.processes.iter_mut().enumerate() {
                let mut r = p.rate_for_slot(slot_idx, &mut rng);
                if let Some(fs) = fstate.as_mut() {
                    r = fs.transform_rate(i, r);
                }
                let rep = measure(r);
                predictors[i].observe(rep);
                core.set_slot_rate(i, r, rep, predictors[i].predicted_rate());
            }
            // New rates can move orphan urgency crossings; re-evaluate.
            if let Some(fs) = fstate.as_mut() {
                fs.request_recovery(t);
            }
            if let Some(tr) = trace.as_deref_mut() {
                tr.events.push(TraceEvent::SlotBoundary { time: t, slot: slot_idx });
            }
            slot_idx += 1;
            next_slot = slot_idx as f64 * cfg.slot;
            core.begin_slot(next_slot);
            let upd = {
                let obs = core.observation(t, cfg.horizon, next_slot.min(cfg.horizon));
                policy.on_slot_boundary(&obs)
            };
            apply_update!(upd, t);
            // Polling policies also get a check right after rates change,
            // so a slot boundary that falls between two ticks cannot hide
            // a rate spike for most of a tick.
            if tick.is_some() && Some(t) != next_check {
                if let Some(set) = check!(t) {
                    execute!(&set, t);
                }
            }
        }

        if Some(t) == next_check {
            if let Some(set) = check!(t) {
                execute!(&set, t);
            }
            next_check = tick.map(|k| t + k);
        }

        while let Some(d) = plan.dispatches().get(dptr) {
            if d.time > t {
                break;
            }
            execute!(plan.set_of(d), t);
            dptr += 1;
        }

        // Recovery evaluation runs last so orphans created earlier in this
        // very instant (breakdown aborts, skipped tours) are considered.
        if let Some(fs) = fstate.as_mut() {
            if fs.next_recovery() <= t {
                recover(
                    fs,
                    t,
                    &world,
                    &mut core,
                    &mut result,
                    cfg,
                    &mut arrivals,
                    &mut busy_until,
                    trace.as_deref_mut(),
                );
            }
        }
    }

    if let Some(fs) = &fstate {
        result.faults.per_charger_downtime = fs.downtime_at(cfg.horizon);
        // Sensors that never recovered keep bleeding dead time until the
        // horizon.
        result.faults.dead_sensor_time += core.dead_tail(cfg.horizon);
    }

    result
}

/// Appends a policy's next window to `plan`, whose dispatches before
/// `dptr` have executed. A fully executed plan is history and is dropped,
/// so a run of windows keeps the plan one window long.
pub(crate) fn extend_plan(plan: &mut ScheduleSeries, dptr: &mut usize, window: ScheduleSeries) {
    if *dptr == plan.dispatch_count() {
        *plan = window;
        *dptr = 0;
    } else {
        plan.append(window);
    }
}

/// How far past `t` the recovery planner schedules its next look at a
/// non-urgent orphan pool, at minimum — keeps the event loop strictly
/// advancing even when an urgency crossing rounds to "now".
const RECOVERY_REEVAL_EPS: f64 = 1e-9;

/// One recovery evaluation at time `t`: drop orphans that an ordinary
/// charge already healed, serve the urgent remainder via an emergency
/// scheduling over the surviving depots, or — with every charger down —
/// back off exponentially until the retry budget runs out.
#[allow(clippy::too_many_arguments)]
fn recover(
    fs: &mut FaultState,
    t: f64,
    world: &World,
    core: &mut EnergyCore,
    result: &mut SimResult,
    cfg: &SimConfig,
    arrivals: &mut BinaryHeap<Reverse<ChargeArrival>>,
    busy_until: &mut [f64],
    mut trace: Option<&mut SimTrace>,
) {
    // An orphan whose energy stamp moved was recharged through a normal
    // dispatch since it was pooled — nothing left to rescue.
    fs.retain_orphans(|o| core.stamp_of(o.sensor) == o.stamp);
    if !fs.has_orphans() {
        fs.set_next_recovery(f64::INFINITY);
        fs.attempt = 0;
        return;
    }
    let window = fs.model.recovery.urgency_window;
    // `urgency_key <= t` catches crossings that float rounding keeps just
    // outside `is_urgent`'s slack — without it the planner could reschedule
    // itself in EPS-sized steps.
    let urgent_idx: Vec<usize> = (0..fs.orphans().len())
        .filter(|&k| {
            let s = fs.orphans()[k].sensor;
            core.is_urgent(s, t, window) || core.urgency_key(s, window) <= t
        })
        .collect();
    let reschedule = |fs: &mut FaultState, core: &EnergyCore| {
        if fs.has_orphans() {
            let next = fs
                .orphans()
                .iter()
                .map(|o| core.urgency_key(o.sensor, window))
                .fold(f64::INFINITY, f64::min);
            fs.set_next_recovery(next.max(t + RECOVERY_REEVAL_EPS));
        } else {
            fs.set_next_recovery(f64::INFINITY);
        }
    };
    if urgent_idx.is_empty() {
        fs.attempt = 0;
        reschedule(fs, core);
        return;
    }
    if !fs.any_up() {
        if fs.attempt >= fs.model.recovery.max_retries {
            // Retry budget exhausted: abandon the urgent orphans (they die
            // or survive on their own); the rest of the pool keeps its
            // schedule.
            result.faults.recovery_giveups += urgent_idx.len();
            fs.remove_orphans(&urgent_idx);
            fs.attempt = 0;
            reschedule(fs, core);
        } else {
            fs.attempt += 1;
            let wait = fs.model.recovery.backoff * f64::powi(2.0, (fs.attempt - 1) as i32);
            result.faults.recovery_retries += 1;
            if let Some(tr) = trace.as_deref_mut() {
                tr.events.push(TraceEvent::RecoveryRetry { time: t, attempt: fs.attempt, wait });
            }
            fs.set_next_recovery(t + wait);
        }
        return;
    }
    // Emergency dispatch: re-plan the urgent orphans onto the surviving
    // depot subset and execute the degraded scheduling right now.
    let mut sensors: Vec<usize> = urgent_idx.iter().map(|&k| fs.orphans()[k].sensor).collect();
    sensors.sort_unstable();
    let set = perpetuum_core::recovery::degraded_tour_set(&world.network, &sensors, &fs.up)
        .expect("a surviving charger exists");
    if let Some(tr) = trace.as_deref_mut() {
        tr.events.push(TraceEvent::EmergencyDispatch {
            time: t,
            sensors: sensors.len(),
            cost: set.cost(),
        });
    }
    result.faults.emergency_dispatches += 1;
    result.faults.recovered_orphans += urgent_idx.len();
    for &k in &urgent_idx {
        let latency = t - fs.orphans()[k].since;
        result.faults.total_recovery_latency += latency;
        result.faults.max_recovery_latency = result.faults.max_recovery_latency.max(latency);
    }
    fs.remove_orphans(&urgent_idx);
    fs.attempt = 0;
    execute(&set, t, world, core, result, cfg.charger_speed, arrivals, busy_until, trace, Some(fs));
    reschedule(fs, core);
}

/// Executes one charging scheduling at time `t`. With a charger speed,
/// sensors are charged when the vehicle reaches them (and a charger still
/// out on a previous tour departs only after returning); without one, all
/// covered sensors are charged instantaneously (the paper's model). Tour
/// lengths come from the [`TourSet`] cache; the network's distance source
/// is only consulted for travel-time prefixes, so in-sim dispatching
/// never needs (or builds) a dense matrix.
/// With fault state present, tours of down chargers are skipped (their
/// sensors join the orphan pool) and only the executed tours' costs are
/// charged; with every charger up the per-tour accumulation reproduces
/// `set.cost()` bit for bit, so the fault-free path is unchanged.
#[allow(clippy::too_many_arguments)]
fn execute(
    set: &TourSet,
    t: f64,
    world: &World,
    core: &mut EnergyCore,
    result: &mut SimResult,
    charger_speed: Option<f64>,
    arrivals: &mut BinaryHeap<Reverse<ChargeArrival>>,
    busy_until: &mut [f64],
    mut trace: Option<&mut SimTrace>,
    mut faults: Option<&mut FaultState>,
) {
    if let Some(tr) = trace.as_deref_mut() {
        tr.events.push(TraceEvent::Dispatch {
            time: t,
            sensors: set.sensors().len(),
            cost: set.cost(),
        });
    }
    result.dispatches += 1;
    let n = world.n();
    let src = world.network.dist_source();
    // One travel-speed draw per executed dispatch (travel-time mode with
    // speed faults only).
    let speed = match (charger_speed, faults.as_deref_mut()) {
        (Some(s), Some(fs)) => Some(s * fs.speed_factor()),
        (s, _) => s,
    };
    let mut exec_cost = 0.0;
    let mut skipped: Vec<usize> = Vec::new();
    for (l, tour) in set.tours().iter().enumerate() {
        let len = set.tour_lengths()[l];
        if let Some(fs) = faults.as_deref_mut() {
            if !fs.up[l] && tour.len() >= 2 {
                result.faults.aborted_tours += 1;
                result.faults.orphaned_charges += tour.len() - 1;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.events.push(TraceEvent::TourAborted {
                        time: t,
                        charger: l,
                        orphans: tour.len() - 1,
                    });
                }
                for &s in &tour.nodes()[1..] {
                    debug_assert!(s < n, "tours visit the depot only first");
                    let stamp = core.stamp_of(s);
                    fs.add_orphan(s, t, stamp);
                    skipped.push(s);
                }
                continue;
            }
        }
        exec_cost += len;
        result.per_charger_distance[l] += len;
        result.max_tour_length = result.max_tour_length.max(len);
        if let Some(speed) = speed {
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
    result.service_cost += exec_cost;
    result.max_dispatch_cost = result.max_dispatch_cost.max(exec_cost);
    if charger_speed.is_none() {
        skipped.sort_unstable();
        for &node in set.sensors() {
            debug_assert!(node < n, "tour sets must only list sensor nodes");
            if skipped.binary_search(&node).is_ok() {
                continue;
            }
            if let Some(dead_for) = core.charge(node, t) {
                result.faults.deadline_misses += 1;
                result.faults.dead_sensor_time += dead_for;
            }
            result.charges += 1;
            result.charge_log[node].push(t);
            if let Some(tr) = trace.as_deref_mut() {
                tr.events.push(TraceEvent::Charge { time: t, sensor: node });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GreedyPolicy, MtdPolicy, Observation};
    use perpetuum_core::network::Network;
    use perpetuum_geom::Point2;

    fn line_network(n: usize) -> Network {
        let sensors: Vec<Point2> =
            (0..n).map(|i| Point2::new((i + 1) as f64 * 10.0, 0.0)).collect();
        Network::new(sensors, vec![Point2::ORIGIN])
    }

    #[test]
    fn mtd_keeps_fixed_world_alive() {
        let network = line_network(4);
        let cycles = [1.0, 2.0, 3.5, 8.0];
        let world = World::fixed(network.clone(), &cycles);
        let mut policy = MtdPolicy::new(&network);
        let cfg = SimConfig { horizon: 50.0, slot: 10.0, seed: 1, charger_speed: None };
        let r = run(world, &cfg, &mut policy);
        assert!(r.is_perpetual(), "deaths: {:?}", r.deaths);
        assert!(r.service_cost > 0.0);
        assert!(r.dispatches > 0);
        // Executed charges replay as a feasible series.
        perpetuum_core::feasibility::check_with(&cycles, 50.0, |i| r.charge_log[i].clone())
            .unwrap();
    }

    #[test]
    fn greedy_keeps_fixed_world_alive() {
        let network = line_network(5);
        let cycles = [1.0, 2.0, 2.7, 6.0, 11.0];
        let world = World::fixed(network.clone(), &cycles);
        let mut policy = GreedyPolicy::new(&network, 1.0);
        let cfg = SimConfig { horizon: 60.0, slot: 10.0, seed: 2, charger_speed: None };
        let r = run(world, &cfg, &mut policy);
        assert!(r.is_perpetual(), "deaths: {:?}", r.deaths);
        perpetuum_core::feasibility::check_with(&cycles, 60.0, |i| r.charge_log[i].clone())
            .unwrap();
    }

    #[test]
    fn sim_greedy_matches_offline_greedy_plan() {
        // Under fixed rates the EWMA prediction is exact, so the online
        // greedy must reproduce the deterministic offline unrolling.
        let network = line_network(6);
        let cycles = [1.0, 2.0, 3.0, 5.0, 8.0, 13.0];
        let horizon = 40.0;
        let world = World::fixed(network.clone(), &cycles);
        let mut policy = GreedyPolicy::new(&network, 1.0);
        let cfg = SimConfig { horizon, slot: 10.0, seed: 3, charger_speed: None };
        let r = run(world, &cfg, &mut policy);

        let inst =
            perpetuum_core::network::Instance::new(network.clone(), cycles.to_vec(), horizon);
        let offline = perpetuum_core::greedy::plan_greedy_fixed(
            &inst,
            &perpetuum_core::greedy::GreedyConfig::paper_default(1.0),
        );
        assert!((r.service_cost - offline.service_cost()).abs() < 1e-6);
        for i in 0..6 {
            assert_eq!(r.charge_log[i], offline.charge_times(i), "sensor {i}");
        }
    }

    #[test]
    fn sim_mtd_matches_offline_plan_cost() {
        let network = line_network(5);
        let cycles = [1.0, 1.5, 4.0, 9.0, 30.0];
        let horizon = 64.0;
        let world = World::fixed(network.clone(), &cycles);
        let mut policy = MtdPolicy::new(&network);
        let cfg = SimConfig { horizon, slot: 10.0, seed: 4, charger_speed: None };
        let r = run(world, &cfg, &mut policy);

        let inst =
            perpetuum_core::network::Instance::new(network.clone(), cycles.to_vec(), horizon);
        let offline = perpetuum_core::mtd::plan_min_total_distance(
            &inst,
            &perpetuum_core::mtd::MtdConfig::default(),
        );
        assert!((r.service_cost - offline.service_cost()).abs() < 1e-6);
        assert_eq!(r.dispatches, offline.dispatch_count());
    }

    #[test]
    fn unattended_world_records_deaths() {
        struct DoNothing;
        impl ChargingPolicy for DoNothing {
            fn name(&self) -> &'static str {
                "DoNothing"
            }
            fn initialize(&mut self, _obs: &Observation) -> PlanUpdate {
                PlanUpdate::Keep
            }
        }
        let network = line_network(2);
        let world = World::fixed(network, &[3.0, 7.0]);
        let cfg = SimConfig { horizon: 20.0, slot: 10.0, seed: 5, charger_speed: None };
        let r = run(world, &cfg, &mut DoNothing);
        assert_eq!(r.deaths.len(), 2);
        // Death times are the exact depletion instants.
        assert!((r.deaths[0].time - 3.0).abs() < 1e-9);
        assert!((r.deaths[1].time - 7.0).abs() < 1e-9);
        assert_eq!(r.service_cost, 0.0);
    }

    #[test]
    fn per_charger_distances_sum_to_service_cost() {
        let network = line_network(4);
        let cycles = [1.0, 2.0, 4.0, 8.0];
        let world = World::fixed(network.clone(), &cycles);
        let mut policy = MtdPolicy::new(&network);
        let cfg = SimConfig { horizon: 32.0, slot: 10.0, seed: 6, charger_speed: None };
        let r = run(world, &cfg, &mut policy);
        let sum: f64 = r.per_charger_distance.iter().sum();
        assert!((sum - r.service_cost).abs() < 1e-6);
    }
}
