//! Incremental replanning: persistent Algorithm-1/2 state that survives
//! across adaptive replans.
//!
//! `MinTotalDistance-var` ([`crate::var`], Section VI.B) rebuilds the
//! `q`-rooted MSF and every tour from scratch each time cycles drift out
//! of band. Profiling shows that work is almost entirely redundant:
//! between consecutive replans only a handful of sensors change
//! power-of-two class, yet the from-scratch path re-runs heap-Prim and
//! re-routes every cumulative base set `D_0 ⊆ … ⊆ D_K` plus the whole
//! `V^a` repair. This module keeps the forest and tours of every base set
//! alive between replans and *splices* them:
//!
//! * **Forest surgery** — a class migration inserts/removes sensors from
//!   the affected `D_k`. The set's forest is recomputed over its new
//!   membership by the same exact kd-tree Borůvka kernel the from-scratch
//!   paths use, fed each member's cached cheapest depot — so the splice
//!   equals [`crate::qmsf::rooted_msf_points`] on the new members exactly.
//!   The kernel is near-linear, so there is no candidate-edge cache to
//!   maintain between splices.
//! * **Warm-started tours** — each root's previous tour is repaired in
//!   place: departed nodes are dropped (triangle inequality — never
//!   longer), arrivals are cheapest-inserted, and a localized 2-opt
//!   smooths the seams. A fresh doubling rebuild of the spliced tree
//!   guards every root: the shorter tour wins, so a warm tour never costs
//!   more than the paper's 2-approximation on the current forest. Repairs
//!   run per-root in parallel and are bit-identical for any worker count
//!   (same argument as [`crate::qtsp::q_rooted_tsp_routed_src`]).
//! * **Anchor-grid emission** — dispatch times stay on the seed grid
//!   `anchor + j·τ̂₁` serving `D_{min(ν₂(j),K)}`, so future dispatches of
//!   an untouched class reuse its cached tours verbatim. A replan at `now`
//!   re-emits the future grid plus one immediate batch for sensors whose
//!   residual cannot reach their next grid service — the incremental
//!   counterpart of the `V^a` repair.
//!
//! A splice refuses (and the caller re-seeds from scratch) when the cached
//! partition no longer applies — see [`FullReason`].

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::mtd::nu2;
use crate::network::Network;
use crate::qmsf::{super_root_forest, ForestEdge, RootedForest};
use crate::qtsp::{default_tour_workers, q_rooted_tsp_src, tour_from_tree_doubling, QTours};
use crate::rounding::power_class;
use crate::schedule::{ScheduleSeries, TourSet};
use crate::var::{replan_variable_detailed, RepairStrategy, VarDetailed, VarInput, VarPlan};
use perpetuum_geom::Point2;
use perpetuum_graph::{Metric, Tour};

/// Tuning knobs of the incremental planner.
#[derive(Debug, Clone, Copy)]
pub struct IncrementalConfig {
    /// When more than this fraction of the sensors migrate class in one
    /// replan, surgery would touch most of the forest anyway — fall back
    /// to a full replan instead.
    pub migration_fallback_fraction: f64,
    /// Worker override for the parallel per-root tour repair; `None` uses
    /// the same heuristic as the from-scratch tour build. The parity tests
    /// pin explicit counts against each other.
    pub tour_workers: Option<usize>,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        Self { migration_fallback_fraction: 0.25, tour_workers: None }
    }
}

/// Why an incremental replan refused and a full re-seed is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullReason {
    /// Some cycle dropped below the cached base interval `τ̂₁` — the
    /// anchor grid cannot serve it often enough.
    Tau1Undercut,
    /// Some cycle grew beyond class `K` of the cached partition — serving
    /// it on the cached grid would waste tours, and the class set itself
    /// must be re-derived.
    ClassOverflow,
    /// More sensors migrated than
    /// [`IncrementalConfig::migration_fallback_fraction`] allows.
    TooManyMigrations,
}

/// Result of [`IncrementalPlanner::replan`].
#[derive(Debug)]
pub enum ReplanOutcome {
    /// The spliced plan; state has been updated in place.
    Incremental(VarPlan),
    /// The cached partition no longer applies — run a full replan and
    /// re-seed the planner. State is unchanged.
    NeedsFull(FullReason),
}

/// One cumulative base set `D_k` with its forest's root assignment,
/// weight and live tours, in *sensor-id* space. The forest's edges are
/// not kept: Algorithm 1 is exact and deterministic, so
/// [`members_forest`] rebuilds them whenever they are needed.
#[derive(Debug, Clone)]
struct DynamicSet {
    /// Current members, ascending sensor ids.
    members: Vec<usize>,
    /// Membership bitmap, length `n`.
    in_set: Vec<bool>,
    /// `assignment[s]` — depot index of member `s` (stale for non-members).
    assignment: Vec<usize>,
    /// Total forest weight.
    weight: f64,
    /// Current per-depot tours over the members.
    tours: TourSet,
}

impl DynamicSet {
    /// Wraps a from-scratch build ([`crate::var::VarDetailed`]) without
    /// recomputing anything.
    fn from_build(
        network: &Network,
        members: Vec<usize>,
        forest: &RootedForest,
        qt: QTours,
    ) -> Self {
        let n = network.n();
        let mut in_set = vec![false; n];
        for &s in &members {
            in_set[s] = true;
        }
        let mut assignment = vec![0usize; n];
        for (t, &r) in forest.assignment.iter().enumerate() {
            assignment[members[t]] = r;
        }
        let tours = TourSet::from_qtours(qt, |v| v >= n);
        Self { members, in_set, assignment, weight: forest.weight, tours }
    }

    /// Splices `removed` out of and `inserted` into the set: forest
    /// surgery plus warm-started tour repair. `best_depot[s]` is the
    /// precomputed `(distance, depot index)` super-root edge of sensor `s`.
    fn splice(
        &mut self,
        network: &Network,
        removed: &[usize],
        inserted: &[usize],
        best_depot: &[(f64, usize)],
        cfg: &IncrementalConfig,
    ) {
        let n = network.n();
        let q = network.q();
        let src = network.dist_source();
        let old_assignment = self.assignment.clone();

        // --- membership -----------------------------------------------------
        for &s in removed {
            debug_assert!(self.in_set[s], "removing a non-member");
            self.in_set[s] = false;
        }
        let mut members: Vec<usize> =
            self.members.iter().copied().filter(|&s| self.in_set[s]).collect();
        for &s in inserted {
            debug_assert!(!self.in_set[s], "inserting an existing member");
            self.in_set[s] = true;
        }
        members.extend_from_slice(inserted);
        members.sort_unstable();
        let m = members.len();

        // --- forest surgery --------------------------------------------------
        let forest = members_forest(network, &members, best_depot);

        // --- warm-started tours ----------------------------------------------
        // Per-root membership deltas: arrivals, departures, and members the
        // surgery reassigned to a different depot.
        let mut remove_nodes: Vec<Vec<usize>> = vec![Vec::new(); q];
        let mut insert_nodes: Vec<Vec<usize>> = vec![Vec::new(); q];
        for &s in removed {
            remove_nodes[old_assignment[s]].push(network.sensor_node(s));
        }
        for (t, &r_new) in forest.assignment.iter().enumerate() {
            let s = members[t];
            if inserted.binary_search(&s).is_ok() {
                insert_nodes[r_new].push(network.sensor_node(s));
            } else if old_assignment[s] != r_new {
                remove_nodes[old_assignment[s]].push(network.sensor_node(s));
                insert_nodes[r_new].push(network.sensor_node(s));
            }
        }
        let tree_edges = host_tree_edges(network, &members, &forest);

        let old_tours = self.tours.tours();
        let workers = cfg.tour_workers.unwrap_or_else(|| default_tour_workers(m, q));
        let build = |r: usize| -> Tour {
            let depot = network.depot_node(r);
            if tree_edges[r].is_empty() {
                return Tour::singleton(depot);
            }
            let rebuilt = tour_from_tree_doubling(&tree_edges[r], depot);
            let warm = if remove_nodes[r].is_empty() && insert_nodes[r].is_empty() {
                old_tours[r].clone()
            } else {
                repair_tour(old_tours[r].nodes(), depot, &remove_nodes[r], &insert_nodes[r], &src)
            };
            // The doubling rebuild of the spliced tree guards the warm
            // repair, so the kept tour is never worse than the paper's
            // 2-approximation on the current forest.
            if warm.length(&src) <= rebuilt.length(&src) + 1e-12 {
                warm
            } else {
                rebuilt
            }
        };
        let tours = perpetuum_par::par_map_indexed(q, workers, build);
        self.tours = TourSet::new(tours, &src, |v| v >= n);

        // --- commit -----------------------------------------------------------
        for (t, &r) in forest.assignment.iter().enumerate() {
            self.assignment[members[t]] = r;
        }
        self.weight = forest.weight;
        self.members = members;
    }
}

/// Algorithm 1 over a set's `members`, each attached to the super-root
/// through its cached cheapest depot `best_depot[s] = (distance, depot)` —
/// the forest a from-scratch build over the same members returns.
fn members_forest(
    network: &Network,
    members: &[usize],
    best_depot: &[(f64, usize)],
) -> RootedForest {
    let positions: Vec<Point2> = members.iter().map(|&s| network.sensor_pos(s)).collect();
    let (best_cost, best_root): (Vec<f64>, Vec<usize>) =
        members.iter().map(|&s| best_depot[s]).unzip();
    super_root_forest(&positions, network.q(), &best_root, &best_cost)
}

/// The forest's per-depot trees as host node-id edges, in forest order.
fn host_tree_edges(
    network: &Network,
    members: &[usize],
    forest: &RootedForest,
) -> Vec<Vec<(usize, usize)>> {
    let node = |t: usize| network.sensor_node(members[t]);
    (0..forest.trees.len())
        .map(|r| {
            forest.trees[r]
                .iter()
                .map(|e| match *e {
                    ForestEdge::TermTerm(a, b) => (node(a), node(b)),
                    ForestEdge::RootTerm(_, t) => (network.depot_node(r), node(t)),
                })
                .collect()
        })
        .collect()
}

/// Half-width (in tour positions) of [`local_two_opt`]'s window around
/// each repaired seam.
const REPAIR_WINDOW: usize = 8;

/// Drops `remove`d nodes from a previous tour, cheapest-inserts the
/// arrivals, and runs a localized 2-opt of half-width [`REPAIR_WINDOW`]
/// around the touched positions. The depot stays at position 0.
fn repair_tour<M: Metric>(
    old_nodes: &[usize],
    depot: usize,
    remove: &[usize],
    insert: &[usize],
    dist: &M,
) -> Tour {
    let mut rm = remove.to_vec();
    rm.sort_unstable();
    let mut nodes: Vec<usize> = Vec::with_capacity(old_nodes.len() + insert.len());
    let mut touched: Vec<usize> = Vec::new();
    for &v in old_nodes {
        if v == depot || rm.binary_search(&v).is_err() {
            nodes.push(v);
        } else {
            // A removal leaves a seam worth smoothing.
            touched.push(nodes.len().saturating_sub(1));
        }
    }
    if nodes.is_empty() {
        nodes.push(depot);
    }
    // Arrivals in ascending id order keep the repair deterministic.
    let mut ins = insert.to_vec();
    ins.sort_unstable();
    for &v in &ins {
        let len = nodes.len();
        let mut best_pos = len;
        let mut best_delta = f64::INFINITY;
        for p in 1..=len {
            let prev = nodes[p - 1];
            let next = nodes[p % len];
            let delta = dist.get(prev, v) + dist.get(v, next) - dist.get(prev, next);
            if delta < best_delta - 1e-12 {
                best_delta = delta;
                best_pos = p;
            }
        }
        nodes.insert(best_pos, v);
        touched.push(best_pos);
    }
    local_two_opt(&mut nodes, dist, &touched);
    Tour::new(nodes)
}

/// One localized 2-opt pass: only edges whose first endpoint lies within
/// [`REPAIR_WINDOW`] positions of a touched index are considered, paired
/// with the following `2·REPAIR_WINDOW` edges. First-improvement, single
/// pass — the caller guards quality with a fresh rebuild, this only
/// smooths seams.
///
/// This seam smoother stays separate from the `perpetuum-opt` refiner on
/// measurement (DESIGN.md §12): on the `simulate` benchmark workload the
/// refiner in its place cuts service cost 3–4% but raises p50 latency
/// past the benchmark's 0.25 bound, and dropping the pass raises service
/// cost 3% at unchanged latency.
fn local_two_opt<M: Metric>(nodes: &mut [usize], dist: &M, touched: &[usize]) {
    let len = nodes.len();
    if len < 4 {
        return;
    }
    let mut cand: Vec<usize> = Vec::new();
    for &t in touched {
        let lo = t.saturating_sub(REPAIR_WINDOW);
        let hi = (t + REPAIR_WINDOW).min(len - 2);
        cand.extend(lo..=hi);
    }
    cand.sort_unstable();
    cand.dedup();
    for &i in &cand {
        let hi = (i + 2 * REPAIR_WINDOW).min(len - 1);
        for j in (i + 2)..=hi {
            let a = nodes[i];
            let b = nodes[i + 1];
            let c = nodes[j];
            let d = nodes[(j + 1) % len];
            let delta = dist.get(a, c) + dist.get(b, d) - dist.get(a, b) - dist.get(c, d);
            if delta < -1e-12 {
                nodes[i + 1..=j].reverse();
            }
        }
    }
}

/// The incremental replanner: cached cycle partition, per-class
/// `DynamicSet`s, and the anchor grid they are dispatched on.
#[derive(Debug)]
pub struct IncrementalPlanner {
    cfg: IncrementalConfig,
    /// Base interval `τ̂₁` of the cached partition.
    tau1: f64,
    /// Largest class `K` of the cached partition.
    k_max: usize,
    /// Seed time — the dispatch grid is `anchor + j·τ̂₁`, `j ≥ 1`.
    anchor: f64,
    /// Current power-of-two class of every sensor (w.r.t. `tau1`).
    class_of: Vec<usize>,
    /// `sets[k]` — live state of the cumulative base set `D_k`.
    sets: Vec<DynamicSet>,
    /// `(distance, depot index)` of every sensor's cheapest depot.
    best_depot: Vec<(f64, usize)>,
    migrated_sensors: usize,
    set_splices: usize,
}

impl IncrementalPlanner {
    /// Runs one full `MinTotalDistance-var` replan and seeds the planner
    /// from its builds. The returned plan is bit-identical to
    /// [`crate::var::replan_variable_with`] on the same input.
    pub fn seed(input: &VarInput, repair: RepairStrategy) -> (VarPlan, Self) {
        Self::seed_with(input, repair, IncrementalConfig::default())
    }

    /// [`Self::seed`] with explicit tuning knobs.
    pub fn seed_with(
        input: &VarInput,
        repair: RepairStrategy,
        cfg: IncrementalConfig,
    ) -> (VarPlan, Self) {
        let detailed = replan_variable_detailed(input, repair);
        Self::from_detailed(input, detailed, cfg)
    }

    /// Seeds the planner from an already-computed detailed replan.
    pub fn from_detailed(
        input: &VarInput,
        detailed: VarDetailed,
        cfg: IncrementalConfig,
    ) -> (VarPlan, Self) {
        let VarDetailed { plan, partition, base_builds } = detailed;
        let network = input.network;
        let n = network.n();
        assert!(n > 0, "seeding needs at least one sensor");
        let src = network.dist_source();
        let best_depot: Vec<(f64, usize)> = (0..n)
            .map(|i| {
                let node = network.sensor_node(i);
                let mut best = (f64::INFINITY, 0usize);
                for l in 0..network.q() {
                    let d = src.get(node, network.depot_node(l));
                    if d < best.0 {
                        best = (d, l);
                    }
                }
                best
            })
            .collect();
        let k_max = partition.k_max();
        let sets: Vec<DynamicSet> = base_builds
            .into_iter()
            .enumerate()
            .map(|(k, (forest, qt))| {
                DynamicSet::from_build(network, partition.cumulative(k), &forest, qt)
            })
            .collect();
        let planner = Self {
            cfg,
            tau1: partition.tau1,
            k_max,
            anchor: input.now,
            class_of: partition.class_of,
            sets,
            best_depot,
            migrated_sensors: 0,
            set_splices: 0,
        };
        (plan, planner)
    }

    /// One incremental replanning round at `input.now`: re-derives every
    /// sensor's class against the cached `τ̂₁`, splices the affected base
    /// sets, and emits the plan on the anchor grid — or refuses with a
    /// [`FullReason`] when the cached partition no longer applies.
    pub fn replan(&mut self, input: &VarInput) -> ReplanOutcome {
        let network = input.network;
        let n = network.n();
        assert_eq!(self.class_of.len(), n, "planner seeded for a different network");
        assert_eq!(input.max_cycles.len(), n, "one max cycle per sensor");
        assert_eq!(input.residuals.len(), n, "one residual per sensor");
        assert!(input.now < input.horizon, "replanning after the horizon");
        assert!(input.now + 1e-9 >= self.anchor, "replanning before the anchor");

        if input.max_cycles.iter().any(|&c| c < self.tau1) {
            return ReplanOutcome::NeedsFull(FullReason::Tau1Undercut);
        }
        let mut changes: Vec<(usize, usize)> = Vec::new();
        for (i, &cycle) in input.max_cycles.iter().enumerate() {
            let class = power_class(self.tau1, cycle);
            if class > self.k_max {
                return ReplanOutcome::NeedsFull(FullReason::ClassOverflow);
            }
            if class != self.class_of[i] {
                changes.push((i, class));
            }
        }
        if changes.len() as f64 > self.cfg.migration_fallback_fraction * n as f64 {
            return ReplanOutcome::NeedsFull(FullReason::TooManyMigrations);
        }

        self.apply_migrations(network, &changes);
        let plan = self.emit(input);
        ReplanOutcome::Incremental(plan)
    }

    /// Applies class migrations by splicing every affected base set
    /// (sensor `s` moving class `a → b` enters or leaves exactly the
    /// cumulative sets `D_k` with `min(a,b) ≤ k < max(a,b)`). Returns the
    /// indices of the spliced sets, ascending. Exposed so the online
    /// controller can drive surgery from its own drift detection.
    pub fn apply_migrations(
        &mut self,
        network: &Network,
        changes: &[(usize, usize)],
    ) -> Vec<usize> {
        let mut removed: Vec<Vec<usize>> = vec![Vec::new(); self.k_max + 1];
        let mut inserted: Vec<Vec<usize>> = vec![Vec::new(); self.k_max + 1];
        for &(s, new_class) in changes {
            assert!(new_class <= self.k_max, "class {new_class} beyond cached K={}", self.k_max);
            let old = self.class_of[s];
            if new_class == old {
                continue;
            }
            if new_class < old {
                // Serving more often: s joins the smaller sets.
                for ins in inserted.iter_mut().take(old).skip(new_class) {
                    ins.push(s);
                }
            } else {
                for rem in removed.iter_mut().take(new_class).skip(old) {
                    rem.push(s);
                }
            }
            self.class_of[s] = new_class;
            self.migrated_sensors += 1;
        }
        let mut spliced = Vec::new();
        for k in 0..=self.k_max {
            if removed[k].is_empty() && inserted[k].is_empty() {
                continue;
            }
            removed[k].sort_unstable();
            removed[k].dedup();
            inserted[k].sort_unstable();
            inserted[k].dedup();
            self.sets[k].splice(network, &removed[k], &inserted[k], &self.best_depot, &self.cfg);
            self.set_splices += 1;
            spliced.push(k);
        }
        spliced
    }

    /// Emits a [`VarPlan`] from the current sets: cached base tours on the
    /// anchor grid, plus one freshly-routed immediate batch for sensors
    /// whose residual cannot reach their next grid service.
    fn emit(&self, input: &VarInput) -> VarPlan {
        let network = input.network;
        let n = network.n();
        let mut series = ScheduleSeries::new();
        let base_set_ids: Vec<usize> =
            self.sets.iter().map(|s| series.add_set(s.tours.clone())).collect();

        let urgent: Vec<usize> = (0..n)
            .filter(|&i| {
                let step = self.tau1 * (1u64 << self.class_of[i]) as f64;
                let required = self.next_grid_service(input.now, step).min(input.horizon);
                input.now + input.residuals[i] + 1e-9 < required
            })
            .collect();
        if !urgent.is_empty() {
            let nodes: Vec<usize> = urgent.iter().map(|&i| network.sensor_node(i)).collect();
            let qt = q_rooted_tsp_src(&network.dist_source(), &nodes, &network.depot_nodes());
            let id = series.add_set(TourSet::from_qtours(qt, |v| v >= n));
            series.push_dispatch(input.now, id);
        }

        let mut j = ((input.now - self.anchor) / self.tau1).floor().max(0.0) as u64;
        loop {
            j += 1;
            let t = self.anchor + j as f64 * self.tau1;
            if t >= input.horizon {
                break;
            }
            if t <= input.now + 1e-9 {
                continue;
            }
            series.push_dispatch(t, base_set_ids[nu2(j).min(self.k_max)]);
        }

        let assigned_cycles: Vec<f64> =
            self.class_of.iter().map(|&c| self.tau1 * (1u64 << c) as f64).collect();
        VarPlan { series, assigned_cycles, base_set_ids }
    }

    /// First grid service of a class with period `step` strictly after
    /// `now`.
    fn next_grid_service(&self, now: f64, step: f64) -> f64 {
        let laps = ((now - self.anchor) / step).floor().max(0.0);
        let mut t = self.anchor + (laps + 1.0) * step;
        while t <= now + 1e-9 {
            t += step;
        }
        t
    }

    /// Base interval `τ̂₁` of the cached partition.
    pub fn tau1(&self) -> f64 {
        self.tau1
    }

    /// Largest class `K` of the cached partition.
    pub fn k_max(&self) -> usize {
        self.k_max
    }

    /// The grid origin (seed time).
    pub fn anchor(&self) -> f64 {
        self.anchor
    }

    /// Current class of every sensor.
    pub fn class_of(&self) -> &[usize] {
        &self.class_of
    }

    /// The cycle `τ̂₁·2^class` sensor `i` is currently served at.
    pub fn assigned_cycle(&self, i: usize) -> f64 {
        self.tau1 * (1u64 << self.class_of[i]) as f64
    }

    /// Current members of base set `D_k`, ascending sensor ids.
    pub fn set_members(&self, k: usize) -> &[usize] {
        &self.sets[k].members
    }

    /// Current tours of base set `D_k`.
    pub fn tour_set(&self, k: usize) -> &TourSet {
        &self.sets[k].tours
    }

    /// Current forest weight of base set `D_k`.
    pub fn forest_weight(&self, k: usize) -> f64 {
        self.sets[k].weight
    }

    /// Total sensors that changed class since seeding.
    pub fn migrated_sensors(&self) -> usize {
        self.migrated_sensors
    }

    /// Total per-set splice operations since seeding.
    pub fn set_splices(&self) -> usize {
        self.set_splices
    }

    /// Doubling-rebuilt tour cost of `D_k`'s current forest — what the
    /// paper's Algorithm 2 would produce from the same trees. Test hook
    /// for the warm-tour bound.
    #[cfg(test)]
    fn rebuilt_cost(&self, network: &Network, k: usize) -> f64 {
        let members = &self.sets[k].members;
        let forest = members_forest(network, members, &self.best_depot);
        let src = network.dist_source();
        host_tree_edges(network, members, &forest)
            .iter()
            .enumerate()
            .map(|(r, edges)| tour_from_tree_doubling(edges, network.depot_node(r)).length(&src))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qmsf::rooted_msf_points;
    use crate::var::check_var_plan;
    use rand::{Rng, SeedableRng};

    fn sparse_network(n: usize, q: usize, seed: u64) -> Network {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sensors: Vec<Point2> = (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let mut depots = vec![Point2::new(500.0, 500.0)];
        depots.extend(
            (1..q).map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0))),
        );
        Network::new(sensors, depots)
    }

    /// Cycles spanning three power-of-two classes over τ̂₁ = 4.
    fn spread_cycles(n: usize, rng: &mut impl Rng) -> Vec<f64> {
        let mut cycles: Vec<f64> = (0..n).map(|_| rng.gen_range(4.0..32.0)).collect();
        cycles[0] = 4.0; // pin τ̂₁
        cycles[n - 1] = 31.0; // pin K = 2
        cycles
    }

    fn seed_planner(
        network: &Network,
        cycles: &[f64],
        cfg: IncrementalConfig,
    ) -> (VarPlan, IncrementalPlanner) {
        let residuals = cycles.to_vec();
        let input = VarInput {
            network,
            max_cycles: cycles,
            residuals: &residuals,
            now: 0.0,
            horizon: 200.0,
        };
        IncrementalPlanner::seed_with(&input, RepairStrategy::NearestScheduling, cfg)
    }

    /// Random ±1 class migrations, clamped to the cached band.
    fn random_migrations(
        planner: &IncrementalPlanner,
        count: usize,
        rng: &mut impl Rng,
    ) -> Vec<(usize, usize)> {
        let n = planner.class_of().len();
        let mut changes = Vec::new();
        let mut seen = vec![false; n];
        for _ in 0..count {
            let s = rng.gen_range(0..n);
            if seen[s] {
                continue;
            }
            seen[s] = true;
            let old = planner.class_of()[s];
            let new = if old == 0 {
                1
            } else if old == planner.k_max() {
                old - 1
            } else if rng.gen_bool(0.5) {
                old + 1
            } else {
                old - 1
            };
            changes.push((s, new));
        }
        changes
    }

    #[test]
    fn seeded_plan_matches_from_scratch_bitwise() {
        for seed in 0..4u64 {
            let network = sparse_network(60, 3, seed + 20);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let cycles = spread_cycles(60, &mut rng);
            let residuals: Vec<f64> = cycles.iter().map(|&c| rng.gen_range(0.3 * c..=c)).collect();
            let input = VarInput {
                network: &network,
                max_cycles: &cycles,
                residuals: &residuals,
                now: 5.0,
                horizon: 150.0,
            };
            let scratch = crate::var::replan_variable(&input);
            let (seeded, _) = IncrementalPlanner::seed(&input, RepairStrategy::NearestScheduling);
            assert_eq!(
                scratch.series.service_cost().to_bits(),
                seeded.series.service_cost().to_bits(),
                "seed {seed}"
            );
            assert_eq!(scratch.assigned_cycles, seeded.assigned_cycles, "seed {seed}");
            assert_eq!(scratch.series.dispatch_count(), seeded.series.dispatch_count());
        }
    }

    #[test]
    fn spliced_forest_matches_from_scratch_msf() {
        // Property (a): after k random class migrations, every base set's
        // spliced forest costs the same as a from-scratch sparse MSF over
        // its current members.
        for seed in 0..6u64 {
            let n = 120;
            let network = sparse_network(n, 3, seed + 100);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 7);
            let cycles = spread_cycles(n, &mut rng);
            let (_, mut planner) = seed_planner(&network, &cycles, IncrementalConfig::default());
            for round in 0..3 {
                let changes = random_migrations(&planner, 10, &mut rng);
                planner.apply_migrations(&network, &changes);
                for k in 0..=planner.k_max() {
                    let members = planner.set_members(k);
                    let tpts: Vec<Point2> =
                        members.iter().map(|&s| network.sensor_pos(s)).collect();
                    let root_dist: Vec<Vec<f64>> = (0..network.q())
                        .map(|l| {
                            let dp = network.depot_pos(l);
                            tpts.iter().map(|p| dp.dist(*p)).collect()
                        })
                        .collect();
                    let fresh = rooted_msf_points(&tpts, &root_dist);
                    let diff = (fresh.weight - planner.forest_weight(k)).abs();
                    assert!(
                        diff < 1e-9,
                        "seed {seed} round {round} class {k}: spliced {} vs scratch {}",
                        planner.forest_weight(k),
                        fresh.weight
                    );
                }
            }
        }
    }

    #[test]
    fn warm_tours_stay_feasible_and_bounded() {
        // Property (b): after migrations every base set's tours still start
        // at their depots, cover exactly the members, and cost no more than
        // a fresh Algorithm-2 construction from the same forest (hence
        // within 2× the forest weight).
        for seed in 0..6u64 {
            let n = 100;
            let network = sparse_network(n, 4, seed + 300);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 31);
            let cycles = spread_cycles(n, &mut rng);
            let (_, mut planner) = seed_planner(&network, &cycles, IncrementalConfig::default());
            for _ in 0..3 {
                let changes = random_migrations(&planner, 12, &mut rng);
                planner.apply_migrations(&network, &changes);
            }
            for k in 0..=planner.k_max() {
                let set = planner.tour_set(k);
                for (l, tour) in set.tours().iter().enumerate() {
                    assert_eq!(tour.start(), Some(network.depot_node(l)), "seed {seed} D_{k}");
                }
                assert_eq!(set.sensors(), planner.set_members(k), "seed {seed} D_{k} coverage");
                let rebuilt = planner.rebuilt_cost(&network, k);
                assert!(
                    set.cost() <= rebuilt + 1e-9,
                    "seed {seed} D_{k}: warm {} vs rebuilt {rebuilt}",
                    set.cost()
                );
                assert!(
                    set.cost() <= 2.0 * planner.forest_weight(k) + 1e-9,
                    "seed {seed} D_{k}: warm {} vs 2×MSF {}",
                    set.cost(),
                    2.0 * planner.forest_weight(k)
                );
            }
        }
    }

    #[test]
    fn parallel_tour_repair_is_bit_identical() {
        // Property (c): the per-root warm repair collects in root order, so
        // any worker count reproduces the sequential result bit for bit.
        let n = 150;
        let network = sparse_network(n, 4, 77);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let cycles = spread_cycles(n, &mut rng);
        let changes_rng_seed = 55u64;
        let run = |workers: usize| {
            let cfg = IncrementalConfig { tour_workers: Some(workers), ..Default::default() };
            let (_, mut planner) = seed_planner(&network, &cycles, cfg);
            let mut rng = rand::rngs::StdRng::seed_from_u64(changes_rng_seed);
            for _ in 0..3 {
                let changes = random_migrations(&planner, 15, &mut rng);
                planner.apply_migrations(&network, &changes);
            }
            planner
        };
        let seq = run(1);
        for workers in [2, 4, 7] {
            let par = run(workers);
            for k in 0..=seq.k_max() {
                assert_eq!(
                    seq.tour_set(k).cost().to_bits(),
                    par.tour_set(k).cost().to_bits(),
                    "workers {workers} D_{k}"
                );
                for (a, b) in seq.tour_set(k).tours().iter().zip(par.tour_set(k).tours()) {
                    assert_eq!(a.nodes(), b.nodes(), "workers {workers} D_{k}");
                }
            }
        }
    }

    #[test]
    fn incremental_replans_stay_feasible() {
        // End to end: drift cycles within the cached band across several
        // rounds; every incremental plan must pass the var-plan oracle.
        for seed in 0..5u64 {
            let n = 80;
            let network = sparse_network(n, 3, seed + 500);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 13);
            let mut cycles = spread_cycles(n, &mut rng);
            let (_, mut planner) = seed_planner(&network, &cycles, IncrementalConfig::default());
            let mut now = 0.0;
            for round in 0..4 {
                now += rng.gen_range(3.0..9.0);
                // Drift ~10% of sensors to a neighbouring class (staying in
                // [τ̂₁, 2^(K+1)·τ̂₁)), everyone else wiggles in-band.
                for c in cycles.iter_mut() {
                    if rng.gen_bool(0.1) {
                        *c = if rng.gen_bool(0.5) {
                            (*c * 2.0).min(31.9)
                        } else {
                            (*c / 2.0).max(4.0)
                        };
                    }
                }
                let residuals: Vec<f64> =
                    cycles.iter().map(|&c| rng.gen_range(0.1 * c..=c)).collect();
                let input = VarInput {
                    network: &network,
                    max_cycles: &cycles,
                    residuals: &residuals,
                    now,
                    horizon: 200.0,
                };
                match planner.replan(&input) {
                    ReplanOutcome::Incremental(plan) => {
                        check_var_plan(&input, &plan)
                            .unwrap_or_else(|e| panic!("seed {seed} round {round}: {e:?}"));
                        assert_eq!(plan.base_set_ids.len(), planner.k_max() + 1);
                    }
                    ReplanOutcome::NeedsFull(r) => {
                        panic!("seed {seed} round {round}: unexpected fallback {r:?}")
                    }
                }
            }
            assert!(planner.migrated_sensors() > 0, "seed {seed}: drift never migrated");
        }
    }

    #[test]
    fn emptied_class_keeps_the_grid_feasible() {
        // Migrating the only class-0 sensors up empties D_0; its dispatches
        // stay on the grid as idle tours and the plan remains feasible.
        let n = 20;
        let network = sparse_network(n, 2, 900);
        let mut cycles = vec![16.0; n];
        cycles[0] = 4.0;
        cycles[1] = 8.0;
        let (_, mut planner) = seed_planner(&network, &cycles, IncrementalConfig::default());
        assert_eq!(planner.set_members(0), &[0]);
        cycles[0] = 8.5; // class 0 → 1: D_0 empties
        let residuals: Vec<f64> = cycles.iter().map(|&c| 0.9 * c).collect();
        let input = VarInput {
            network: &network,
            max_cycles: &cycles,
            residuals: &residuals,
            now: 6.0,
            horizon: 120.0,
        };
        match planner.replan(&input) {
            ReplanOutcome::Incremental(plan) => {
                assert!(planner.set_members(0).is_empty());
                assert_eq!(planner.tour_set(0).cost(), 0.0);
                check_var_plan(&input, &plan).unwrap();
            }
            ReplanOutcome::NeedsFull(r) => panic!("unexpected fallback {r:?}"),
        }
    }

    #[test]
    fn fallback_reasons_fire() {
        let n = 30;
        let network = sparse_network(n, 2, 1200);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let cycles = spread_cycles(n, &mut rng);
        let residuals = cycles.clone();
        fn at<'a>(network: &'a Network, cycles: &'a [f64], residuals: &'a [f64]) -> VarInput<'a> {
            VarInput { network, max_cycles: cycles, residuals, now: 2.0, horizon: 150.0 }
        }

        // τ̂₁ undercut.
        let (_, mut planner) = seed_planner(&network, &cycles, IncrementalConfig::default());
        let mut under = cycles.clone();
        under[3] = 2.0; // < τ̂₁ = 4
        assert!(matches!(
            planner.replan(&at(&network, &under, &residuals)),
            ReplanOutcome::NeedsFull(FullReason::Tau1Undercut)
        ));

        // Class overflow.
        let mut over = cycles.clone();
        over[3] = 40.0; // class 3 > K = 2
        assert!(matches!(
            planner.replan(&at(&network, &over, &residuals)),
            ReplanOutcome::NeedsFull(FullReason::ClassOverflow)
        ));

        // Migration budget.
        let cfg = IncrementalConfig { migration_fallback_fraction: 0.0, ..Default::default() };
        let (_, mut strict) = seed_planner(&network, &cycles, cfg);
        let mut drift = cycles.clone();
        drift[5] = (drift[5] * 2.0).min(31.9);
        if power_class(4.0, drift[5]) == power_class(4.0, cycles[5]) {
            drift[5] = 17.0; // guarantee a class change from [4,8) or [8,16)
        }
        assert!(matches!(
            strict.replan(&at(&network, &drift, &residuals)),
            ReplanOutcome::NeedsFull(FullReason::TooManyMigrations)
        ));
    }

    #[test]
    fn splice_counters_track_surgery() {
        let n = 40;
        let network = sparse_network(n, 2, 42);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let cycles = spread_cycles(n, &mut rng);
        let (_, mut planner) = seed_planner(&network, &cycles, IncrementalConfig::default());
        assert_eq!(planner.migrated_sensors(), 0);
        assert_eq!(planner.set_splices(), 0);
        // One sensor hops two classes: both D_min..D_max sets get spliced.
        let s = planner.set_members(0)[0];
        let spliced = planner.apply_migrations(&network, &[(s, 2)]);
        assert_eq!(spliced, vec![0, 1]);
        assert_eq!(planner.migrated_sensors(), 1);
        assert_eq!(planner.set_splices(), 2);
    }
}
