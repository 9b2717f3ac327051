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
//!   The kernel starts from the restriction of the all-sensor forest
//!   `D_K` (one `u32` parent per sensor, fixed from seeding on, since
//!   every sensor stays in `D_K`): by the restriction lemma those edges
//!   are already exact, so a splice searches only for the few edges that
//!   reconnect what the removed sensors held together. The urgent batch
//!   starts from the same forest.
//! * **Warm-started tours** — each root's previous tour is repaired in
//!   place: departed nodes are dropped (triangle inequality — never
//!   longer), arrivals are cheapest-inserted, and a localized 2-opt
//!   smooths the seams. A fresh doubling rebuild of the spliced tree
//!   guards every root: the shorter tour wins, so a warm tour never costs
//!   more than the paper's 2-approximation on the current forest. Roots
//!   are repaired one after another; a splice usually touches one or two.
//! * **Anchor-grid emission** — dispatch times stay on the seed grid
//!   `anchor + j·τ̂₁` serving `D_{min(ν₂(j),K)}`, so future dispatches of
//!   an untouched class reuse its cached tours verbatim. A replan at `now`
//!   re-emits the future grid plus one immediate batch for sensors whose
//!   residual cannot reach their next grid service — the incremental
//!   counterpart of the `V^a` repair.
//! * **Lazy materialisation** — a replan only re-derives classes
//!   ([`IncrementalPlanner::reclassify`]); a base set is spliced to match
//!   them the first time an emitted dispatch uses it
//!   ([`IncrementalPlanner::emit_until`]), from the membership diff
//!   against its last splice. A high class is dispatched once per `2^K`
//!   grid points, so most replans never touch its set, and a sensor that
//!   leaves and rejoins a set between two of its dispatches costs no
//!   splice at all. [`IncrementalPlanner::replan`] and
//!   [`IncrementalPlanner::apply_migrations`] are the eager forms.
//!
//! A replan refuses (and the caller re-seeds from scratch) when the cached
//! partition no longer applies — see [`FullReason`].

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::mtd::nu2;
use crate::network::Network;
use crate::qmsf::{super_root_forest, RootedForest, SupersetTree};
use crate::qtsp::{tour_from_tree_doubling, tours_for_forest, QTours};
use crate::rounding::power_class;
use crate::schedule::{ScheduleSeries, TourSet};
use crate::var::{replan_variable_detailed, RepairStrategy, VarDetailed, VarInput, VarPlan};
use perpetuum_geom::Point2;
use perpetuum_graph::{Metric, Tour};

/// When more than this fraction of the sensors migrate class in one
/// replan, surgery would touch most of the forest anyway — fall back to a
/// full replan instead.
const MIGRATION_FALLBACK_FRACTION: f64 = 0.25;

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
    /// More than a quarter of the sensors migrated class.
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
/// [`members_forest`] rebuilds them from the all-sensor forest whenever
/// they are needed.
#[derive(Debug, Clone)]
struct DynamicSet {
    /// Current members, ascending sensor ids.
    members: Vec<usize>,
    /// Membership bitmap, length `n`.
    in_set: Vec<bool>,
    /// `assignment[s]` — depot index of member `s` (stale for non-members);
    /// `u32` keeps a session's per-set state small.
    assignment: Vec<u32>,
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
        let mut assignment = vec![0u32; n];
        for (t, &r) in forest.assignment.iter().enumerate() {
            assignment[members[t]] = r as u32;
        }
        let tours = TourSet::from_qtours(qt, |v| v >= n);
        Self { members, in_set, assignment, weight: forest.weight, tours }
    }

    /// Splices `removed` out of and `inserted` into the set: forest
    /// surgery plus warm-started tour repair. `best_depot[s]` is the
    /// precomputed `(distance, depot index)` super-root edge of sensor `s`,
    /// and `all_sensors` the forest of `D_K` built with those edges.
    fn splice(
        &mut self,
        network: &Network,
        removed: &[usize],
        inserted: &[usize],
        best_depot: &[(f64, usize)],
        all_sensors: &SupersetTree,
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

        // --- forest surgery --------------------------------------------------
        let forest = members_forest(network, &members, best_depot, all_sensors);

        // --- warm-started tours ----------------------------------------------
        // Per-root membership deltas: arrivals, departures, and members the
        // surgery reassigned to a different depot.
        let mut remove_nodes: Vec<Vec<usize>> = vec![Vec::new(); q];
        let mut insert_nodes: Vec<Vec<usize>> = vec![Vec::new(); q];
        for &s in removed {
            remove_nodes[old_assignment[s] as usize].push(network.sensor_node(s));
        }
        for (t, &r_new) in forest.assignment.iter().enumerate() {
            let s = members[t];
            if inserted.binary_search(&s).is_ok() {
                insert_nodes[r_new].push(network.sensor_node(s));
            } else if old_assignment[s] as usize != r_new {
                remove_nodes[old_assignment[s] as usize].push(network.sensor_node(s));
                insert_nodes[r_new].push(network.sensor_node(s));
            }
        }
        let tree_edges = host_tree_edges(network, &members, &forest);

        let old_tours = self.tours.tours();
        let mut tours = Vec::with_capacity(q);
        let mut tour_lengths = Vec::with_capacity(q);
        for r in 0..q {
            let depot = network.depot_node(r);
            if tree_edges[r].is_empty() {
                let idle = Tour::singleton(depot);
                tour_lengths.push(idle.length(&src));
                tours.push(idle);
                continue;
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
            let (warm_len, rebuilt_len) = (warm.length(&src), rebuilt.length(&src));
            let (tour, len) = if warm_len <= rebuilt_len + 1e-12 {
                (warm, warm_len)
            } else {
                (rebuilt, rebuilt_len)
            };
            tours.push(tour);
            tour_lengths.push(len);
        }
        let cost = tour_lengths.iter().sum();
        self.tours = TourSet::from_qtours(QTours { tours, tour_lengths, cost }, |v| v >= n);

        // --- commit -----------------------------------------------------------
        for (t, &r) in forest.assignment.iter().enumerate() {
            self.assignment[members[t]] = r as u32;
        }
        self.weight = forest.weight;
        self.members = members;
    }
}

/// Algorithm 1 over `members` (ascending sensor ids), each attached to
/// the super-root through its cached cheapest depot `best_depot[s] =
/// (distance, depot)`, started from the restriction of the all-sensor
/// forest — the forest a from-scratch build over the same members
/// returns.
fn members_forest(
    network: &Network,
    members: &[usize],
    best_depot: &[(f64, usize)],
    all_sensors: &SupersetTree,
) -> RootedForest {
    let positions: Vec<Point2> = members.iter().map(|&s| network.sensor_pos(s)).collect();
    let (best_cost, best_root): (Vec<f64>, Vec<usize>) =
        members.iter().map(|&s| best_depot[s]).unzip();
    let seed = all_sensors.restrict(members, &best_cost);
    super_root_forest(&positions, network.q(), &best_root, &best_cost, &seed).0
}

/// The forest's per-depot trees as host node-id edges, in forest order.
/// `members` are sensor ids, which are their own node ids.
fn host_tree_edges(
    network: &Network,
    members: &[usize],
    forest: &RootedForest,
) -> Vec<Vec<(usize, usize)>> {
    (0..forest.trees.len()).map(|r| forest.host_edges(r, members, network.depot_node(r))).collect()
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
    /// `stale[k]` — some sensor crossed `D_k` since its last splice, so
    /// its membership may lag `class_of`.
    stale: Vec<bool>,
    /// `(distance, depot index)` of every sensor's cheapest depot.
    best_depot: Vec<(f64, usize)>,
    /// The forest of `D_K`, which holds every sensor for the planner's
    /// life: every splice and urgent batch starts from its restriction.
    all_sensors: SupersetTree,
    /// The grid of the last replan; `None` after seeding (the seed plan's
    /// dispatches are its own).
    grid: Option<GridCursor>,
    migrated_sensors: usize,
    set_splices: usize,
}

/// The anchor-grid part of the current plan: grid indices `first..` with
/// dispatch times before `horizon`, emitted up to (excluding) `next`.
#[derive(Debug, Clone, Copy)]
struct GridCursor {
    first: u64,
    next: u64,
    horizon: f64,
}

impl IncrementalPlanner {
    /// Runs one full `MinTotalDistance-var` replan and seeds the planner
    /// from its builds. The returned plan is bit-identical to
    /// [`crate::var::replan_variable_with`] on the same input.
    pub fn seed(input: &VarInput, repair: RepairStrategy) -> (VarPlan, Self) {
        let VarDetailed { plan, partition, base_builds, all_sensors } =
            replan_variable_detailed(input, repair);
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
            tau1: partition.tau1,
            k_max,
            anchor: input.now,
            class_of: partition.class_of,
            stale: vec![false; k_max + 1],
            sets,
            best_depot,
            all_sensors,
            grid: None,
            migrated_sensors: 0,
            set_splices: 0,
        };
        (plan, planner)
    }

    /// One incremental replanning round at `input.now`: re-derives every
    /// sensor's class against the cached `τ̂₁` and emits the whole plan to
    /// the horizon on the anchor grid — or refuses with a [`FullReason`]
    /// when the cached partition no longer applies. The emitted plan lists
    /// every base set (`base_set_ids`), so every set that lags `class_of`
    /// is spliced here; [`Self::reclassify`] + [`Self::emit_until`] is the
    /// lazy form that splices a set only when a dispatch needs it.
    pub fn replan(&mut self, input: &VarInput) -> ReplanOutcome {
        let urgent = match self.reclassify(input) {
            Ok(urgent) => urgent,
            Err(reason) => return ReplanOutcome::NeedsFull(reason),
        };
        let network = input.network;
        let mut series = ScheduleSeries::new();
        let base_set_ids: Vec<usize> = (0..=self.k_max)
            .map(|k| {
                self.materialize(network, k);
                series.add_set(self.sets[k].tours.clone())
            })
            .collect();
        if let Some(set) = urgent {
            let id = series.add_set(set);
            series.push_dispatch(input.now, id);
        }
        let mut ids: Vec<Option<usize>> = base_set_ids.iter().copied().map(Some).collect();
        self.emit_grid(network, &mut series, &mut ids, input.horizon);
        let assigned_cycles = (0..network.n()).map(|i| self.assigned_cycle(i)).collect();
        ReplanOutcome::Incremental(VarPlan { series, assigned_cycles, base_set_ids })
    }

    /// The lazy half of [`Self::replan`]: re-derives every sensor's class
    /// against the cached `τ̂₁`, restarts the anchor grid after
    /// `input.now`, and returns the immediate batch for sensors whose
    /// residual cannot reach their next grid service (`None` when every
    /// sensor can wait). Splices nothing — [`Self::emit_until`] splices a
    /// base set the first time it dispatches it. Refuses with a
    /// [`FullReason`] (state unchanged) when the cached partition no
    /// longer applies.
    pub fn reclassify(&mut self, input: &VarInput) -> Result<Option<TourSet>, FullReason> {
        let network = input.network;
        let n = network.n();
        assert_eq!(self.class_of.len(), n, "planner seeded for a different network");
        assert_eq!(input.max_cycles.len(), n, "one max cycle per sensor");
        assert_eq!(input.residuals.len(), n, "one residual per sensor");
        assert!(input.now < input.horizon, "replanning after the horizon");
        assert!(input.now + 1e-9 >= self.anchor, "replanning before the anchor");

        if input.max_cycles.iter().any(|&c| c < self.tau1) {
            return Err(FullReason::Tau1Undercut);
        }
        let mut changes: Vec<(usize, usize)> = Vec::new();
        for (i, &cycle) in input.max_cycles.iter().enumerate() {
            let class = power_class(self.tau1, cycle);
            if class > self.k_max {
                return Err(FullReason::ClassOverflow);
            }
            if class != self.class_of[i] {
                changes.push((i, class));
            }
        }
        if changes.len() as f64 > MIGRATION_FALLBACK_FRACTION * n as f64 {
            return Err(FullReason::TooManyMigrations);
        }
        self.migrate(&changes);

        let mut first = ((input.now - self.anchor) / self.tau1).floor().max(0.0) as u64 + 1;
        while self.anchor + first as f64 * self.tau1 <= input.now + 1e-9 {
            first += 1;
        }
        self.grid = Some(GridCursor { first, next: first, horizon: input.horizon });
        Ok(self.urgent_batch(input))
    }

    /// Appends to `series` the grid dispatches of the current plan due
    /// before `until` (and the horizon) that earlier calls have not
    /// emitted yet, in time order; each base set a dispatch uses is
    /// spliced to match `class_of` first and registered once per call.
    /// Emits nothing after seeding: the seed plan is explicit.
    pub fn emit_until(&mut self, network: &Network, series: &mut ScheduleSeries, until: f64) {
        let mut ids = vec![None; self.k_max + 1];
        self.emit_grid(network, series, &mut ids, until);
    }

    fn emit_grid(
        &mut self,
        network: &Network,
        series: &mut ScheduleSeries,
        ids: &mut [Option<usize>],
        until: f64,
    ) {
        let Some(mut grid) = self.grid else { return };
        let end = until.min(grid.horizon);
        loop {
            let t = self.anchor + grid.next as f64 * self.tau1;
            if t >= end {
                break;
            }
            let k = nu2(grid.next).min(self.k_max);
            let id = match ids[k] {
                Some(id) => id,
                None => {
                    self.materialize(network, k);
                    let id = series.add_set(self.sets[k].tours.clone());
                    ids[k] = Some(id);
                    id
                }
            };
            series.push_dispatch(t, id);
            grid.next += 1;
        }
        self.grid = Some(grid);
    }

    /// First grid dispatch of the current plan strictly after `after`
    /// (with the plan's 1e-9 slack) that charges `sensor`, or `None` when
    /// none falls before the horizon. Sensor `s` of class `c` is in `D_k`
    /// for every `k ≥ c`, so it rides exactly the grid points `j` with
    /// `ν₂(j) ≥ c`: the answer is arithmetic on multiples of `2^c`, equal
    /// to scanning the emitted series.
    pub fn next_grid_charge(&self, sensor: usize, after: f64) -> Option<f64> {
        let grid = self.grid?;
        let step = 1u64 << self.class_of[sensor];
        let from = ((after - self.anchor) / self.tau1).floor().max(0.0) as u64;
        let mut j = grid.first.max(from).div_ceil(step) * step;
        let mut t = self.anchor + j as f64 * self.tau1;
        while t <= after + 1e-9 {
            j += step;
            t = self.anchor + j as f64 * self.tau1;
        }
        (t < grid.horizon).then_some(t)
    }

    /// Applies class migrations and splices every affected base set now
    /// (sensor `s` moving class `a → b` enters or leaves exactly the
    /// cumulative sets `D_k` with `min(a,b) ≤ k < max(a,b)`). Returns the
    /// indices of the spliced sets, ascending. Exposed so the online
    /// controller can drive surgery from its own drift detection.
    pub fn apply_migrations(
        &mut self,
        network: &Network,
        changes: &[(usize, usize)],
    ) -> Vec<usize> {
        self.migrate(changes);
        (0..=self.k_max).filter(|&k| self.materialize(network, k)).collect()
    }

    /// Records class migrations in `class_of` and marks every cumulative
    /// set a migrating sensor enters or leaves as stale.
    fn migrate(&mut self, changes: &[(usize, usize)]) {
        for &(s, new_class) in changes {
            assert!(new_class <= self.k_max, "class {new_class} beyond cached K={}", self.k_max);
            let old = self.class_of[s];
            if new_class == old {
                continue;
            }
            self.stale[old.min(new_class)..old.max(new_class)].fill(true);
            self.class_of[s] = new_class;
            self.migrated_sensors += 1;
        }
    }

    /// Splices `D_k` to match `class_of` if it is stale and its membership
    /// diff is non-empty; returns whether it spliced. A sensor that left
    /// and rejoined since the last splice leaves no diff, so it costs
    /// nothing.
    fn materialize(&mut self, network: &Network, k: usize) -> bool {
        if !std::mem::take(&mut self.stale[k]) {
            return false;
        }
        let set = &self.sets[k];
        let removed: Vec<usize> =
            set.members.iter().copied().filter(|&s| self.class_of[s] > k).collect();
        let inserted: Vec<usize> =
            (0..self.class_of.len()).filter(|&s| self.class_of[s] <= k && !set.in_set[s]).collect();
        if removed.is_empty() && inserted.is_empty() {
            return false;
        }
        self.sets[k].splice(network, &removed, &inserted, &self.best_depot, &self.all_sensors);
        self.set_splices += 1;
        true
    }

    /// The immediate batch at `input.now`: sensors whose residual cannot
    /// reach their next grid charge (or the horizon), freshly routed by
    /// Algorithm 2 over a forest started from the all-sensor forest.
    fn urgent_batch(&self, input: &VarInput) -> Option<TourSet> {
        let network = input.network;
        let n = network.n();
        let urgent: Vec<usize> = (0..n)
            .filter(|&i| {
                let required = self.next_grid_charge(i, input.now).unwrap_or(input.horizon);
                input.now + input.residuals[i] + 1e-9 < required
            })
            .collect();
        if urgent.is_empty() {
            return None;
        }
        let nodes: Vec<usize> = urgent.iter().map(|&i| network.sensor_node(i)).collect();
        let forest = members_forest(network, &urgent, &self.best_depot, &self.all_sensors);
        let qt = tours_for_forest(&network.dist_source(), &forest, &nodes, &network.depot_nodes());
        Some(TourSet::from_qtours(qt, |v| v >= n))
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

    /// Members of base set `D_k` as of its last splice, ascending sensor
    /// ids. After [`Self::reclassify`] a set lags `class_of` until a
    /// dispatch needs it; [`Self::replan`] and [`Self::apply_migrations`]
    /// leave every set current.
    #[cfg(test)]
    pub(crate) fn set_members(&self, k: usize) -> &[usize] {
        &self.sets[k].members
    }

    /// Tours of base set `D_k` as of its last splice. After
    /// [`Self::reclassify`] a set lags `class_of` until a dispatch needs
    /// it; [`Self::replan`] and [`Self::apply_migrations`] leave every set
    /// current.
    pub fn tour_set(&self, k: usize) -> &TourSet {
        &self.sets[k].tours
    }

    /// Forest weight of base set `D_k` as of its last splice.
    #[cfg(test)]
    pub(crate) fn forest_weight(&self, k: usize) -> f64 {
        self.sets[k].weight
    }

    /// Total sensors that changed class since seeding.
    #[cfg(test)]
    pub(crate) fn migrated_sensors(&self) -> usize {
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
        let forest = members_forest(network, members, &self.best_depot, &self.all_sensors);
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

    fn seed_planner(network: &Network, cycles: &[f64]) -> (VarPlan, IncrementalPlanner) {
        let residuals = cycles.to_vec();
        let input = VarInput {
            network,
            max_cycles: cycles,
            residuals: &residuals,
            now: 0.0,
            horizon: 200.0,
        };
        IncrementalPlanner::seed(&input, RepairStrategy::NearestScheduling)
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
            let (_, mut planner) = seed_planner(&network, &cycles);
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
    fn seeded_splices_and_urgent_batches_equal_unseeded_forests() {
        // Every splice and urgent batch starts from the all-sensor forest;
        // the result must be the unseeded forest over the same sensors,
        // edge for edge.
        for seed in 0..4u64 {
            let n = 120;
            let network = sparse_network(n, 3, seed + 600);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 3);
            let cycles = spread_cycles(n, &mut rng);
            let (_, mut planner) = seed_planner(&network, &cycles);
            let unseeded = |sensors: &[usize]| {
                let tpts: Vec<Point2> = sensors.iter().map(|&s| network.sensor_pos(s)).collect();
                let root_dist: Vec<Vec<f64>> = (0..network.q())
                    .map(|l| tpts.iter().map(|p| network.depot_pos(l).dist(*p)).collect())
                    .collect();
                rooted_msf_points(&tpts, &root_dist)
            };
            for round in 0..3 {
                let changes = random_migrations(&planner, 10, &mut rng);
                planner.apply_migrations(&network, &changes);
                for k in 0..=planner.k_max() {
                    let members = planner.set_members(k);
                    let seeded = members_forest(
                        &network,
                        members,
                        &planner.best_depot,
                        &planner.all_sensors,
                    );
                    let fresh = unseeded(members);
                    assert_eq!(seeded.trees, fresh.trees, "seed {seed} round {round} D_{k}");
                    assert_eq!(seeded.weight.to_bits(), fresh.weight.to_bits());
                }
                let batch: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.1)).collect();
                let seeded =
                    members_forest(&network, &batch, &planner.best_depot, &planner.all_sensors);
                assert_eq!(seeded.trees, unseeded(&batch).trees, "seed {seed} round {round} batch");
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
            let (_, mut planner) = seed_planner(&network, &cycles);
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
                // The kept lengths are the ones the splice measured; they
                // must be what a fresh measurement gives, to the bit.
                let src = network.dist_source();
                for (tour, &len) in set.tours().iter().zip(set.tour_lengths()) {
                    assert_eq!(len.to_bits(), tour.length(&src).to_bits(), "seed {seed} D_{k}");
                }
                let fresh: f64 = set.tours().iter().map(|t| t.length(&src)).sum();
                assert_eq!(set.cost().to_bits(), fresh.to_bits(), "seed {seed} D_{k} cost");
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
    fn incremental_replans_stay_feasible() {
        // End to end: drift cycles within the cached band across several
        // rounds; every incremental plan must pass the var-plan oracle.
        for seed in 0..5u64 {
            let n = 80;
            let network = sparse_network(n, 3, seed + 500);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 13);
            let mut cycles = spread_cycles(n, &mut rng);
            let (_, mut planner) = seed_planner(&network, &cycles);
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
        let (_, mut planner) = seed_planner(&network, &cycles);
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
        let (_, mut planner) = seed_planner(&network, &cycles);
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

        // Migration budget: 8 of the 30 sensors change class, more than a
        // quarter. Sensors 0 and n − 1 pin τ̂₁ and K and stay put.
        let mut drift = cycles.clone();
        for c in &mut drift[1..=8] {
            *c = if power_class(4.0, *c) == 0 { 12.0 } else { 5.0 };
        }
        assert!(matches!(
            planner.replan(&at(&network, &drift, &residuals)),
            ReplanOutcome::NeedsFull(FullReason::TooManyMigrations)
        ));
    }

    #[test]
    fn splice_counters_track_surgery() {
        let n = 40;
        let network = sparse_network(n, 2, 42);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let cycles = spread_cycles(n, &mut rng);
        let (_, mut planner) = seed_planner(&network, &cycles);
        assert_eq!(planner.migrated_sensors(), 0);
        assert_eq!(planner.set_splices(), 0);
        // One sensor hops two classes: both D_min..D_max sets get spliced.
        let s = planner.set_members(0)[0];
        let spliced = planner.apply_migrations(&network, &[(s, 2)]);
        assert_eq!(spliced, vec![0, 1]);
        assert_eq!(planner.migrated_sensors(), 1);
        assert_eq!(planner.set_splices(), 2);
    }

    /// Drifted cycles and residuals for one replanning round.
    fn drift(cycles: &mut [f64], rng: &mut impl Rng) -> Vec<f64> {
        for c in cycles.iter_mut() {
            if rng.gen_bool(0.1) {
                *c = if rng.gen_bool(0.5) { (*c * 2.0).min(31.9) } else { (*c / 2.0).max(4.0) };
            }
        }
        cycles.iter().map(|&c| rng.gen_range(0.1 * c..=c)).collect()
    }

    #[test]
    fn windowed_emission_matches_the_eager_plan() {
        // The lazy form (reclassify, then emit_until window by window up to
        // the next replan, as the simulator drives it) hands out exactly
        // the eager replan's dispatches: same times, same sensors per
        // dispatch. Sets no window reaches stay stale across replans, so
        // their diffs merge; only tour shapes may differ. Grid arithmetic
        // agrees with scanning the eager series.
        for seed in 0..4u64 {
            let n = 80;
            let network = sparse_network(n, 3, seed + 700);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 17);
            let mut cycles = spread_cycles(n, &mut rng);
            let (_, mut eager) = seed_planner(&network, &cycles);
            let (_, mut lazy) = seed_planner(&network, &cycles);
            let horizon = 200.0;
            let window = 2.5;
            let rounds = 6;
            let mut nows: Vec<f64> = Vec::new();
            let mut t = 0.0;
            for _ in 0..rounds {
                t += rng.gen_range(3.0..9.0);
                nows.push(t);
            }
            for (round, &now) in nows.iter().enumerate() {
                let residuals = drift(&mut cycles, &mut rng);
                let input = VarInput {
                    network: &network,
                    max_cycles: &cycles,
                    residuals: &residuals,
                    now,
                    horizon,
                };
                let ReplanOutcome::Incremental(plan) = eager.replan(&input) else {
                    panic!("seed {seed} round {round}: unexpected fallback")
                };
                let urgent = lazy.reclassify(&input).expect("same partition as the eager planner");
                let mut series = ScheduleSeries::new();
                if let Some(set) = urgent {
                    let id = series.add_set(set);
                    series.push_dispatch(now, id);
                }
                let next_replan = nows.get(round + 1).copied().unwrap_or(horizon);
                let mut until = now;
                while until < next_replan {
                    until = (until + window).min(next_replan);
                    lazy.emit_until(&network, &mut series, until);
                }
                let want: Vec<(u64, &[usize])> = plan
                    .series
                    .dispatches()
                    .iter()
                    .filter(|d| d.time < next_replan)
                    .map(|d| (d.time.to_bits(), plan.series.set_of(d).sensors()))
                    .collect();
                let got: Vec<(u64, &[usize])> = series
                    .dispatches()
                    .iter()
                    .map(|d| (d.time.to_bits(), series.set_of(d).sensors()))
                    .collect();
                assert_eq!(want, got, "seed {seed} round {round}");
                for s in 0..n {
                    let times = plan.series.charge_times(s);
                    for probe in [now, now + 0.5, next_replan, horizon - 1.0] {
                        let want = times.iter().copied().find(|&t| t > probe + 1e-9);
                        assert_eq!(
                            lazy.next_grid_charge(s, probe),
                            want,
                            "seed {seed} round {round} sensor {s} after {probe}"
                        );
                    }
                }
            }
            assert!(lazy.set_splices() < eager.set_splices(), "seed {seed}: nothing deferred");
        }
    }

    #[test]
    fn a_sensor_that_leaves_and_returns_costs_no_splice() {
        let n = 40;
        let network = sparse_network(n, 2, 42);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut cycles = spread_cycles(n, &mut rng);
        let (_, mut planner) = seed_planner(&network, &cycles);
        let s = (1..n - 1).find(|&i| planner.class_of()[i] == 0).expect("a class-0 sensor");
        let residuals = cycles.clone();
        fn at<'a>(
            network: &'a Network,
            cycles: &'a [f64],
            residuals: &'a [f64],
            now: f64,
        ) -> VarInput<'a> {
            VarInput { network, max_cycles: cycles, residuals, now, horizon: 150.0 }
        }
        let home = cycles[s];
        cycles[s] = 9.0; // class 0 → 1: leaves D_0
        planner.reclassify(&at(&network, &cycles, &residuals, 1.0)).unwrap();
        cycles[s] = home; // and rejoins it
        planner.reclassify(&at(&network, &cycles, &residuals, 2.0)).unwrap();
        assert_eq!(planner.migrated_sensors(), 2);
        let mut series = ScheduleSeries::new();
        planner.emit_until(&network, &mut series, 150.0);
        assert!(series.dispatch_count() > 0);
        assert_eq!(planner.set_splices(), 0, "the round trip left no membership diff");
    }
}
