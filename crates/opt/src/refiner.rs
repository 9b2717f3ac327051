//! The anytime refiner: seeded local search over a family of rooted tours.
//!
//! A *tour family* is what one paper dispatch drives: `q` closed tours,
//! each starting at its charger's depot, covering pairwise-disjoint
//! sensors. The refiner improves the family's total cycle length with
//! four move kernels, never touching *which* sensors the family covers:
//!
//! * **2-opt** — reverse a segment of one tour, uncrossing two edges,
//! * **Or-opt** — relocate a segment of 1–3 consecutive sensors within
//!   its tour (forward orientation),
//! * **relocate** — move one sensor to a cheaper position in *another*
//!   tour of the family (sensor-to-charger reassignment),
//! * **swap** — exchange two sensors between two tours.
//!
//! Every kernel is strict-improvement only (`delta < -IMPROVE_EPS`), so
//! the current state *is* the incumbent: [`Refiner::best`] can be taken
//! at any point and is never worse than the input. Depots are pinned —
//! position 0 of every tour is untouchable — so feasibility of the
//! surrounding schedule (which depends only on set membership and
//! dispatch times) is preserved by construction.
//!
//! Move scanning is candidate-limited when point positions are known
//! ([`Refiner::set_candidates`] builds k-NN lists from the kd-tree via
//! `tsp_heur::knn_candidates`), so a pass is `O(n·k)` and the dense `n²`
//! matrix is never required. Work is metered by [`Budget`]: one
//! step = one candidate-move evaluation, making iteration-bounded runs
//! byte-reproducible for a fixed `(seed, budget)`.

use crate::budget::{Budget, Meter};
use perpetuum_geom::Point2;
use perpetuum_graph::tsp_heur::knn_candidates;
use perpetuum_graph::{Metric, Tour};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strict-improvement slack shared by all kernels: a move must gain more
/// than this to be accepted.
pub const IMPROVE_EPS: f64 = 1e-12;

/// Default k-NN candidate-list width.
pub const DEFAULT_CANDIDATES: usize = 10;

/// What one [`Refiner::run`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOutcome {
    /// Total cycle-length reduction achieved by this call (≥ 0).
    pub gain: f64,
    /// Candidate-move evaluations consumed.
    pub steps: u64,
    /// Full sweeps over the family completed or started.
    pub passes: u64,
    /// Moves accepted.
    pub accepted: u64,
    /// True when the family is locally optimal for the move set — a
    /// whole pass found nothing and budget remained.
    pub converged: bool,
}

/// Budgeted anytime local search over one rooted tour family.
///
/// The refiner owns its working copy of the tours; the caller seeds it
/// with [`Refiner::new`], optionally attaches candidate lists, calls
/// [`Refiner::run`] one or more times (budgets compose), and takes the
/// incumbent with [`Refiner::best`] / [`Refiner::into_tours`] whenever
/// it wants to stop.
#[derive(Debug)]
pub struct Refiner<M: Metric> {
    dist: M,
    tours: Vec<Vec<usize>>,
    lens: Vec<f64>,
    /// `home[v] = (tour, position)` for every node currently in a tour;
    /// `usize::MAX` marks absent ids.
    home: Vec<(usize, usize)>,
    /// k-NN candidate lists by global node id; empty ⇒ exhaustive scans.
    cand: Vec<Vec<usize>>,
    rng: StdRng,
    accepted: u64,
}

const NOWHERE: (usize, usize) = (usize::MAX, usize::MAX);

fn cycle_len<M: Metric>(dist: &M, nodes: &[usize]) -> f64 {
    if nodes.len() < 2 {
        return 0.0;
    }
    let mut total: f64 = nodes.windows(2).map(|w| dist.get(w[0], w[1])).sum();
    total += dist.get(nodes[nodes.len() - 1], nodes[0]);
    total
}

impl<M: Metric> Refiner<M> {
    /// Wrap a tour family. Every tour must be nonempty with its depot at
    /// position 0, node ids must be `< dist.len()`, and no node may
    /// appear twice across the family. `seed` drives the sweep orders:
    /// the same seed and step budget give byte-identical output.
    ///
    /// # Panics
    /// On empty tours, out-of-range ids, or duplicated nodes — those are
    /// construction bugs upstream, not runtime conditions.
    pub fn new(tours: Vec<Vec<usize>>, dist: M, seed: u64) -> Self {
        let mut home = vec![NOWHERE; dist.len()];
        for (t, tour) in tours.iter().enumerate() {
            assert!(!tour.is_empty(), "tour {t} is empty (a depot at least is required)");
            for (i, &v) in tour.iter().enumerate() {
                assert!(v < dist.len(), "node {v} out of range (metric has {})", dist.len());
                assert!(home[v] == NOWHERE, "node {v} appears twice in the family");
                home[v] = (t, i);
            }
        }
        let lens = tours.iter().map(|t| cycle_len(&dist, t)).collect();
        Self {
            tours,
            lens,
            home,
            cand: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            accepted: 0,
            dist,
        }
    }

    /// Attach k-NN candidate lists built from node positions (`points`
    /// indexed by global node id, same convention as `DistSource`).
    /// Restricts every kernel's scan to the `k` nearest family members of
    /// each node, turning a pass into `O(n·k)` work.
    pub fn set_candidates(&mut self, points: &[Point2], k: usize) {
        let nodes: Vec<usize> = self.tours.iter().flat_map(|t| t.iter().copied()).collect();
        self.cand = knn_candidates(points, &nodes, k);
    }

    /// Current total cycle length of the family (the incumbent cost).
    pub fn cost(&self) -> f64 {
        self.lens.iter().sum()
    }

    /// Current per-tour cycle lengths.
    pub fn tour_lengths(&self) -> &[f64] {
        &self.lens
    }

    /// Raw node lists of the incumbent (depot first in each).
    pub fn tour_nodes(&self) -> &[Vec<usize>] {
        &self.tours
    }

    /// Snapshot the incumbent as closed [`Tour`]s.
    pub fn best(&self) -> Vec<Tour> {
        self.tours.iter().map(|t| Tour::new(t.clone())).collect()
    }

    /// Consume the refiner, yielding the incumbent tours.
    pub fn into_tours(self) -> Vec<Tour> {
        self.tours.into_iter().map(Tour::new).collect()
    }

    /// Refine under `budget`. May be called repeatedly; each call picks
    /// up where the previous stopped (the RNG stream continues).
    pub fn run(&mut self, budget: &Budget) -> RefineOutcome {
        let before = self.cost();
        let accepted_before = self.accepted;
        let mut meter = budget.meter();
        let mut passes = 0u64;
        let mut converged = false;
        while !meter.exhausted() {
            passes += 1;
            let gained = self.pass(&mut meter);
            if gained <= IMPROVE_EPS {
                // A full uninterrupted sweep found nothing: local optimum.
                converged = !meter.exhausted();
                break;
            }
        }
        RefineOutcome {
            gain: before - self.cost(),
            steps: meter.used(),
            passes,
            accepted: self.accepted - accepted_before,
            converged,
        }
    }

    // --- sweep machinery ------------------------------------------------

    #[inline]
    fn d(&self, a: usize, b: usize) -> f64 {
        self.dist.get(a, b)
    }

    fn reindex(&mut self, t: usize) {
        for i in 0..self.tours[t].len() {
            let v = self.tours[t][i];
            self.home[v] = (t, i);
        }
    }

    fn shuffle(&mut self, xs: &mut [usize]) {
        for i in (1..xs.len()).rev() {
            let j = self.rng.gen_range(0..i + 1);
            xs.swap(i, j);
        }
    }

    /// One full sweep: 2-opt and Or-opt over every tour, then the
    /// cross-tour relocate/swap scan. Returns the total gain.
    fn pass(&mut self, meter: &mut Meter) -> f64 {
        let mut order: Vec<usize> = (0..self.tours.len()).collect();
        self.shuffle(&mut order);
        let mut gain = 0.0;
        for &t in &order {
            gain += self.two_opt_sweep(t, meter);
            if meter.exhausted() {
                return gain;
            }
        }
        for &t in &order {
            gain += self.or_opt_sweep(t, meter);
            if meter.exhausted() {
                return gain;
            }
        }
        gain + self.cross_sweep(meter)
    }

    /// Candidate 2-opt with first-improvement restarts on one tour.
    fn two_opt_sweep(&mut self, t: usize, meter: &mut Meter) -> f64 {
        let mut gain = 0.0;
        'restart: loop {
            let m = self.tours[t].len();
            if m < 4 {
                return gain;
            }
            for i in 0..m - 1 {
                let a = self.tours[t][i];
                let b = self.tours[t][i + 1];
                let n_cand = if self.cand.is_empty() { m } else { self.cand[a].len() };
                for ci in 0..n_cand {
                    // Second edge (c, next(c)) at position j > i + 1.
                    let j = if self.cand.is_empty() {
                        ci
                    } else {
                        let c = self.cand[a][ci];
                        let (tc, jc) = self.home[c];
                        if tc != t {
                            continue;
                        }
                        jc
                    };
                    if j <= i + 1 || j >= m {
                        continue;
                    }
                    if !meter.spend() {
                        return gain;
                    }
                    let c = self.tours[t][j];
                    let nxt = self.tours[t][(j + 1) % m];
                    let delta = self.d(a, c) + self.d(b, nxt) - self.d(a, b) - self.d(c, nxt);
                    if delta < -IMPROVE_EPS {
                        self.tours[t][i + 1..=j].reverse();
                        self.lens[t] += delta;
                        for p in i + 1..=j {
                            let v = self.tours[t][p];
                            self.home[v] = (t, p);
                        }
                        self.accepted += 1;
                        gain -= delta;
                        continue 'restart;
                    }
                }
            }
            // Scanned every edge without an accept: tour is 2-opt clean.
            return gain;
        }
    }

    /// Or-opt: relocate segments of 1–3 sensors within one tour.
    fn or_opt_sweep(&mut self, t: usize, meter: &mut Meter) -> f64 {
        let mut gain = 0.0;
        'restart: loop {
            let m = self.tours[t].len();
            if m < 4 {
                return gain;
            }
            for seg in 1..=3usize.min(m - 2) {
                for s in 1..m - seg + 1 {
                    let prev = self.tours[t][s - 1];
                    let head = self.tours[t][s];
                    let tail = self.tours[t][s + seg - 1];
                    let next = self.tours[t][(s + seg) % m];
                    let removal = self.d(prev, head) + self.d(tail, next) - self.d(prev, next);
                    let n_cand = if self.cand.is_empty() { m } else { self.cand[head].len() };
                    for ci in 0..n_cand {
                        let j = if self.cand.is_empty() {
                            ci
                        } else {
                            let x = self.cand[head][ci];
                            let (tx, jx) = self.home[x];
                            if tx != t {
                                continue;
                            }
                            jx
                        };
                        // Insert after position j: skip the segment itself
                        // and the no-op position just before it.
                        if j + 1 >= s && j < s + seg {
                            continue;
                        }
                        if j >= m {
                            continue;
                        }
                        if !meter.spend() {
                            return gain;
                        }
                        let x = self.tours[t][j];
                        let y = self.tours[t][(j + 1) % m];
                        let delta = self.d(x, head) + self.d(tail, y) - self.d(x, y) - removal;
                        if delta < -IMPROVE_EPS {
                            let moved: Vec<usize> = self.tours[t].drain(s..s + seg).collect();
                            let at = if j < s { j + 1 } else { j + 1 - seg };
                            for (k, &v) in moved.iter().enumerate() {
                                self.tours[t].insert(at + k, v);
                            }
                            self.lens[t] += delta;
                            self.reindex(t);
                            self.accepted += 1;
                            gain -= delta;
                            continue 'restart;
                        }
                    }
                }
            }
            // No segment found a cheaper slot: tour is Or-opt clean.
            return gain;
        }
    }

    /// Cross-tour scan: for every sensor (shuffled order), try the best
    /// candidate relocate into another tour, else the best candidate swap.
    fn cross_sweep(&mut self, meter: &mut Meter) -> f64 {
        if self.tours.len() < 2 {
            return 0.0;
        }
        let mut sensors: Vec<usize> =
            self.tours.iter().flat_map(|t| t.iter().skip(1).copied()).collect();
        self.shuffle(&mut sensors);
        let mut gain = 0.0;
        for &v in &sensors {
            if meter.exhausted() {
                return gain;
            }
            gain += self.cross_moves_for(v, meter);
        }
        gain
    }

    /// Candidate node ids to pair `v` with in other tours.
    fn cross_targets(&self, v: usize, own: usize) -> Vec<usize> {
        if self.cand.is_empty() {
            self.tours
                .iter()
                .enumerate()
                .filter(|&(t, _)| t != own)
                .flat_map(|(_, t)| t.iter().copied())
                .collect()
        } else {
            self.cand[v].clone()
        }
    }

    fn cross_moves_for(&mut self, v: usize, meter: &mut Meter) -> f64 {
        let (a, i) = self.home[v];
        let m_a = self.tours[a].len();
        let prev = self.tours[a][i - 1];
        let next = self.tours[a][(i + 1) % m_a];
        let removal = self.d(prev, v) + self.d(v, next) - self.d(prev, next);
        let targets = self.cross_targets(v, a);

        // Best relocation of v after some candidate c in another tour.
        let mut best_rel: Option<(f64, usize, usize)> = None; // (delta, tour, pos)
        for &c in &targets {
            let (b, j) = self.home[c];
            if b == a || b == usize::MAX {
                continue;
            }
            if !meter.spend() {
                break;
            }
            let y = self.tours[b][(j + 1) % self.tours[b].len()];
            let delta = self.d(c, v) + self.d(v, y) - self.d(c, y) - removal;
            if delta < best_rel.map_or(-IMPROVE_EPS, |(d, _, _)| d) {
                best_rel = Some((delta, b, j));
            }
        }
        if let Some((delta, b, j)) = best_rel {
            self.tours[a].remove(i);
            self.tours[b].insert(j + 1, v);
            self.lens[a] -= removal;
            self.lens[b] += delta + removal;
            self.home[v] = NOWHERE;
            self.reindex(a);
            self.reindex(b);
            self.accepted += 1;
            return -delta;
        }
        if meter.exhausted() {
            return 0.0;
        }

        // Best swap of v with a candidate sensor of another tour.
        let mut best_swap: Option<(f64, f64, usize, usize)> = None; // (total, delta_a, tour, pos)
        for &w in &targets {
            let (b, j) = self.home[w];
            if b == a || b == usize::MAX || j == 0 {
                continue; // same tour, absent, or a depot — depots are pinned
            }
            if !meter.spend() {
                break;
            }
            let m_b = self.tours[b].len();
            let pw = self.tours[b][j - 1];
            let nw = self.tours[b][(j + 1) % m_b];
            if pw == v || nw == v {
                continue; // unreachable across tours, cheap to keep explicit
            }
            let delta_a = self.d(prev, w) + self.d(w, next) - self.d(prev, v) - self.d(v, next);
            let delta_b = self.d(pw, v) + self.d(v, nw) - self.d(pw, w) - self.d(w, nw);
            let total = delta_a + delta_b;
            if total < best_swap.map_or(-IMPROVE_EPS, |(d, _, _, _)| d) {
                best_swap = Some((total, delta_a, b, j));
            }
        }
        if let Some((total, delta_a, b, j)) = best_swap {
            let w = self.tours[b][j];
            self.tours[a][i] = w;
            self.tours[b][j] = v;
            self.lens[a] += delta_a;
            self.lens[b] += total - delta_a;
            self.home[w] = (a, i);
            self.home[v] = (b, j);
            self.accepted += 1;
            return -total;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_graph::DistMatrix;

    fn square() -> Vec<Point2> {
        vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ]
    }

    #[test]
    fn two_opt_uncrosses_the_square() {
        let pts = square();
        let dist = DistMatrix::from_points(&pts);
        // 0-2-1-3 crosses both diagonals: cost 2 + 2·√2 instead of 4.
        let mut r = Refiner::new(vec![vec![0, 2, 1, 3]], &dist, 0);
        let before = r.cost();
        let out = r.run(&Budget::steps(10_000));
        assert!(out.converged);
        assert!(out.gain > 0.0);
        assert!((r.cost() - 4.0).abs() < 1e-9, "got {}", r.cost());
        assert!((before - out.gain - r.cost()).abs() < 1e-9);
    }

    #[test]
    fn relocate_moves_sensor_to_its_own_depot() {
        // Depots 0 and 1 far apart; sensor 2 sits on depot 1 but is
        // toured from depot 0. Relocation should hand it over.
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(10.0, 0.0), Point2::new(10.0, 0.5)];
        let dist = DistMatrix::from_points(&pts);
        let mut r = Refiner::new(vec![vec![0, 2], vec![1]], &dist, 0);
        let out = r.run(&Budget::steps(10_000));
        assert!(out.gain > 0.0);
        assert_eq!(r.tour_nodes()[0], vec![0]);
        assert_eq!(r.tour_nodes()[1], vec![1, 2]);
        assert!((r.cost() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn swap_exchanges_mismatched_sensors() {
        // Two depots, each touring the sensor next to the *other* depot.
        let pts = vec![
            Point2::new(0.0, 0.0),  // depot A
            Point2::new(10.0, 0.0), // depot B
            Point2::new(10.0, 1.0), // near B, toured by A
            Point2::new(0.0, 1.0),  // near A, toured by B
        ];
        let dist = DistMatrix::from_points(&pts);
        let mut r = Refiner::new(vec![vec![0, 2], vec![1, 3]], &dist, 0);
        let out = r.run(&Budget::steps(10_000));
        assert!(out.gain > 0.0);
        assert_eq!(r.tour_nodes()[0], vec![0, 3]);
        assert_eq!(r.tour_nodes()[1], vec![1, 2]);
    }

    #[test]
    fn zero_budget_changes_nothing() {
        let pts = square();
        let dist = DistMatrix::from_points(&pts);
        let mut r = Refiner::new(vec![vec![0, 2, 1, 3]], &dist, 0);
        let before = r.cost();
        let out = r.run(&Budget::steps(0));
        assert_eq!(out.steps, 0);
        assert_eq!(out.accepted, 0);
        assert_eq!(r.cost(), before);
        assert_eq!(r.tour_nodes()[0], vec![0, 2, 1, 3]);
    }

    /// A metric that counts its distance lookups.
    struct Counting<'a> {
        inner: &'a DistMatrix,
        calls: std::cell::Cell<u64>,
    }

    impl Metric for Counting<'_> {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn get(&self, i: usize, j: usize) -> f64 {
            self.calls.set(self.calls.get() + 1);
            self.inner.get(i, j)
        }
    }

    #[test]
    fn steps_equal_move_evaluations() {
        // A convex polygon in order is 2-opt clean, so the first sweep
        // evaluates 2-opt moves only, four lookups each, and accepts none.
        let pts: Vec<Point2> = (0..12)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / 12.0;
                Point2::new(a.cos(), a.sin())
            })
            .collect();
        let dist = DistMatrix::from_points(&pts);
        for k in [1u64, 2, 3, 17, 40] {
            let metric = Counting { inner: &dist, calls: std::cell::Cell::new(0) };
            let mut r = Refiner::new(vec![(0..12).collect()], &metric, 0);
            r.dist.calls.set(0);
            let out = r.run(&Budget::steps(k));
            assert_eq!(out.steps, k);
            assert_eq!(out.accepted, 0);
            assert_eq!(r.dist.calls.get(), 4 * k, "budget {k}: evaluations != steps");
        }
    }

    #[test]
    fn refiner_reaches_near_optimal_on_small_instances() {
        use perpetuum_graph::tsp_exact::held_karp;
        use perpetuum_graph::tsp_heur::nearest_neighbor;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let pts: Vec<Point2> = (0..10)
                .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect();
            let d = DistMatrix::from_points(&pts);
            let (_, opt) = held_karp(&d);
            let start = nearest_neighbor(&d, 0).nodes().to_vec();
            let mut r = Refiner::new(vec![start], &d, seed);
            assert!(r.run(&Budget::steps(1_000_000)).converged);
            let len = r.cost();
            assert!(len <= opt * 1.15 + 1e-9, "seed {seed}: refined len {len} vs opt {opt}");
        }
    }

    #[test]
    fn split_budgets_keep_improving_monotonically() {
        let pts: Vec<Point2> = (0..32)
            .map(|i| {
                let a = i as f64 * 0.39;
                Point2::new(50.0 + 40.0 * a.cos(), 50.0 + 40.0 * a.sin())
            })
            .collect();
        let dist = DistMatrix::from_points(&pts);
        let nodes: Vec<usize> = (0..32).collect();
        let mut r = Refiner::new(vec![nodes], &dist, 7);
        let mut last = r.cost();
        for _ in 0..20 {
            r.run(&Budget::steps(50));
            assert!(r.cost() <= last + 1e-12);
            last = r.cost();
        }
    }

    #[test]
    fn lengths_stay_consistent_with_recomputation() {
        let pts: Vec<Point2> =
            (0..40).map(|i| Point2::new((i * 37 % 100) as f64, (i * 61 % 100) as f64)).collect();
        let dist = DistMatrix::from_points(&pts);
        let tours = vec![(0..20).collect::<Vec<_>>(), (20..40).collect::<Vec<_>>()];
        let mut r = Refiner::new(tours, &dist, 3);
        r.run(&Budget::steps(200_000));
        for (t, nodes) in r.tour_nodes().iter().enumerate() {
            let exact = cycle_len(&&dist, nodes);
            assert!(
                (r.tour_lengths()[t] - exact).abs() < 1e-6,
                "tour {t}: tracked {} vs exact {exact}",
                r.tour_lengths()[t]
            );
        }
    }

    #[test]
    fn candidate_lists_restrict_but_still_improve() {
        let pts: Vec<Point2> =
            (0..64).map(|i| Point2::new((i * 17 % 80) as f64, (i * 29 % 80) as f64)).collect();
        let dist = DistMatrix::from_points(&pts);
        let tours = vec![(0..32).collect::<Vec<_>>(), (32..64).collect::<Vec<_>>()];
        let mut r = Refiner::new(tours, &dist, 11);
        r.set_candidates(&pts, 8);
        let before = r.cost();
        let out = r.run(&Budget::steps(500_000));
        assert!(out.gain > 0.0);
        assert!(r.cost() < before);
    }
}
