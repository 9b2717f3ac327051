//! Charging schedulings and schedule series (Section III.B).
//!
//! A *charging scheduling* `(C_j, t_j)` dispatches all `q` chargers at time
//! `t_j` on the closed tours of `C_j`. Because Algorithm 3 reuses the same
//! `K + 1` distinct tour sets for hundreds of dispatch times, a
//! [`ScheduleSeries`] stores tour sets once and lets dispatches reference
//! them by index — the service cost of a 1000-dispatch plan costs `O(1)`
//! per dispatch to account, not `O(n)`.

use perpetuum_graph::{Metric, Tour};
use serde::{Deserialize, Serialize};

use crate::qtsp::QTours;

/// The `q` closed tours of one charging scheduling, plus cached per-tour
/// lengths, total cost and covered-sensor membership.
///
/// Lengths are cached at construction so that dispatch accounting (the
/// simulation engine charges every dispatch's travel to its chargers) is
/// `O(q)` per dispatch instead of re-walking every tour against the
/// distance metric.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TourSet {
    tours: Vec<Tour>,
    /// `tour_lengths[l]` — length of `tours[l]`; `cost` is their sum.
    tour_lengths: Vec<f64>,
    cost: f64,
    /// Sorted node ids of covered sensors (depots excluded).
    sensors: Vec<usize>,
}

impl TourSet {
    /// Builds a tour set from raw tours.
    ///
    /// `is_depot` distinguishes depot nodes so the sensor membership cache
    /// excludes them; `dist` is used to compute the per-tour lengths.
    pub fn new<M: Metric>(tours: Vec<Tour>, dist: &M, is_depot: impl Fn(usize) -> bool) -> Self {
        let tour_lengths: Vec<f64> = tours.iter().map(|t| t.length(dist)).collect();
        let cost = tour_lengths.iter().sum();
        let mut sensors: Vec<usize> = tours
            .iter()
            .flat_map(|t| t.nodes().iter().copied())
            .filter(|&v| !is_depot(v))
            .collect();
        sensors.sort_unstable();
        sensors.dedup();
        Self { tours, tour_lengths, cost, sensors }
    }

    /// Converts the output of Algorithm 2 into a tour set (per-tour lengths
    /// and the cost are taken from the solver, which already measured them).
    pub fn from_qtours(qt: QTours, is_depot: impl Fn(usize) -> bool) -> Self {
        let mut sensors: Vec<usize> = qt
            .tours
            .iter()
            .flat_map(|t| t.nodes().iter().copied())
            .filter(|&v| !is_depot(v))
            .collect();
        sensors.sort_unstable();
        sensors.dedup();
        Self { tours: qt.tours, tour_lengths: qt.tour_lengths, cost: qt.cost, sensors }
    }

    /// The `q` tours (singleton tours for idle chargers).
    pub fn tours(&self) -> &[Tour] {
        &self.tours
    }

    /// Cached length of each tour, in tour order (`cost` is the sum).
    pub fn tour_lengths(&self) -> &[f64] {
        &self.tour_lengths
    }

    /// Total travelled distance of this scheduling.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Covered sensor node ids, sorted ascending.
    pub fn sensors(&self) -> &[usize] {
        &self.sensors
    }

    /// True when the scheduling charges `sensor`.
    pub fn contains_sensor(&self, sensor: usize) -> bool {
        self.sensors.binary_search(&sensor).is_ok()
    }

    /// True when no sensor is covered (all chargers idle).
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.sensors.is_empty()
    }
}

/// One dispatch: the tour set `set` (an index into the series) executed at
/// `time`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dispatch {
    /// Dispatch time `t_j ∈ (0, T)` — or `[0, T)` for the variable-cycle
    /// repair scheduling `(C'_0, t)`.
    pub time: f64,
    /// Index into [`ScheduleSeries::sets`].
    pub set: usize,
}

/// A complete series of charging schedulings over the monitoring period.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScheduleSeries {
    sets: Vec<TourSet>,
    dispatches: Vec<Dispatch>,
}

impl ScheduleSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tour set, returning its index.
    pub fn add_set(&mut self, set: TourSet) -> usize {
        self.sets.push(set);
        self.sets.len() - 1
    }

    /// Appends a dispatch of set `set` at `time`.
    ///
    /// # Panics
    /// Panics when `set` is out of range or `time` is not finite.
    pub fn push_dispatch(&mut self, time: f64, set: usize) {
        assert!(set < self.sets.len(), "unknown tour set {set}");
        assert!(time.is_finite() && time >= 0.0, "bad dispatch time {time}");
        self.dispatches.push(Dispatch { time, set });
    }

    /// The registered tour sets.
    pub fn sets(&self) -> &[TourSet] {
        &self.sets
    }

    /// Appends `other`'s tour sets and dispatches after this series' own,
    /// remapping its set indices. Callers keep the series in time order by
    /// appending only later dispatches.
    pub fn append(&mut self, other: ScheduleSeries) {
        let base = self.sets.len();
        self.sets.extend(other.sets);
        self.dispatches.extend(
            other.dispatches.into_iter().map(|d| Dispatch { time: d.time, set: base + d.set }),
        );
    }

    /// All dispatches in insertion order (the planners insert in time
    /// order; [`ScheduleSeries::sort_by_time`] restores it otherwise).
    pub fn dispatches(&self) -> &[Dispatch] {
        &self.dispatches
    }

    /// Stable-sorts dispatches by time.
    pub fn sort_by_time(&mut self) {
        self.dispatches
            .sort_by(|a, b| a.time.partial_cmp(&b.time).expect("dispatch times are finite"));
    }

    /// The tour set of a dispatch.
    pub fn set_of(&self, d: &Dispatch) -> &TourSet {
        &self.sets[d.set]
    }

    /// Redirects every dispatch of set `from` strictly after `after` to set
    /// `to`, returning how many were retargeted. Past dispatches keep their
    /// historical set — this is the incremental-replanning primitive: an
    /// online controller re-routes one rounding class and swaps the future
    /// occurrences of its tour set without touching the dispatch timeline.
    ///
    /// # Panics
    /// Panics when `to` is not a registered set.
    pub fn retarget_dispatches(&mut self, from: usize, to: usize, after: f64) -> usize {
        assert!(to < self.sets.len(), "unknown tour set {to}");
        let mut moved = 0;
        for d in &mut self.dispatches {
            if d.set == from && d.time > after {
                d.set = to;
                moved += 1;
            }
        }
        moved
    }

    /// Total service cost: the sum of tour-set costs over all dispatches —
    /// the paper's objective `Σ_j w(C_j)`.
    pub fn service_cost(&self) -> f64 {
        self.dispatches.iter().map(|d| self.sets[d.set].cost()).sum()
    }

    /// Number of dispatches.
    pub fn dispatch_count(&self) -> usize {
        self.dispatches.len()
    }

    /// Total number of individual sensor charges across the series.
    pub fn total_charges(&self) -> usize {
        self.dispatches.iter().map(|d| self.sets[d.set].sensors().len()).sum()
    }

    /// Charge times of `sensor` (node id), ascending.
    pub fn charge_times(&self, sensor: usize) -> Vec<f64> {
        let mut times: Vec<f64> = self
            .dispatches
            .iter()
            .filter(|d| self.sets[d.set].contains_sensor(sensor))
            .map(|d| d.time)
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times
    }

    /// Time of the first dispatch at index `from` or later whose set covers
    /// each of the distinct `sensors`, in a vector of length `n` indexed by
    /// sensor (`INFINITY`: no such dispatch, or not asked). In a
    /// time-sorted series the first found is the earliest. One pass visits
    /// each set once and stops as soon as every asked sensor has its time.
    pub fn next_charge_times(&self, from: usize, sensors: &[usize], n: usize) -> Vec<f64> {
        let mut next = vec![f64::INFINITY; n];
        let mut wanted = vec![false; n];
        sensors.iter().for_each(|&i| wanted[i] = true);
        let mut missing = sensors.len();
        let mut seen = vec![false; self.sets.len()];
        for d in &self.dispatches[from..] {
            if missing == 0 {
                break;
            }
            if std::mem::replace(&mut seen[d.set], true) {
                continue;
            }
            for &i in self.sets[d.set].sensors() {
                if std::mem::take(&mut wanted[i]) {
                    next[i] = d.time;
                    missing -= 1;
                }
            }
        }
        next
    }

    /// Charge times of every sensor node in `0..n` at once, each ascending
    /// — one inverted pass over the dispatches (`O(D log D + total
    /// charges)`) instead of an `O(n · D)` membership scan per sensor.
    /// Equals `(0..n).map(|s| self.charge_times(s))`.
    pub(crate) fn charge_times_all(&self, n: usize) -> Vec<Vec<f64>> {
        let mut order: Vec<&Dispatch> = self.dispatches.iter().collect();
        order.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("dispatch times are finite"));
        let mut out = vec![Vec::new(); n];
        for d in order {
            for &s in self.sets[d.set].sensors() {
                if s < n {
                    out[s].push(d.time);
                }
            }
        }
        out
    }

    /// Per-charger travelled distance across the series, from the cached
    /// per-tour lengths. `q` is the number of chargers; every tour set must
    /// have exactly `q` tours.
    pub fn per_charger_distance(&self, q: usize) -> Vec<f64> {
        let mut out = vec![0.0; q];
        for d in &self.dispatches {
            let set = &self.sets[d.set];
            assert_eq!(set.tours().len(), q, "tour sets must have q tours");
            for (l, &len) in set.tour_lengths().iter().enumerate() {
                out[l] += len;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_geom::Point2;
    use perpetuum_graph::DistMatrix;

    /// 2 sensors (nodes 0, 1) + 1 depot (node 2) on a line.
    fn dist() -> DistMatrix {
        DistMatrix::from_points(&[
            Point2::new(1.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(0.0, 0.0),
        ])
    }

    fn is_depot(v: usize) -> bool {
        v == 2
    }

    #[test]
    fn tour_set_cost_and_membership() {
        let d = dist();
        let ts = TourSet::new(vec![Tour::new(vec![2, 0, 1])], &d, is_depot);
        assert!((ts.cost() - 4.0).abs() < 1e-12); // 1 + 1 + 2
        assert_eq!(ts.sensors(), &[0, 1]);
        assert!(ts.contains_sensor(0));
        assert!(!ts.contains_sensor(2));
        assert!(!ts.is_idle());
    }

    #[test]
    fn idle_tour_set() {
        let d = dist();
        let ts = TourSet::new(vec![Tour::singleton(2)], &d, is_depot);
        assert_eq!(ts.cost(), 0.0);
        assert!(ts.is_idle());
    }

    #[test]
    fn series_accounting() {
        let d = dist();
        let mut s = ScheduleSeries::new();
        let both = s.add_set(TourSet::new(vec![Tour::new(vec![2, 0, 1])], &d, is_depot));
        let near = s.add_set(TourSet::new(vec![Tour::new(vec![2, 0])], &d, is_depot));
        s.push_dispatch(1.0, near);
        s.push_dispatch(2.0, both);
        s.push_dispatch(3.0, near);
        assert_eq!(s.dispatch_count(), 3);
        // near costs 2, both costs 4.
        assert!((s.service_cost() - 8.0).abs() < 1e-12);
        assert_eq!(s.total_charges(), 4);
        assert_eq!(s.charge_times(0), vec![1.0, 2.0, 3.0]);
        assert_eq!(s.charge_times(1), vec![2.0]);
    }

    #[test]
    fn sort_by_time_restores_order() {
        let d = dist();
        let mut s = ScheduleSeries::new();
        let set = s.add_set(TourSet::new(vec![Tour::new(vec![2, 0])], &d, is_depot));
        s.push_dispatch(5.0, set);
        s.push_dispatch(1.0, set);
        s.sort_by_time();
        assert_eq!(s.dispatches()[0].time, 1.0);
        assert_eq!(s.dispatches()[1].time, 5.0);
    }

    #[test]
    fn per_charger_distance_splits() {
        let d = dist();
        let mut s = ScheduleSeries::new();
        let set =
            s.add_set(TourSet::new(vec![Tour::new(vec![2, 0]), Tour::singleton(2)], &d, is_depot));
        s.push_dispatch(1.0, set);
        s.push_dispatch(2.0, set);
        let per = s.per_charger_distance(2);
        assert!((per[0] - 4.0).abs() < 1e-12);
        assert_eq!(per[1], 0.0);
        // Cached lengths agree with on-demand recomputation.
        let set = &s.sets()[0];
        for (cached, t) in set.tour_lengths().iter().zip(set.tours()) {
            assert!((cached - t.length(&d)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "unknown tour set")]
    fn dispatch_of_unknown_set_panics() {
        let mut s = ScheduleSeries::new();
        s.push_dispatch(1.0, 0);
    }

    #[test]
    fn retarget_dispatches_moves_only_the_future() {
        let d = dist();
        let mut s = ScheduleSeries::new();
        let old = s.add_set(TourSet::new(vec![Tour::new(vec![2, 0])], &d, is_depot));
        let other = s.add_set(TourSet::new(vec![Tour::new(vec![2, 1])], &d, is_depot));
        let new = s.add_set(TourSet::new(vec![Tour::new(vec![2, 0, 1])], &d, is_depot));
        for &(t, set) in &[(1.0, old), (2.0, other), (3.0, old), (4.0, old)] {
            s.push_dispatch(t, set);
        }
        let moved = s.retarget_dispatches(old, new, 2.5);
        assert_eq!(moved, 2);
        let assigned: Vec<usize> = s.dispatches().iter().map(|d| d.set).collect();
        assert_eq!(assigned, vec![old, other, new, new]);
        // Times are untouched; only set references move.
        let times: Vec<f64> = s.dispatches().iter().map(|d| d.time).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "unknown tour set")]
    fn retarget_to_unknown_set_panics() {
        let d = dist();
        let mut s = ScheduleSeries::new();
        let set = s.add_set(TourSet::new(vec![Tour::new(vec![2, 0])], &d, is_depot));
        s.push_dispatch(1.0, set);
        s.retarget_dispatches(set, 9, 0.0);
    }

    #[test]
    fn charge_times_all_matches_per_sensor_scan() {
        let d = dist();
        let mut s = ScheduleSeries::new();
        let both = s.add_set(TourSet::new(vec![Tour::new(vec![2, 0, 1])], &d, is_depot));
        let near = s.add_set(TourSet::new(vec![Tour::new(vec![2, 0])], &d, is_depot));
        // Out-of-order dispatch times: the inverted pass must still emit
        // each sensor's times ascending.
        for &(t, set) in &[(3.0, both), (1.0, near), (2.0, both), (0.5, near)] {
            s.push_dispatch(t, set);
        }
        let all = s.charge_times_all(2);
        for (sensor, times) in all.iter().enumerate() {
            assert_eq!(*times, s.charge_times(sensor), "sensor {sensor}");
        }
        assert_eq!(all[0], vec![0.5, 1.0, 2.0, 3.0]);
        assert_eq!(all[1], vec![2.0, 3.0]);
    }

    proptest::proptest! {
        /// The one-pass walk equals a linear scan on sorted series with
        /// repeated sets and a rescue dispatch sorted in among them.
        #[test]
        fn next_charge_times_match_a_linear_scan(
            members in proptest::prop::collection::vec(proptest::prop::collection::vec(0usize..8, 0..5), 1..5),
            grid in proptest::prop::collection::vec((0.0f64..20.0, 0usize..4), 0..24),
            rescue in (0.0f64..20.0, proptest::prop::collection::vec(0usize..8, 1..4)),
            from in 0usize..26,
            asked in proptest::prop::collection::vec(0usize..8, 0..8),
        ) {
            let points: Vec<Point2> =
                (0..9).map(|i| Point2::new(f64::from(i), f64::from(i * i % 5))).collect();
            let d = DistMatrix::from_points(&points);
            let set_of = |sensors: &[usize]| {
                let mut nodes = sensors.to_vec();
                nodes.sort_unstable();
                nodes.dedup();
                nodes.insert(0, 8);
                TourSet::new(vec![Tour::new(nodes)], &d, |v| v == 8)
            };
            let mut s = ScheduleSeries::new();
            for m in &members {
                s.add_set(set_of(m));
            }
            let mut grid = grid;
            grid.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (t, k) in grid {
                s.push_dispatch(t, k % members.len());
            }
            let id = s.add_set(set_of(&rescue.1));
            s.push_dispatch(rescue.0, id);
            s.sort_by_time();
            let from = from.min(s.dispatch_count());
            let mut asked = asked;
            asked.sort_unstable();
            asked.dedup();

            let next = s.next_charge_times(from, &asked, 8);
            for (i, &got) in next.iter().enumerate() {
                let scan = s.dispatches()[from..]
                    .iter()
                    .find(|d| s.set_of(d).contains_sensor(i))
                    .map_or(f64::INFINITY, |d| d.time);
                let expected = if asked.contains(&i) { scan } else { f64::INFINITY };
                proptest::prop_assert_eq!(got, expected, "sensor {}", i);
            }
        }
    }

    #[test]
    fn append_remaps_set_indices() {
        let d = dist();
        let mut a = ScheduleSeries::new();
        let near = a.add_set(TourSet::new(vec![Tour::new(vec![2, 0])], &d, is_depot));
        a.push_dispatch(1.0, near);
        let mut b = ScheduleSeries::new();
        let both = b.add_set(TourSet::new(vec![Tour::new(vec![2, 0, 1])], &d, is_depot));
        b.push_dispatch(2.0, both);
        a.append(b);
        assert_eq!(a.dispatch_count(), 2);
        assert_eq!(a.charge_times(0), vec![1.0, 2.0]);
        assert_eq!(a.charge_times(1), vec![2.0]);
        assert_eq!(a.set_of(&a.dispatches()[1]).sensors(), &[0, 1]);
    }
}
