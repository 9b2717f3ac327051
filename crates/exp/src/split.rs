//! Range-constrained tour splitting (extension).
//!
//! The paper assumes "each mobile charger has enough energy to replenish
//! all sensors ... in each charging tour" (Section III.A); its reference
//! \[7\] (Liang et al., LCN 2014) drops that assumption and bounds each
//! vehicle trip. This module retrofits that constraint onto any tour the
//! schedulers produce: a closed tour longer than the charger's range `L`
//! is split into several depot-anchored trips, each of length `≤ L`.
//!
//! Splitting uses the *route-first, cluster-second* principle with
//! Beasley's optimal split: given the visiting order, a shortest-path DP
//! over prefixes finds the partition into feasible trips of minimum total
//! length (`O(m²)`), which dominates the naive greedy cut.

use perpetuum_core::schedule::TourSet;
use perpetuum_graph::{Metric, Tour};

/// Why a tour cannot be split within range `L`.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitError {
    /// Some sensor cannot be served even by a dedicated out-and-back trip:
    /// `2·d(depot, sensor) > L`.
    SensorOutOfRange {
        /// The unreachable sensor (node id).
        sensor: usize,
        /// Its minimal round-trip length from the tour's depot.
        round_trip: f64,
        /// The charger range.
        max_len: f64,
    },
    /// The tour has no depot (empty).
    EmptyTour,
}

impl std::fmt::Display for SplitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitError::SensorOutOfRange { sensor, round_trip, max_len } => write!(
                f,
                "sensor {sensor}: round trip {round_trip} exceeds charger range {max_len}"
            ),
            SplitError::EmptyTour => write!(f, "cannot split an empty tour"),
        }
    }
}

/// Splits `tour` (depot-first closed tour) into trips of length `≤ max_len`
/// preserving the visiting order, minimising total length via Beasley's
/// split DP. A tour already within range is returned unchanged (one trip).
///
/// ```
/// use perpetuum_exp::split::split_tour;
/// use perpetuum_geom::Point2;
/// use perpetuum_graph::{DistSource, Tour};
///
/// // Depot at the origin, two customers east and two west.
/// let points = [
///     Point2::new(0.0, 0.0),
///     Point2::new(10.0, 0.0), Point2::new(20.0, 0.0),
///     Point2::new(-10.0, 0.0), Point2::new(-20.0, 0.0),
/// ];
/// let dist = DistSource::points(&points);
/// let tour = Tour::new(vec![0, 1, 2, 3, 4]); // 80 m closed
/// let trips = split_tour(&dist, &tour, 45.0).unwrap();
/// assert_eq!(trips.len(), 2); // one trip per side, each 40 m
/// ```
pub fn split_tour<M: Metric>(dist: &M, tour: &Tour, max_len: f64) -> Result<Vec<Tour>, SplitError> {
    assert!(max_len > 0.0, "range must be positive");
    let nodes = tour.nodes();
    let Some(&depot) = nodes.first() else {
        return Err(SplitError::EmptyTour);
    };
    let customers = &nodes[1..];
    let m = customers.len();
    if m == 0 {
        return Ok(vec![Tour::singleton(depot)]);
    }
    if tour.length(dist) <= max_len {
        return Ok(vec![tour.clone()]);
    }

    // Feasibility of every customer on its own.
    for &v in customers {
        let rt = 2.0 * dist.get(depot, v);
        if rt > max_len + 1e-9 {
            return Err(SplitError::SensorOutOfRange { sensor: v, round_trip: rt, max_len });
        }
    }

    // trip_len(i, j): depot → customers[i..=j] → depot, computed
    // incrementally inside the DP loops.
    // dp[j]: minimal total length covering customers[0..j]; pred[j]: the
    // split point achieving it.
    let mut dp = vec![f64::INFINITY; m + 1];
    let mut pred = vec![usize::MAX; m + 1];
    dp[0] = 0.0;
    for i in 0..m {
        if !dp[i].is_finite() {
            continue;
        }
        // Extend a trip starting at customers[i].
        let mut inner = 0.0; // path length customers[i] → … → customers[j]
        for j in i..m {
            if j > i {
                inner += dist.get(customers[j - 1], customers[j]);
            }
            let trip = dist.get(depot, customers[i]) + inner + dist.get(customers[j], depot);
            if trip > max_len + 1e-9 {
                break; // longer trips from i only grow (triangle inequality)
            }
            let cand = dp[i] + trip;
            if cand < dp[j + 1] {
                dp[j + 1] = cand;
                pred[j + 1] = i;
            }
        }
    }
    debug_assert!(dp[m].is_finite(), "single-customer trips are always feasible");

    // Reconstruct trips.
    let mut cuts = Vec::new();
    let mut j = m;
    while j > 0 {
        let i = pred[j];
        cuts.push((i, j));
        j = i;
    }
    cuts.reverse();
    Ok(cuts
        .into_iter()
        .map(|(i, j)| {
            let mut trip = Vec::with_capacity(j - i + 1);
            trip.push(depot);
            trip.extend_from_slice(&customers[i..j]);
            Tour::new(trip)
        })
        .collect())
}

/// Per-charger trips after range-splitting a whole tour set.
#[derive(Debug, Clone)]
pub struct SplitTourSet {
    /// `trips[l]` — the trips charger `l` drives (1 when already in range).
    pub trips: Vec<Vec<Tour>>,
    /// Total distance over all trips.
    pub total: f64,
}

/// Splits every tour of a [`TourSet`] to respect the charger range.
pub fn split_tour_set<M: Metric>(
    dist: &M,
    set: &TourSet,
    max_len: f64,
) -> Result<SplitTourSet, SplitError> {
    let mut trips = Vec::with_capacity(set.tours().len());
    let mut total = 0.0;
    for tour in set.tours() {
        let split = split_tour(dist, tour, max_len)?;
        total += split.iter().map(|t| t.length(dist)).sum::<f64>();
        trips.push(split);
    }
    Ok(SplitTourSet { trips, total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_geom::Point2;
    use perpetuum_graph::DistMatrix;
    use rand::{Rng, SeedableRng};

    fn line_dist(n: usize, spacing: f64) -> DistMatrix {
        // depot at 0, customers at spacing, 2·spacing, …
        let pts: Vec<Point2> = (0..=n).map(|i| Point2::new(i as f64 * spacing, 0.0)).collect();
        DistMatrix::from_points(&pts)
    }

    #[test]
    fn tour_within_range_untouched() {
        let d = line_dist(3, 1.0);
        let tour = Tour::new(vec![0, 1, 2, 3]);
        let trips = split_tour(&d, &tour, 100.0).unwrap();
        assert_eq!(trips.len(), 1);
        assert_eq!(trips[0].nodes(), tour.nodes());
    }

    /// Depot at the origin, two customers east, two west: the full tour is
    /// 80 long but the worst round trip is only 40, so a 45-range charger
    /// must split into one trip per side.
    fn two_sided() -> (DistMatrix, Tour) {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(20.0, 0.0),
            Point2::new(-10.0, 0.0),
            Point2::new(-20.0, 0.0),
        ];
        (DistMatrix::from_points(&pts), Tour::new(vec![0, 1, 2, 3, 4]))
    }

    #[test]
    fn oversize_tour_is_split_within_range() {
        let (d, tour) = two_sided();
        assert_eq!(tour.length(&d), 80.0);
        let trips = split_tour(&d, &tour, 45.0).unwrap();
        assert_eq!(trips.len(), 2);
        for t in &trips {
            assert!(t.length(&d) <= 45.0 + 1e-9);
            assert_eq!(t.start(), Some(0));
        }
        // Coverage preserved, order preserved.
        let covered: Vec<usize> =
            trips.iter().flat_map(|t| t.nodes()[1..].iter().copied()).collect();
        assert_eq!(covered, vec![1, 2, 3, 4]);
    }

    #[test]
    fn unreachable_sensor_reported() {
        let d = line_dist(2, 30.0); // customer 2 at 60 → round trip 120
        let tour = Tour::new(vec![0, 1, 2]);
        let err = split_tour(&d, &tour, 100.0).unwrap_err();
        assert_eq!(
            err,
            SplitError::SensorOutOfRange { sensor: 2, round_trip: 120.0, max_len: 100.0 }
        );
        assert!(format!("{err}").contains("exceeds charger range"));
    }

    #[test]
    fn dp_split_no_worse_than_greedy_cut() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let pts: Vec<Point2> =
                std::iter::once(Point2::new(500.0, 500.0))
                    .chain((0..12).map(|_| {
                        Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0))
                    }))
                    .collect();
            let d = DistMatrix::from_points(&pts);
            let tour = Tour::new((0..13).collect());
            let max_len = tour.length(&d) / 2.5;
            // Some sensors may be out of range for this budget — skip.
            let Ok(trips) = split_tour(&d, &tour, max_len) else { continue };

            // Greedy cut in the same order.
            let mut greedy_total = 0.0;
            let nodes = tour.nodes();
            let mut i = 1;
            while i < nodes.len() {
                let mut j = i;
                let mut inner = 0.0;
                loop {
                    let next = j + 1;
                    if next >= nodes.len() {
                        break;
                    }
                    let grow = inner + d.get(nodes[j], nodes[next]);
                    let trip = d.get(nodes[0], nodes[i]) + grow + d.get(nodes[next], nodes[0]);
                    if trip > max_len + 1e-9 {
                        break;
                    }
                    inner = grow;
                    j = next;
                }
                greedy_total += d.get(nodes[0], nodes[i]) + inner + d.get(nodes[j], nodes[0]);
                i = j + 1;
            }
            let dp_total: f64 = trips.iter().map(|t| t.length(&d)).sum();
            assert!(dp_total <= greedy_total + 1e-6, "{dp_total} vs {greedy_total}");
        }
    }

    #[test]
    fn split_tour_set_aggregates() {
        let (d, tour) = two_sided();
        let set = TourSet::new(vec![tour], &d, |v| v == 0);
        let split = split_tour_set(&d, &set, 45.0).unwrap();
        assert_eq!(split.trips.len(), 1);
        assert!(split.trips[0].len() >= 2);
        assert!(split.total >= set.cost() - 1e-9, "splitting can't shorten");
    }

    #[test]
    fn empty_and_singleton_tours() {
        let d = line_dist(2, 1.0);
        assert_eq!(split_tour(&d, &Tour::new(vec![]), 10.0).unwrap_err(), SplitError::EmptyTour);
        let trips = split_tour(&d, &Tour::singleton(0), 10.0).unwrap();
        assert_eq!(trips.len(), 1);
        assert_eq!(trips[0].len(), 1);
    }

    #[test]
    fn tight_range_forces_one_trip_per_sensor() {
        let d = line_dist(3, 10.0);
        let tour = Tour::new(vec![0, 1, 2, 3]);
        // Range just enough for the farthest round trip (60).
        let trips = split_tour(&d, &tour, 60.0).unwrap();
        for t in &trips {
            assert!(t.length(&d) <= 60.0 + 1e-9);
        }
        let covered: Vec<usize> =
            trips.iter().flat_map(|t| t.nodes()[1..].iter().copied()).collect();
        assert_eq!(covered, vec![1, 2, 3]);
    }
}
