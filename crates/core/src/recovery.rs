//! Degraded-mode recovery planning: re-route orphaned sensors onto the
//! surviving depot subset.
//!
//! When a mobile charger breaks down mid-period, the sensors its aborted
//! tours would have served (its *orphans*) still face hard charging
//! deadlines. The recovery planner re-solves Algorithm 2 over exactly the
//! orphaned sensor set, restricted to the roots whose chargers are still
//! up — the `q`-rooted machinery ([`crate::qtsp::q_rooted_tsp_src`], and
//! through it Algorithm 1's super-root kernel) already accepts an
//! arbitrary root subset, so a degraded plan costs the same near-linear
//! pipeline as a healthy one. The result
//! is expanded back to a full `q`-tour [`TourSet`] (down chargers get
//! singleton depot tours) so the simulation engine's per-charger
//! accounting stays positional.

use crate::network::{Network, SensorId};
use crate::qtsp::{q_rooted_tsp_src, QTours};
use crate::schedule::TourSet;
use perpetuum_graph::Tour;

/// Indices of the depots whose chargers are up. `alive[l]` corresponds to
/// depot `l`.
pub(crate) fn surviving_depots(alive: &[bool]) -> Vec<usize> {
    alive.iter().enumerate().filter_map(|(l, &up)| up.then_some(l)).collect()
}

/// Plans one emergency charging scheduling covering `sensors` using only
/// the chargers marked up in `alive` (indexed by depot, `alive.len()`
/// must equal `network.q()`).
///
/// Returns `None` when no charger is up — the caller must retry later.
/// Otherwise the returned [`TourSet`] has exactly `q` tours in depot
/// order; every down charger's tour is an idle singleton of its depot, so
/// the set plugs into the engine's dispatch path unchanged.
///
/// # Panics
/// Panics when `alive.len() != network.q()` or any sensor id is out of
/// range.
pub fn degraded_tour_set(
    network: &Network,
    sensors: &[SensorId],
    alive: &[bool],
) -> Option<TourSet> {
    let q = network.q();
    assert_eq!(alive.len(), q, "one liveness flag per depot");
    assert!(sensors.iter().all(|&s| s < network.n()), "sensor id out of range");
    let up = surviving_depots(alive);
    if up.is_empty() {
        return None;
    }
    let roots: Vec<usize> = up.iter().map(|&l| network.depot_node(l)).collect();
    let terminals: Vec<usize> = sensors.iter().map(|&s| network.sensor_node(s)).collect();
    let sub = q_rooted_tsp_src(&network.dist_source(), &terminals, &roots);

    // Expand the |up|-tour solution back to q positional tours.
    let mut tours = Vec::with_capacity(q);
    let mut tour_lengths = Vec::with_capacity(q);
    let mut it = sub.tours.into_iter().zip(sub.tour_lengths);
    for (l, &is_up) in alive.iter().enumerate() {
        if is_up {
            let (tour, len) = it.next().expect("one sub-tour per surviving depot");
            tours.push(tour);
            tour_lengths.push(len);
        } else {
            tours.push(Tour::singleton(network.depot_node(l)));
            tour_lengths.push(0.0);
        }
    }
    let qt = QTours { tours, tour_lengths, cost: sub.cost };
    Some(TourSet::from_qtours(qt, |v| network.is_depot(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_geom::Point2;

    /// 4 sensors on a line, depots at both ends.
    fn net() -> Network {
        let sensors: Vec<Point2> = (1..=4).map(|i| Point2::new(i as f64 * 20.0, 0.0)).collect();
        Network::new(sensors, vec![Point2::ORIGIN, Point2::new(100.0, 0.0)])
    }

    #[test]
    fn surviving_depots_filters() {
        assert_eq!(surviving_depots(&[true, false, true]), vec![0, 2]);
        assert!(surviving_depots(&[false]).is_empty());
    }

    #[test]
    fn all_up_covers_with_both_chargers() {
        let n = net();
        let set = degraded_tour_set(&n, &[0, 1, 2, 3], &[true, true]).unwrap();
        assert_eq!(set.tours().len(), 2);
        assert_eq!(set.sensors(), &[0, 1, 2, 3]);
        assert_eq!(set.tours()[0].start(), Some(n.depot_node(0)));
        assert_eq!(set.tours()[1].start(), Some(n.depot_node(1)));
    }

    #[test]
    fn down_charger_gets_idle_singleton_and_survivor_covers_all() {
        let n = net();
        let set = degraded_tour_set(&n, &[0, 1, 2, 3], &[false, true]).unwrap();
        assert_eq!(set.tours().len(), 2, "positional q-tour shape is preserved");
        assert_eq!(set.tours()[0].nodes(), &[n.depot_node(0)]);
        assert_eq!(set.tour_lengths()[0], 0.0);
        assert_eq!(set.sensors(), &[0, 1, 2, 3]);
        // All coverage rides the surviving depot's tour.
        assert_eq!(set.tours()[1].start(), Some(n.depot_node(1)));
        assert!((set.cost() - set.tour_lengths()[1]).abs() < 1e-12);
        // Farthest orphan from depot 1 is sensor 0 at x = 20: out-and-back
        // lower-bounds the tour.
        assert!(set.cost() >= 2.0 * 80.0 - 1e-9);
    }

    #[test]
    fn no_survivors_returns_none() {
        let n = net();
        assert!(degraded_tour_set(&n, &[0, 1], &[false, false]).is_none());
    }

    #[test]
    fn empty_orphan_set_is_all_idle() {
        let n = net();
        let set = degraded_tour_set(&n, &[], &[true, false]).unwrap();
        assert!(set.is_idle());
        assert_eq!(set.cost(), 0.0);
        assert_eq!(set.tours().len(), 2);
    }

    #[test]
    fn sparse_network_plans_without_dense_matrix() {
        let sensors: Vec<Point2> =
            (1..=6).map(|i| Point2::new(i as f64 * 15.0, (i % 2) as f64 * 10.0)).collect();
        let net = Network::new(sensors, vec![Point2::ORIGIN, Point2::new(120.0, 0.0)]);
        let set = degraded_tour_set(&net, &[1, 3, 5], &[true, false]).unwrap();
        assert_eq!(set.sensors(), &[1, 3, 5]);
        assert_eq!(set.tours()[1].nodes(), &[net.depot_node(1)], "the down charger idles");
    }

    #[test]
    fn subset_matches_direct_qtsp_on_surviving_roots() {
        let n = net();
        let set = degraded_tour_set(&n, &[1, 2], &[true, false]).unwrap();
        let direct = crate::qtsp::q_rooted_tsp_src(&n.dist_source(), &[1, 2], &[n.depot_node(0)]);
        assert!((set.cost() - direct.cost).abs() < 1e-12);
    }
}
