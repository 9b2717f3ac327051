//! The network model of Section III: sensors, depots and the metric
//! complete graph `G = (V ∪ R, E; w)` over them.

use perpetuum_geom::Point2;
use perpetuum_graph::DistSource;

/// A sensor index, `0..n`.
pub(crate) type SensorId = usize;

/// The geometry of a WSN charging problem: sensor and depot positions,
/// whose Euclidean metric closure is the complete graph the planners run
/// on. Distances are computed on demand ([`Network::dist_source`]); no
/// `Θ((n+q)²)` matrix is ever stored.
///
/// Node-id convention used across the whole workspace: node `i < n` is
/// sensor `i`; node `n + l` is depot `l` (`0 ≤ l < q`). Charging cycles are
/// deliberately *not* part of this type — the fixed-cycle planners take an
/// [`Instance`], while the variable-cycle machinery re-estimates cycles
/// continuously and passes them explicitly.
#[derive(Debug, Clone)]
pub struct Network {
    sensor_pos: Vec<Point2>,
    depot_pos: Vec<Point2>,
    /// All node positions in id order (sensors then depots) — the backing
    /// store of [`Network::dist_source`].
    all_pos: Vec<Point2>,
}

impl Network {
    /// Builds the network over `sensors ∪ depots`.
    ///
    /// # Panics
    /// Panics when there are no depots (the paper requires `q ≥ 1`) or any
    /// coordinate is non-finite.
    pub fn new(sensors: Vec<Point2>, depots: Vec<Point2>) -> Self {
        assert!(!depots.is_empty(), "at least one depot (mobile charger) is required");
        assert!(
            sensors.iter().chain(depots.iter()).all(|p| p.is_finite()),
            "positions must be finite"
        );
        let all: Vec<Point2> = sensors.iter().chain(depots.iter()).copied().collect();
        Self { sensor_pos: sensors, depot_pos: depots, all_pos: all }
    }

    /// Number of sensors `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.sensor_pos.len()
    }

    /// Number of depots / mobile chargers `q`.
    #[inline]
    pub fn q(&self) -> usize {
        self.depot_pos.len()
    }

    /// Total node count `n + q`.
    #[inline]
    pub(crate) fn node_count(&self) -> usize {
        self.n() + self.q()
    }

    /// Node id of sensor `i`.
    #[inline]
    pub fn sensor_node(&self, i: SensorId) -> usize {
        debug_assert!(i < self.n());
        i
    }

    /// Node id of depot `l`.
    #[inline]
    pub fn depot_node(&self, l: usize) -> usize {
        debug_assert!(l < self.q());
        self.n() + l
    }

    /// All depot node ids, in depot order.
    pub fn depot_nodes(&self) -> Vec<usize> {
        (self.n()..self.node_count()).collect()
    }

    /// True when `node` is a depot.
    #[inline]
    pub fn is_depot(&self, node: usize) -> bool {
        node >= self.n() && node < self.node_count()
    }

    /// Position of sensor `i`.
    #[inline]
    pub fn sensor_pos(&self, i: SensorId) -> Point2 {
        self.sensor_pos[i]
    }

    /// All sensor positions.
    #[inline]
    pub fn sensor_positions(&self) -> &[Point2] {
        &self.sensor_pos
    }

    /// Position of depot `l`.
    #[inline]
    pub fn depot_pos(&self, l: usize) -> Point2 {
        self.depot_pos[l]
    }

    /// All `n + q` node positions in node-id order (sensors then depots).
    #[inline]
    pub fn points(&self) -> &[Point2] {
        &self.all_pos
    }

    /// The distance source over all `n + q` nodes: Euclidean distances
    /// computed on demand from [`Network::points`].
    #[inline]
    pub fn dist_source(&self) -> DistSource<'_> {
        DistSource::points(&self.all_pos)
    }
}

/// A fixed-maximum-charging-cycle problem instance (Section V): the
/// network, a cycle `τ_i > 0` per sensor, and the monitoring period `T`.
#[derive(Debug, Clone)]
pub struct Instance {
    network: Network,
    cycles: Vec<f64>,
    horizon: f64,
}

impl Instance {
    /// # Panics
    /// Panics when `cycles.len() != network.n()`, any cycle is not strictly
    /// positive and finite, or the horizon is not positive.
    pub fn new(network: Network, cycles: Vec<f64>, horizon: f64) -> Self {
        assert_eq!(cycles.len(), network.n(), "one maximum charging cycle per sensor");
        assert!(
            cycles.iter().all(|&t| t > 0.0 && t.is_finite()),
            "cycles must be positive and finite"
        );
        assert!(horizon > 0.0 && horizon.is_finite(), "horizon must be positive");
        Self { network, cycles, horizon }
    }

    /// The underlying network geometry.
    #[inline]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Maximum charging cycles `τ_i`.
    #[inline]
    pub fn cycles(&self) -> &[f64] {
        &self.cycles
    }

    /// Monitoring period `T`.
    #[inline]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Shorthand for `network().n()`.
    #[inline]
    pub fn n(&self) -> usize {
        self.network.n()
    }

    /// Shorthand for `network().q()`.
    #[inline]
    pub fn q(&self) -> usize {
        self.network.q()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        Network::new(
            vec![Point2::new(1.0, 0.0), Point2::new(0.0, 2.0)],
            vec![Point2::new(0.0, 0.0), Point2::new(5.0, 5.0)],
        )
    }

    #[test]
    fn node_id_convention() {
        let net = tiny();
        assert_eq!(net.n(), 2);
        assert_eq!(net.q(), 2);
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.sensor_node(1), 1);
        assert_eq!(net.depot_node(0), 2);
        assert_eq!(net.depot_nodes(), vec![2, 3]);
        assert!(!net.is_depot(1));
        assert!(net.is_depot(2));
        assert!(!net.is_depot(4));
    }

    #[test]
    fn distances_cover_sensor_depot_pairs() {
        use perpetuum_graph::Metric;
        let net = tiny();
        let src = net.dist_source();
        assert_eq!(src.get(0, 2), 1.0); // sensor 0 to depot 0
        assert_eq!(src.get(1, 2), 2.0); // sensor 1 to depot 0
        assert_eq!(Metric::len(&src), 4);
    }

    #[test]
    fn sparse_network_serves_identical_distances() {
        // On-demand distances equal the dense metric closure bit for bit.
        use perpetuum_graph::{DistMatrix, Metric};
        let net = tiny();
        let dense = DistMatrix::from_points(net.points());
        assert!(dense.is_metric(1e-9));
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(dense.get(i, j), net.dist_source().get(i, j), "({i},{j})");
            }
        }
        assert_eq!(net.dist_source().positions(), net.points());
    }

    #[test]
    fn zero_sensor_network_is_allowed() {
        let net = Network::new(vec![], vec![Point2::ORIGIN]);
        assert_eq!(net.n(), 0);
        assert_eq!(net.depot_nodes(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one depot")]
    fn rejects_zero_depots() {
        Network::new(vec![Point2::ORIGIN], vec![]);
    }

    #[test]
    fn instance_validation() {
        let inst = Instance::new(tiny(), vec![1.0, 4.0], 100.0);
        assert_eq!(inst.cycles(), &[1.0, 4.0]);
        assert_eq!(inst.horizon(), 100.0);
        assert_eq!(inst.n(), 2);
        assert_eq!(inst.q(), 2);
    }

    #[test]
    #[should_panic(expected = "one maximum charging cycle per sensor")]
    fn instance_rejects_wrong_cycle_count() {
        Instance::new(tiny(), vec![1.0], 100.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn instance_rejects_nonpositive_cycle() {
        Instance::new(tiny(), vec![1.0, 0.0], 100.0);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn instance_rejects_bad_horizon() {
        Instance::new(tiny(), vec![1.0, 1.0], 0.0);
    }
}
