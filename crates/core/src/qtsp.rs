//! **Algorithm 2** — the 2-approximate `q`-rooted TSP.
//!
//! Find `q` closed tours, one through each depot, jointly covering a given
//! sensor set, of minimum total length. The paper's 2-approximation:
//!
//! 1. compute the optimal `q`-rooted MSF (Algorithm 1, [`crate::qmsf`]),
//! 2. double each tree's edges, extract an Euler circuit from the depot,
//!    and shortcut repeated nodes.
//!
//! The MSF weight lower-bounds the optimal tour cost (drop one edge per
//! optimal tour and you get a feasible forest), and doubling at most
//! doubles it — Theorem 1.
//!
//! This module is the construction only. Tour improvement is a separate
//! layer over any construction: the `perpetuum-opt` refiner, reached
//! through [`mod@crate::refine`]. Its moves are strict improvements, so a
//! refined plan keeps Theorem 1's bound.

use crate::qmsf::{q_rooted_msf_src, ForestEdge};
use perpetuum_graph::euler::{double_edges, euler_circuit};
use perpetuum_graph::tsp_christofides::tour_from_tree_matched;
use perpetuum_graph::tsp_savings::savings_tour;
use perpetuum_graph::{DistSource, Metric, Tour};

/// How each MSF tree is turned into a closed tour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// The paper's Algorithm 2: double the tree, Euler circuit, shortcut.
    /// Carries the provable 2× bound.
    #[default]
    Doubling,
    /// Christofides-style: tree + greedy minimum matching over its
    /// odd-degree vertices, Euler circuit, shortcut. Empirically shorter;
    /// still within the doubling bound (a matching never outweighs the
    /// tree). Routing-ablation only — not part of the paper's algorithm.
    Matching,
    /// Clarke–Wright savings construction over each MSF group's sensor
    /// set (only the group membership comes from Algorithm 1; the tour is
    /// built from scratch). No approximation guarantee; routing-ablation
    /// only.
    Savings,
}

/// The `q` closed tours produced by Algorithm 2.
#[derive(Debug, Clone)]
pub struct QTours {
    /// `tours[l]` starts at root `l` (as a node id of the host graph). A
    /// charger with nothing to do gets a singleton tour of its depot.
    pub tours: Vec<Tour>,
    /// `tour_lengths[l]` — length of `tours[l]`.
    pub tour_lengths: Vec<f64>,
    /// Total length of all tours (the sum of `tour_lengths`).
    pub cost: f64,
}

impl QTours {
    /// Recomputes the total length (used by tests to cross-check `cost`).
    pub fn total_length<M: Metric>(&self, dist: &M) -> f64 {
        self.tours.iter().map(|t| t.length(dist)).sum()
    }

    /// All sensor node ids covered, ascending. `roots` is consulted to
    /// exclude depots.
    pub fn covered_nodes(&self, is_root: impl Fn(usize) -> bool) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .tours
            .iter()
            .flat_map(|t| t.nodes().iter().copied())
            .filter(|&n| !is_root(n))
            .collect();
        v.sort_unstable();
        v
    }
}

/// **Algorithm 2** on a host graph: closed tours over `terminals`, one per
/// root in `roots` (node ids of `src`).
///
/// ```
/// use perpetuum_core::qtsp::q_rooted_tsp_src;
/// use perpetuum_geom::Point2;
/// use perpetuum_graph::DistSource;
///
/// // Nodes 0–2 are sensors, 3 and 4 are depots.
/// let points = [
///     Point2::new(10.0, 0.0),
///     Point2::new(20.0, 0.0),
///     Point2::new(90.0, 0.0),
///     Point2::new(0.0, 0.0),   // depot A
///     Point2::new(100.0, 0.0), // depot B
/// ];
/// let tours = q_rooted_tsp_src(&DistSource::points(&points), &[0, 1, 2], &[3, 4]);
/// assert_eq!(tours.tours.len(), 2);
/// // Near sensors go to depot A, the far one to depot B.
/// assert_eq!(tours.tours[0].nodes(), &[3, 0, 1]);
/// assert_eq!(tours.tours[1].nodes(), &[4, 2]);
/// assert!((tours.cost - (40.0 + 20.0)).abs() < 1e-9);
/// ```
pub fn q_rooted_tsp_src(src: &DistSource<'_>, terminals: &[usize], roots: &[usize]) -> QTours {
    q_rooted_tsp_routed_src(src, terminals, roots, Routing::Doubling)
}

/// [`q_rooted_tsp_src`] with an explicit tree-to-tour [`Routing`], with
/// per-root tours
/// built in parallel.
///
/// Each root's tour (edge mapping, Euler circuit / matching / savings)
/// depends only on its own tree, so the per-root computations are
/// embarrassingly parallel; results are collected in root order and the
/// cost is summed in that same order, making the output **bit-identical**
/// to the sequential loop for any worker count.
pub fn q_rooted_tsp_routed_src(
    src: &DistSource<'_>,
    terminals: &[usize],
    roots: &[usize],
    routing: Routing,
) -> QTours {
    let workers = default_tour_workers(terminals.len(), roots.len());
    q_rooted_tsp_routed_src_workers(src, terminals, roots, routing, workers)
}

/// The worker count the parallel per-root tour build defaults to.
///
/// Thread spawn costs ~tens of µs; below `PAR_TERMINALS_THRESHOLD`
/// terminals the whole per-root build is cheaper than that, so stay
/// sequential (the result is identical either way — see
/// [`q_rooted_tsp_routed_src`]).
pub(crate) fn default_tour_workers(terminal_count: usize, root_count: usize) -> usize {
    const PAR_TERMINALS_THRESHOLD: usize = 256;
    if terminal_count >= PAR_TERMINALS_THRESHOLD {
        perpetuum_par::default_workers(root_count)
    } else {
        1
    }
}

/// [`q_rooted_tsp_src`] that also returns the underlying Algorithm-1
/// forest — the seeding hook for incremental replanning
/// ([`crate::incremental`]), which must cache the forest a plan's tours
/// were built from so later migrations can splice it instead of re-running
/// Prim. Bit-identical to [`q_rooted_tsp_src`] (same forest, same per-root
/// build).
pub fn q_rooted_tsp_with_forest_src(
    src: &DistSource<'_>,
    terminals: &[usize],
    roots: &[usize],
) -> (QTours, crate::qmsf::RootedForest) {
    let forest = q_rooted_msf_src(src, terminals, roots);
    let workers = default_tour_workers(terminals.len(), roots.len());
    let qt = tours_for_forest(src, &forest, terminals, roots, Routing::Doubling, workers);
    (qt, forest)
}

/// [`q_rooted_tsp_routed_src`] with an explicit worker count — the parity
/// tests use it to pin sequential vs parallel runs against each other.
#[doc(hidden)]
pub fn q_rooted_tsp_routed_src_workers(
    src: &DistSource<'_>,
    terminals: &[usize],
    roots: &[usize],
    routing: Routing,
    workers: usize,
) -> QTours {
    debug_assert!(
        terminals.iter().all(|t| !roots.contains(t)),
        "terminals and roots must be disjoint"
    );
    let forest = q_rooted_msf_src(src, terminals, roots);
    tours_for_forest(src, &forest, terminals, roots, routing, workers)
}

/// [`tours_for_forest`] under its earlier signature, which carried a
/// tour-polish round count. Algorithm 2 no longer improves tours (refine
/// the result with [`mod@crate::refine`] instead), so `polish_rounds` must be
/// `0`; the slot stays so callers written against that signature still
/// build.
///
/// # Panics
/// When `polish_rounds != 0`.
#[doc(hidden)]
pub fn tours_for_forest_src(
    src: &DistSource<'_>,
    forest: &crate::qmsf::RootedForest,
    terminals: &[usize],
    roots: &[usize],
    routing: Routing,
    polish_rounds: usize,
    workers: usize,
) -> QTours {
    assert_eq!(polish_rounds, 0, "Algorithm 2 no longer polishes; refine the tours instead");
    tours_for_forest(src, forest, terminals, roots, routing, workers)
}

/// The tour-construction half of Algorithm 2: turns an already-computed
/// `q`-rooted forest into per-root closed tours. Split out of
/// [`q_rooted_tsp_routed_src_workers`] so the incremental replanner can
/// re-route a spliced forest without recomputing it.
pub fn tours_for_forest(
    src: &DistSource<'_>,
    forest: &crate::qmsf::RootedForest,
    terminals: &[usize],
    roots: &[usize],
    routing: Routing,
    workers: usize,
) -> QTours {
    let groups = forest.terminals_by_root();
    let node_count = src.len();

    let build_tour = |r: usize| -> Tour {
        let root_node = roots[r];
        let edges: Vec<(usize, usize)> = forest.trees[r]
            .iter()
            .map(|e| match *e {
                ForestEdge::TermTerm(a, b) => (terminals[a], terminals[b]),
                ForestEdge::RootTerm(_, t) => (root_node, terminals[t]),
            })
            .collect();
        if edges.is_empty() {
            return Tour::singleton(root_node);
        }
        let tour = match routing {
            Routing::Doubling => tour_from_tree_doubling(&edges, root_node),
            Routing::Matching => tour_from_tree_matched(src, node_count, &edges, root_node),
            Routing::Savings => {
                let customers: Vec<usize> = groups[r].iter().map(|&t| terminals[t]).collect();
                savings_tour(src, root_node, &customers)
            }
        };
        debug_assert_eq!(tour.start(), Some(root_node));
        tour
    };

    let tours = perpetuum_par::par_map_indexed(roots.len(), workers, build_tour);
    let tour_lengths: Vec<f64> = tours.iter().map(|t| t.length(src)).collect();
    let cost = tour_lengths.iter().sum();
    QTours { tours, tour_lengths, cost }
}

/// The paper's tree-to-tour step for a single root: double the tree's
/// edges, walk an Euler circuit from the root, shortcut repeated nodes.
///
/// `edges` are the tree's edges in *host node-id* space and must form one
/// tree containing `root_node`; an empty edge list yields a singleton tour.
/// This is the exact Doubling arm of [`q_rooted_tsp_routed_src`], exposed
/// so the incremental replanner can rebuild a single root's tour from a
/// spliced forest tree (its fallback when warm-start repair loses to a
/// fresh construction).
pub fn tour_from_tree_doubling(edges: &[(usize, usize)], root_node: usize) -> Tour {
    if edges.is_empty() {
        return Tour::singleton(root_node);
    }
    // Relabel this root's tree onto a compact node space before the Euler
    // walk: the walk only touches the tree's own nodes, but `euler_circuit`
    // allocates adjacency for every node id below its bound. In-sim replans
    // route small batches through here every polling tick, and paying
    // O(network) per root would dwarf the batch itself. The relabeling is
    // an isomorphism that preserves edge order, so the circuit (and hence
    // the tour) is unchanged.
    let mut locals: Vec<usize> = vec![root_node];
    let mut index = std::collections::HashMap::with_capacity(edges.len() + 1);
    index.insert(root_node, 0usize);
    let compact: Vec<(usize, usize)> = edges
        .iter()
        .map(|&(u, v)| {
            (compact_id(u, &mut index, &mut locals), compact_id(v, &mut index, &mut locals))
        })
        .collect();
    let doubled = double_edges(&compact);
    let circuit = euler_circuit(locals.len(), &doubled, 0)
        .expect("a doubled tree always has an Euler circuit from its root");
    let walk: Vec<usize> = circuit.iter().map(|&v| locals[v]).collect();
    Tour::shortcut(&walk)
}

/// Dense-index helper for the Euler relabeling above: the id of `x` in the
/// compact space, allocating the next one on first sight.
fn compact_id(
    x: usize,
    index: &mut std::collections::HashMap<usize, usize>,
    locals: &mut Vec<usize>,
) -> usize {
    *index.entry(x).or_insert_with(|| {
        locals.push(x);
        locals.len() - 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qmsf::{q_rooted_msf_src, rooted_msf_general};
    use perpetuum_geom::Point2;
    use perpetuum_graph::tsp_exact::held_karp;
    use perpetuum_graph::DistMatrix;

    fn host(sensors: &[Point2], depots: &[Point2]) -> Vec<Point2> {
        sensors.iter().chain(depots.iter()).copied().collect()
    }

    #[test]
    fn empty_terminals_gives_singleton_tours() {
        let pts = host(&[], &[Point2::ORIGIN, Point2::new(1.0, 1.0)]);
        let dist = DistSource::points(&pts);
        let qt = q_rooted_tsp_src(&dist, &[], &[0, 1]);
        assert_eq!(qt.cost, 0.0);
        assert_eq!(qt.tours.len(), 2);
        assert!(qt.tours.iter().all(|t| t.len() == 1));
    }

    #[test]
    fn single_sensor_out_and_back() {
        let pts = host(&[Point2::new(3.0, 4.0)], &[Point2::ORIGIN]);
        let dist = DistSource::points(&pts);
        let qt = q_rooted_tsp_src(&dist, &[0], &[1]);
        assert!((qt.cost - 10.0).abs() < 1e-9);
        assert_eq!(qt.tours[0].nodes(), &[1, 0]);
    }

    #[test]
    fn tours_start_at_their_roots_and_cover_terminals() {
        let sensors: Vec<Point2> = (0..10)
            .map(|i| Point2::new((i * 13 % 7) as f64 * 30.0, (i * 7 % 5) as f64 * 40.0))
            .collect();
        let depots = vec![Point2::new(0.0, 0.0), Point2::new(200.0, 200.0)];
        let pts = host(&sensors, &depots);
        let dist = DistSource::points(&pts);
        let terminals: Vec<usize> = (0..10).collect();
        let roots = vec![10, 11];
        let qt = q_rooted_tsp_src(&dist, &terminals, &roots);
        for (l, t) in qt.tours.iter().enumerate() {
            assert_eq!(t.start(), Some(roots[l]));
        }
        assert_eq!(qt.covered_nodes(|n| n >= 10), terminals);
        assert!((qt.cost - qt.total_length(&dist)).abs() < 1e-9);
    }

    #[test]
    fn cost_within_twice_msf_weight() {
        let sensors: Vec<Point2> = (0..15)
            .map(|i| Point2::new(((i * 37) % 101) as f64 * 9.0, ((i * 53) % 97) as f64 * 10.0))
            .collect();
        let depots =
            vec![Point2::new(100.0, 100.0), Point2::new(800.0, 100.0), Point2::new(450.0, 800.0)];
        let pts = host(&sensors, &depots);
        let dist = DistSource::points(&pts);
        let terminals: Vec<usize> = (0..15).collect();
        let roots = vec![15, 16, 17];
        let forest = q_rooted_msf_src(&dist, &terminals, &roots);
        let qt = q_rooted_tsp_src(&dist, &terminals, &roots);
        assert!(qt.cost <= 2.0 * forest.weight + 1e-9);
        // MSF also lower-bounds the tour cost itself.
        assert!(qt.cost >= forest.weight - 1e-9);
    }

    #[test]
    fn q1_within_twice_exact_optimum() {
        // With q = 1 the problem is plain TSP; compare against Held–Karp.
        for seed in 0..4u64 {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sensors: Vec<Point2> = (0..9)
                .map(|_| Point2::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0)))
                .collect();
            let depot = vec![Point2::new(250.0, 250.0)];
            let pts = host(&sensors, &depot);
            let dist = DistSource::points(&pts);
            let terminals: Vec<usize> = (0..9).collect();
            let qt = q_rooted_tsp_src(&dist, &terminals, &[9]);
            // Full-graph TSP (all 10 nodes) is the q=1 optimum.
            let (_, opt) = held_karp(&DistMatrix::from_points(&pts));
            assert!(qt.cost <= 2.0 * opt + 1e-9, "seed {seed}: approx {} vs opt {opt}", qt.cost);
            assert!(qt.cost >= opt - 1e-9);
        }
    }

    #[test]
    fn polish_never_worsens() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sensors: Vec<Point2> = (0..25)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let depots = vec![Point2::new(500.0, 500.0), Point2::new(0.0, 0.0)];
        let pts = host(&sensors, &depots);
        let dist = DistSource::points(&pts);
        let terminals: Vec<usize> = (0..25).collect();
        let plain = q_rooted_tsp_src(&dist, &terminals, &[25, 26]);
        // The polish is the refiner run to a local optimum over the family.
        let family: Vec<Vec<usize>> = plain.tours.iter().map(|t| t.nodes().to_vec()).collect();
        let mut refiner = perpetuum_opt::Refiner::new(family, &dist, 0);
        assert!(refiner.run(&perpetuum_opt::Budget::steps(1_000_000)).converged);
        let polished = refiner.into_tours();
        let cost: f64 = polished.iter().map(|t| t.length(&dist)).sum();
        assert!(cost <= plain.cost + 1e-9);
        // Polishing preserves coverage and roots.
        let mut covered: Vec<usize> =
            polished.iter().flat_map(|t| t.nodes()[1..].iter().copied()).collect();
        covered.sort_unstable();
        assert_eq!(covered, terminals);
        assert_eq!(polished[0].start(), Some(25));
        assert_eq!(polished[1].start(), Some(26));
    }

    #[test]
    fn matching_routing_covers_and_stays_within_doubling_bound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let sensors: Vec<Point2> = (0..20)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let depots = vec![Point2::new(500.0, 500.0), Point2::new(0.0, 0.0)];
        let pts = host(&sensors, &depots);
        let dist = DistSource::points(&pts);
        let terminals: Vec<usize> = (0..20).collect();
        let roots = vec![20, 21];
        let forest = q_rooted_msf_src(&dist, &terminals, &roots);
        let matched = q_rooted_tsp_routed_src(&dist, &terminals, &roots, Routing::Matching);
        assert_eq!(matched.covered_nodes(|n| n >= 20), terminals);
        assert!(matched.cost <= 2.0 * forest.weight + 1e-9);
        for (l, t) in matched.tours.iter().enumerate() {
            assert_eq!(t.start(), Some(roots[l]));
        }
    }

    #[test]
    fn savings_routing_covers_and_competes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let sensors: Vec<Point2> = (0..25)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let depots = vec![Point2::new(500.0, 500.0), Point2::new(100.0, 100.0)];
        let pts = host(&sensors, &depots);
        let dist = DistSource::points(&pts);
        let terminals: Vec<usize> = (0..25).collect();
        let roots = vec![25, 26];
        let saved = q_rooted_tsp_routed_src(&dist, &terminals, &roots, Routing::Savings);
        assert_eq!(saved.covered_nodes(|n| n >= 25), terminals);
        for (l, t) in saved.tours.iter().enumerate() {
            assert_eq!(t.start(), Some(roots[l]));
        }
        // No guarantee, but it should at least beat the star bound.
        let star: f64 = terminals
            .iter()
            .map(|&s| 2.0 * roots.iter().map(|&r| dist.get(s, r)).fold(f64::INFINITY, f64::min))
            .sum();
        assert!(saved.cost <= star + 1e-9);
    }

    #[test]
    fn matching_routing_beats_doubling_on_average() {
        use rand::{Rng, SeedableRng};
        let mut matched_total = 0.0;
        let mut doubled_total = 0.0;
        for seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 300);
            let sensors: Vec<Point2> = (0..30)
                .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect();
            let depots = vec![Point2::new(500.0, 500.0)];
            let pts = host(&sensors, &depots);
            let dist = DistSource::points(&pts);
            let terminals: Vec<usize> = (0..30).collect();
            matched_total +=
                q_rooted_tsp_routed_src(&dist, &terminals, &[30], Routing::Matching).cost;
            doubled_total += q_rooted_tsp_src(&dist, &terminals, &[30]).cost;
        }
        assert!(
            matched_total < doubled_total,
            "matched {matched_total} vs doubled {doubled_total}"
        );
    }

    #[test]
    fn parallel_per_root_tours_are_bit_identical() {
        // Above the parallel threshold, any worker count must reproduce the
        // sequential result exactly — same tours, same cost bits.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let n = 300;
        let sensors: Vec<Point2> = (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let depots = vec![
            Point2::new(100.0, 100.0),
            Point2::new(900.0, 100.0),
            Point2::new(500.0, 900.0),
            Point2::new(500.0, 500.0),
        ];
        let pts = host(&sensors, &depots);
        let dist = DistSource::points(&pts);
        let src = dist;
        let terminals: Vec<usize> = (0..n).collect();
        let roots: Vec<usize> = (n..n + 4).collect();
        for routing in [Routing::Doubling, Routing::Matching, Routing::Savings] {
            let seq = q_rooted_tsp_routed_src_workers(&src, &terminals, &roots, routing, 1);
            for workers in [2, 4, 7] {
                let par =
                    q_rooted_tsp_routed_src_workers(&src, &terminals, &roots, routing, workers);
                assert_eq!(seq.cost.to_bits(), par.cost.to_bits(), "{routing:?}/{workers}");
                for (a, b) in seq.tours.iter().zip(&par.tours) {
                    assert_eq!(a.nodes(), b.nodes(), "{routing:?}/{workers}");
                }
            }
        }
    }

    #[test]
    fn sparse_source_matches_dense_pipeline() {
        // The pipeline's forest is the dense oracle's forest (asserted in
        // qmsf::tests), so the tours built from either serve the same
        // sensors from the same depots. Edge order differs between the two
        // constructions, so Euler shortcutting may visit them in another —
        // equally valid — order; both stay within [MSF, 2×MSF].
        use rand::{Rng, SeedableRng};
        for seed in 0..5u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 900);
            let n = 60;
            let sensors: Vec<Point2> = (0..n)
                .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect();
            let depots = [Point2::new(250.0, 250.0), Point2::new(750.0, 750.0)];
            let all = host(&sensors, &depots);
            let src = DistSource::points(&all);
            let terminals: Vec<usize> = (0..n).collect();
            let roots = vec![n, n + 1];
            let root_dist: Vec<Vec<f64>> =
                roots.iter().map(|&r| sensors.iter().map(|p| all[r].dist(*p)).collect()).collect();
            let oracle = rooted_msf_general(&DistMatrix::from_points(&sensors), &root_dist);
            let reference =
                tours_for_forest(&src, &oracle, &terminals, &roots, Routing::Doubling, 1);
            let pipeline = q_rooted_tsp_src(&src, &terminals, &roots);
            for (a, b) in reference.tours.iter().zip(&pipeline.tours) {
                let (mut a, mut b) = (a.nodes().to_vec(), b.nodes().to_vec());
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "seed {seed}");
            }
            for (label, qt) in [("reference", &reference), ("pipeline", &pipeline)] {
                assert!(qt.cost <= 2.0 * oracle.weight + 1e-9, "seed {seed} {label}");
                assert!(qt.cost >= oracle.weight - 1e-9, "seed {seed} {label}");
            }
        }
    }

    #[test]
    fn far_sensor_goes_to_near_depot() {
        // One sensor next to depot 1 must not be toured by depot 0.
        let pts =
            host(&[Point2::new(99.0, 0.0)], &[Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)]);
        let qt = q_rooted_tsp_src(&DistSource::points(&pts), &[0], &[1, 2]);
        assert_eq!(qt.tours[0].len(), 1);
        assert_eq!(qt.tours[1].nodes(), &[2, 0]);
        assert!((qt.cost - 2.0).abs() < 1e-9);
    }
}
