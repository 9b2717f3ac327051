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
//! Tree doubling is the only tree-to-tour step here: Theorem 1 is a
//! property of it, and Algorithm 3's `2(K+2)` bound rests on Theorem 1.
//! The matching and savings constructions the routing ablation compares
//! it with live in `perpetuum-exp`.
//!
//! Step 2 is a flat, sequential kernel ([`tour_from_tree_doubling`]): the
//! roots are walked one after another on the calling thread, each on
//! arrays sized by its own tree. Parallelism sits above the planner, across
//! requests (the daemon's workers) and across topologies (`perpetuum-exp`
//! sweeps).
//!
//! This module is the construction only. Tour improvement is a separate
//! layer over any construction: the `perpetuum-opt` refiner, reached
//! through [`mod@crate::refine`]. Its moves are strict improvements, so a
//! refined plan keeps Theorem 1's bound.

use crate::qmsf::{q_rooted_msf_seeded, q_rooted_msf_src, Kernel, RootedForest, SupersetTree};
use perpetuum_graph::{DistSource, Tour};

/// The tree-to-tour argument of the doc-hidden [`tours_for_forest_src`]
/// shim. Algorithm 2 has one construction, so this has one variant.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Double the tree, Euler circuit, shortcut.
    Doubling,
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
    #[cfg(test)]
    pub(crate) fn total_length<M: perpetuum_graph::Metric>(&self, dist: &M) -> f64 {
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
    debug_assert!(
        terminals.iter().all(|t| !roots.contains(t)),
        "terminals and roots must be disjoint"
    );
    let forest = q_rooted_msf_src(src, terminals, roots);
    tours_for_forest(src, &forest, terminals, roots)
}

/// Algorithm 2 over `terminals` whose Algorithm-1 forest starts from the
/// restriction of `superset`'s tree (see [`SupersetTree`]) and runs on
/// `kernel`: the tours of [`q_rooted_tsp_src`] on the same input, bit for
/// bit, together with their forest and that forest as a tree for subsets
/// of `terminals`.
pub(crate) fn route_from_superset(
    src: &DistSource<'_>,
    terminals: &[usize],
    roots: &[usize],
    superset: Option<&SupersetTree>,
    kernel: &mut Kernel<'_>,
) -> (QTours, RootedForest, SupersetTree) {
    let (forest, tree) = q_rooted_msf_seeded(src, terminals, roots, superset, kernel);
    let qt = tours_for_forest(src, &forest, terminals, roots);
    (qt, forest, tree)
}

/// Algorithm 2 over nested terminal sets `sets[0] ⊆ sets[1] ⊆ … ⊆
/// sets[K]` (host ids, at least one set), built top-down: `sets[K]` from
/// scratch, then each `sets[k]` from the restriction of `sets[k + 1]`'s
/// tree. Every build equals [`q_rooted_tsp_src`] on its set. This is
/// how Algorithm 3's cumulative sets `D_0 ⊂ … ⊂ D_K` are routed: most of
/// each `D_k`'s forest is already in `D_{k+1}`'s.
///
/// Every build runs on `kernel`. `keep(forest, tours)` turns each build
/// into what the caller holds on to, so nothing else outlives its set.
/// Returns the kept values indexed like the sets, and the forest of
/// `sets[K]` as a tree for its subsets.
pub(crate) fn nested_tours<T>(
    src: &DistSource<'_>,
    sets: &[Vec<usize>],
    roots: &[usize],
    kernel: &mut Kernel<'_>,
    mut keep: impl FnMut(RootedForest, QTours) -> T,
) -> (Vec<T>, SupersetTree) {
    let mut kept = Vec::with_capacity(sets.len());
    let mut top: Option<SupersetTree> = None;
    let mut below: Option<SupersetTree> = None;
    for terminals in sets.iter().rev() {
        let superset = below.as_ref().or(top.as_ref());
        let (qt, forest, tree) = route_from_superset(src, terminals, roots, superset, kernel);
        kept.push(keep(forest, qt));
        if top.is_none() {
            top = Some(tree);
        } else {
            below = Some(tree);
        }
    }
    kept.reverse();
    (kept, top.expect("at least one terminal set"))
}

/// [`tours_for_forest`] under its earlier signature, which carried a
/// tree-to-tour routing, a tour-polish round count and a worker count.
/// Algorithm 2 has one construction, no longer improves tours (refine the
/// result with [`mod@crate::refine`] instead) and builds its tours on the
/// calling thread, so `routing` has one value, `polish_rounds` must be `0`
/// and `workers` is ignored; the slots stay so callers written against
/// that signature still build.
///
/// # Panics
/// When `polish_rounds != 0`.
#[doc(hidden)]
pub fn tours_for_forest_src(
    src: &DistSource<'_>,
    forest: &RootedForest,
    terminals: &[usize],
    roots: &[usize],
    _routing: Routing,
    polish_rounds: usize,
    _workers: usize,
) -> QTours {
    assert_eq!(polish_rounds, 0, "Algorithm 2 no longer polishes; refine the tours instead");
    tours_for_forest(src, forest, terminals, roots)
}

/// The tour-construction half of Algorithm 2: turns an already-computed
/// `q`-rooted forest into per-root closed tours with
/// [`tour_from_tree_doubling`]. Split out of [`q_rooted_tsp_src`] so the
/// incremental replanner can re-route a spliced forest without
/// recomputing it.
///
/// The roots are built one after another on the calling thread: a root's
/// tree costs microseconds to walk, less than a thread spawn, and the
/// callers already run side by side (daemon workers across requests,
/// `perpetuum-exp` sweeps across topologies).
pub(crate) fn tours_for_forest(
    src: &DistSource<'_>,
    forest: &RootedForest,
    terminals: &[usize],
    roots: &[usize],
) -> QTours {
    let tours: Vec<Tour> = roots
        .iter()
        .enumerate()
        .map(|(r, &root)| tour_from_tree_doubling(&forest.host_edges(r, terminals, root), root))
        .collect();
    let tour_lengths: Vec<f64> = tours.iter().map(|t| t.length(src)).collect();
    let cost = tour_lengths.iter().sum();
    QTours { tours, tour_lengths, cost }
}

/// The paper's tree-to-tour step for a single root: double the tree's
/// edges, walk an Euler circuit from the root, shortcut repeated nodes.
///
/// `edges` are the tree's edges in *host node-id* space and must form one
/// tree containing `root_node`; an empty edge list yields a singleton tour.
/// This is the per-root step of `tours_for_forest`, exposed so the
/// incremental replanner can rebuild a single root's tour from a spliced
/// forest tree (its fallback when warm-start repair loses to a fresh
/// construction).
///
/// The walk is Hierholzer's algorithm with each node's doubled edges tried
/// in `edges` order, the order [`perpetuum_graph::euler::euler_circuit`]
/// uses, so the tour is that circuit's shortcut node for node. It runs on
/// flat arrays over the tree's own nodes, relabelled by rank among their
/// sorted host ids: in-sim replans route small batches through here every
/// polling tick, and anything sized by the network would dwarf the batch.
///
/// # Panics
/// When `edges` do not form one tree containing `root_node`.
pub fn tour_from_tree_doubling(edges: &[(usize, usize)], root_node: usize) -> Tour {
    if edges.is_empty() {
        return Tour::singleton(root_node);
    }
    // Exact relabel: local id = rank of the host id among the tree's nodes.
    let mut hosts: Vec<usize> = Vec::with_capacity(2 * edges.len() + 1);
    hosts.push(root_node);
    hosts.extend(edges.iter().flat_map(|&(u, v)| [u, v]));
    hosts.sort_unstable();
    hosts.dedup();
    let local = |x: usize| hosts.binary_search(&x).expect("endpoint is a tree node") as u32;
    let ends: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (local(u), local(v))).collect();

    // CSR adjacency of the doubled tree: tree edge `i` is doubled edge ids
    // `2i` and `2i + 1`, listed at both endpoints in id order.
    let nodes = hosts.len();
    let mut start = vec![0u32; nodes + 1];
    for &(a, b) in &ends {
        start[a as usize + 1] += 2;
        start[b as usize + 1] += 2;
    }
    for v in 0..nodes {
        start[v + 1] += start[v];
    }
    let mut cursor: Vec<u32> = start[..nodes].to_vec();
    let mut adj = vec![(0u32, 0u32); 4 * ends.len()];
    for (i, &(a, b)) in ends.iter().enumerate() {
        for id in [2 * i as u32, 2 * i as u32 + 1] {
            adj[cursor[a as usize] as usize] = (b, id);
            cursor[a as usize] += 1;
            adj[cursor[b as usize] as usize] = (a, id);
            cursor[b as usize] += 1;
        }
    }

    // Hierholzer: `cursor[v]` is the next untried slot of `v`'s list.
    cursor.copy_from_slice(&start[..nodes]);
    let mut used = vec![false; 2 * ends.len()];
    let mut stack: Vec<u32> = vec![local(root_node)];
    let mut circuit: Vec<u32> = Vec::with_capacity(2 * ends.len() + 1);
    while let Some(&v) = stack.last() {
        let (v, end) = (v as usize, start[v as usize + 1]);
        let mut next = None;
        while cursor[v] < end {
            let (to, id) = adj[cursor[v] as usize];
            cursor[v] += 1;
            if !used[id as usize] {
                used[id as usize] = true;
                next = Some(to);
                break;
            }
        }
        match next {
            Some(to) => stack.push(to),
            None => {
                circuit.push(v as u32);
                stack.pop();
            }
        }
    }
    assert_eq!(
        circuit.len(),
        2 * ends.len() + 1,
        "a doubled tree always has an Euler circuit from its root"
    );

    // The circuit is the pop order reversed; shortcut keeps first visits.
    let mut seen = vec![false; nodes];
    let mut tour = Vec::with_capacity(nodes);
    for &v in circuit.iter().rev() {
        if !std::mem::replace(&mut seen[v as usize], true) {
            tour.push(hosts[v as usize]);
        }
    }
    Tour::new(tour)
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

    /// The tree-to-tour step as it was first written, kept as the reference
    /// for [`tour_from_tree_doubling`]: relabel through a `HashMap` in
    /// first-seen order, double the edges, walk
    /// [`perpetuum_graph::euler::euler_circuit`] and [`Tour::shortcut`].
    fn reference_doubling(edges: &[(usize, usize)], root_node: usize) -> Tour {
        use perpetuum_graph::euler::{double_edges, euler_circuit};
        use std::collections::HashMap;
        if edges.is_empty() {
            return Tour::singleton(root_node);
        }
        let mut locals: Vec<usize> = vec![root_node];
        let mut index: HashMap<usize, usize> = HashMap::from([(root_node, 0)]);
        let mut compact_id = |x: usize| {
            *index.entry(x).or_insert_with(|| {
                locals.push(x);
                locals.len() - 1
            })
        };
        let compact: Vec<(usize, usize)> =
            edges.iter().map(|&(u, v)| (compact_id(u), compact_id(v))).collect();
        let circuit = euler_circuit(locals.len(), &double_edges(&compact), 0)
            .expect("a doubled tree always has an Euler circuit from its root");
        let walk: Vec<usize> = circuit.iter().map(|&v| locals[v]).collect();
        Tour::shortcut(&walk)
    }

    /// Shape of a generated tree: node `i > 0` hangs off `parent(i) < i`.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Random,
        Star,
        Path,
    }

    /// A tree of `size` nodes of the given shape on sparse host ids, rooted
    /// at a random node, with its edges shuffled and randomly oriented.
    fn generated_tree(size: usize, shape: Shape, seed: u64) -> (Vec<(usize, usize)>, usize) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ids: Vec<usize> = Vec::with_capacity(size);
        let mut next = rng.gen_range(0..1_000_000usize);
        for _ in 0..size {
            ids.push(next);
            next += rng.gen_range(1..1_000_000usize);
        }
        fn shuffle<T>(xs: &mut [T], rng: &mut impl Rng) {
            for i in (1..xs.len()).rev() {
                xs.swap(i, rng.gen_range(0..=i));
            }
        }
        shuffle(&mut ids, &mut rng);
        let mut edges: Vec<(usize, usize)> = (1..size)
            .map(|i| {
                let parent = match shape {
                    Shape::Random => rng.gen_range(0..i),
                    Shape::Star => 0,
                    Shape::Path => i - 1,
                };
                if rng.gen_bool(0.5) {
                    (ids[parent], ids[i])
                } else {
                    (ids[i], ids[parent])
                }
            })
            .collect();
        shuffle(&mut edges, &mut rng);
        let root = ids[rng.gen_range(0..size)];
        (edges, root)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1000))]

        #[test]
        fn flat_doubling_matches_reference(
            size in 2usize..64,
            shape in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let shape = [Shape::Random, Shape::Star, Shape::Path][shape];
            let (edges, root) = generated_tree(size, shape, seed);
            let flat = tour_from_tree_doubling(&edges, root);
            proptest::prop_assert_eq!(
                flat.nodes(),
                reference_doubling(&edges, root).nodes(),
                "{:?} tree of {} nodes, seed {}", shape, size, seed
            );
        }
    }

    #[test]
    fn flat_doubling_matches_reference_on_small_trees() {
        let cases: &[(&[(usize, usize)], usize)] = &[
            (&[], 7),
            (&[(3, 9)], 3),
            (&[(3, 9)], 9),
            (&[(9, 3)], 3),
            // Star: centre 5, rooted at the centre and at a leaf.
            (&[(5, 1), (8, 5), (5, 40), (2, 5)], 5),
            (&[(5, 1), (8, 5), (5, 40), (2, 5)], 40),
            // Path 10 - 20 - 30 - 40, rooted at an end and in the middle.
            (&[(20, 30), (10, 20), (40, 30)], 10),
            (&[(20, 30), (10, 20), (40, 30)], 30),
            // Host ids beyond 32 bits.
            (&[(usize::MAX, 0), (1 << 40, usize::MAX)], 1 << 40),
        ];
        for &(edges, root) in cases {
            let flat = tour_from_tree_doubling(edges, root);
            assert_eq!(flat.nodes(), reference_doubling(edges, root).nodes(), "{edges:?} @ {root}");
            assert_eq!(flat.start(), Some(root));
        }
    }

    #[test]
    #[should_panic(expected = "Euler circuit")]
    fn a_root_outside_the_tree_panics() {
        tour_from_tree_doubling(&[(1, 2)], 3);
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
            let reference = tours_for_forest(&src, &oracle, &terminals, &roots);
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
