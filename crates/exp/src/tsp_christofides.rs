//! Christofides-style tour construction.
//!
//! Instead of doubling every MST edge (Algorithm 2's 2-approximation), add
//! a minimum-weight perfect matching over the MST's odd-degree vertices:
//! the union is Eulerian, and short-cutting its circuit yields the tour.
//! With an exact matching this is Christofides' 3/2-approximation; we use
//! the greedy + 2-swap matching of [`crate::matching`], so the formal
//! guarantee is the doubling bound, while the *empirical* tours are
//! consistently shorter — which is exactly what the routing ablation
//! measures.

use crate::matching::greedy_min_matching;
use perpetuum_graph::euler::euler_circuit;
use perpetuum_graph::mst::{prim, Edge};
use perpetuum_graph::{DistMatrix, Metric, Tour};

/// Builds a closed tour over the vertex set of `tree` (a spanning tree of
/// that set, edges in host-graph ids), starting at `start`, by
/// MST + odd-vertex matching + Euler short-cutting.
///
/// `n` is the host graph's node count (for adjacency sizing). The tree may
/// be a single vertex (`tree` empty) — the result is then the singleton
/// tour of `start`.
pub fn tour_from_tree_matched<M: Metric>(dist: &M, n: usize, tree: &[Edge], start: usize) -> Tour {
    if tree.is_empty() {
        return Tour::singleton(start);
    }

    // Odd-degree vertices of the tree.
    let mut degree = vec![0usize; n];
    for &(u, v) in tree {
        degree[u] += 1;
        degree[v] += 1;
    }
    let odd: Vec<usize> = (0..n).filter(|&v| degree[v] % 2 == 1).collect();
    debug_assert!(odd.len().is_multiple_of(2), "handshake lemma");

    let mut edges: Vec<Edge> = tree.to_vec();
    edges.extend(greedy_min_matching(dist, &odd));

    let circuit =
        euler_circuit(n, &edges, start).expect("tree + odd matching is connected and even-degree");
    Tour::shortcut(&circuit)
}

/// Christofides-style TSP over all nodes of `dist`, starting at `start`.
pub fn christofides(dist: &DistMatrix, start: usize) -> Tour {
    let n = dist.len();
    if n <= 1 {
        return if n == 0 { Tour::new(vec![]) } else { Tour::singleton(start) };
    }
    let mst = prim(dist);
    tour_from_tree_matched(dist, n, &mst, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_geom::Point2;
    use perpetuum_graph::euler::double_edges;
    use perpetuum_graph::mst::tree_weight;
    use perpetuum_graph::tsp_exact::held_karp;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect()
    }

    #[test]
    fn trivial_sizes() {
        assert_eq!(christofides(&DistMatrix::zeros(0), 0).len(), 0);
        assert_eq!(christofides(&DistMatrix::zeros(1), 0).nodes(), &[0]);
        let d = DistMatrix::from_points(&[Point2::new(0.0, 0.0), Point2::new(3.0, 4.0)]);
        let t = christofides(&d, 0);
        assert_eq!(t.length(&d), 10.0);
    }

    #[test]
    fn visits_every_node_once_from_start() {
        for seed in 0..5u64 {
            let d = DistMatrix::from_points(&random_points(20, seed));
            let t = christofides(&d, 3);
            assert_eq!(t.start(), Some(3));
            let mut nodes: Vec<usize> = t.nodes().to_vec();
            nodes.sort_unstable();
            assert_eq!(nodes, (0..20).collect::<Vec<_>>());
        }
    }

    #[test]
    fn never_worse_than_twice_mst() {
        // Even with a greedy matching, MST + matching ≤ MST + MST, so the
        // shortcut tour stays within the doubling bound.
        for seed in 10..16u64 {
            let d = DistMatrix::from_points(&random_points(25, seed));
            let mst = prim(&d);
            let w = tree_weight(&d, &mst);
            let t = christofides(&d, 0);
            assert!(t.length(&d) <= 2.0 * w + 1e-6, "seed {seed}");
        }
    }

    #[test]
    fn usually_beats_doubling() {
        // Averaged over instances, matching beats doubling clearly.
        let mut matched_total = 0.0;
        let mut doubled_total = 0.0;
        for seed in 20..30u64 {
            let d = DistMatrix::from_points(&random_points(30, seed));
            let mst = prim(&d);
            let doubled = {
                let e2 = double_edges(&mst);
                let c = euler_circuit(30, &e2, 0).unwrap();
                Tour::shortcut(&c).length(&d)
            };
            let matched = christofides(&d, 0).length(&d);
            matched_total += matched;
            doubled_total += doubled;
        }
        assert!(
            matched_total < doubled_total,
            "matched {matched_total} vs doubled {doubled_total}"
        );
    }

    #[test]
    fn close_to_optimal_on_small_instances() {
        for seed in 0..5u64 {
            let d = DistMatrix::from_points(&random_points(10, seed + 40));
            let (_, opt) = held_karp(&d);
            let t = christofides(&d, 0).length(&d);
            assert!(t <= 1.6 * opt + 1e-9, "seed {seed}: christofides {t} vs opt {opt}");
        }
    }

    #[test]
    fn subtree_tour_only_visits_subtree() {
        // A path 0-1-2 inside a 5-node host graph.
        let d = DistMatrix::from_points(&random_points(5, 99));
        let tree = [(0, 1), (1, 2)];
        let t = tour_from_tree_matched(&d, 5, &tree, 0);
        let mut nodes: Vec<usize> = t.nodes().to_vec();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2]);
    }
}
