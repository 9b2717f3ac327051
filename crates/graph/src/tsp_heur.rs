//! TSP construction helpers outside Algorithm 2.
//!
//! [`nearest_neighbor`] is an independent construction baseline for tests
//! and bounds. [`knn_candidates`] builds the spatial-index-backed
//! neighbour lists the `perpetuum-opt` refiner restricts its move scans to,
//! in `O(n · k · log n)` instead of sorting whole distance rows. Tour
//! improvement itself lives in one place, the `perpetuum-opt` refiner.

use crate::dist::Metric;
use crate::tour::Tour;
use perpetuum_geom::{knn_lists, KdTree, Point2};

/// Nearest-neighbour tour over all nodes of `dist`, starting at `start`.
pub fn nearest_neighbor<M: Metric>(dist: &M, start: usize) -> Tour {
    let n = dist.len();
    assert!(start < n, "start out of bounds");
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut cur = start;
    visited[cur] = true;
    order.push(cur);
    for _ in 1..n {
        let mut best = usize::MAX;
        let mut bd = f64::INFINITY;
        for (v, &vis) in visited.iter().enumerate() {
            if !vis {
                let d = dist.get(cur, v);
                if d < bd {
                    bd = d;
                    best = v;
                }
            }
        }
        visited[best] = true;
        order.push(best);
        cur = best;
    }
    Tour::new(order)
}

/// k-nearest-neighbour candidate lists from the kd-tree index: each node
/// in `nodes` gets its `k` nearest other members of `nodes` (by position in
/// `points`, which is indexed by global node id). Runs in
/// `O(n · k · log n)`. The returned vector is indexed by global node id;
/// ids outside `nodes` get empty lists.
pub fn knn_candidates(points: &[Point2], nodes: &[usize], k: usize) -> Vec<Vec<usize>> {
    let max_id = match nodes.iter().copied().max() {
        Some(m) => m + 1,
        None => return Vec::new(),
    };
    let pts: Vec<Point2> = nodes.iter().map(|&v| points[v]).collect();
    let tree = KdTree::new(&pts);
    let lists = knn_lists(&tree, k);
    let mut out = vec![Vec::new(); max_id];
    for (i, list) in lists.into_iter().enumerate() {
        out[nodes[i]] = list.into_iter().map(|j| nodes[j]).collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DistMatrix;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect()
    }

    #[test]
    fn nn_visits_everything_once() {
        let d = DistMatrix::from_points(&random_points(30, 1));
        let t = nearest_neighbor(&d, 5);
        assert_eq!(t.start(), Some(5));
        let mut nodes: Vec<usize> = t.nodes().to_vec();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn knn_candidates_are_family_members_by_global_id() {
        // A family of every third node out of 40: lists are indexed by
        // global id, hold only other family members, nearest first.
        let pts = random_points(40, 9);
        let family: Vec<usize> = (0..pts.len()).step_by(3).collect();
        for k in [0, 1, 5, family.len() - 1, family.len() + 3] {
            let cands = knn_candidates(&pts, &family, k);
            assert_eq!(cands.len(), family.last().unwrap() + 1);
            for (v, list) in cands.iter().enumerate() {
                if !family.contains(&v) {
                    assert!(list.is_empty(), "non-member {v} got a list");
                    continue;
                }
                assert_eq!(list.len(), k.min(family.len() - 1), "node {v}, k {k}");
                assert!(list.iter().all(|c| family.contains(c) && *c != v));
                let d: Vec<f64> = list.iter().map(|&c| pts[v].dist(pts[c])).collect();
                assert!(d.windows(2).all(|w| w[0] <= w[1]), "node {v}: not nearest-first");
                let worst = d.last().copied().unwrap_or(0.0);
                let nearer_outside = family
                    .iter()
                    .filter(|&&c| c != v && !list.contains(&c))
                    .any(|&c| pts[v].dist(pts[c]) < worst - 1e-9);
                assert!(!nearer_outside, "node {v}: a nearer member was left out");
            }
        }
        assert!(knn_candidates(&pts, &[], 4).is_empty());
    }
}
