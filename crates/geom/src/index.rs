//! The spatial index over point sets: a kd-tree.
//!
//! Its queries are **exact**: it is an accelerator, not an approximation,
//! so planner output built on it is identical to what brute force would
//! produce. Ties in distance are broken by the lower point index, which
//! makes every query deterministic and lets the tree and the brute-force
//! oracle [`BruteForceIndex`] agree bit-for-bit.
//!
//! The planning pipeline uses [`KdTree::nearest_foreign`] for its exact
//! Borůvka minimum spanning forest (Algorithm 1), and [`knn_lists`] for the
//! local search's candidate lists, instead of sorting dense O(n²) distance
//! rows.

use crate::point::Point2;
use std::collections::BinaryHeap;

/// `f64` ordered by `total_cmp`, for use inside heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Nf64(f64);

impl Eq for Nf64 {}

impl PartialOrd for Nf64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Nf64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Bounded max-heap keeping the k smallest `(distance, index)` pairs seen.
struct KBest {
    k: usize,
    heap: BinaryHeap<(Nf64, usize)>,
}

impl KBest {
    fn new(k: usize) -> Self {
        Self { k, heap: BinaryHeap::with_capacity(k + 1) }
    }

    #[inline]
    fn offer(&mut self, d: f64, i: usize) {
        if self.heap.len() < self.k {
            self.heap.push((Nf64(d), i));
        } else if let Some(&(worst, wi)) = self.heap.peek() {
            // Strict (d, i) ordering: on distance ties the lower index wins.
            if (Nf64(d), i) < (worst, wi) {
                // Replace the worst in place: one sift instead of two.
                if let Some(mut top) = self.heap.peek_mut() {
                    *top = (Nf64(d), i);
                }
            }
        }
    }

    #[inline]
    fn full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// Current k-th best distance (pruning threshold); ∞ while not full.
    #[inline]
    fn threshold(&self) -> f64 {
        if self.full() {
            self.heap.peek().map_or(f64::INFINITY, |&(d, _)| d.0)
        } else {
            f64::INFINITY
        }
    }

    fn into_sorted(self) -> Vec<(usize, f64)> {
        let mut out: Vec<(Nf64, usize)> = self.heap.into_vec();
        out.sort_unstable();
        out.into_iter().map(|(d, i)| (i, d.0)).collect()
    }
}

/// Reference implementation: exhaustive scan, O(n) per query. The parity
/// oracle the kd-tree is tested against.
pub struct BruteForceIndex {
    points: Vec<Point2>,
}

impl BruteForceIndex {
    /// Indexes `points` (indices into this slice are the query results).
    pub fn new(points: &[Point2]) -> Self {
        Self { points: points.to_vec() }
    }

    /// The `min(k, n)` points nearest to `query`, as `(index, distance)`
    /// sorted by ascending `(distance, index)`.
    pub fn knn(&self, query: Point2, k: usize) -> Vec<(usize, f64)> {
        let mut best = KBest::new(k.min(self.points.len()));
        for (i, p) in self.points.iter().enumerate() {
            best.offer(p.dist(query), i);
        }
        best.into_sorted()
    }
}

// ---- kd-tree ---------------------------------------------------------------

/// Size below which kd-tree nodes become scanned leaves.
const KD_LEAF: usize = 8;

/// The [`KdTree::subtree_labels`] value of a subtree whose points carry
/// more than one label.
pub const MIXED: u32 = u32::MAX;

/// A balanced, implicitly laid-out 2-d tree.
///
/// Built in O(n log n) with median splits (`select_nth_unstable`); queries
/// prune subtrees by splitting-plane distance and are exact. Robust to any
/// point distribution, including the clustered deployments of Section VII.A.
pub struct KdTree {
    points: Vec<Point2>,
    /// Permutation of point indices; subranges form the tree, each split at
    /// its midpoint by the node's axis.
    order: Vec<u32>,
}

impl KdTree {
    /// Builds the tree in O(n log n).
    pub fn new(points: &[Point2]) -> Self {
        let mut tree = Self { points: points.to_vec(), order: (0..points.len() as u32).collect() };
        let n = points.len();
        tree.build(0, n, 0);
        tree
    }

    #[inline]
    fn coord(&self, i: u32, axis: usize) -> f64 {
        let p = self.points[i as usize];
        if axis == 0 {
            p.x
        } else {
            p.y
        }
    }

    fn build(&mut self, lo: usize, hi: usize, axis: usize) {
        if hi - lo <= KD_LEAF {
            return;
        }
        let mid = (lo + hi) / 2;
        let points = &self.points;
        self.order[lo..hi].select_nth_unstable_by(mid - lo, |&a, &b| {
            let (pa, pb) = (points[a as usize], points[b as usize]);
            let (ca, cb) = if axis == 0 { (pa.x, pb.x) } else { (pa.y, pb.y) };
            ca.total_cmp(&cb).then(a.cmp(&b))
        });
        self.build(lo, mid, axis ^ 1);
        self.build(mid + 1, hi, axis ^ 1);
    }

    fn knn_rec(&self, lo: usize, hi: usize, axis: usize, q: Point2, best: &mut KBest) {
        if hi - lo <= KD_LEAF {
            for &i in &self.order[lo..hi] {
                best.offer(self.points[i as usize].dist(q), i as usize);
            }
            return;
        }
        let mid = (lo + hi) / 2;
        let pivot = self.order[mid];
        best.offer(self.points[pivot as usize].dist(q), pivot as usize);
        let split = self.coord(pivot, axis);
        let qc = if axis == 0 { q.x } else { q.y };
        let (near, far) =
            if qc < split { ((lo, mid), (mid + 1, hi)) } else { ((mid + 1, hi), (lo, mid)) };
        self.knn_rec(near.0, near.1, axis ^ 1, q, best);
        // The far half can only matter if the splitting plane is closer
        // than the current k-th best.
        if (qc - split).abs() <= best.threshold() {
            self.knn_rec(far.0, far.1, axis ^ 1, q, best);
        }
    }

    /// Post-order pass of [`KdTree::subtree_labels`]; returns the label
    /// of the subtree `lo..hi`.
    fn label_rec(&self, lo: usize, hi: usize, point_label: &[u32], out: &mut [u32]) -> u32 {
        let label_of = |pos: usize| point_label[self.order[pos] as usize];
        if hi - lo <= KD_LEAF {
            let first = label_of(lo);
            let label = if (lo + 1..hi).all(|pos| label_of(pos) == first) { first } else { MIXED };
            out[lo] = label;
            return label;
        }
        let mid = (lo + hi) / 2;
        let left = self.label_rec(lo, mid, point_label, out);
        let right = self.label_rec(mid + 1, hi, point_label, out);
        let pivot = label_of(mid);
        let label = if left == pivot && right == pivot { pivot } else { MIXED };
        out[mid] = label;
        label
    }

    #[allow(clippy::too_many_arguments)]
    fn foreign_rec(
        &self,
        lo: usize,
        hi: usize,
        axis: usize,
        q: Point2,
        own: u32,
        point_label: &[u32],
        subtree_label: &[u32],
        best: &mut (f64, usize),
    ) {
        let mut offer = |i: u32| {
            let i = i as usize;
            if point_label[i] != own {
                let d = self.points[i].dist(q);
                if d < best.0 || (d == best.0 && i < best.1) {
                    *best = (d, i);
                }
            }
        };
        if hi - lo <= KD_LEAF {
            if subtree_label[lo] != own {
                self.order[lo..hi].iter().for_each(|&i| offer(i));
            }
            return;
        }
        let mid = (lo + hi) / 2;
        if subtree_label[mid] == own {
            return;
        }
        let pivot = self.order[mid];
        offer(pivot);
        let split = self.coord(pivot, axis);
        let qc = if axis == 0 { q.x } else { q.y };
        let (near, far) =
            if qc < split { ((lo, mid), (mid + 1, hi)) } else { ((mid + 1, hi), (lo, mid)) };
        self.foreign_rec(near.0, near.1, axis ^ 1, q, own, point_label, subtree_label, best);
        if (qc - split).abs() <= best.0 {
            self.foreign_rec(far.0, far.1, axis ^ 1, q, own, point_label, subtree_label, best);
        }
    }

    /// Per-subtree labels for [`KdTree::nearest_foreign`], in O(n):
    /// `point_label[i]` labels point `i` (e.g. its component in a spanning
    /// forest under construction), and each tree node gets the label all
    /// points of its subtree share, or [`MIXED`]. Recompute whenever the
    /// point labels change.
    pub fn subtree_labels(&self, point_label: &[u32]) -> Vec<u32> {
        assert_eq!(point_label.len(), self.points.len(), "one label per indexed point");
        // Node slots: an inner node lives at its pivot's position in
        // `order`, a leaf at its first position — distinct for every node.
        let mut out = vec![MIXED; self.points.len()];
        if !self.points.is_empty() {
            self.label_rec(0, self.points.len(), point_label, &mut out);
        }
        out
    }

    /// The point nearest to `query` whose label differs from `own`, among
    /// points within distance `bound` (closed), as `(index, distance)`;
    /// ties go to the lower index. Exact. Subtrees labelled `own` in
    /// `subtree_label` (from [`KdTree::subtree_labels`] over the same
    /// `point_label`) are skipped whole, which keeps the query fast when
    /// most of the tree shares the querying point's label.
    pub fn nearest_foreign(
        &self,
        query: Point2,
        own: u32,
        point_label: &[u32],
        subtree_label: &[u32],
        bound: f64,
    ) -> Option<(usize, f64)> {
        let mut best = (bound, usize::MAX);
        if !self.points.is_empty() {
            self.foreign_rec(
                0,
                self.points.len(),
                0,
                query,
                own,
                point_label,
                subtree_label,
                &mut best,
            );
        }
        (best.1 != usize::MAX).then_some((best.1, best.0))
    }

    /// The `min(k, n)` points nearest to `query`, as `(index, distance)`
    /// sorted by ascending `(distance, index)`. Exact; a point at the query
    /// location is returned like any other (callers filter self-matches).
    pub fn knn(&self, query: Point2, k: usize) -> Vec<(usize, f64)> {
        let k = k.min(self.points.len());
        if k == 0 {
            return Vec::new();
        }
        let mut best = KBest::new(k);
        self.knn_rec(0, self.points.len(), 0, query, &mut best);
        best.into_sorted()
    }
}

/// Exact k-NN lists for every indexed point, excluding the point itself:
/// `result[i]` holds up to `k` neighbour indices of point `i`, nearest
/// first. The tour refiner's candidate lists are built from these, in
/// O(n·k·log n) total.
pub fn knn_lists(tree: &KdTree, k: usize) -> Vec<Vec<usize>> {
    (0..tree.points.len())
        .map(|i| {
            tree.knn(tree.points[i], k + 1)
                .into_iter()
                .filter(|&(j, _)| j != i)
                .take(k)
                .map(|(j, _)| j)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
    }

    /// Pseudo-random but fully deterministic point cloud (no RNG dep here).
    fn cloud(n: usize, salt: u64) -> Vec<Point2> {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point2::new(next() * 1000.0, next() * 1000.0)).collect()
    }

    fn assert_tree_matches_brute(points: &[Point2], k: usize) {
        let tree = KdTree::new(points);
        let brute = BruteForceIndex::new(points);
        for (qi, &q) in points.iter().enumerate().step_by(7) {
            assert_eq!(tree.knn(q, k), brute.knn(q, k), "knn mismatch at {qi}");
        }
    }

    #[test]
    fn kdtree_knn_matches_brute_force() {
        assert_tree_matches_brute(&cloud(257, 2), 5);
    }

    #[test]
    fn clustered_points_still_exact() {
        // Heavy clustering: the kd-tree is deep on one side.
        let mut points = cloud(64, 3);
        for p in cloud(192, 4) {
            points.push(Point2::new(p.x * 0.01 + 500.0, p.y * 0.01 + 500.0));
        }
        assert_tree_matches_brute(&points, 9);
    }

    #[test]
    fn duplicate_points_tie_break_by_index() {
        let points = pts(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (9.0, 9.0)]);
        let got = KdTree::new(&points).knn(Point2::new(1.0, 1.0), 2);
        assert_eq!(got, vec![(0, 0.0), (1, 0.0)]);
    }

    #[test]
    fn collinear_points_handled() {
        // Zero vertical extent: every y-split ties.
        let points: Vec<Point2> = (0..40).map(|i| Point2::new(i as f64 * 3.0, 5.0)).collect();
        assert_tree_matches_brute(&points, 4);
    }

    #[test]
    fn empty_and_tiny_sets() {
        assert!(KdTree::new(&[]).knn(Point2::ORIGIN, 3).is_empty());
        assert!(BruteForceIndex::new(&[]).knn(Point2::ORIGIN, 3).is_empty());
        let one = pts(&[(3.0, 4.0)]);
        let tree = KdTree::new(&one);
        assert_eq!(tree.knn(Point2::ORIGIN, 1), vec![(0, 5.0)]);
        assert_eq!(tree.knn(Point2::ORIGIN, 10), vec![(0, 5.0)]);
    }

    #[test]
    fn query_outside_bounds() {
        let points = cloud(100, 5);
        let tree = KdTree::new(&points);
        let brute = BruteForceIndex::new(&points);
        for q in [Point2::new(-500.0, -500.0), Point2::new(2000.0, 500.0), Point2::new(500.0, -1e6)]
        {
            assert_eq!(tree.knn(q, 3), brute.knn(q, 3));
        }
    }

    #[test]
    fn knn_lists_exclude_self() {
        let points = cloud(50, 6);
        let tree = KdTree::new(&points);
        let lists = knn_lists(&tree, 4);
        assert_eq!(lists.len(), 50);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(list.len(), 4);
            assert!(!list.contains(&i), "list of {i} contains itself");
            // Nearest-first: distances are non-decreasing.
            let d: Vec<f64> = list.iter().map(|&j| points[i].dist(points[j])).collect();
            assert!(d.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    /// Brute-force reference for [`KdTree::nearest_foreign`].
    fn brute_foreign(
        points: &[Point2],
        q: Point2,
        own: u32,
        label: &[u32],
        bound: f64,
    ) -> Option<(usize, f64)> {
        points
            .iter()
            .enumerate()
            .filter(|&(i, p)| label[i] != own && p.dist(q) <= bound)
            .map(|(i, p)| (i, p.dist(q)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    #[test]
    fn nearest_foreign_matches_brute_force() {
        let mut points = cloud(300, 8);
        // Duplicates and a collinear run force distance ties.
        points.extend_from_within(..20);
        points.extend((0..30).map(|i| Point2::new(i as f64 * 5.0, 250.0)));
        let tree = KdTree::new(&points);
        for groups in [1u32, 2, 7, 40, points.len() as u32] {
            // Spatially coherent labels (x bands) plus scattered ones.
            let label: Vec<u32> = points
                .iter()
                .enumerate()
                .map(|(i, p)| if i % 11 == 0 { i as u32 % groups } else { (p.x as u32) % groups })
                .collect();
            let subtree = tree.subtree_labels(&label);
            for (qi, &q) in points.iter().enumerate().step_by(3) {
                for bound in [f64::INFINITY, 40.0, 0.0] {
                    assert_eq!(
                        tree.nearest_foreign(q, label[qi], &label, &subtree, bound),
                        brute_foreign(&points, q, label[qi], &label, bound),
                        "groups {groups}, query {qi}, bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn subtree_labels_mark_uniform_and_mixed_subtrees() {
        let points = cloud(100, 9);
        let tree = KdTree::new(&points);
        // The root node lives in the slot of the middle position.
        assert_eq!(tree.subtree_labels(&[3; 100])[50], 3);
        let mut label = vec![3u32; 100];
        label[17] = 4;
        let subtree = tree.subtree_labels(&label);
        assert_eq!(subtree[50], MIXED);
        assert_eq!(
            tree.nearest_foreign(points[0], 3, &label, &subtree, 1e9).map(|r| r.0),
            Some(17)
        );
        assert_eq!(tree.nearest_foreign(points[0], 3, &[3; 100], &[3; 100], 1e9), None);
        assert_eq!(KdTree::new(&[]).nearest_foreign(Point2::ORIGIN, 0, &[], &[], 1e9), None);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let points = cloud(5, 7);
        let tree = KdTree::new(&points);
        assert_eq!(tree.knn(Point2::new(500.0, 500.0), 100).len(), 5);
        let lists = knn_lists(&tree, 100);
        assert!(lists.iter().all(|l| l.len() == 4));
    }
}
