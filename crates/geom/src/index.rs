//! Spatial indexes over point sets: a uniform grid and a kd-tree.
//!
//! Both structures answer **exact** k-nearest-neighbour and radius queries —
//! they are accelerators, not approximations, so planner output built on
//! them is identical to what brute force would produce. Ties in distance are
//! broken by the lower point index, which makes every query deterministic
//! and lets the two indexes (and a brute-force scan) agree bit-for-bit.
//!
//! The planning pipeline uses the kd-tree's [`KdTree::nearest_foreign`]
//! query for its exact Borůvka minimum spanning forest, and k-NN candidate
//! lists for local search, instead of sorting dense O(n²) distance rows.

use crate::aabb::Aabb;
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
                self.heap.pop();
                self.heap.push((Nf64(d), i));
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

/// Common interface of the spatial indexes (and of brute force, for tests).
pub trait SpatialIndex {
    /// Number of indexed points.
    fn len(&self) -> usize;

    /// True when the index holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The indexed point `i`.
    fn point(&self, i: usize) -> Point2;

    /// The `min(k, len)` points nearest to `query`, as `(index, distance)`
    /// sorted by ascending `(distance, index)`. Exact; a point at the query
    /// location is returned like any other (callers filter self-matches).
    fn knn(&self, query: Point2, k: usize) -> Vec<(usize, f64)>;

    /// All points within `radius` of `center` (closed ball), sorted by
    /// ascending `(distance, index)`.
    fn in_radius(&self, center: Point2, radius: f64) -> Vec<(usize, f64)>;

    /// The single nearest point, or `None` on an empty index.
    fn nearest(&self, query: Point2) -> Option<(usize, f64)> {
        self.knn(query, 1).into_iter().next()
    }
}

/// Reference implementation: exhaustive scan. O(n) per query — used as the
/// parity oracle in tests and as the fallback for tiny point sets.
pub struct BruteForceIndex {
    points: Vec<Point2>,
}

impl BruteForceIndex {
    /// Indexes `points` (indices into this slice are the query results).
    pub fn new(points: &[Point2]) -> Self {
        Self { points: points.to_vec() }
    }
}

impl SpatialIndex for BruteForceIndex {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn point(&self, i: usize) -> Point2 {
        self.points[i]
    }

    fn knn(&self, query: Point2, k: usize) -> Vec<(usize, f64)> {
        let mut best = KBest::new(k.min(self.points.len()));
        for (i, p) in self.points.iter().enumerate() {
            best.offer(p.dist(query), i);
        }
        best.into_sorted()
    }

    fn in_radius(&self, center: Point2, radius: f64) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = self
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.dist(center)))
            .filter(|&(_, d)| d <= radius)
            .collect();
        out.sort_unstable_by_key(|&(i, d)| (Nf64(d), i));
        out
    }
}

// ---- uniform grid ----------------------------------------------------------

/// A uniform bucket grid over the points' bounding box.
///
/// Cell counts are chosen so the average occupancy is ~1 point per cell;
/// k-NN queries expand outward ring by ring and stop once the ring's
/// lower-bound distance exceeds the current k-th best, which keeps them
/// exact. Near-O(1) per query for uniformly deployed fields (the paper's
/// evaluation setting); worst case degrades gracefully to O(n).
pub struct UniformGrid {
    points: Vec<Point2>,
    bounds: Aabb,
    cols: usize,
    rows: usize,
    cell_w: f64,
    cell_h: f64,
    /// CSR cell layout: points of cell `c` are `order[start[c]..start[c+1]]`.
    start: Vec<u32>,
    order: Vec<u32>,
}

impl UniformGrid {
    /// Builds the grid in O(n).
    pub fn new(points: &[Point2]) -> Self {
        let n = points.len();
        let bounds =
            Aabb::containing(points).unwrap_or(Aabb::new(Point2::ORIGIN, Point2::new(1.0, 1.0)));
        // ~1 point per cell on average; degenerate (zero-extent) axes get a
        // single row/column.
        let side = (n as f64).sqrt().ceil().max(1.0) as usize;
        let cols = if bounds.width() > 0.0 { side } else { 1 };
        let rows = if bounds.height() > 0.0 { side } else { 1 };
        let cell_w = if cols > 1 { bounds.width() / cols as f64 } else { f64::INFINITY };
        let cell_h = if rows > 1 { bounds.height() / rows as f64 } else { f64::INFINITY };

        let mut grid = Self {
            points: points.to_vec(),
            bounds,
            cols,
            rows,
            cell_w,
            cell_h,
            start: vec![0; cols * rows + 1],
            order: vec![0; n],
        };
        // Counting sort of point indices into CSR cell buckets.
        let cells: Vec<u32> = points
            .iter()
            .map(|&p| {
                let (cx, cy) = grid.cell_of(p);
                (cy * grid.cols + cx) as u32
            })
            .collect();
        for &c in &cells {
            grid.start[c as usize + 1] += 1;
        }
        for c in 0..cols * rows {
            grid.start[c + 1] += grid.start[c];
        }
        let mut cursor: Vec<u32> = grid.start[..cols * rows].to_vec();
        for (i, &c) in cells.iter().enumerate() {
            grid.order[cursor[c as usize] as usize] = i as u32;
            cursor[c as usize] += 1;
        }
        grid
    }

    /// Cell coordinates of `p`, clamped into the grid.
    #[inline]
    fn cell_of(&self, p: Point2) -> (usize, usize) {
        let fx = if self.cell_w.is_finite() {
            ((p.x - self.bounds.min.x) / self.cell_w).floor()
        } else {
            0.0
        };
        let fy = if self.cell_h.is_finite() {
            ((p.y - self.bounds.min.y) / self.cell_h).floor()
        } else {
            0.0
        };
        let cx = (fx.max(0.0) as usize).min(self.cols - 1);
        let cy = (fy.max(0.0) as usize).min(self.rows - 1);
        (cx, cy)
    }

    #[inline]
    fn scan_cell(&self, cx: usize, cy: usize, query: Point2, best: &mut KBest) {
        let c = cy * self.cols + cx;
        for &i in &self.order[self.start[c] as usize..self.start[c + 1] as usize] {
            best.offer(self.points[i as usize].dist(query), i as usize);
        }
    }

    /// Lower bound on the distance from `q` (in cell `(cx, cy)`) to any
    /// point in a cell at Chebyshev ring `r` or beyond; ∞ when no such cell
    /// exists.
    fn ring_lower_bound(&self, q: Point2, cx: usize, cy: usize, r: usize) -> f64 {
        let mut lb = f64::INFINITY;
        if cx >= r {
            lb = lb.min(q.x - (self.bounds.min.x + (cx - r + 1) as f64 * self.cell_w));
        }
        if cx + r < self.cols {
            lb = lb.min(self.bounds.min.x + (cx + r) as f64 * self.cell_w - q.x);
        }
        if cy >= r {
            lb = lb.min(q.y - (self.bounds.min.y + (cy - r + 1) as f64 * self.cell_h));
        }
        if cy + r < self.rows {
            lb = lb.min(self.bounds.min.y + (cy + r) as f64 * self.cell_h - q.y);
        }
        // A query outside the bounding box can make the gap negative; zero
        // keeps the bound valid (it only ever stops the search early).
        lb.max(0.0)
    }
}

impl SpatialIndex for UniformGrid {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn point(&self, i: usize) -> Point2 {
        self.points[i]
    }

    fn knn(&self, query: Point2, k: usize) -> Vec<(usize, f64)> {
        let k = k.min(self.points.len());
        let mut best = KBest::new(k);
        if k == 0 {
            return Vec::new();
        }
        let (cx, cy) = self.cell_of(query);
        let max_ring = cx.max(self.cols - 1 - cx).max(cy).max(self.rows - 1 - cy);
        for r in 0..=max_ring {
            if best.full() && self.ring_lower_bound(query, cx, cy, r) > best.threshold() {
                break;
            }
            if r == 0 {
                self.scan_cell(cx, cy, query, &mut best);
                continue;
            }
            // Top and bottom rows of the ring.
            let x_lo = cx.saturating_sub(r);
            let x_hi = (cx + r).min(self.cols - 1);
            if cy >= r {
                for x in x_lo..=x_hi {
                    self.scan_cell(x, cy - r, query, &mut best);
                }
            }
            if cy + r < self.rows {
                for x in x_lo..=x_hi {
                    self.scan_cell(x, cy + r, query, &mut best);
                }
            }
            // Left and right columns (excluding the corners already done).
            let y_lo = cy.saturating_sub(r - 1);
            let y_hi = (cy + r - 1).min(self.rows - 1);
            if cx >= r {
                for y in y_lo..=y_hi {
                    self.scan_cell(cx - r, y, query, &mut best);
                }
            }
            if cx + r < self.cols {
                for y in y_lo..=y_hi {
                    self.scan_cell(cx + r, y, query, &mut best);
                }
            }
        }
        best.into_sorted()
    }

    fn in_radius(&self, center: Point2, radius: f64) -> Vec<(usize, f64)> {
        if self.points.is_empty() || radius < 0.0 {
            return Vec::new();
        }
        let (lo_x, lo_y) = self.cell_of(Point2::new(center.x - radius, center.y - radius));
        let (hi_x, hi_y) = self.cell_of(Point2::new(center.x + radius, center.y + radius));
        let mut out = Vec::new();
        for cy in lo_y..=hi_y {
            for cx in lo_x..=hi_x {
                let c = cy * self.cols + cx;
                for &i in &self.order[self.start[c] as usize..self.start[c + 1] as usize] {
                    let d = self.points[i as usize].dist(center);
                    if d <= radius {
                        out.push((i as usize, d));
                    }
                }
            }
        }
        out.sort_unstable_by_key(|&(i, d)| (Nf64(d), i));
        out
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
/// Built in O(n log n) with median splits (`select_nth_unstable`); k-NN and
/// radius queries prune subtrees by splitting-plane distance and are exact.
/// Robust to any point distribution, including the clustered deployments of
/// Section VII.A where a uniform grid's occupancy degrades.
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

    fn radius_rec(
        &self,
        lo: usize,
        hi: usize,
        axis: usize,
        c: Point2,
        radius: f64,
        out: &mut Vec<(usize, f64)>,
    ) {
        if hi - lo <= KD_LEAF {
            for &i in &self.order[lo..hi] {
                let d = self.points[i as usize].dist(c);
                if d <= radius {
                    out.push((i as usize, d));
                }
            }
            return;
        }
        let mid = (lo + hi) / 2;
        let pivot = self.order[mid];
        let d = self.points[pivot as usize].dist(c);
        if d <= radius {
            out.push((pivot as usize, d));
        }
        let split = self.coord(pivot, axis);
        let qc = if axis == 0 { c.x } else { c.y };
        if qc - radius < split {
            self.radius_rec(lo, mid, axis ^ 1, c, radius, out);
        }
        if qc + radius >= split {
            self.radius_rec(mid + 1, hi, axis ^ 1, c, radius, out);
        }
    }
}

impl SpatialIndex for KdTree {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn point(&self, i: usize) -> Point2 {
        self.points[i]
    }

    fn knn(&self, query: Point2, k: usize) -> Vec<(usize, f64)> {
        let k = k.min(self.points.len());
        if k == 0 {
            return Vec::new();
        }
        let mut best = KBest::new(k);
        self.knn_rec(0, self.points.len(), 0, query, &mut best);
        best.into_sorted()
    }

    fn in_radius(&self, center: Point2, radius: f64) -> Vec<(usize, f64)> {
        if self.points.is_empty() || radius < 0.0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        self.radius_rec(0, self.points.len(), 0, center, radius, &mut out);
        out.sort_unstable_by_key(|&(i, d)| (Nf64(d), i));
        out
    }
}

/// Exact k-NN lists for every indexed point, excluding the point itself:
/// `result[i]` holds up to `k` neighbour indices of point `i`, nearest
/// first. This is the candidate-list builder the sparse planning pipeline
/// feeds to graph construction and the tour refiner, in O(n·k·log n) total.
pub fn knn_lists<I: SpatialIndex>(index: &I, k: usize) -> Vec<Vec<usize>> {
    (0..index.len())
        .map(|i| {
            index
                .knn(index.point(i), k + 1)
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

    fn assert_index_matches_brute<I: SpatialIndex>(index: &I, points: &[Point2], k: usize) {
        let brute = BruteForceIndex::new(points);
        for (qi, &q) in points.iter().enumerate().step_by(7) {
            assert_eq!(index.knn(q, k), brute.knn(q, k), "knn mismatch at {qi}");
        }
        let center = Point2::new(400.0, 600.0);
        for radius in [0.0, 35.0, 250.0, 5000.0] {
            assert_eq!(
                index.in_radius(center, radius),
                brute.in_radius(center, radius),
                "radius {radius} mismatch"
            );
        }
    }

    #[test]
    fn grid_knn_matches_brute_force() {
        let points = cloud(257, 1);
        assert_index_matches_brute(&UniformGrid::new(&points), &points, 5);
    }

    #[test]
    fn kdtree_knn_matches_brute_force() {
        let points = cloud(257, 2);
        assert_index_matches_brute(&KdTree::new(&points), &points, 5);
    }

    #[test]
    fn clustered_points_still_exact() {
        // Heavy clustering: grid occupancy is badly skewed, kd-tree deep.
        let mut points = cloud(64, 3);
        for p in cloud(192, 4) {
            points.push(Point2::new(p.x * 0.01 + 500.0, p.y * 0.01 + 500.0));
        }
        assert_index_matches_brute(&UniformGrid::new(&points), &points, 9);
        assert_index_matches_brute(&KdTree::new(&points), &points, 9);
    }

    #[test]
    fn duplicate_points_tie_break_by_index() {
        let points = pts(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (9.0, 9.0)]);
        for index in [&UniformGrid::new(&points) as &dyn SpatialIndex, &KdTree::new(&points)] {
            let got = index.knn(Point2::new(1.0, 1.0), 2);
            assert_eq!(got, vec![(0, 0.0), (1, 0.0)]);
        }
    }

    #[test]
    fn collinear_points_handled() {
        // Zero vertical extent: the grid degenerates to one row.
        let points: Vec<Point2> = (0..40).map(|i| Point2::new(i as f64 * 3.0, 5.0)).collect();
        assert_index_matches_brute(&UniformGrid::new(&points), &points, 4);
        assert_index_matches_brute(&KdTree::new(&points), &points, 4);
    }

    #[test]
    fn empty_and_tiny_sets() {
        for index in [
            &UniformGrid::new(&[]) as &dyn SpatialIndex,
            &KdTree::new(&[]),
            &BruteForceIndex::new(&[]),
        ] {
            assert!(index.is_empty());
            assert!(index.knn(Point2::ORIGIN, 3).is_empty());
            assert!(index.in_radius(Point2::ORIGIN, 10.0).is_empty());
            assert_eq!(index.nearest(Point2::ORIGIN), None);
        }
        let one = pts(&[(3.0, 4.0)]);
        let grid = UniformGrid::new(&one);
        assert_eq!(grid.nearest(Point2::ORIGIN), Some((0, 5.0)));
        assert_eq!(grid.knn(Point2::ORIGIN, 10), vec![(0, 5.0)]);
    }

    #[test]
    fn query_outside_bounds() {
        let points = cloud(100, 5);
        let grid = UniformGrid::new(&points);
        let tree = KdTree::new(&points);
        let brute = BruteForceIndex::new(&points);
        for q in [Point2::new(-500.0, -500.0), Point2::new(2000.0, 500.0), Point2::new(500.0, -1e6)]
        {
            assert_eq!(grid.knn(q, 3), brute.knn(q, 3));
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
        let grid = UniformGrid::new(&points);
        assert_eq!(grid.knn(Point2::new(500.0, 500.0), 100).len(), 5);
        let lists = knn_lists(&grid, 100);
        assert!(lists.iter().all(|l| l.len() == 4));
    }
}
