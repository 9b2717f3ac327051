//! Dense symmetric distance matrices.

use perpetuum_geom::Point2;

/// A dense symmetric `n × n` distance matrix stored as a flat `Vec<f64>`.
///
/// This is the natural representation for the *metric complete graphs* the
/// paper's algorithms run on: `Θ(n²)` edges exist anyway, lookups must be
/// O(1), and a flat buffer keeps Prim's `O(n²)` inner loop cache-friendly.
#[derive(Debug, Clone, PartialEq)]
pub struct DistMatrix {
    n: usize,
    d: Vec<f64>,
}

impl DistMatrix {
    /// A matrix of `n` nodes with all distances zero.
    pub fn zeros(n: usize) -> Self {
        Self { n, d: vec![0.0; n * n] }
    }

    /// Builds the Euclidean metric closure of a point set.
    pub fn from_points(points: &[Point2]) -> Self {
        let n = points.len();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let dist = points[i].dist(points[j]);
                d[i * n + j] = dist;
                d[j * n + i] = dist;
            }
        }
        Self { n, d }
    }

    /// Builds a matrix from an arbitrary symmetric weight function.
    ///
    /// `f(i, j)` is only evaluated for `i < j`; the diagonal is zero.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let w = f(i, j);
                d[i * n + j] = w;
                d[j * n + i] = w;
            }
        }
        Self { n, d }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between nodes `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        self.d[i * self.n + j]
    }

    /// Sets the distance between `i` and `j` (kept symmetric).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, w: f64) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.d[i * self.n + j] = w;
        self.d[j * self.n + i] = w;
    }

    /// Row `i` as a slice — handy for tight inner loops.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.d[i * self.n..(i + 1) * self.n]
    }

    /// The sub-matrix induced by `nodes` (in the given order). Entry `(a, b)`
    /// of the result is the distance between `nodes[a]` and `nodes[b]`.
    pub fn induced(&self, nodes: &[usize]) -> DistMatrix {
        let m = nodes.len();
        let mut d = vec![0.0; m * m];
        for (a, &i) in nodes.iter().enumerate() {
            for (b, &j) in nodes.iter().enumerate() {
                d[a * m + b] = self.get(i, j);
            }
        }
        DistMatrix { n: m, d }
    }

    /// Total weight of a walk visiting `nodes` in order (open, no return).
    pub fn walk_len(&self, nodes: &[usize]) -> f64 {
        nodes.windows(2).map(|w| self.get(w[0], w[1])).sum()
    }

    /// Checks symmetry, zero diagonal, non-negativity and the triangle
    /// inequality up to tolerance `eps`. `O(n³)` — for tests only.
    pub fn is_metric(&self, eps: f64) -> bool {
        for i in 0..self.n {
            if self.get(i, i) != 0.0 {
                return false;
            }
            for j in 0..self.n {
                let dij = self.get(i, j);
                if dij < 0.0 || (dij - self.get(j, i)).abs() > eps {
                    return false;
                }
                for k in 0..self.n {
                    if dij > self.get(i, k) + self.get(k, j) + eps {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_points() -> Vec<Point2> {
        vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ]
    }

    #[test]
    fn from_points_symmetric_zero_diagonal() {
        let m = DistMatrix::from_points(&square_points());
        assert_eq!(m.len(), 4);
        for i in 0..4 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
        assert_eq!(m.get(0, 1), 1.0);
        assert!((m.get(0, 2) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn euclidean_matrix_is_metric() {
        let m = DistMatrix::from_points(&square_points());
        assert!(m.is_metric(1e-9));
    }

    #[test]
    fn from_fn_and_set() {
        let mut m = DistMatrix::from_fn(3, |i, j| (i + j) as f64);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 2), 3.0);
        m.set(0, 2, 10.0);
        assert_eq!(m.get(2, 0), 10.0);
        // A violated triangle inequality is detected.
        assert!(!m.is_metric(1e-9));
    }

    #[test]
    fn induced_submatrix() {
        let m = DistMatrix::from_points(&square_points());
        let sub = m.induced(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get(0, 1), m.get(0, 2));
    }

    #[test]
    fn induced_reorders() {
        let m = DistMatrix::from_points(&square_points());
        let sub = m.induced(&[3, 1]);
        assert_eq!(sub.get(0, 1), m.get(3, 1));
    }

    #[test]
    fn walk_len_sums_edges() {
        let m = DistMatrix::from_points(&square_points());
        assert_eq!(m.walk_len(&[0, 1, 2, 3]), 3.0);
        assert_eq!(m.walk_len(&[0]), 0.0);
        assert_eq!(m.walk_len(&[]), 0.0);
    }

    #[test]
    fn zeros_is_empty_metric() {
        let m = DistMatrix::zeros(0);
        assert!(m.is_empty());
        assert!(m.is_metric(0.0));
    }
}
