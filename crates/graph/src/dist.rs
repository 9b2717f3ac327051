//! Distance access without a dense matrix.
//!
//! The paper's algorithms are written over a metric complete graph. A
//! materialized `n × n` matrix of it costs Θ(n²) memory (n = 10,000 ⇒
//! 800 MB of f64), so planners read distances through [`DistSource`]:
//! Euclidean distances computed on demand from node positions.
//!
//! [`Metric`] is the minimal read-only surface (`len` + `get`) the tour
//! and local-search code needs; it is implemented by both [`DistSource`]
//! and [`DistMatrix`] (the dense reference tests and exact solvers use),
//! so algorithm functions stay generic over either.

use crate::matrix::DistMatrix;
use perpetuum_geom::Point2;

/// Read-only access to pairwise distances of a metric graph.
pub trait Metric {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// True when the graph has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distance between nodes `i` and `j`.
    fn get(&self, i: usize, j: usize) -> f64;

    /// Total weight of a walk visiting `nodes` in order (open, no return).
    fn walk_len(&self, nodes: &[usize]) -> f64 {
        nodes.windows(2).map(|w| self.get(w[0], w[1])).sum()
    }
}

impl Metric for DistMatrix {
    #[inline]
    fn len(&self) -> usize {
        DistMatrix::len(self)
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        DistMatrix::get(self, i, j)
    }
}

impl<M: Metric + ?Sized> Metric for &M {
    #[inline]
    fn len(&self) -> usize {
        (**self).len()
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        (**self).get(i, j)
    }
}

/// Where a planner's distances come from: point positions, queried on
/// demand.
///
/// `get(i, j)` computes `points[i].dist(points[j])` per call — O(1) with no
/// O(n²) memory, and *bit-identical* to the value `DistMatrix::from_points`
/// stores (both evaluate the same IEEE expression), so a planner run over a
/// source and over the matching matrix sees the same numbers.
#[derive(Debug, Clone, Copy)]
pub struct DistSource<'a> {
    points: &'a [Point2],
}

impl<'a> DistSource<'a> {
    /// Wraps point positions (node id = slice index).
    pub fn points(points: &'a [Point2]) -> Self {
        Self { points }
    }

    /// The positions backing this source.
    pub fn positions(&self) -> &'a [Point2] {
        self.points
    }
}

impl Metric for DistSource<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.points.len()
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        self.points[i].dist(self.points[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let i = i as f64;
                Point2::new((i * 37.0) % 101.0, (i * i * 13.0) % 89.0)
            })
            .collect()
    }

    #[test]
    fn sources_agree_bit_for_bit() {
        let pts = cloud(30);
        let dense = DistMatrix::from_points(&pts);
        let a = &dense;
        let b = DistSource::points(&pts);
        assert_eq!(Metric::len(&a), Metric::len(&b));
        for i in 0..30 {
            for j in 0..30 {
                // Exact equality on purpose: the two sources must be
                // interchangeable without any tolerance.
                assert_eq!(a.get(i, j), b.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn trait_helpers_match_matrix_inherents() {
        let pts = cloud(12);
        let dense = DistMatrix::from_points(&pts);
        let src = DistSource::points(&pts);
        let walk: Vec<usize> = vec![0, 5, 2, 9, 1];
        assert_eq!(src.walk_len(&walk), dense.walk_len(&walk));
    }

    #[test]
    fn accessors() {
        let pts = cloud(4);
        let src = DistSource::points(&pts);
        assert_eq!(src.positions(), pts.as_slice());
        assert_eq!(Metric::len(&src), 4);
        assert!(!Metric::is_empty(&src));
        assert!(Metric::is_empty(&DistSource::points(&[])));
    }
}
