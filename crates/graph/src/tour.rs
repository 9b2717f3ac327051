//! Closed tours and walk short-cutting.

use crate::dist::Metric;
use serde::{Deserialize, Serialize};

/// A closed tour over nodes of a [`Metric`] graph (dense
/// [`DistMatrix`](crate::matrix::DistMatrix) or on-demand
/// [`DistSource`](crate::dist::DistSource)).
///
/// The tour is stored as the visiting order `v_0, v_1, …, v_{m−1}`; the
/// closing edge `v_{m−1} → v_0` is implicit. A tour with zero or one node
/// (e.g. a charger that stays at its depot) has length 0.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tour {
    nodes: Vec<usize>,
}

impl Tour {
    /// A tour visiting `nodes` in order. Nodes must be distinct (checked in
    /// debug builds only — the schedulers construct tours via
    /// [`Tour::shortcut`], which guarantees it).
    pub fn new(nodes: Vec<usize>) -> Self {
        debug_assert!(
            {
                let mut seen = std::collections::HashSet::new();
                nodes.iter().all(|&v| seen.insert(v))
            },
            "tour nodes must be distinct"
        );
        Self { nodes }
    }

    /// The trivial tour that never leaves `node`.
    pub fn singleton(node: usize) -> Self {
        Self { nodes: vec![node] }
    }

    /// Short-cuts a closed walk (e.g. an Euler circuit of a doubled tree)
    /// into a closed tour visiting each node once, preserving first-visit
    /// order. By the triangle inequality the result is never longer than
    /// the walk.
    ///
    /// The walk may or may not repeat its first node at the end; both forms
    /// are accepted.
    pub fn shortcut(walk: &[usize]) -> Self {
        let mut seen = std::collections::HashSet::with_capacity(walk.len());
        let mut nodes = Vec::with_capacity(walk.len());
        for &v in walk {
            if seen.insert(v) {
                nodes.push(v);
            }
        }
        Self { nodes }
    }

    /// Like [`Tour::shortcut`], but keeps only nodes in `keep` (given as a
    /// membership predicate). Implements the Lemma-3 step "removal of the
    /// nodes not in `R ∪ V_0 ∪ … ∪ V_k` … and performing path short-cutting".
    pub fn shortcut_filtered(walk: &[usize], keep: impl Fn(usize) -> bool) -> Self {
        let mut seen = std::collections::HashSet::with_capacity(walk.len());
        let mut nodes = Vec::with_capacity(walk.len());
        for &v in walk {
            if keep(v) && seen.insert(v) {
                nodes.push(v);
            }
        }
        Self { nodes }
    }

    /// Visiting order (closing edge implicit).
    #[inline]
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Number of distinct nodes visited.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tour visits nothing at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// First node of the tour (the depot, for charger tours).
    #[inline]
    pub fn start(&self) -> Option<usize> {
        self.nodes.first().copied()
    }

    /// True when the tour visits `node`.
    pub fn contains(&self, node: usize) -> bool {
        self.nodes.contains(&node)
    }

    /// Total length including the closing edge.
    pub fn length<M: Metric>(&self, dist: &M) -> f64 {
        if self.nodes.len() < 2 {
            return 0.0;
        }
        let open: f64 = dist.walk_len(&self.nodes);
        open + dist.get(self.nodes[self.nodes.len() - 1], self.nodes[0])
    }

    /// Rotates the tour so it starts at `node`. No-op when absent.
    pub fn rotate_to(&mut self, node: usize) {
        if let Some(pos) = self.nodes.iter().position(|&v| v == node) {
            self.nodes.rotate_left(pos);
        }
    }

    /// Consumes the tour, returning the node order.
    pub fn into_nodes(self) -> Vec<usize> {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DistMatrix;
    use perpetuum_geom::Point2;

    fn unit_square() -> DistMatrix {
        DistMatrix::from_points(&[
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ])
    }

    #[test]
    fn square_perimeter() {
        let d = unit_square();
        let t = Tour::new(vec![0, 1, 2, 3]);
        assert!((t.length(&d) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_tours() {
        let d = unit_square();
        assert_eq!(Tour::singleton(2).length(&d), 0.0);
        assert_eq!(Tour::new(vec![]).length(&d), 0.0);
        assert_eq!(Tour::new(vec![0, 1]).length(&d), 2.0); // there and back
    }

    #[test]
    fn shortcut_removes_repeats_preserving_first_visits() {
        let t = Tour::shortcut(&[0, 1, 0, 2, 1, 3, 0]);
        assert_eq!(t.nodes(), &[0, 1, 2, 3]);
    }

    #[test]
    fn shortcut_never_longer_than_walk() {
        let d = unit_square();
        let walk = [0, 1, 0, 2, 0, 3, 0];
        let walk_len: f64 = d.walk_len(&walk);
        let t = Tour::shortcut(&walk);
        assert!(t.length(&d) <= walk_len + 1e-12);
    }

    #[test]
    fn shortcut_filtered_drops_nodes() {
        let t = Tour::shortcut_filtered(&[0, 1, 2, 3, 0], |v| v != 2);
        assert_eq!(t.nodes(), &[0, 1, 3]);
    }

    #[test]
    fn rotate_to_reorders_cyclically() {
        let d = unit_square();
        let mut t = Tour::new(vec![0, 1, 2, 3]);
        let before = t.length(&d);
        t.rotate_to(2);
        assert_eq!(t.nodes(), &[2, 3, 0, 1]);
        assert!((t.length(&d) - before).abs() < 1e-12);
        t.rotate_to(99); // absent: unchanged
        assert_eq!(t.nodes(), &[2, 3, 0, 1]);
    }

    #[test]
    fn contains_and_start() {
        let t = Tour::new(vec![4, 7]);
        assert_eq!(t.start(), Some(4));
        assert!(t.contains(7));
        assert!(!t.contains(5));
        assert_eq!(Tour::new(vec![]).start(), None);
    }
}
