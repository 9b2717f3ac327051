//! Graph machinery for the `perpetuum` workspace.
//!
//! The scheduling algorithms of the paper operate on *metric complete
//! graphs*: every pair of nodes (sensors or depots) is joined by an edge
//! weighted with their Euclidean distance. This crate implements, from
//! scratch, everything the schedulers need on such graphs:
//!
//! * [`DistMatrix`] — a flat, dense, symmetric distance matrix: the
//!   representation of exact solvers and of the reference small-instance
//!   tests compare the planners against,
//! * [`dist`] — the [`Metric`] trait and the [`DistSource`] planners run
//!   against: on-demand point distances, so no instance materializes `n²`
//!   floats,
//! * [`sparse`] — CSR graphs, binary-heap Prim in `O(m log n)` and
//!   [`sparse::super_root_mst`], the exact kd-tree Borůvka minimum
//!   spanning tree behind the planners' Algorithm 1,
//! * [`dsu::DisjointSets`] — union–find with path halving and union by size,
//! * [`mst`] — Prim's algorithm in `O(n²)` on dense matrices (the right
//!   complexity class for complete graphs) and Kruskal on edge lists,
//! * [`euler`] — Hierholzer's algorithm for Euler circuits of multigraphs
//!   (used on doubled trees, the heart of the 2-approximation),
//! * [`tour`] — closed tours, walk short-cutting and validation,
//! * [`tsp_exact`] — Held–Karp dynamic programming for reference optima on
//!   small instances,
//! * [`tsp_heur`] — nearest-neighbour construction and the kd-tree k-NN
//!   candidate lists the `perpetuum-opt` refiner scans (tour improvement
//!   itself lives only in that refiner),
//! * [`one_tree`] — Held–Karp 1-tree lower bounds for certifying tour
//!   quality beyond exact-solver reach.
//!
//! The planners turn trees into tours one way, by doubling
//! ([`euler::double_edges`]). The matching and Clarke–Wright savings
//! constructions that the routing ablation compares against live beside
//! that ablation, in `perpetuum-exp`.

pub mod dist;
pub mod dsu;
pub mod euler;
pub mod matrix;
pub mod mst;
pub mod one_tree;
pub mod sparse;
pub mod tour;
pub mod tsp_exact;
pub mod tsp_heur;

pub use dist::{DistSource, Metric};
pub use dsu::DisjointSets;
pub use matrix::DistMatrix;
pub use sparse::{prim_sparse, super_root_mst, SparseGraph};
pub use tour::Tour;
