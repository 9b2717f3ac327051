//! `perpetuum-opt` — budgeted anytime refinement of charging tours.
//!
//! The paper's Algorithm 2 builds each dispatch's tours constructively
//! (tree doubling + shortcut, a 2-approximation). This crate is the
//! missing improvement layer: a deterministic, seeded local search that
//! takes a family of depot-rooted tours and spends an explicit
//! [`Budget`] shrinking its total cycle length — intra-tour 2-opt and
//! Or-opt plus cross-tour relocate/swap of sensors between chargers —
//! while provably never changing *which* sensors the family serves.
//!
//! The crate is deliberately low-level: it knows tours and metrics
//! ([`perpetuum_graph::Metric`]), not schedules. Adapters that refine
//! whole `TourSet`s / `ScheduleSeries` live in `perpetuum_core::refine`,
//! which keeps the dependency arrow pointing the same way as the rest of
//! the stack (core → graph).
//!
//! Properties the test-suite pins:
//! * accepted moves strictly decrease cost (`delta < -1e-12`), so the
//!   working state is always the best seen — [`Refiner::best`] is an
//!   anytime snapshot;
//! * the union of nodes per family is invariant and depots stay at
//!   position 0 of their tours;
//! * a run is a pure function of `(input, seed, step budget)` —
//!   byte-identical tours on every machine.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod budget;
pub mod refiner;

pub use budget::Budget;
pub use refiner::{RefineOutcome, Refiner, DEFAULT_CANDIDATES, IMPROVE_EPS};
