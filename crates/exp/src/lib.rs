#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! Experiment harness reproducing every figure of Section VII.
//!
//! | Id | Paper figure | Sweep | Algorithms |
//! |---|---|---|---|
//! | `fig1a` | Fig. 1(a) | network size `n`, linear distribution | MinTotalDistance vs Greedy |
//! | `fig1b` | Fig. 1(b) | network size `n`, random distribution | MinTotalDistance vs Greedy |
//! | `fig2a` | Fig. 2(a) | `τ_max`, linear distribution | MinTotalDistance vs Greedy |
//! | `fig2b` | Fig. 2(b) | `τ_max`, random distribution | MinTotalDistance vs Greedy |
//! | `fig3`  | Fig. 3 | network size `n`, variable cycles | MinTotalDistance-var vs Greedy |
//! | `fig4`  | Fig. 4 | `τ_max`, variable cycles | MinTotalDistance-var vs Greedy |
//! | `fig5`  | Fig. 5 | slot length `ΔT`, variable cycles | MinTotalDistance-var vs Greedy |
//! | `fig6`  | Fig. 6 | jitter `σ`, variable cycles | MinTotalDistance-var vs Greedy |
//!
//! Every data point is the mean over `topologies` independent seeded
//! topologies (100 in the paper), run in parallel with `perpetuum-par` and
//! reported in km.
//!
//! The routing ablation's alternative tree-to-tour constructions live
//! here too, beside their only user: [`tsp_christofides`] (tree plus an
//! odd-vertex [`matching`]) and [`tsp_savings`] (Clarke–Wright). The
//! planners use Algorithm 2's tree doubling only.
//!
//! Other code that only experiments run lives here as well: the ablation
//! strawmen ([`naive`]), the extensions the paper only cites ([`minmax`]
//! covers, range [`split`]ting), and the [`closed_loop`] harness that runs
//! the online controller against the simulator. The scenario-to-world surface
//! lives in [`perpetuum_sim::scenario`]; [`scenario`] adds custom
//! experiments on top of it.

pub mod ablation;
pub mod closed_loop;
pub mod extras;
pub mod figures;
pub mod matching;
pub mod minmax;
pub mod naive;
pub mod output;
pub mod plot;
pub mod report;
pub mod scenario;
pub mod split;
pub mod tsp_christofides;
pub mod tsp_savings;
pub mod viz;

pub use ablation::{run_ablation, AblationId};
pub use extras::{run_extension, ExtensionId};
pub use figures::{run_figure, FigureData, FigureId, Series};
pub use scenario::CustomExperiment;
