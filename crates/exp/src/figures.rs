//! Figure runners — one per figure of Section VII.

use perpetuum_par::{mean, par_map};
use perpetuum_sim::scenario::{Algo, Scenario};
use serde::{Deserialize, Serialize};

/// Identifier of a reproduced figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum FigureId {
    Fig1a,
    Fig1b,
    Fig2a,
    Fig2b,
    Fig3,
    Fig4,
    Fig5,
    Fig6,
}

impl FigureId {
    /// All figures, in paper order.
    pub const ALL: [FigureId; 8] = [
        FigureId::Fig1a,
        FigureId::Fig1b,
        FigureId::Fig2a,
        FigureId::Fig2b,
        FigureId::Fig3,
        FigureId::Fig4,
        FigureId::Fig5,
        FigureId::Fig6,
    ];

    /// Parses `"fig1a"`, `"fig3"`, ….
    pub fn parse(s: &str) -> Option<FigureId> {
        match s.to_ascii_lowercase().as_str() {
            "fig1a" => Some(FigureId::Fig1a),
            "fig1b" => Some(FigureId::Fig1b),
            "fig2a" => Some(FigureId::Fig2a),
            "fig2b" => Some(FigureId::Fig2b),
            "fig3" => Some(FigureId::Fig3),
            "fig4" => Some(FigureId::Fig4),
            "fig5" => Some(FigureId::Fig5),
            "fig6" => Some(FigureId::Fig6),
            _ => None,
        }
    }

    /// Short id used in file names (`fig1a`, …).
    pub fn id(&self) -> &'static str {
        match self {
            FigureId::Fig1a => "fig1a",
            FigureId::Fig1b => "fig1b",
            FigureId::Fig2a => "fig2a",
            FigureId::Fig2b => "fig2b",
            FigureId::Fig3 => "fig3",
            FigureId::Fig4 => "fig4",
            FigureId::Fig5 => "fig5",
            FigureId::Fig6 => "fig6",
        }
    }

    /// Human-readable title (the paper's caption, abridged).
    pub fn title(&self) -> &'static str {
        match self {
            FigureId::Fig1a => "Fig. 1(a): service cost vs network size, linear distribution",
            FigureId::Fig1b => "Fig. 1(b): service cost vs network size, random distribution",
            FigureId::Fig2a => "Fig. 2(a): service cost vs tau_max, linear distribution",
            FigureId::Fig2b => "Fig. 2(b): service cost vs tau_max, random distribution",
            FigureId::Fig3 => "Fig. 3: variable cycles, service cost vs network size",
            FigureId::Fig4 => "Fig. 4: variable cycles, service cost vs tau_max",
            FigureId::Fig5 => "Fig. 5: variable cycles, service cost vs slot length dT",
            FigureId::Fig6 => "Fig. 6: variable cycles, service cost vs jitter sigma",
        }
    }
}

/// One curve of a figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    /// Legend name.
    pub name: String,
    /// Mean service cost (km) per x value.
    pub values: Vec<f64>,
    /// Sample standard deviation (km) per x value.
    pub std_devs: Vec<f64>,
    /// Total sensor deaths across all topologies per x value (0 =
    /// perpetual operation, as the problem demands).
    pub deaths: Vec<usize>,
}

/// The reproduced data behind one figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureData {
    /// Which figure.
    pub id: String,
    /// Caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Swept x values.
    pub xs: Vec<f64>,
    /// One series per algorithm.
    pub series: Vec<Series>,
    /// Topologies averaged per point.
    pub topologies: usize,
    /// Master seed.
    pub seed: u64,
}

impl FigureData {
    /// Ratio series `series[a] / series[b]` — e.g. MinTotalDistance over
    /// Greedy, the number the paper's prose quotes (55%–60% etc).
    pub fn ratio(&self, a: usize, b: usize) -> Vec<f64> {
        self.series[a]
            .values
            .iter()
            .zip(self.series[b].values.iter())
            .map(|(&x, &y)| if y == 0.0 { f64::NAN } else { x / y })
            .collect()
    }
}

/// A single point of a sweep: scenario + the algorithms to compare on it.
struct SweepPoint {
    x: f64,
    scenario: Scenario,
}

fn sweep(
    id: FigureId,
    x_label: &str,
    points: Vec<SweepPoint>,
    algos: &[Algo],
    topologies: usize,
    seed: u64,
) -> FigureData {
    let mut series: Vec<Series> = algos
        .iter()
        .map(|a| Series {
            name: a.name().to_string(),
            values: Vec::with_capacity(points.len()),
            std_devs: Vec::with_capacity(points.len()),
            deaths: Vec::with_capacity(points.len()),
        })
        .collect();
    let mut xs = Vec::with_capacity(points.len());

    for point in &points {
        xs.push(point.x);
        for (ai, &algo) in algos.iter().enumerate() {
            let results = par_map(topologies, |i| point.scenario.run_once(algo, seed, i as u64));
            let costs_km: Vec<f64> = results.iter().map(|r| r.service_cost / 1000.0).collect();
            let deaths: usize = results.iter().map(|r| r.deaths.len()).sum();
            series[ai].values.push(mean(&costs_km));
            series[ai].std_devs.push(perpetuum_par::std_dev(&costs_km));
            series[ai].deaths.push(deaths);
        }
    }

    FigureData {
        id: id.id().to_string(),
        title: id.title().to_string(),
        x_label: x_label.to_string(),
        xs,
        series,
        topologies,
        seed,
    }
}

/// Network-size values the paper sweeps (Figures 1 and 3).
pub const NETWORK_SIZES: [usize; 5] = [100, 200, 300, 400, 500];
/// `τ_max` values swept in Figures 2 and 4.
pub const TAU_MAX_VALUES: [f64; 11] =
    [1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0];
/// Slot lengths swept in Figure 5.
pub const SLOT_VALUES: [f64; 11] = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0];
/// Jitter values swept in Figure 6.
pub const SIGMA_VALUES: [f64; 8] = [0.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0];

/// Runs one figure at the given replication count and master seed.
pub fn run_figure(id: FigureId, topologies: usize, seed: u64) -> FigureData {
    run_figure_scaled(id, topologies, seed, 1.0)
}

/// [`run_figure`] with the monitoring period scaled by `horizon_scale`
/// (< 1.0 shrinks runs for benches and CI; 1.0 is the paper's `T = 1000`).
pub fn run_figure_scaled(
    id: FigureId,
    topologies: usize,
    seed: u64,
    horizon_scale: f64,
) -> FigureData {
    use perpetuum_energy::CycleDistribution;
    assert!(topologies > 0, "need at least one topology");
    assert!(horizon_scale > 0.0);
    let scale = |mut s: Scenario| {
        s.horizon *= horizon_scale;
        s
    };

    match id {
        FigureId::Fig1a | FigureId::Fig1b => {
            let dist = if id == FigureId::Fig1a {
                CycleDistribution::linear_default()
            } else {
                CycleDistribution::Random
            };
            let points = NETWORK_SIZES
                .iter()
                .map(|&n| SweepPoint {
                    x: n as f64,
                    scenario: scale(Scenario { n, dist, ..Scenario::paper_fixed() }),
                })
                .collect();
            sweep(id, "network size n", points, &[Algo::Mtd, Algo::Greedy], topologies, seed)
        }
        FigureId::Fig2a | FigureId::Fig2b => {
            let dist = if id == FigureId::Fig2a {
                CycleDistribution::linear_default()
            } else {
                CycleDistribution::Random
            };
            let points = TAU_MAX_VALUES
                .iter()
                .map(|&tau_max| SweepPoint {
                    x: tau_max,
                    scenario: scale(Scenario { tau_max, dist, ..Scenario::paper_fixed() }),
                })
                .collect();
            sweep(id, "tau_max", points, &[Algo::Mtd, Algo::Greedy], topologies, seed)
        }
        FigureId::Fig3 => {
            let points = NETWORK_SIZES
                .iter()
                .map(|&n| SweepPoint {
                    x: n as f64,
                    scenario: scale(Scenario { n, ..Scenario::paper_variable() }),
                })
                .collect();
            sweep(id, "network size n", points, &[Algo::MtdVar, Algo::Greedy], topologies, seed)
        }
        FigureId::Fig4 => {
            let points = TAU_MAX_VALUES
                .iter()
                .map(|&tau_max| SweepPoint {
                    x: tau_max,
                    scenario: scale(Scenario { tau_max, ..Scenario::paper_variable() }),
                })
                .collect();
            sweep(id, "tau_max", points, &[Algo::MtdVar, Algo::Greedy], topologies, seed)
        }
        FigureId::Fig5 => {
            let points = SLOT_VALUES
                .iter()
                .map(|&slot| SweepPoint {
                    x: slot,
                    scenario: scale(Scenario { slot, ..Scenario::paper_variable() }),
                })
                .collect();
            sweep(id, "slot length dT", points, &[Algo::MtdVar, Algo::Greedy], topologies, seed)
        }
        FigureId::Fig6 => {
            let points = SIGMA_VALUES
                .iter()
                .map(|&sigma| SweepPoint {
                    x: sigma,
                    scenario: scale(Scenario {
                        dist: CycleDistribution::Linear { sigma },
                        ..Scenario::paper_variable()
                    }),
                })
                .collect();
            sweep(id, "sigma", points, &[Algo::MtdVar, Algo::Greedy], topologies, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for id in FigureId::ALL {
            assert_eq!(FigureId::parse(id.id()), Some(id));
        }
        assert_eq!(FigureId::parse("FIG1A"), Some(FigureId::Fig1a));
        assert_eq!(FigureId::parse("fig9"), None);
    }

    #[test]
    fn ratio_helper() {
        let fd = FigureData {
            id: "x".into(),
            title: "t".into(),
            x_label: "x".into(),
            xs: vec![1.0, 2.0],
            series: vec![
                Series {
                    name: "a".into(),
                    values: vec![1.0, 2.0],
                    std_devs: vec![0.0, 0.0],
                    deaths: vec![0, 0],
                },
                Series {
                    name: "b".into(),
                    values: vec![2.0, 4.0],
                    std_devs: vec![0.0, 0.0],
                    deaths: vec![0, 0],
                },
            ],
            topologies: 1,
            seed: 0,
        };
        assert_eq!(fd.ratio(0, 1), vec![0.5, 0.5]);
    }

    /// Smoke test: a heavily scaled-down Fig. 1(a) still shows the paper's
    /// ordering (MinTotalDistance below Greedy under the linear
    /// distribution).
    #[test]
    fn mini_fig1a_preserves_ordering() {
        let fd = run_figure_scaled(FigureId::Fig1a, 2, 7, 0.1);
        assert_eq!(fd.series.len(), 2);
        assert_eq!(fd.xs.len(), NETWORK_SIZES.len());
        let ratios = fd.ratio(0, 1);
        for (i, r) in ratios.iter().enumerate() {
            assert!(*r < 1.0, "point {i}: MTD/Greedy ratio {r} >= 1");
        }
        // Perpetual operation everywhere.
        for s in &fd.series {
            assert!(s.deaths.iter().all(|&d| d == 0), "{}: deaths", s.name);
        }
    }
}
