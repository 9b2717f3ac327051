//! Custom experiments: a scenario plus the algorithms to compare and a
//! network-size sweep, loadable from JSON for the CLI's `--scenario` flag.
//!
//! The scenario-to-world surface itself lives in
//! [`perpetuum_sim::scenario`], next to the simulated world it builds.

use perpetuum_sim::scenario::{Algo, ScenarioError};
use perpetuum_sim::FaultModel;
use serde::{Deserialize, Serialize};

/// The part of the scenario-to-world surface the end-to-end benchmark
/// (`perfbench/`) imports from this path, re-exported from its home in
/// [`perpetuum_sim::scenario`]. Nothing else in the workspace uses it.
pub use perpetuum_sim::scenario::{realise_world, world_from_value, ParsedWorld, Scenario};

/// A custom experiment: a scenario plus the algorithms to compare and a
/// sweep over network sizes — loadable from JSON for the CLI's
/// `--scenario` flag.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CustomExperiment {
    /// Human-readable name (used as the table title and file stem).
    pub name: String,
    /// The base scenario.
    pub scenario: Scenario,
    /// Algorithms to compare.
    pub algos: Vec<Algo>,
    /// Network sizes to sweep (empty = just the scenario's own `n`).
    #[serde(default)]
    pub network_sizes: Vec<usize>,
    /// Fault model every run is subjected to (absent = fault-free, which
    /// is bit-identical to the plain engine).
    #[serde(default)]
    pub faults: FaultModel,
}

impl CustomExperiment {
    /// Parses and validates a JSON description. Malformed JSON and
    /// unrealisable scenarios (NaN/negative sizes, `q = 0`, inverted
    /// cycle ranges, no algorithms…) come back as a typed
    /// [`ScenarioError`] instead of a panic later in the pipeline.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let exp: Self =
            serde_json::from_str(text).map_err(|e| ScenarioError::Json(e.to_string()))?;
        exp.validate()?;
        Ok(exp)
    }

    /// Structural validation: the scenario must be realisable, at least
    /// one algorithm must be listed, and every swept network size must be
    /// non-zero.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.scenario.validate()?;
        if self.algos.is_empty() {
            return Err(ScenarioError::NoAlgos);
        }
        if self.network_sizes.contains(&0) {
            return Err(ScenarioError::NoSensors);
        }
        self.faults.validate().map_err(ScenarioError::Faults)?;
        Ok(())
    }

    /// Runs the experiment, averaging each point over `topologies`
    /// topologies.
    pub fn run(&self, topologies: usize, seed: u64) -> crate::figures::FigureData {
        use crate::figures::Series;
        use perpetuum_par::{mean, par_map, std_dev};
        let ns: Vec<usize> = if self.network_sizes.is_empty() {
            vec![self.scenario.n]
        } else {
            self.network_sizes.clone()
        };
        let mut series: Vec<Series> = self
            .algos
            .iter()
            .map(|a| Series {
                name: a.name().to_string(),
                values: Vec::new(),
                std_devs: Vec::new(),
                deaths: Vec::new(),
            })
            .collect();
        for &n in &ns {
            let s = Scenario { n, ..self.scenario };
            for (ai, &algo) in self.algos.iter().enumerate() {
                let results =
                    par_map(topologies, |i| s.run_once_faulted(algo, seed, i as u64, &self.faults));
                let costs: Vec<f64> = results.iter().map(|r| r.service_cost / 1000.0).collect();
                series[ai].values.push(mean(&costs));
                series[ai].std_devs.push(std_dev(&costs));
                series[ai].deaths.push(results.iter().map(|r| r.deaths.len()).sum());
            }
        }
        let id: String =
            self.name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
        crate::figures::FigureData {
            id,
            title: self.name.clone(),
            x_label: "network size n".to_string(),
            xs: ns.iter().map(|&n| n as f64).collect(),
            series,
            topologies,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn custom_experiment_round_trips_and_runs() {
        let json = r#"{
            "name": "tiny sweep",
            "scenario": {
                "field_size": 1000.0, "n": 10, "q": 3,
                "tau_min": 1.0, "tau_max": 20.0,
                "dist": { "Linear": { "sigma": 2.0 } },
                "horizon": 50.0, "slot": 10.0,
                "variable": false, "deployment": "Uniform"
            },
            "algos": ["Mtd", "Greedy"],
            "network_sizes": [10, 20]
        }"#;
        let exp = match CustomExperiment::from_json(json) {
            Ok(e) => e,
            Err(e) => panic!("valid scenario rejected: {e}"),
        };
        assert_eq!(exp.algos.len(), 2);
        let fd = exp.run(2, 5);
        assert_eq!(fd.xs, vec![10.0, 20.0]);
        assert_eq!(fd.series.len(), 2);
        assert!(fd.series.iter().all(|s| s.deaths.iter().all(|&d| d == 0)));
        // MTD wins under the linear distribution here too.
        assert!(fd.series[0].values[1] < fd.series[1].values[1]);
        // Bad JSON reports an error instead of panicking.
        assert!(matches!(CustomExperiment::from_json("{"), Err(ScenarioError::Json(_))));
    }

    #[test]
    fn from_json_rejects_unrealisable_scenarios() {
        // Parses fine, but q = 0 can never charge anything.
        let json = r#"{
            "name": "bad", "scenario": {
                "field_size": 1000.0, "n": 10, "q": 0,
                "tau_min": 1.0, "tau_max": 20.0,
                "dist": { "Linear": { "sigma": 2.0 } },
                "horizon": 50.0, "slot": 10.0,
                "variable": false, "deployment": "Uniform"
            },
            "algos": ["Mtd"]
        }"#;
        assert_eq!(CustomExperiment::from_json(json).unwrap_err(), ScenarioError::EmptyDepots);
        // An empty algorithm list is an error too.
        let no_algos = json.replace(r#""q": 0"#, r#""q": 3"#).replace(r#"["Mtd"]"#, "[]");
        assert_eq!(CustomExperiment::from_json(&no_algos).unwrap_err(), ScenarioError::NoAlgos);
    }

    #[test]
    fn experiment_fault_block_parses_validates_and_runs() {
        let json = r#"{
            "name": "faulty", "scenario": {
                "field_size": 1000.0, "n": 10, "q": 3,
                "tau_min": 1.0, "tau_max": 20.0,
                "dist": { "Linear": { "sigma": 2.0 } },
                "horizon": 50.0, "slot": 10.0,
                "variable": false, "deployment": "Uniform"
            },
            "algos": ["Mtd"],
            "faults": { "chargers": { "mtbf": 20.0, "mttr": 10.0 }, "seed": 3 }
        }"#;
        let exp = match CustomExperiment::from_json(json) {
            Ok(e) => e,
            Err(e) => panic!("valid faulty experiment rejected: {e}"),
        };
        assert!(exp.faults.chargers.is_some());
        let fd = exp.run(2, 5);
        assert_eq!(fd.series.len(), 1);
        // An out-of-range fault model is a typed error, not a panic.
        let bad = json.replace(r#""mtbf": 20.0"#, r#""mtbf": -1.0"#);
        assert!(matches!(CustomExperiment::from_json(&bad), Err(ScenarioError::Faults(_))));
    }
}
