#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! `perpetuum-exp` — reproduce the figures of the ICPP 2014 paper.
//!
//! ```text
//! perpetuum-exp --figure fig1a [--topologies 100] [--seed 42] [--out results] [--scale 1.0]
//! perpetuum-exp --all [--topologies 100] ...
//! perpetuum-exp --list
//! ```

use perpetuum_exp::ablation::{run_ablation, AblationId};
use perpetuum_exp::extras::{run_extension, ExtensionId};
use perpetuum_exp::figures::{run_figure_scaled, FigureId};
use perpetuum_exp::output::{render_table, write_files};
use perpetuum_exp::plot::render_ascii;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    figures: Vec<FigureId>,
    ablations: Vec<AblationId>,
    extensions: Vec<ExtensionId>,
    topologies: usize,
    seed: u64,
    out: Option<PathBuf>,
    scale: f64,
    plot: bool,
    render_topology: Option<PathBuf>,
    report: Option<PathBuf>,
    scenarios: Vec<PathBuf>,
    validate: Vec<PathBuf>,
}

const USAGE: &str = "\
perpetuum-exp: reproduce the evaluation figures of
  \"Towards Perpetual Sensor Networks via Deploying Multiple Mobile
   Wireless Chargers\" (ICPP 2014)

USAGE:
  perpetuum-exp --figure <id>     run one figure (fig1a fig1b fig2a fig2b fig3 fig4 fig5 fig6)
  perpetuum-exp --ablation <id>   run one ablation (rounding | polish | repair | routing)
  perpetuum-exp --extension <id>  run one extension experiment (burst | minmax | range | speed
                                  | noise | ratio | aging | deploy | robustness | drift)
  perpetuum-exp --all             run every figure, ablation and extension
  perpetuum-exp --list            list figure ids and captions
  perpetuum-exp validate <FILE.json>...
                                  parse + validate scenario JSON files; prints one line
                                  per file and exits non-zero if any is invalid

OPTIONS:
  --topologies <N>   topologies averaged per data point (default 100, as the paper)
  --seed <S>         master seed (default 42)
  --out <DIR>        also write <DIR>/<fig>.csv and <DIR>/<fig>.json
  --scale <F>        scale the monitoring period T by F (default 1.0; use
                     e.g. 0.1 for a quick pass)
  --plot             also render each result as an ASCII chart
  --render-topology <FILE.svg>
                     render one paper-default topology with its Algorithm 3
                     full-network tours as an SVG and exit
  --report <FILE.md> after running (or from an existing --out directory),
                     write a markdown report of every result JSON in --out
  --scenario <FILE.json>
                     run a custom experiment described in JSON (see
                     CustomExperiment in perpetuum-exp's docs)
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        figures: Vec::new(),
        ablations: Vec::new(),
        extensions: Vec::new(),
        topologies: 100,
        seed: 42,
        out: None,
        scale: 1.0,
        plot: false,
        render_topology: None,
        report: None,
        scenarios: Vec::new(),
        validate: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    let mut listed = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--figure" | "-f" => {
                let v = it.next().ok_or("--figure needs a value")?;
                let id = FigureId::parse(&v).ok_or(format!("unknown figure '{v}'"))?;
                args.figures.push(id);
            }
            "--ablation" => {
                let v = it.next().ok_or("--ablation needs a value")?;
                let id = AblationId::parse(&v).ok_or(format!("unknown ablation '{v}'"))?;
                args.ablations.push(id);
            }
            "--extension" | "-e" => {
                let v = it.next().ok_or("--extension needs a value")?;
                let id = ExtensionId::parse(&v).ok_or(format!("unknown extension '{v}'"))?;
                args.extensions.push(id);
            }
            "--all" | "-a" => {
                args.figures.extend(FigureId::ALL);
                args.ablations.extend(AblationId::ALL);
                args.extensions.extend(ExtensionId::ALL);
            }
            "--list" | "-l" => {
                for id in FigureId::ALL {
                    println!("{:6}  {}", id.id(), id.title());
                }
                for id in AblationId::ALL {
                    println!("{:6}  {}", id.id(), id.title());
                }
                for id in ExtensionId::ALL {
                    println!("{:6}  {}", id.id(), id.title());
                }
                listed = true;
            }
            "--topologies" | "-t" => {
                let v = it.next().ok_or("--topologies needs a value")?;
                args.topologies = v.parse().map_err(|_| format!("bad topology count '{v}'"))?;
            }
            "--seed" | "-s" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--out" | "-o" => {
                let v = it.next().ok_or("--out needs a value")?;
                args.out = Some(PathBuf::from(v));
            }
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = v.parse().map_err(|_| format!("bad scale '{v}'"))?;
                if args.scale <= 0.0 {
                    return Err("--scale must be positive".into());
                }
            }
            "--plot" | "-p" => args.plot = true,
            "--render-topology" => {
                let v = it.next().ok_or("--render-topology needs a file path")?;
                args.render_topology = Some(PathBuf::from(v));
            }
            "--report" => {
                let v = it.next().ok_or("--report needs a file path")?;
                args.report = Some(PathBuf::from(v));
            }
            "--scenario" => {
                let v = it.next().ok_or("--scenario needs a file path")?;
                args.scenarios.push(PathBuf::from(v));
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                listed = true;
            }
            "validate" => {
                let paths: Vec<PathBuf> = it.by_ref().map(PathBuf::from).collect();
                if paths.is_empty() {
                    return Err("validate needs at least one scenario file".into());
                }
                args.validate = paths;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.figures.is_empty()
        && args.ablations.is_empty()
        && args.extensions.is_empty()
        && args.render_topology.is_none()
        && args.report.is_none()
        && args.scenarios.is_empty()
        && args.validate.is_empty()
        && !listed
    {
        return Err(
            "nothing to do: pass --figure <id>, --ablation <id>, --extension <id>, --all, or --list"
                .into(),
        );
    }
    if args.topologies == 0 {
        return Err("--topologies must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.render_topology {
        use perpetuum_core::qtsp::q_rooted_tsp_src;
        use perpetuum_core::schedule::TourSet;
        let scenario = perpetuum_sim::scenario::Scenario::paper_fixed();
        let topo = scenario.build_topology(args.seed, 0);
        let all: Vec<usize> = (0..topo.network.n()).collect();
        let qt = q_rooted_tsp_src(&topo.network.dist_source(), &all, &topo.network.depot_nodes());
        let n = topo.network.n();
        let set = TourSet::from_qtours(qt, |v| v >= n);
        let svg = perpetuum_exp::viz::render_tour_set_svg(
            &topo.network,
            &topo.init_cycles,
            &set,
            &format!("paper-default topology, seed {} (full-network tours)", args.seed),
        );
        if let Err(e) = std::fs::write(path, svg) {
            eprintln!("error writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }

    if !args.validate.is_empty() {
        let mut failed = false;
        for path in &args.validate {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{}: unreadable: {e}", path.display());
                    failed = true;
                    continue;
                }
            };
            // Accept both a bare `Scenario` object and the wrapper shapes
            // used by custom-experiment files and daemon request bodies
            // (`{"scenario": {...}, ...}`) — catching a bad file *before*
            // a deploy is the point of this subcommand.
            let result = match serde_json::parse_value(&text) {
                Ok(tree) => match tree.get("scenario") {
                    Some(sub) => perpetuum_sim::scenario::world_from_value(sub, args.seed, 0),
                    None => perpetuum_sim::scenario::parse_world(&text, args.seed, 0),
                },
                Err(_) => perpetuum_sim::scenario::parse_world(&text, args.seed, 0),
            };
            match result {
                Ok(parsed) => println!(
                    "{}: ok (n={}, q={}, horizon={})",
                    path.display(),
                    parsed.topology.network.n(),
                    parsed.topology.network.q(),
                    parsed.scenario.horizon,
                ),
                Err(e) => {
                    eprintln!("{}: invalid: {e}", path.display());
                    failed = true;
                }
            }
        }
        if failed {
            return ExitCode::FAILURE;
        }
    }

    let mut outputs: Vec<perpetuum_exp::FigureData> = Vec::new();
    for id in &args.figures {
        let start = std::time::Instant::now();
        let fd = run_figure_scaled(*id, args.topologies, args.seed, args.scale);
        println!("{}", render_table(&fd));
        if args.plot {
            println!("{}", render_ascii(&fd, 64, 18));
        }
        println!("({} in {:.1?})\n", fd.id, start.elapsed());
        outputs.push(fd);
    }
    for id in &args.ablations {
        let start = std::time::Instant::now();
        let fd = run_ablation(*id, args.topologies, args.seed);
        println!("{}", render_table(&fd));
        if args.plot {
            println!("{}", render_ascii(&fd, 64, 18));
        }
        println!("({} in {:.1?})\n", fd.id, start.elapsed());
        outputs.push(fd);
    }
    for path in &args.scenarios {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error reading {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let exp = match perpetuum_exp::CustomExperiment::from_json(&text) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("error parsing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let start = std::time::Instant::now();
        let fd = exp.run(args.topologies, args.seed);
        println!("{}", render_table(&fd));
        if args.plot {
            println!("{}", render_ascii(&fd, 64, 18));
        }
        println!("({} in {:.1?})\n", fd.id, start.elapsed());
        outputs.push(fd);
    }
    for id in &args.extensions {
        let start = std::time::Instant::now();
        let fd = run_extension(*id, args.topologies, args.seed);
        println!("{}", render_table(&fd));
        if args.plot {
            println!("{}", render_ascii(&fd, 64, 18));
        }
        println!("({} in {:.1?})\n", fd.id, start.elapsed());
        outputs.push(fd);
    }
    if let Some(dir) = &args.out {
        for fd in &outputs {
            if let Err(e) = write_files(fd, dir) {
                eprintln!("error writing {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(report_path) = &args.report {
        // Prefer the persisted directory (it may hold results from earlier
        // invocations); fall back to this run's in-memory outputs.
        let figures = match &args.out {
            Some(dir) => match perpetuum_exp::report::load_results_dir(dir) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error loading {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            },
            None => outputs,
        };
        let md =
            perpetuum_exp::report::render_markdown_report(&figures, "perpetuum experiment report");
        if let Err(e) = std::fs::write(report_path, md) {
            eprintln!("error writing {}: {e}", report_path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", report_path.display());
    }
    ExitCode::SUCCESS
}
