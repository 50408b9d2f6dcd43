//! `perfbench`: the library side of the repository benchmark, called by
//! `perfbench/run.py`; `perfbench/README.md` describes the workloads and
//! metrics.
//!
//! ```text
//! perfbench setup  --workload <w> --seed <s> [--tiny]
//! perfbench serve  --seed <s> --workers <k> --out <path> [--tiny]
//! perfbench oracle --seed <s> --out <path> [--tiny]
//! perfbench trace  --seed <s> --expect-stability <path> --expect-saturation <path>
//!                  --expect-classify <path> --expect-serve <path> [--tiny]
//! ```
//!
//! * `setup` times the set-up calls of a workload — `CampaignConfig::plan`,
//!   `ClassificationGrid::subjects`, or master bind plus the `Submit` reply —
//!   and prints their median with the workload's work count.
//! * `serve` runs the loopback min-serve campaign once and writes its report.
//! * `oracle` writes `run_campaign(&config, 1).to_json()` for that campaign.
//! * `trace` runs every workload once, single-threaded, timing each layer
//!   from outside, and checks each output against the given oracle file.
//!
//! `--seed 0` selects each example's own default seed; `--tiny` shrinks
//! every grid for the benchmark's self-test. Each subcommand prints one JSON
//! object as its last line of standard output and exits nonzero on error.

#![forbid(unsafe_code)]

mod grids;
mod metrics;
mod serve;
mod trace;

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use metrics::{median, secs, Metrics};
use trace::CampaignWorkload;

/// A subcommand with its `--key value` options and the `--tiny` flag.
struct Args {
    command: String,
    options: HashMap<String, String>,
    tiny: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = std::env::args().skip(1);
        let command = args.next().ok_or("missing subcommand")?;
        let mut options = HashMap::new();
        let mut tiny = false;
        while let Some(key) = args.next() {
            if key == "--tiny" {
                tiny = true;
                continue;
            }
            if !key.starts_with("--") {
                return Err(format!("unexpected argument `{key}`"));
            }
            let value = args.next().ok_or(format!("missing value for {key}"))?;
            options.insert(key, value);
        }
        Ok(Args {
            command,
            options,
            tiny,
        })
    }

    fn option(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or(format!("missing {key}"))
    }

    fn number(&self, key: &str) -> Result<u64, String> {
        let value = self.option(key)?;
        value
            .parse()
            .map_err(|_| format!("{key} wants a whole number, got `{value}`"))
    }
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<String, String> {
    let args = Args::parse()?;
    let seed = args.number("--seed")?;
    let serve_config = || grids::serve(grids::workload_seed("serve", seed), args.tiny);
    match args.command.as_str() {
        "setup" => setup(args.option("--workload")?, seed, args.tiny),
        "serve" => {
            let workers = args.number("--workers")? as usize;
            let (report, wall_s) = serve::run(&serve_config(), workers)?;
            write(args.option("--out")?, &report)?;
            Ok(format!("{{\"wall_s\": {wall_s}}}"))
        }
        "oracle" => {
            let report = baseline_equivalence::prelude::run_campaign(&serve_config(), 1)
                .map_err(|e| e.to_string())?;
            write(args.option("--out")?, &report.to_json())?;
            Ok("{}".to_string())
        }
        "trace" => trace_all(&args, seed),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

/// The median of repeated set-ups: at least 11, and more while a fifth of a
/// second lasts (at most 1001).
fn median_setup(mut once: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let budget = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 11 || (secs(budget) < 0.2 && samples.len() < 1001) {
        samples.push(once()?);
    }
    Ok(median(samples))
}

/// Times the workload's set-up calls; also reports the work a run does
/// (cell-cycles, or subjects for `classify`) for the throughput metric.
fn setup(workload: &str, seed: u64, tiny: bool) -> Result<String, String> {
    let seed = grids::workload_seed(workload, seed);
    let plan_time = |config: &baseline_equivalence::prelude::CampaignConfig| {
        median_setup(|| {
            let t = Instant::now();
            let plan = config.plan().map_err(|e| e.to_string())?;
            let setup_s = secs(t);
            black_box(plan);
            Ok(setup_s)
        })
    };
    let (setup_s, work) = match workload {
        "stability" | "saturation" => {
            let config = if workload == "stability" {
                grids::stability(seed, tiny)
            } else {
                grids::saturation(seed, tiny)
            };
            (plan_time(&config)?, grids::campaign_cell_cycles(&config))
        }
        "classify" => {
            let grid = grids::classify(seed, tiny);
            let setup_s = median_setup(|| {
                let t = Instant::now();
                let subjects = grid.subjects();
                let setup_s = secs(t);
                black_box(subjects);
                Ok(setup_s)
            })?;
            (setup_s, grid.subject_count() as u64)
        }
        "serve" => {
            let config = grids::serve(seed, tiny);
            let setup_s = median_setup(|| serve::setup_once(&config))?;
            (setup_s, grids::campaign_cell_cycles(&config))
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok(format!("{{\"setup_s\": {setup_s}, \"work\": {work}}}"))
}

/// The traced pass over all four workloads, then the traffic probes.
fn trace_all(args: &Args, seed: u64) -> Result<String, String> {
    let expected = |workload: &str| {
        let path = args.option(&format!("--expect-{workload}"))?;
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    };
    let workload_seed = |workload: &str| grids::workload_seed(workload, seed);
    let mut out = Metrics::default();
    let stability = CampaignWorkload {
        name: "stability",
        config: grids::stability(workload_seed("stability"), args.tiny),
        engines: &[
            "lane",
            "engine.unbuffered",
            "switch.fifo",
            "switch.wormhole.l1",
            "switch.wormhole.l2",
            "switch.wormhole.l4",
        ],
        traffic: &["uniform", "zipf", "on-off"],
        render: grids::stability_json,
    };
    trace::campaign(&mut out, &stability, &expected("stability")?)?;
    let saturation = CampaignWorkload {
        name: "saturation",
        config: grids::saturation(workload_seed("saturation"), args.tiny),
        engines: &["lane"],
        traffic: &["uniform"],
        render: grids::saturation_json,
    };
    trace::campaign(&mut out, &saturation, &expected("saturation")?)?;
    let grid = grids::classify(workload_seed("classify"), args.tiny);
    trace::classify(&mut out, &grid, &expected("classify")?)?;
    let config = grids::serve(workload_seed("serve"), args.tiny);
    serve::trace(&mut out, &config, &expected("serve")?)?;
    trace::traffic_probes(&mut out, workload_seed("stability"));
    Ok(format!("{{\"metrics\": {}}}", out.to_json()))
}
