//! Offered-load saturation sweep over the unbuffered catalog.
//!
//! Expands a campaign grid — every classical family at n = 3..=max ×
//! uniform traffic × an offered-load ladder from 0.1 to 1.0 — with enough
//! replications per scenario that the word-packed `LaneEngine` carries the
//! whole sweep, prints the per-scenario table, and writes the saturation
//! curve (replication-averaged throughput/latency per family × size ×
//! load, folded and written by `min_sim::curves`) to `saturation.json`;
//! the committed copy at the repository root is its default-argument
//! output. The same `--seed` yields a byte-identical curve at any
//! `--threads` value (CI `cmp`s a single-thread rerun against the parallel
//! one).
//!
//! Setting the `BENCH_QUICK` environment variable to anything but `0` or
//! the empty string shrinks the grid (fewer loads, smaller fabrics,
//! shorter runs) for smoke-test use; committed artifacts must come from a
//! default run.
//!
//! ```text
//! cargo run --release --example saturation_curve \
//!     [-- --threads <T>] [--seed <S>] [--max-stages <B>] \
//!     [--cycles <C>] [--out <path>]
//! ```

use baseline_equivalence::prelude::{curves, run_campaign, CampaignConfig};

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut threads = 0usize; // 0 = one worker per core
    let mut seed = 0x1988u64;
    let mut max_stages = if quick { 4 } else { 6 };
    let mut cycles = if quick { 200 } else { 600 };
    let mut out_path = String::from("saturation.json");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned();
        let parse =
            |what: &str, v: Option<String>| v.unwrap_or_else(|| panic!("missing value for {what}"));
        match args[i].as_str() {
            "--threads" => threads = parse("--threads", value).parse().expect("thread count"),
            "--seed" => seed = parse("--seed", value).parse().expect("seed"),
            "--max-stages" => max_stages = parse("--max-stages", value).parse().expect("stages"),
            "--cycles" => cycles = parse("--cycles", value).parse().expect("cycles"),
            "--out" => out_path = parse("--out", value),
            other => panic!("unknown argument `{other}`"),
        }
        i += 2;
    }

    // The load ladder: the saturation knee of an unbuffered banyan sits
    // well below 1.0, so the ladder is densest where the curve bends.
    let loads: Vec<f64> = if quick {
        vec![0.2, 0.6, 1.0]
    } else {
        (1..=10).map(|step| f64::from(step) / 10.0).collect()
    };
    // Enough replications that every scenario rides the word-packed lane
    // engine (the batching layer needs at least its lane threshold) and
    // the per-point statistics stabilize.
    let replications = if quick { 16 } else { 32 };

    let config = CampaignConfig::over_catalog(3..=max_stages)
        .with_seed(seed)
        .with_loads(loads)
        .with_replications(replications)
        .with_cycles(cycles, cycles / 10);

    println!(
        "== Saturation sweep: {} catalog cells × {} loads × {} replications = {} scenarios (seed {seed:#x}) ==\n",
        config.cells.len(),
        config.loads.len(),
        config.replications,
        config.scenario_count(),
    );

    let started = std::time::Instant::now();
    let report = match run_campaign(&config, threads) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("saturation sweep failed: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = started.elapsed();

    print!("{}", report.summary_table());
    let a = &report.aggregate;
    println!(
        "\nsaturation: mean throughput {:.4} · worst mean latency {:.2} cy · worst p99 {} cy",
        a.mean_throughput, a.worst_mean_latency, a.worst_p99_latency
    );
    println!(
        "completed in {:.2?} with {} worker thread(s) requested",
        elapsed,
        if threads == 0 {
            "auto".to_string()
        } else {
            threads.to_string()
        }
    );

    let json = curves::saturation_json(&config, &curves::fold(&config, &report));
    std::fs::write(&out_path, json).expect("write saturation curve");
    println!("curve written to {out_path}");
}
