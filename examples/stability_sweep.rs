//! Saturation/stability sweep under production-shaped traffic.
//!
//! Where `saturation_curve` sweeps uniform Bernoulli traffic over the
//! unbuffered catalog, this example drives the *hardened* traffic layer —
//! Zipf-skewed destinations and bursty Markov-modulated ON/OFF sources,
//! with uniform traffic as the control — across every switching core
//! (unbuffered, FIFO, and a wormhole lane ladder) on the 32-terminal Omega
//! and Baseline cells. The offered-load axis is open-loop: refused packets
//! still count as offered, so the curves reproduce the classic
//! stability-analysis shape where delivered throughput tracks the offered
//! rate up to a knee and then flattens (cf. the wormhole saturation curves
//! of arXiv:2007.02550 and the Omega-network stability analysis of
//! arXiv:1202.1062).
//!
//! The replication-averaged curves — offered rate, delivered throughput,
//! acceptance, latency and occupancy per grid point, plus the detected
//! saturation load (the first point where throughput falls more than 5 %
//! below the offered rate) — are folded and written as fixed-precision JSON
//! by `min_sim::curves`; the committed `stability.json` at the repository
//! root is this example's default-argument output. The same `--seed` yields
//! a byte-identical file at any `--threads` value (CI `cmp`s a single-thread
//! rerun against the parallel one).
//!
//! The example *gates its own output*: it exits nonzero unless every buffer
//! mode shows a measurable saturation point for at least one Zipf curve and
//! at least one bursty ON/OFF curve — the shape the stability literature
//! predicts. A silent regression in the traffic layer (say, skew or
//! burstiness quietly degrading to uniform) fails the run instead of
//! committing a flat curve.
//!
//! Setting `BENCH_QUICK` to anything but `0` or the empty string shrinks
//! the grid for smoke-test use; committed artifacts must come from a
//! default run.
//!
//! ```text
//! cargo run --release --example stability_sweep \
//!     [-- --threads <T>] [--seed <S>] [--cycles <C>] [--out <path>]
//! ```

use baseline_equivalence::prelude::{
    curves, run_campaign, BufferMode, CampaignConfig, ClassicalNetwork, NetworkSpec, TrafficPattern,
};

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut threads = 0usize; // 0 = one worker per core
    let mut seed = 0x5AB1E_u64;
    let mut cycles = if quick { 200 } else { 600 };
    let mut out_path = String::from("stability.json");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned();
        let parse =
            |what: &str, v: Option<String>| v.unwrap_or_else(|| panic!("missing value for {what}"));
        match args[i].as_str() {
            "--threads" => threads = parse("--threads", value).parse().expect("thread count"),
            "--seed" => seed = parse("--seed", value).parse().expect("seed"),
            "--cycles" => cycles = parse("--cycles", value).parse().expect("cycles"),
            "--out" => out_path = parse("--out", value),
            other => panic!("unknown argument `{other}`"),
        }
        i += 2;
    }

    let stages = if quick { 4 } else { 5 };
    let cells = vec![
        NetworkSpec::catalog(ClassicalNetwork::Omega, stages),
        NetworkSpec::catalog(ClassicalNetwork::Baseline, stages),
    ];
    // Uniform Bernoulli is the control; the Zipf skew concentrates traffic
    // on a few hot destinations, and the ON/OFF source fires full-rate
    // bursts at a 3:1 duty cycle — both saturate well below the uniform
    // knee.
    let traffic = vec![
        TrafficPattern::Uniform,
        TrafficPattern::Zipf { exponent: 1.0 },
        TrafficPattern::OnOff {
            on_dwell: 30.0,
            off_dwell: 10.0,
            on_rate: 1.0,
        },
    ];
    let buffer_modes = vec![
        BufferMode::Unbuffered,
        BufferMode::Fifo(4),
        BufferMode::Wormhole {
            lanes: 1,
            lane_depth: 4,
            flits_per_packet: 4,
        },
        BufferMode::Wormhole {
            lanes: 2,
            lane_depth: 4,
            flits_per_packet: 4,
        },
        BufferMode::Wormhole {
            lanes: 4,
            lane_depth: 4,
            flits_per_packet: 4,
        },
    ];
    let loads: Vec<f64> = if quick {
        vec![0.3, 0.6, 0.9]
    } else {
        (1..=10).map(|step| f64::from(step) / 10.0).collect()
    };
    let replications = if quick { 4 } else { 8 };
    let warmup = cycles / 10;

    let config = CampaignConfig::over_catalog(3..=3)
        .with_cells(cells)
        .with_seed(seed)
        .with_traffic(traffic)
        .with_loads(loads)
        .with_buffer_modes(buffer_modes)
        .with_replications(replications)
        .with_cycles(cycles, warmup);

    println!(
        "== Stability sweep: {} cells × {} traffic × {} loads × {} modes × {} reps = {} scenarios (seed {seed:#x}) ==\n",
        config.cells.len(),
        config.traffic.len(),
        config.loads.len(),
        config.buffer_modes.len(),
        config.replications,
        config.scenario_count(),
    );

    let started = std::time::Instant::now();
    let report = match run_campaign(&config, threads) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("stability sweep failed: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = started.elapsed();

    let folded = curves::fold(&config, &report);
    println!(
        "{:<10} {:>2}  {:<8} {:<14} {:>10}",
        "network", "n", "traffic", "buffers", "saturation"
    );
    for c in &folded {
        let knee = c
            .saturation_load(cycles)
            .map_or("—".to_string(), |load| format!("{load:.2}"));
        println!(
            "{:<10} {:>2}  {:<8} {:<14} {:>10}",
            c.network.name(),
            c.network.stages(),
            c.traffic.label(),
            c.buffer_mode.label(),
            knee
        );
    }
    println!("\ncompleted in {elapsed:.2?}");

    std::fs::write(&out_path, curves::stability_json(&config, &folded))
        .expect("write stability curves");
    println!("curves written to {out_path}");

    // Self-gate: every buffer mode must show the stability-literature shape
    // — a measurable saturation knee for at least one Zipf curve and at
    // least one bursty ON/OFF curve. A traffic-layer regression that
    // flattens the skew or the bursts fails the run here.
    let mut failures = Vec::new();
    for mode in &config.buffer_modes {
        for wanted in ["zipf", "on-off"] {
            let saturates = folded.iter().any(|c| {
                c.buffer_mode == *mode
                    && c.traffic.label() == wanted
                    && c.saturation_load(cycles).is_some()
            });
            if !saturates {
                failures.push(format!("{} under {wanted}", mode.label()));
            }
        }
    }
    if !failures.is_empty() {
        eprintln!(
            "stability gate failed: no saturation point for {}",
            failures.join(", ")
        );
        std::process::exit(1);
    }
    println!("stability gate passed: every buffer mode saturates under zipf and on-off traffic");
}
