//! The workloads' inputs, built exactly as the shipped examples build them,
//! plus the curve writers of `stability_sweep` and `saturation_curve`.
//!
//! The traced pass drives `plan` → `execute_shard` → `assemble` itself, so
//! it needs each example's grid and JSON rendering to compare its bytes with
//! the file the example writes. Keep this module in step with
//! `examples/stability_sweep.rs`, `examples/saturation_curve.rs` and
//! `examples/classify_sweep.rs`: every traced run compares the bytes, so
//! drift fails the run instead of passing silently.

use std::fmt::Write as _;

use baseline_equivalence::prelude::{
    BufferMode, CampaignConfig, CampaignReport, ClassicalNetwork, ClassificationGrid, NetworkSpec,
    RandomFamily, Rewrite, TrafficPattern,
};

/// The workload seed for benchmark seed `seed`: `0` keeps the example's own
/// default (the seed the committed artifact was written with), any other
/// value is used as is.
pub fn workload_seed(workload: &str, seed: u64) -> u64 {
    match (workload, seed) {
        ("stability", 0) => 0x5AB1E,
        (_, 0) => 0x1988,
        (_, seed) => seed,
    }
}

/// The ten-step offered-load ladder 0.1, 0.2, …, 1.0.
fn load_ladder() -> Vec<f64> {
    (1..=10).map(|step| f64::from(step) / 10.0).collect()
}

/// `stability_sweep`'s grid (its `BENCH_QUICK` sizing when `tiny`).
pub fn stability(seed: u64, tiny: bool) -> CampaignConfig {
    let stages = if tiny { 4 } else { 5 };
    let cycles = if tiny { 200 } else { 600 };
    let wormhole = |lanes| BufferMode::Wormhole {
        lanes,
        lane_depth: 4,
        flits_per_packet: 4,
    };
    CampaignConfig::over_catalog(3..=3)
        .with_cells(vec![
            NetworkSpec::catalog(ClassicalNetwork::Omega, stages),
            NetworkSpec::catalog(ClassicalNetwork::Baseline, stages),
        ])
        .with_seed(seed)
        .with_traffic(vec![
            TrafficPattern::Uniform,
            TrafficPattern::Zipf { exponent: 1.0 },
            TrafficPattern::OnOff {
                on_dwell: 30.0,
                off_dwell: 10.0,
                on_rate: 1.0,
            },
        ])
        .with_loads(if tiny {
            vec![0.3, 0.6, 0.9]
        } else {
            load_ladder()
        })
        .with_buffer_modes(vec![
            BufferMode::Unbuffered,
            BufferMode::Fifo(4),
            wormhole(1),
            wormhole(2),
            wormhole(4),
        ])
        .with_replications(if tiny { 4 } else { 8 })
        .with_cycles(cycles, cycles / 10)
}

/// `saturation_curve`'s grid (its `BENCH_QUICK` sizing when `tiny`).
pub fn saturation(seed: u64, tiny: bool) -> CampaignConfig {
    let cycles = if tiny { 200 } else { 600 };
    CampaignConfig::over_catalog(3..=if tiny { 4 } else { 6 })
        .with_seed(seed)
        .with_loads(if tiny {
            vec![0.2, 0.6, 1.0]
        } else {
            load_ladder()
        })
        .with_replications(if tiny { 16 } else { 32 })
        .with_cycles(cycles, cycles / 10)
}

/// The loopback service campaign: the catalog at n = 3..=5 × {uniform,
/// bit-reversal} × five loads × 2 replications × 200 cycles — 180 grid
/// points, one shard each.
pub fn serve(seed: u64, tiny: bool) -> CampaignConfig {
    let (stages, loads) = if tiny {
        (3..=3, vec![0.4, 0.8])
    } else {
        (3..=5, vec![0.2, 0.4, 0.6, 0.8, 1.0])
    };
    CampaignConfig::over_catalog(stages)
        .with_seed(seed)
        .with_traffic(vec![TrafficPattern::Uniform, TrafficPattern::BitReversal])
        .with_loads(loads)
        .with_replications(2)
        .with_cycles(200, 20)
}

/// `classify_sweep`'s grid. `tiny` mirrors the flags `run.py --tiny` passes
/// it: `--max-stages 6 --random-samples 1 --random-max-stages 4
/// --benes-max-n 3 --rewrite-stages 3`.
pub fn classify(seed: u64, tiny: bool) -> ClassificationGrid {
    let (max_stages, samples, random_max, benes_max_n, rewrite_stages) = if tiny {
        (6, 1, 4, 3, 3)
    } else {
        (16, 2, 6, 4, 4)
    };
    let mut grid = ClassificationGrid::over_catalog(2..=max_stages).with_seed(seed);
    for n in 2..=benes_max_n {
        grid.catalog.push(NetworkSpec::benes(n));
        grid.catalog.push(NetworkSpec::benes_variant(n));
    }
    for family in ClassicalNetwork::ALL {
        for rewrite in Rewrite::ALL {
            grid.catalog
                .push(NetworkSpec::rewritten(family, rewrite_stages, rewrite));
        }
    }
    grid.with_random(RandomFamily::ALL.to_vec(), 3..=random_max, samples)
}

/// Simulated work of one scenario: stages × cells per stage × cycles.
pub fn cell_cycles(network: &NetworkSpec, cycles: u64) -> u64 {
    (network.stages() * network.cells_per_stage()) as u64 * cycles
}

/// Simulated work of a whole campaign, summed over its scenarios.
pub fn campaign_cell_cycles(config: &CampaignConfig) -> u64 {
    let scenarios_per_cell = (config.scenario_count() / config.cells.len()) as u64;
    config
        .cells
        .iter()
        .map(|cell| cell_cycles(cell, config.cycles) * scenarios_per_cell)
        .sum()
}

/// One load point of a stability curve, folded over its replications.
struct StabilityPoint {
    load: f64,
    terminals: usize,
    offered: u64,
    throughput: f64,
    acceptance: f64,
    latency: f64,
    occupancy: f64,
    replications: u32,
}

/// `stability_sweep`'s output file for `report`: one curve per (network,
/// traffic, buffer mode), its replication-averaged load points, and the
/// first load whose throughput falls 5 % below the offered rate.
pub fn stability_json(report: &CampaignReport, config: &CampaignConfig) -> String {
    const DIVERGENCE_THRESHOLD: f64 = 0.05;
    let cycles = config.cycles;
    let offered_rate = |p: &StabilityPoint| {
        let slots = cycles as f64 * p.terminals as f64 * f64::from(p.replications);
        if slots == 0.0 {
            0.0
        } else {
            p.offered as f64 / slots
        }
    };
    // The load axis sits outside the buffer-mode axis, so one curve's points
    // are not adjacent in the result list: group by key in order of first
    // appearance.
    type Key = (String, usize, &'static str, String);
    let mut curves: Vec<(Key, Vec<StabilityPoint>)> = Vec::new();
    for r in &report.scenarios {
        let s = &r.scenario;
        let key = (
            s.network.name(),
            s.stages,
            s.traffic.label(),
            s.buffer_mode.label(),
        );
        let at = match curves.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                curves.push((key, Vec::new()));
                curves.len() - 1
            }
        };
        let points = &mut curves[at].1;
        if points.last().map(|p| p.load) != Some(s.offered_load) {
            points.push(StabilityPoint {
                load: s.offered_load,
                terminals: s.network.terminals(),
                offered: 0,
                throughput: 0.0,
                acceptance: 0.0,
                latency: 0.0,
                occupancy: 0.0,
                replications: 0,
            });
        }
        let p = points.last_mut().expect("just pushed");
        p.offered += r.offered;
        p.throughput += r.throughput;
        p.acceptance += r.acceptance;
        p.latency += r.mean_latency;
        p.occupancy += r.mean_occupancy;
        p.replications += 1;
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"cycles\":{cycles},\"warmup\":{},\"replications\":{},\
         \"divergence_threshold\":{DIVERGENCE_THRESHOLD},\"curves\":[",
        config.warmup, config.replications
    );
    for (i, ((network, stages, traffic, buffers), points)) in curves.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"network\":\"{network}\",\"stages\":{stages},\"traffic\":\"{traffic}\",\
             \"buffers\":\"{buffers}\",\"points\":["
        );
        for (j, p) in points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let reps = f64::from(p.replications);
            let _ = write!(
                out,
                "{{\"load\":{:.2},\"offered\":{:.6},\"throughput\":{:.6},\
                 \"acceptance\":{:.6},\"mean_latency\":{:.4},\"occupancy\":{:.6}}}",
                p.load,
                offered_rate(p),
                p.throughput / reps,
                p.acceptance / reps,
                p.latency / reps,
                p.occupancy / reps,
            );
        }
        out.push_str("],\"saturation_load\":");
        let knee = points.iter().find(|p| {
            let offered = offered_rate(p);
            offered > 0.0
                && p.throughput / f64::from(p.replications) < (1.0 - DIVERGENCE_THRESHOLD) * offered
        });
        match knee {
            Some(p) => {
                let _ = write!(out, "{:.2}", p.load);
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// One grid point of the saturation curve, folded over its replications.
#[derive(Default)]
struct SaturationPoint {
    network: String,
    stages: usize,
    load: f64,
    throughput: f64,
    latency: f64,
    p99_latency: u64,
    acceptance: f64,
    delivered: u64,
    dropped: u64,
}

/// `saturation_curve`'s output file for `report`: one replication-averaged
/// point per (family, stage count, offered load).
pub fn saturation_json(report: &CampaignReport, config: &CampaignConfig) -> String {
    let mut points: Vec<SaturationPoint> = Vec::new();
    for r in &report.scenarios {
        let s = &r.scenario;
        // Replications are the innermost axis, so a grid point's results are
        // adjacent.
        let same = points.last().is_some_and(|p| {
            (p.network.as_str(), p.stages, p.load)
                == (s.network.name().as_str(), s.stages, s.offered_load)
        });
        if !same {
            points.push(SaturationPoint {
                network: s.network.name(),
                stages: s.stages,
                load: s.offered_load,
                ..SaturationPoint::default()
            });
        }
        let p = points.last_mut().expect("just pushed");
        p.throughput += r.throughput;
        p.latency += r.mean_latency;
        p.p99_latency = p.p99_latency.max(r.p99_latency);
        p.acceptance += r.acceptance;
        p.delivered += r.delivered;
        p.dropped += r.dropped;
    }
    let reps = f64::from(config.replications);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"cycles\":{},\"replications\":{},\"points\":[",
        config.cycles, config.replications
    );
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"network\":\"{}\",\"stages\":{},\"load\":{:.2},\
             \"throughput\":{:.6},\"mean_latency\":{:.4},\"p99_latency\":{},\
             \"acceptance\":{:.6},\"delivered\":{},\"dropped\":{}}}",
            p.network,
            p.stages,
            p.load,
            p.throughput / reps,
            p.latency / reps,
            p.p99_latency,
            p.acceptance / reps,
            p.delivered,
            p.dropped,
        );
    }
    out.push_str("]}");
    out
}
