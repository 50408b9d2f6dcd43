//! The traced pass: every workload once, single-threaded, with each call
//! into a layer's public functions timed from outside the library.
//!
//! Each pass reports its own wall time as `trace.<workload>.wall_s` and the
//! part of it no span covers as `trace.<workload>.residual_s`. Every pass
//! compares its output bytes with the end-to-end oracle, so timing from
//! outside is shown to change nothing.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use baseline_equivalence::core::{
    affine_form, baseline_isomorphism, classify_subjects, compose_baseline_certificates,
};
use baseline_equivalence::graph::iso::verify_stage_mapping;
use baseline_equivalence::prelude::{
    assemble, execute_shard, BufferMode, CampaignConfig, CampaignReport, ClassificationGrid, Shard,
    TrafficPattern,
};
use baseline_equivalence::sim::batch::packed_eligible;
use baseline_equivalence::sim::{TrafficSources, LANE_WIDTH};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::grids;
use crate::metrics::{median, ratio, secs, Metrics};

/// Busy time and simulated work of one engine path.
#[derive(Default)]
struct Busy {
    seconds: f64,
    cell_cycles: u64,
}

/// The engine path `batch::run_replications` takes for a shard: the packed
/// `lane` engine when `packed_eligible` says so, else the scalar engine
/// with the shard's switching core.
fn engine_of(config: &CampaignConfig, shard: &Shard) -> String {
    let first = &shard.scenarios[0];
    if packed_eligible(&first.sim_config(config), first.stages, shard.len()) {
        return "lane".to_string();
    }
    match first.buffer_mode {
        BufferMode::Unbuffered => "engine.unbuffered".to_string(),
        BufferMode::Fifo(_) => "switch.fifo".to_string(),
        BufferMode::Wormhole { lanes, .. } => format!("switch.wormhole.l{lanes}"),
    }
}

/// What a campaign workload's traced pass reports besides the campaign
/// phases: its engine paths and traffic patterns, and how its output file
/// is rendered.
pub struct CampaignWorkload {
    /// Workload name, the prefix of every metric.
    pub name: &'static str,
    /// The campaign grid.
    pub config: CampaignConfig,
    /// Engine paths to report (see [`engine_of`]), in report order.
    pub engines: &'static [&'static str],
    /// Traffic labels to report, in report order.
    pub traffic: &'static [&'static str],
    /// Renders the example's output file from the assembled report.
    pub render: fn(&CampaignReport, &CampaignConfig) -> String,
}

/// Traces `plan` → one `execute_shard` per shard → `assemble`, attributing
/// each shard's time to its engine path and traffic pattern.
pub fn campaign(out: &mut Metrics, w: &CampaignWorkload, expected: &str) -> Result<(), String> {
    let config = &w.config;
    let wall = Instant::now();
    let t = Instant::now();
    let plan = config.plan().map_err(|e| e.to_string())?;
    let plan_s = secs(t);

    let mut engines: BTreeMap<String, Busy> = BTreeMap::new();
    let mut traffic: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut packed_replications, mut packed_engines) = (0, 0);
    let mut execute_s = 0.0;
    let mut results = Vec::with_capacity(plan.scenario_count());
    for shard in &plan.shards {
        let engine = engine_of(config, shard);
        let t = Instant::now();
        let shard_results = execute_shard(config, shard).map_err(|e| e.to_string())?;
        let busy = secs(t);
        execute_s += busy;
        if engine == "lane" {
            packed_replications += shard.len();
            packed_engines += shard.len().div_ceil(LANE_WIDTH);
        }
        let entry = engines.entry(engine).or_default();
        entry.seconds += busy;
        entry.cell_cycles += shard
            .scenarios
            .iter()
            .map(|s| grids::cell_cycles(&s.network, config.cycles))
            .sum::<u64>();
        *traffic
            .entry(shard.scenarios[0].traffic.label())
            .or_default() += busy;
        results.extend(shard_results);
    }

    let t = Instant::now();
    let report = assemble(config, results).map_err(|e| e.to_string())?;
    let assemble_s = secs(t);
    let bytes = (w.render)(&report, config);
    let wall_s = secs(wall);
    if bytes != expected {
        return Err(format!("{}: traced output differs from the oracle", w.name));
    }

    let name = |metric: &str| format!("{}.{metric}", w.name);
    out.push(name("campaign.plan_s"), plan_s, "s");
    out.push(name("campaign.execute_s"), execute_s, "s");
    out.push(name("campaign.assemble_s"), assemble_s, "s");
    out.push(name("campaign.shards"), plan.shard_count() as f64, "count");
    for &engine in w.engines {
        let busy = engines.remove(engine).unwrap_or_default();
        out.push(name(&format!("{engine}.busy_s")), busy.seconds, "s");
        if engine == "lane" {
            out.push(name("lane.cell_cycles"), busy.cell_cycles as f64, "count");
        }
        let mcc = ratio(busy.cell_cycles as f64 / 1e6, busy.seconds);
        out.push(name(&format!("{engine}.mcc_per_s")), mcc, "Mcc/s");
        if engine == "lane" {
            let fill = ratio(
                packed_replications as f64,
                (packed_engines * LANE_WIDTH) as f64,
            );
            out.push(name("lane.fill"), fill, "ratio");
        }
    }
    if let Some(engine) = engines.keys().next() {
        return Err(format!("{}: unreported engine path {engine}", w.name));
    }
    for &label in w.traffic {
        let busy = traffic.remove(label).unwrap_or_default();
        out.push(name(&format!("traffic.{label}.busy_s")), busy, "s");
    }
    if let Some(label) = traffic.keys().next() {
        return Err(format!("{}: unreported traffic pattern {label}", w.name));
    }
    out.push(format!("trace.{}.wall_s", w.name), wall_s, "s");
    let residual = wall_s - plan_s - execute_s - assemble_s;
    out.push(format!("trace.{}.residual_s", w.name), residual, "s");
    Ok(())
}

/// Traces the classification campaign: grid expansion, then per subject
/// the build, affine forms, digraph and Baseline isomorphism, then the
/// class cross-verification as `classify_subjects` runs it — and finally
/// the library's own single-thread `classify_subjects` and `to_json`,
/// whose bytes are compared with the oracle.
pub fn classify(
    out: &mut Metrics,
    grid: &ClassificationGrid,
    expected: &str,
) -> Result<(), String> {
    let wall = Instant::now();
    let t = Instant::now();
    let subjects = grid.subjects();
    let subjects_s = secs(t);

    let (mut build_s, mut affine_s, mut digraph_s, mut iso_s, mut iso16_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut keys = Vec::with_capacity(subjects.len());
    let mut certificates = Vec::with_capacity(subjects.len());
    for subject in &subjects {
        let t = Instant::now();
        let net = subject.build();
        build_s += secs(t);
        let t = Instant::now();
        let forms: Option<Vec<_>> = net.connections().iter().map(affine_form).collect();
        black_box(forms);
        affine_s += secs(t);
        let t = Instant::now();
        let digraph = net.to_digraph();
        digraph_s += secs(t);
        let t = Instant::now();
        let outcome = baseline_isomorphism(&digraph);
        let busy = secs(t);
        iso_s += busy;
        if subject.stages() == 16 {
            iso16_s += busy;
        }
        match outcome {
            Ok(certificate) => {
                keys.push(format!("n={} baseline-equivalent", subject.stages()));
                certificates.push(Some(certificate));
            }
            Err(error) => {
                keys.push(format!("n={} {error}", subject.stages()));
                certificates.push(None);
            }
        }
    }

    // Classes in order of first appearance of their key; only the
    // Baseline-equivalent ones carry certificates to cross-verify.
    let mut classes: Vec<(&str, Vec<usize>)> = Vec::new();
    for (index, key) in keys.iter().enumerate() {
        match classes.iter().position(|(k, _)| *k == key.as_str()) {
            Some(at) => classes[at].1.push(index),
            None => classes.push((key.as_str(), vec![index])),
        }
    }
    let t = Instant::now();
    for (key, members) in &classes {
        let Some(representative) = &certificates[members[0]] else {
            continue;
        };
        if members.len() < 2 {
            continue;
        }
        let rep_digraph = subjects[members[0]].build().to_digraph();
        for &member in &members[1..] {
            let certificate = certificates[member]
                .as_ref()
                .expect("members of an equivalent class carry certificates");
            let verified = compose_baseline_certificates(certificate, representative)
                .map(|mapping| {
                    let digraph = subjects[member].build().to_digraph();
                    verify_stage_mapping(&digraph, &rep_digraph, &mapping)
                })
                .unwrap_or(false);
            if !verified {
                return Err(format!(
                    "classify: cross-verification failed in class {key}"
                ));
            }
        }
    }
    let cross_verify_s = secs(t);

    let t = Instant::now();
    let report = classify_subjects(&subjects, 1).map_err(|e| e.to_string())?;
    let total_s = secs(t);
    let t = Instant::now();
    let json = report.to_json();
    let to_json_s = secs(t);
    let wall_s = secs(wall);
    if json != expected {
        return Err("classify: traced output differs from the oracle".to_string());
    }

    out.push("classify.subjects_s", subjects_s, "s");
    out.push("classify.networks.build_s", build_s, "s");
    out.push("classify.core.affine_form_s", affine_s, "s");
    out.push("classify.graph.to_digraph_s", digraph_s, "s");
    out.push("classify.core.baseline_iso_s", iso_s, "s");
    out.push("classify.core.baseline_iso.n16_s", iso16_s, "s");
    out.push("classify.core.cross_verify_s", cross_verify_s, "s");
    out.push("classify.total_1t_s", total_s, "s");
    out.push("classify.to_json_s", to_json_s, "s");
    out.push("classify.subjects", report.subject_count as f64, "count");
    out.push("classify.classes", report.class_count as f64, "count");
    out.push("trace.classify.wall_s", wall_s, "s");
    let spans =
        subjects_s + build_s + affine_s + digraph_s + iso_s + cross_verify_s + total_s + to_json_s;
    out.push("trace.classify.residual_s", wall_s - spans, "s");
    Ok(())
}

/// Times the destination samplers and the ON/OFF source at n = 5 (16
/// cells): the median over five batches of the cost of one call.
pub fn traffic_probes(out: &mut Metrics, seed: u64) {
    const CELLS: u32 = 16;
    const CALLS: u32 = 1 << 20;
    const BATCHES: usize = 5;
    for (label, pattern) in [
        ("uniform", TrafficPattern::Uniform),
        ("zipf", TrafficPattern::Zipf { exponent: 1.0 }),
    ] {
        let sampler = pattern.sampler(CELLS, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let batch = |_| {
            let t = Instant::now();
            let mut sink = 0u32;
            for call in 0..CALLS {
                sink ^= sampler.draw(black_box(call % (2 * CELLS)), &mut rng);
            }
            black_box(sink);
            secs(t) * 1e9 / f64::from(CALLS)
        };
        let ns = median((0..BATCHES).map(batch).collect());
        out.push(format!("traffic.{label}.draw_ns"), ns, "ns");
    }
    let on_off = TrafficPattern::OnOff {
        on_dwell: 30.0,
        off_dwell: 10.0,
        on_rate: 1.0,
    };
    let mut sources = TrafficSources::new(&on_off, CELLS as usize);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let batch = |_| {
        let t = Instant::now();
        for call in 0..CALLS {
            let slot = call % (2 * CELLS);
            let offer = sources.offer(
                u64::from(call / (2 * CELLS)),
                slot / 2,
                (slot % 2) as usize,
                0.5,
                &mut rng,
            );
            black_box(offer);
        }
        secs(t) * 1e9 / f64::from(CALLS)
    };
    let ns = median((0..BATCHES).map(batch).collect());
    out.push("traffic.on-off.offer_ns", ns, "ns");
}
