//! Scalar-vs-packed reference-oracle property tests for the bit-parallel
//! replication engine.
//!
//! The batching layer routes eligible unbuffered workloads on delta
//! fabrics through the crate-private word-packed engine (64 `(seed, load)`
//! lanes per `u64`) and everything else through one rewound scalar
//! [`min_sim::Simulator`]; the scalar engine built fresh per seed is the
//! historical behaviour. These proptests pin both routes — per-lane metrics
//! and the merged aggregates — bit-identical to fresh scalar simulators
//! across the classical catalog families at 3–5 stages, random loads
//! (mixed within one word), traffic patterns, and fault-free / dormant /
//! active fault plans, so any semantic drift in the packed planes is caught
//! against the reference. A campaign-level test pins curve packing against
//! per-point execution.

use min_networks::{ClassicalNetwork, NetworkSpec};
use min_sim::batch::{packed_eligible, run_replications, LANE_THRESHOLD};
use min_sim::campaign::{assemble, execute_shard, run_campaign, scenario_seed, Shard};
use min_sim::{
    BufferMode, CampaignConfig, FaultPlan, Metrics, SimConfig, Simulator, TrafficPattern,
    LANE_WIDTH,
};
use proptest::prelude::*;

const CYCLES: u64 = 120;
const WARMUP: u64 = 12;

fn fresh_scalar(family: ClassicalNetwork, stages: usize, config: &SimConfig, seed: u64) -> Metrics {
    Simulator::new(family.build(stages), config.clone().with_seed(seed))
        .expect("catalog networks are delta")
        .run()
}

/// The seeds as `(seed, load)` lanes at one load.
fn at_load(load: f64, seeds: &[u64]) -> Vec<(u64, f64)> {
    seeds.iter().map(|&seed| (seed, load)).collect()
}

/// A traffic pattern drawn from uniform, bit-reversal, random hot-spot and
/// random Zipf generators.
fn traffic_strategy() -> impl Strategy<Value = TrafficPattern> {
    (0usize..4, 0.1f64..0.9, 0u32..4).prop_map(|(kind, fraction, target)| match kind {
        0 => TrafficPattern::Uniform,
        1 => TrafficPattern::BitReversal,
        2 => TrafficPattern::Hotspot { fraction, target },
        _ => TrafficPattern::Zipf {
            exponent: 2.0 * fraction,
        },
    })
}

/// Most lanes one mixed-load case draws: past one word, so a batch splits
/// mid-curve (one word of 1..=64 lanes is `lane.rs`'s own proptest).
const MAX_LANES: usize = LANE_WIDTH + 24;

/// Fault-free, dormant (onset beyond the cycle budget) or active plans —
/// all of them valid on every 3-stage-or-deeper catalog cell.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (0usize..4).prop_map(|kind| match kind {
        0 => FaultPlan::none(),
        1 => FaultPlan::none().with_dead_switch(1, 0, CYCLES + 50),
        2 => FaultPlan::none().with_dead_link(1, 0, 1, 0),
        _ => FaultPlan::none()
            .with_dead_link(0, 1, 0, CYCLES / 3)
            .with_degraded_link(1, 1, 1, 0),
    })
}

/// The edges the random cases do not reach, each against fresh scalar
/// simulators: the shallowest fabric (2 stages, one tag plane); words of
/// 64, 1 and 17 lanes (batches of 65 and 81 lanes end in a one- and a
/// 17-lane word); loads of exactly 0 and exactly 1 in every word; the
/// one-word destination draws (uniform, Zipf), the table draw (a
/// permutation) and the general one (hot-spot); with and without an active
/// fault plan, whose reroutes take the general draw. The deepest fabric
/// the engine packs is `lane.rs`'s `deepest_words_match_fresh_scalar_simulators`,
/// which shares one fabric build across its scalar lanes.
#[test]
fn packed_words_match_fresh_scalar_simulators_at_the_edges() {
    let stages = 2;
    let family = ClassicalNetwork::Omega;
    let cells = family.build(stages).cells_per_stage() as u32;
    let load = |i: usize| [1.0, 0.0, 0.55, 0.85][i % 4];
    let patterns = [
        TrafficPattern::Uniform,
        TrafficPattern::Zipf { exponent: 1.2 },
        TrafficPattern::Permutation((0..cells).rev().collect()),
        TrafficPattern::Hotspot {
            fraction: 0.3,
            target: cells - 1,
        },
    ];
    let plans = [
        FaultPlan::none(),
        FaultPlan::none().with_dead_link(0, 1, 0, CYCLES / 4),
    ];
    for traffic in &patterns {
        for plan in &plans {
            let config = SimConfig::default()
                .with_traffic(traffic.clone())
                .with_faults(plan.clone())
                .with_cycles(CYCLES, WARMUP);
            for count in [LANE_WIDTH + 1, LANE_WIDTH + 17] {
                assert!(packed_eligible(&config, stages, count));
                let lanes: Vec<(u64, f64)> = (0..count)
                    .map(|i| (scenario_seed(0xED6E, i), load(i)))
                    .collect();
                let batched = run_replications(&family.build(stages), &config, &lanes).unwrap();
                assert_eq!(batched.len(), count);
                for (metrics, &(seed, load)) in batched.iter().zip(&lanes) {
                    assert_eq!(
                        metrics,
                        &fresh_scalar(family, stages, &config.clone().with_load(load), seed),
                        "{count} lanes, {}, plan {}, load {load}",
                        traffic.label(),
                        plan.label()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The packed route returns, replication by replication,
    /// exactly the metrics a fresh scalar simulator produces per seed.
    #[test]
    fn packed_replications_match_fresh_scalar_simulators(
        family_index in 0usize..ClassicalNetwork::ALL.len(),
        stages in 3usize..=5,
        load in 0.05f64..=1.0,
        traffic in traffic_strategy(),
        plan in plan_strategy(),
        reps in LANE_THRESHOLD..=LANE_THRESHOLD + 8,
        campaign_seed in any::<u64>(),
    ) {
        let family = ClassicalNetwork::ALL[family_index];
        let config = SimConfig::default()
            .with_load(load)
            .with_traffic(traffic)
            .with_faults(plan)
            .with_cycles(CYCLES, WARMUP);
        prop_assert!(packed_eligible(&config, stages, reps));
        let seeds: Vec<u64> = (0..reps).map(|i| scenario_seed(campaign_seed, i)).collect();
        let batched =
            run_replications(&family.build(stages), &config, &at_load(load, &seeds)).unwrap();
        prop_assert_eq!(batched.len(), seeds.len());
        for (i, &seed) in seeds.iter().enumerate() {
            prop_assert_eq!(&batched[i], &fresh_scalar(family, stages, &config, seed));
        }
    }

    /// The merged aggregate equals the fold of fresh scalar runs — same
    /// counters, same histogram, same extremes — through both the packed
    /// and the reseeded-scalar route.
    #[test]
    fn merged_aggregates_match_scalar_folds(
        family_index in 0usize..ClassicalNetwork::ALL.len(),
        stages in 3usize..=4,
        load in 0.1f64..=1.0,
        plan in plan_strategy(),
        campaign_seed in any::<u64>(),
        packed in any::<bool>(),
    ) {
        let family = ClassicalNetwork::ALL[family_index];
        // A FIFO config exercises the reseeded-scalar route; unbuffered the
        // packed one. Both must agree with the fold of fresh simulators.
        let mode = if packed { BufferMode::Unbuffered } else { BufferMode::Fifo(3) };
        let config = SimConfig::default()
            .with_load(load)
            .with_buffer(mode)
            .with_faults(plan)
            .with_cycles(CYCLES, WARMUP);
        let seeds: Vec<u64> =
            (0..LANE_THRESHOLD + 2).map(|i| scenario_seed(campaign_seed, i)).collect();
        let mut merged = Metrics::default();
        let lanes = at_load(load, &seeds);
        for metrics in run_replications(&family.build(stages), &config, &lanes).unwrap() {
            merged.merge(&metrics);
        }
        let mut reference = Metrics::default();
        for &seed in &seeds {
            reference.merge(&fresh_scalar(family, stages, &config, seed));
        }
        prop_assert_eq!(merged, reference);
    }

    /// Conservation holds on the packed path alone: every replication's
    /// injected packets are delivered, dropped or still in flight, and the
    /// latency histogram accounts for every measured delivery.
    #[test]
    fn packed_path_conserves_packets(
        stages in 3usize..=5,
        load in 0.05f64..=1.0,
        plan in plan_strategy(),
        campaign_seed in any::<u64>(),
    ) {
        let config = SimConfig::default()
            .with_load(load)
            .with_faults(plan)
            .with_cycles(CYCLES, WARMUP);
        let seeds: Vec<u64> =
            (0..LANE_THRESHOLD * 2).map(|i| scenario_seed(campaign_seed, i)).collect();
        let net = min_networks::omega(stages);
        for metrics in run_replications(&net, &config, &at_load(load, &seeds)).unwrap() {
            prop_assert!(metrics.conserved());
            prop_assert!(metrics.offered >= metrics.injected);
            prop_assert_eq!(metrics.dropped_backpressure, 0);
            // Unbuffered packets never wait, so every measured delivery
            // took exactly `stages` cycles.
            let measured: u64 = metrics.latency_histogram.iter().sum();
            prop_assert!(measured <= metrics.delivered);
            prop_assert_eq!(metrics.total_latency, measured * stages as u64);
            prop_assert!(metrics.max_latency == 0 || metrics.max_latency == stages as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batches longer than one word, mixing lanes at different loads —
    /// exactly 0 and 1 among them — and split into words by the batch layer
    /// return, lane by lane, the metrics of a fresh scalar simulator at that
    /// lane's seed and load.
    #[test]
    fn mixed_load_lanes_match_fresh_scalar_simulators(
        family_index in 0usize..ClassicalNetwork::ALL.len(),
        stages in 3usize..=5,
        count in LANE_WIDTH + 1..=MAX_LANES,
        draws in proptest::collection::vec((0usize..4, 0.0f64..=1.0), MAX_LANES),
        traffic in traffic_strategy(),
        plan in plan_strategy(),
        campaign_seed in any::<u64>(),
    ) {
        let family = ClassicalNetwork::ALL[family_index];
        let config = SimConfig::default()
            .with_traffic(traffic)
            .with_faults(plan)
            .with_cycles(CYCLES, WARMUP);
        let mut lanes: Vec<(u64, f64)> = draws[..count]
            .iter()
            .enumerate()
            .map(|(i, &(kind, load))| {
                let load = match kind {
                    0 => 0.0,
                    1 => 1.0,
                    _ => load,
                };
                (scenario_seed(campaign_seed, i), load)
            })
            .collect();
        lanes[0].1 = 0.0;
        lanes[count - 1].1 = 1.0;
        prop_assert!(packed_eligible(&config, stages, count));
        let packed = run_replications(&family.build(stages), &config, &lanes).unwrap();
        prop_assert_eq!(packed.len(), count);
        for (metrics, &(seed, load)) in packed.iter().zip(&lanes) {
            let config = config.clone().with_load(load);
            prop_assert_eq!(metrics, &fresh_scalar(family, stages, &config, seed));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Unbuffered ON/OFF batches of at least 16 lanes pack too, each lane
    /// walking its own chains through the shared injection loop: with no
    /// fault plan, a dormant one or an active one (whose reroutes refuse
    /// unroutable pairs), every lane returns the metrics of a fresh scalar
    /// simulator at its seed and load.
    #[test]
    fn on_off_lanes_match_fresh_scalar_simulators(
        family_index in 0usize..ClassicalNetwork::ALL.len(),
        stages in 3usize..=5,
        count in 2 * LANE_THRESHOLD..=MAX_LANES,
        draws in proptest::collection::vec((0usize..4, 0.0f64..=1.0), MAX_LANES),
        dwell in 1.0f64..30.0,
        on_rate in 0.05f64..=1.0,
        plan in plan_strategy(),
        campaign_seed in any::<u64>(),
    ) {
        let family = ClassicalNetwork::ALL[family_index];
        let config = SimConfig::default()
            .with_traffic(TrafficPattern::OnOff {
                on_dwell: dwell,
                off_dwell: 31.0 - dwell,
                on_rate,
            })
            .with_faults(plan)
            .with_cycles(CYCLES, WARMUP);
        let lanes: Vec<(u64, f64)> = draws[..count]
            .iter()
            .enumerate()
            .map(|(i, &(kind, load))| {
                let load = match kind {
                    0 => 0.0,
                    1 => 1.0,
                    _ => load,
                };
                (scenario_seed(campaign_seed, i), load)
            })
            .collect();
        prop_assert!(!packed_eligible(&config, stages, count));
        let packed = run_replications(&family.build(stages), &config, &lanes).unwrap();
        prop_assert_eq!(packed.len(), count);
        for (metrics, &(seed, load)) in packed.iter().zip(&lanes) {
            let config = config.clone().with_load(load);
            prop_assert_eq!(metrics, &fresh_scalar(family, stages, &config, seed));
        }
    }
}

/// A campaign whose curves pack across loads reports exactly what per-point
/// execution reports. Five replications keep every grid point below the
/// packing threshold on its own, so the per-point reference runs the scalar
/// engine, while each 80-lane unbuffered curve fills a word and a quarter.
#[test]
fn curve_packing_matches_per_point_execution() {
    let loads: Vec<f64> = (0..16).map(|k| f64::from(k) / 15.0).collect();
    let config = CampaignConfig::over_catalog(3..=3)
        .with_cells(vec![
            NetworkSpec::catalog(ClassicalNetwork::Omega, 3),
            NetworkSpec::catalog(ClassicalNetwork::Baseline, 4),
        ])
        .with_seed(0x0A11_0AD5)
        .with_loads(loads)
        .with_buffer_modes(vec![BufferMode::Unbuffered, BufferMode::Fifo(2)])
        .with_fault_plans(vec![
            FaultPlan::none(),
            FaultPlan::none().with_dead_link(1, 0, 1, 20),
        ])
        .with_replications(5)
        .with_cycles(60, 6);
    let plan = config.plan().unwrap();
    let per_point = plan
        .shards
        .iter()
        .flat_map(|shard| execute_shard(&config, shard).unwrap())
        .collect();
    let reference = assemble(&config, per_point).unwrap().to_json();
    for threads in [1, 2, 5] {
        assert_eq!(
            run_campaign(&config, threads).unwrap().to_json(),
            reference,
            "{threads} threads"
        );
    }

    // One hand-built shard holding the whole grid, replication-major with
    // the loads descending: every curve's points are scattered through it.
    let mut scenarios = config.scenarios().unwrap();
    scenarios.sort_by(|a, b| {
        (a.replication, b.offered_load)
            .partial_cmp(&(b.replication, a.offered_load))
            .unwrap()
    });
    let shard = Shard { id: 0, scenarios };
    let results = execute_shard(&config, &shard).unwrap();
    let order: Vec<usize> = results.iter().map(|r| r.scenario.index).collect();
    let expected: Vec<usize> = shard.scenarios.iter().map(|s| s.index).collect();
    assert_eq!(order, expected, "results come back in shard order");
    assert_eq!(assemble(&config, results).unwrap().to_json(), reference);
}

/// A Benes curve passes [`packed_eligible`] but has no destination-tag
/// table, so `plan_chunked` ships it as a word shard and the batch layer
/// runs it on the scalar engine. The report must equal per-point execution,
/// at any thread count, under multi-path (uniform) and looping (a full cell
/// permutation) routing, with and without a dead link.
#[test]
fn benes_word_shards_match_per_point_execution() {
    let loads = vec![0.0, 0.4, 0.8, 1.0];
    let replications = 3;
    assert!(loads.len() * replications >= LANE_THRESHOLD);
    let config = CampaignConfig::over_catalog(3..=3)
        .with_cells(vec![NetworkSpec::benes(3), NetworkSpec::benes_variant(3)])
        .with_seed(0xBE9E5)
        .with_traffic(vec![
            TrafficPattern::Uniform,
            TrafficPattern::Permutation(vec![2, 0, 3, 1]),
        ])
        .with_loads(loads.clone())
        .with_buffer_modes(vec![BufferMode::Unbuffered])
        .with_fault_plans(vec![
            FaultPlan::none(),
            FaultPlan::none().with_dead_link(1, 0, 1, 20),
        ])
        .with_replications(replications as u32)
        .with_cycles(80, 8);
    let lanes = loads.len() * replications;
    let chunked = config.plan_chunked(1).unwrap();
    assert!(
        chunked
            .shards
            .iter()
            .all(|shard| shard.scenarios.len() == lanes),
        "every curve ships as one word shard"
    );
    let plan = config.plan().unwrap();
    let per_point = plan
        .shards
        .iter()
        .flat_map(|shard| execute_shard(&config, shard).unwrap())
        .collect();
    let reference = assemble(&config, per_point).unwrap().to_json();
    for threads in [1, 4] {
        assert_eq!(
            run_campaign(&config, threads).unwrap().to_json(),
            reference,
            "{threads} threads"
        );
    }
}
