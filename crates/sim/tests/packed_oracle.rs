//! Scalar-vs-packed reference-oracle property tests for the bit-parallel
//! replication engine.
//!
//! The batching refactor routes eligible unbuffered workloads through the
//! word-packed [`min_sim::lane::LaneEngine`] (64 replications per `u64`)
//! and everything else through a reseeded scalar [`min_sim::Simulator`];
//! the scalar engine built fresh per seed is the historical behaviour.
//! These proptests pin both routes — per-replication metrics and the merged
//! aggregates — bit-identical to fresh scalar simulators across the
//! classical catalog families at 3–5 stages, random loads, traffic
//! patterns, and fault-free / dormant / active fault plans, so any semantic
//! drift in the packed planes is caught against the reference.

use min_networks::ClassicalNetwork;
use min_sim::batch::{packed_eligible, run_replications, LANE_THRESHOLD};
use min_sim::campaign::scenario_seed;
use min_sim::{BufferMode, FaultPlan, Metrics, SimConfig, Simulator, TrafficPattern};
use proptest::prelude::*;

const CYCLES: u64 = 120;
const WARMUP: u64 = 12;

fn fresh_scalar(family: ClassicalNetwork, stages: usize, config: &SimConfig, seed: u64) -> Metrics {
    Simulator::new(family.build(stages), config.clone().with_seed(seed))
        .expect("catalog networks are delta")
        .run()
}

/// A traffic pattern drawn from uniform, bit-reversal and random hot-spot
/// generators.
fn traffic_strategy() -> impl Strategy<Value = TrafficPattern> {
    (0usize..3, 0.1f64..0.9, 0u32..4).prop_map(|(kind, fraction, target)| match kind {
        0 => TrafficPattern::Uniform,
        1 => TrafficPattern::BitReversal,
        _ => TrafficPattern::Hotspot { fraction, target },
    })
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The packed LaneEngine route returns, replication by replication,
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
        let batched = run_replications(&family.build(stages), &config, &seeds).unwrap();
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
        for metrics in run_replications(&family.build(stages), &config, &seeds).unwrap() {
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
        for metrics in run_replications(&net, &config, &seeds).unwrap() {
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
