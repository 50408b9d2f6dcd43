//! Scalar-vs-packed oracle for the word-packed wormhole engine.
//!
//! `run_replications` packs a healthy wormhole batch of at least 16 lanes on
//! a destination-tag routed fabric, with at most eight virtual channels per
//! cell, into words of 64 lanes (a batch's last word may be narrower).
//! Batches below 16 lanes run on the scalar core, which these tests then
//! check against itself. These proptests
//! hold every lane of such batches to a fresh scalar [`Simulator`] at that
//! lane's seed and load, field for field — latency histogram, flit counts,
//! stalls and lane occupancy included — over catalog and random delta
//! networks of 2 to 8 stages, every channel count the engine takes, lane
//! depths and worm lengths from 1 to 6, loads mixed within a word (0 and 1
//! among them), batch sizes that leave a remainder word, and every traffic
//! pattern the engine runs.

use min_networks::random::random_independent_banyan;
use min_networks::ClassicalNetwork;
use min_routing::tag::destination_tags;
use min_sim::batch::{run_replications, LANE_THRESHOLD};
use min_sim::campaign::scenario_seed;
use min_sim::{BufferMode, SimConfig, Simulator, TrafficPattern, LANE_WIDTH};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Most lanes one batch draws: a full word and a remainder.
const MAX_LANES: usize = LANE_WIDTH + LANE_THRESHOLD + 4;

/// A catalog network, or a random Banyan network whose every stage is a
/// proper independent connection, resampled until it routes by destination
/// tag (Omega if none turns up).
fn network(stages: usize, catalog: Option<usize>, seed: u64) -> min_core::ConnectionNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match catalog {
        Some(family) => ClassicalNetwork::ALL[family].build(stages),
        None => (0..64)
            .filter_map(|_| random_independent_banyan(stages, 256, &mut rng))
            .find(|net| destination_tags(net).is_some())
            .unwrap_or_else(|| ClassicalNetwork::Omega.build(stages)),
    }
}

/// One of the six patterns the packed engine runs, sized to `cells`.
fn traffic(kind: usize, cells: usize, fraction: f64, seed: u64) -> TrafficPattern {
    match kind {
        0 => TrafficPattern::Uniform,
        1 => TrafficPattern::Zipf {
            exponent: 2.0 * fraction,
        },
        2 => TrafficPattern::Hotspot {
            fraction,
            target: (seed % cells as u64) as u32,
        },
        3 => TrafficPattern::BitReversal,
        4 => {
            let mut destinations: Vec<u32> = (0..cells as u32).collect();
            destinations.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
            TrafficPattern::Permutation(destinations)
        }
        _ => TrafficPattern::OnOff {
            on_dwell: 1.0 + 20.0 * fraction,
            off_dwell: 1.0 + 10.0 * (1.0 - fraction),
            on_rate: fraction.max(0.05),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn packed_wormhole_lanes_match_fresh_scalar_simulators(
        stages in 2usize..=8,
        family in 0usize..=ClassicalNetwork::ALL.len(),
        channels in 1usize..=8,
        lane_depth in 1usize..=6,
        flits_per_packet in 1usize..=6,
        count in LANE_THRESHOLD..=MAX_LANES,
        draws in proptest::collection::vec((0usize..4, 0.0f64..=1.0), MAX_LANES),
        traffic_kind in 0usize..6,
        fraction in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        // One past the catalog picks a random network.
        let net = network(stages, (family < ClassicalNetwork::ALL.len()).then_some(family), seed);
        let cells = net.cells_per_stage();
        let config = SimConfig::default()
            .with_cycles(60, 6)
            .with_traffic(traffic(traffic_kind, cells, fraction, seed))
            .with_buffer(BufferMode::Wormhole { lanes: channels, lane_depth, flits_per_packet });
        let mut lanes: Vec<(u64, f64)> = draws[..count]
            .iter()
            .enumerate()
            .map(|(i, &(kind, load))| {
                let load = match kind {
                    0 => 0.0,
                    1 => 1.0,
                    _ => load,
                };
                (scenario_seed(seed, i), load)
            })
            .collect();
        lanes[0].1 = 0.0;
        lanes[count - 1].1 = 1.0;
        let packed = run_replications(&net, &config, &lanes).unwrap();
        prop_assert_eq!(packed.len(), count);
        for (metrics, &(seed, load)) in packed.iter().zip(&lanes) {
            let fresh = Simulator::new(net.clone(), config.clone().with_seed(seed).with_load(load))
                .unwrap()
                .run();
            prop_assert_eq!(metrics, &fresh);
        }
    }
}
