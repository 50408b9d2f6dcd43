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

mod common;

use common::{fresh, mixed_lanes, network, traffic};
use min_networks::ClassicalNetwork;
use min_sim::batch::{run_replications, LANE_THRESHOLD};
use min_sim::{BufferMode, SimConfig, LANE_WIDTH};
use proptest::prelude::*;

/// Most lanes one batch draws: a full word and a remainder.
const MAX_LANES: usize = LANE_WIDTH + LANE_THRESHOLD + 4;

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
        let lanes = mixed_lanes(&draws[..count], seed);
        let packed = run_replications(&net, &config, &lanes).unwrap();
        prop_assert_eq!(packed.len(), count);
        for (metrics, &(seed, load)) in packed.iter().zip(&lanes) {
            prop_assert_eq!(metrics, &fresh(&net, &config, seed, load));
        }
    }
}
