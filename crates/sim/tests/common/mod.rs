//! Helpers the packed-engine oracle tests share: the networks, traffic
//! patterns and mixed-load lanes their cases draw, and the fresh scalar
//! simulator every lane is held to.

use min_core::ConnectionNetwork;
use min_networks::random::random_independent_banyan;
use min_networks::ClassicalNetwork;
use min_routing::tag::destination_tags;
use min_sim::campaign::scenario_seed;
use min_sim::{Metrics, SimConfig, Simulator, TrafficPattern};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A catalog network, or a random Banyan network whose every stage is a
/// proper independent connection, resampled until it routes by destination
/// tag (Omega if none turns up).
pub fn network(stages: usize, catalog: Option<usize>, seed: u64) -> ConnectionNetwork {
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
pub fn traffic(kind: usize, cells: usize, fraction: f64, seed: u64) -> TrafficPattern {
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

/// One `(seed, load)` lane per draw, seeded from `seed`: a draw of kind 0
/// or 1 runs at load 0 or 1, any other at its drawn load, and the first
/// and last lanes run at 0 and 1.
pub fn mixed_lanes(draws: &[(usize, f64)], seed: u64) -> Vec<(u64, f64)> {
    let mut lanes: Vec<(u64, f64)> = draws
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
    let last = lanes.len() - 1;
    lanes[last].1 = 1.0;
    lanes
}

/// The metrics of a fresh scalar simulator at `seed` and `load`.
pub fn fresh(net: &ConnectionNetwork, config: &SimConfig, seed: u64, load: f64) -> Metrics {
    Simulator::new(net.clone(), config.clone().with_seed(seed).with_load(load))
        .unwrap()
        .run()
}
