//! Batched replications: all runs of one scenario through shared engines.
//!
//! The campaign layer replicates every grid point several times under
//! derived seeds, and sweeps the offered load along a curve. Building a
//! fresh [`Simulator`] per replication rebuilds the fabric's routing
//! tables, the switch-core arenas and the fault machinery each time; this
//! module builds them **once** per batch and reruns them.
//!
//! A batch is a list of `(seed, offered load)` lanes of one scenario — one
//! grid point's replications, or a whole load curve's. [`run_replications`]
//! is the auto-router. Eligibility counts every lane of the batch: an
//! unbuffered, stateless workload with at least [`LANE_THRESHOLD`] lanes on
//! a delta fabric of at most [`LANE_MAX_STAGES`] stages goes through the
//! word-packed [`LaneEngine`], 64 lanes per `u64` whatever their loads.
//! Everything else runs the scalar [`Simulator`], one per run of equal
//! loads, reseeded between lanes so arenas and cached fault-reroute epochs
//! are reused.
//!
//! Both paths are bit-identical to building a fresh scalar simulator per
//! lane — pinned by the packed-oracle proptests and the campaign layer's
//! byte-for-byte report determinism gate.

use crate::config::{BufferMode, SimConfig};
use crate::engine::{SimError, Simulator};
use crate::lane::{LaneEngine, LANE_WIDTH};
use crate::metrics::Metrics;
use min_core::ConnectionNetwork;
use min_routing::destination_tags;

/// Minimum lane count at which the word-packed engine pays for its plane
/// setup (below it, the scalar engine's reseed loop is already fast).
pub const LANE_THRESHOLD: usize = 8;

/// Largest fabric (in stages) the packed engine accepts: bit-plane storage
/// grows as `stages × cells × (stages + log2 cells)` words, so very deep
/// fabrics are left to the scalar engine.
pub const LANE_MAX_STAGES: usize = 12;

/// Whether a batch of `replications` lanes of this workload is eligible
/// for the word-packed [`LaneEngine`] (on a delta fabric — the one further
/// condition [`run_replications`] checks). Stateful traffic patterns
/// (ON/OFF chains, trace replay — [`crate::TrafficPattern::is_stateful`])
/// carry per-source state the packed engine does not model, so they always
/// take the scalar path.
pub fn packed_eligible(config: &SimConfig, stages: usize, replications: usize) -> bool {
    config.buffer_mode == BufferMode::Unbuffered
        && !config.traffic.is_stateful()
        && replications >= LANE_THRESHOLD
        && (2..=LANE_MAX_STAGES).contains(&stages)
}

/// Runs one scenario once per `(seed, offered load)` lane, returning the
/// metrics in lane order — bit-identical to a fresh [`Simulator`] per lane
/// at that seed and load, but with the fabric tables, arenas and fault
/// machinery built once and shared. The lanes replace `config`'s own seed
/// and offered load.
pub fn run_replications(
    net: &ConnectionNetwork,
    config: &SimConfig,
    lanes: &[(u64, f64)],
) -> Result<Vec<Metrics>, SimError> {
    let mut out = Vec::with_capacity(lanes.len());
    // The packed engine is destination-tag only; a non-delta fabric (e.g.
    // Benes under permutation traffic) takes the scalar engine.
    if packed_eligible(config, net.stages(), lanes.len()) && destination_tags(net).is_some() {
        for word in lanes.chunks(LANE_WIDTH) {
            out.extend(LaneEngine::with_lanes(net.clone(), config.clone(), word)?.run());
        }
        return Ok(out);
    }
    // One reseeded scalar simulator per run of equal loads.
    let mut rest = lanes;
    while let Some(&(seed, offered_load)) = rest.first() {
        let run = 1 + rest[1..]
            .iter()
            .take_while(|lane| lane.1 == offered_load)
            .count();
        let config = SimConfig {
            offered_load,
            seed,
            ..config.clone()
        };
        let mut sim = Simulator::new(net.clone(), config)?;
        for &(seed, _) in &rest[..run] {
            sim.reseed(seed);
            out.push(sim.run());
        }
        rest = &rest[run..];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use min_networks::omega;

    fn fresh(net: &ConnectionNetwork, config: &SimConfig, seed: u64) -> Metrics {
        Simulator::new(net.clone(), config.clone().with_seed(seed))
            .unwrap()
            .run()
    }

    /// The seeds as lanes at the configured load.
    fn at_load(config: &SimConfig, seeds: &[u64]) -> Vec<(u64, f64)> {
        seeds.iter().map(|&s| (s, config.offered_load)).collect()
    }

    #[test]
    fn eligibility_gates_on_mode_replications_and_depth() {
        let unbuffered = SimConfig::default();
        assert!(packed_eligible(&unbuffered, 4, LANE_THRESHOLD));
        assert!(!packed_eligible(&unbuffered, 4, LANE_THRESHOLD - 1));
        assert!(!packed_eligible(&unbuffered, LANE_MAX_STAGES + 1, 64));
        let fifo = SimConfig::default().with_buffer(BufferMode::Fifo(4));
        assert!(!packed_eligible(&fifo, 4, 64));
        // Zipf is stateless and packed-supported; ON/OFF and trace replay
        // carry per-source state and must take the scalar path.
        use crate::traffic::{TraceData, TrafficPattern};
        let zipf = SimConfig::default().with_traffic(TrafficPattern::Zipf { exponent: 1.0 });
        assert!(packed_eligible(&zipf, 4, 64));
        let on_off = SimConfig::default().with_traffic(TrafficPattern::OnOff {
            on_dwell: 8.0,
            off_dwell: 8.0,
            on_rate: 1.0,
        });
        assert!(!packed_eligible(&on_off, 4, 64));
        let trace = SimConfig::default().with_traffic(TrafficPattern::Trace(TraceData {
            cells: 8,
            period: 1,
            records: vec![],
        }));
        assert!(!packed_eligible(&trace, 4, 64));
    }

    #[test]
    fn both_routes_match_fresh_scalar_simulators() {
        let net = omega(4);
        // 10 seeds: packed-eligible for the unbuffered config, scalar
        // (reseed loop) for the FIFO config — both must be bit-identical
        // to fresh per-seed simulators.
        let seeds: Vec<u64> = (0..10).map(|k| 0xC0FFEE ^ (k * 7919)).collect();
        for mode in [BufferMode::Unbuffered, BufferMode::Fifo(4)] {
            let config = SimConfig::default()
                .with_cycles(250, 25)
                .with_load(0.85)
                .with_buffer(mode);
            let batched = run_replications(&net, &config, &at_load(&config, &seeds)).unwrap();
            assert_eq!(batched.len(), seeds.len());
            for (i, &seed) in seeds.iter().enumerate() {
                assert_eq!(batched[i], fresh(&net, &config, seed), "mode {mode:?}");
            }
        }
    }

    #[test]
    fn new_patterns_route_and_match_fresh_scalar_simulators() {
        use crate::traffic::TrafficPattern;
        let net = omega(4);
        // 10 seeds: Zipf goes through the packed engine, ON/OFF through the
        // scalar reseed loop — both must be bit-identical to fresh per-seed
        // simulators.
        let seeds: Vec<u64> = (0..10).map(|k| 0xFACE ^ (k * 6151)).collect();
        for traffic in [
            TrafficPattern::Zipf { exponent: 1.2 },
            TrafficPattern::OnOff {
                on_dwell: 12.0,
                off_dwell: 5.0,
                on_rate: 0.9,
            },
        ] {
            let config = SimConfig::default()
                .with_cycles(200, 20)
                .with_load(0.8)
                .with_traffic(traffic.clone());
            let batched = run_replications(&net, &config, &at_load(&config, &seeds)).unwrap();
            for (i, &seed) in seeds.iter().enumerate() {
                assert_eq!(batched[i], fresh(&net, &config, seed), "{traffic:?}");
            }
        }
    }

    #[test]
    fn batching_respects_fault_plans() {
        let net = omega(4);
        let config = SimConfig::default()
            .with_cycles(200, 20)
            .with_load(0.9)
            .with_faults(
                FaultPlan::none()
                    .with_dead_link(1, 0, 1, 0)
                    .with_dead_switch(1, 1, 100),
            );
        let seeds: Vec<u64> = (1..=9).collect();
        let batched = run_replications(&net, &config, &at_load(&config, &seeds)).unwrap();
        for (i, &seed) in seeds.iter().enumerate() {
            assert_eq!(batched[i], fresh(&net, &config, seed), "seed {seed}");
        }
    }

    #[test]
    fn mixed_load_lanes_match_fresh_scalar_simulators_on_both_routes() {
        let net = omega(4);
        // Twelve lanes over three loads, the runs of equal loads split up:
        // packed for the unbuffered config, one reseeded scalar simulator
        // per run of equal loads for the FIFO config.
        let loads = [
            0.0, 0.35, 0.35, 1.0, 0.35, 0.0, 1.0, 1.0, 0.35, 0.0, 0.6, 0.6,
        ];
        let lanes: Vec<(u64, f64)> = loads
            .iter()
            .enumerate()
            .map(|(k, &load)| (0xBEEF ^ (k as u64 * 4099), load))
            .collect();
        for mode in [BufferMode::Unbuffered, BufferMode::Fifo(4)] {
            let config = SimConfig::default().with_cycles(200, 20).with_buffer(mode);
            let batched = run_replications(&net, &config, &lanes).unwrap();
            assert_eq!(batched.len(), lanes.len());
            for (m, &(seed, load)) in batched.iter().zip(&lanes) {
                let config = config.clone().with_load(load);
                assert_eq!(*m, fresh(&net, &config, seed), "mode {mode:?} load {load}");
            }
        }
    }

    #[test]
    fn empty_seed_lists_yield_no_metrics() {
        let net = omega(3);
        let config = SimConfig::default();
        assert!(run_replications(&net, &config, &[]).unwrap().is_empty());
        let fifo = config.with_buffer(BufferMode::Fifo(2));
        assert!(run_replications(&net, &fifo, &[]).unwrap().is_empty());
    }
}
