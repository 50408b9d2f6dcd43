//! Batched replications: the one way into the simulation engines for many
//! runs of one scenario.
//!
//! The campaign layer replicates every grid point several times under
//! derived seeds, and sweeps the offered load along a curve. A batch is a
//! list of `(seed, offered load)` lanes of one scenario — one grid point's
//! replications, or a whole load curve's. [`run_replications`] does the
//! setup once per batch: it checks every lane load and the config, builds
//! the fabric, and prepares the destination sampler and the fault runtime.
//! Then it picks the engine from what it holds. A batch of at least
//! [`LANE_THRESHOLD`] lanes on a destination-tag routed fabric of at most
//! [`LANE_MAX_STAGES`] stages runs word-packed, 64 lanes per `u64` whatever
//! their loads, in one of three engines:
//!
//! * `lane.rs` — unbuffered work with stateless traffic, and ON/OFF work of
//!   at least 16 lanes, fault plans included;
//! * `fifo.rs` — healthy FIFO work of at least 16 lanes, no trace replay,
//!   at most 4 packets per input port;
//! * `worm.rs` — healthy wormhole work of at least 16 lanes, no trace
//!   replay, at most eight channels per cell.
//!
//! Everything else — faulty FIFO or wormhole work, deeper FIFOs and wider
//! wormhole cells, trace replay, batches below a bound, and a non-delta
//! fabric such as Benes — runs one scalar [`Simulator`], rewound to each
//! lane's seed and load so arenas and cached fault-reroute epochs are
//! reused.
//!
//! Both paths are bit-identical to building a fresh scalar simulator per
//! lane — pinned by the packed-oracle proptests and the campaign layer's
//! byte-for-byte report determinism gate.

use crate::config::{BufferMode, ConfigError, SimConfig};
use crate::engine::{prepare, SimError, Simulator};
use crate::fabric::{Fabric, Routing};
use crate::fifo::{self, FIFO_MAX_DEPTH, FIFO_THRESHOLD};
use crate::lane::{LaneEngine, LANE_WIDTH, ON_OFF_THRESHOLD};
use crate::metrics::Metrics;
use crate::traffic::TrafficPattern;
use crate::worm::{self, WORM_MAX_LANES, WORM_THRESHOLD};
use min_core::ConnectionNetwork;

/// Minimum lane count at which the word-packed engine pays for its plane
/// setup (below it, the scalar engine's rewind loop is already fast).
pub const LANE_THRESHOLD: usize = 8;

/// Largest fabric (in stages) the packed engine accepts: bit-plane storage
/// grows as `stages × cells × (stages + log2 cells)` words, so very deep
/// fabrics are left to the scalar engine.
pub const LANE_MAX_STAGES: usize = 12;

/// Whether a batch of `replications` lanes of this unbuffered workload with
/// stateless traffic is eligible for the word-packed unbuffered engine on
/// a destination-tag routed fabric — the one further condition
/// [`run_replications`] checks. Stateful traffic patterns (ON/OFF chains,
/// trace replay — [`crate::TrafficPattern::is_stateful`]) are not admitted
/// here: ON/OFF batches, and FIFO and wormhole batches, pack through a
/// crate-private gate with bounds of its own, and trace replay stays
/// scalar.
pub fn packed_eligible(config: &SimConfig, stages: usize, replications: usize) -> bool {
    config.buffer_mode == BufferMode::Unbuffered
        && !config.traffic.is_stateful()
        && replications >= LANE_THRESHOLD
        && (2..=LANE_MAX_STAGES).contains(&stages)
}

/// Whether a batch of `replications` lanes of this workload runs
/// word-packed on a destination-tag routed fabric of at most
/// [`LANE_MAX_STAGES`] stages: the unbuffered work [`packed_eligible`]
/// admits, unbuffered ON/OFF work of at least `ON_OFF_THRESHOLD` lanes
/// (faults included), or healthy buffered work — an empty fault plan and no
/// trace replay (its schedule would be copied per lane) — that is FIFO of
/// at most `FIFO_MAX_DEPTH` packets per port and at least `FIFO_THRESHOLD`
/// lanes, or wormhole of at most `WORM_MAX_LANES` channels per cell and at
/// least `WORM_THRESHOLD` lanes. A pure function of the config, so the
/// campaign planner gathers such curves into words without building a
/// fabric.
pub(crate) fn packs(config: &SimConfig, stages: usize, replications: usize) -> bool {
    let healthy = config.fault_plan.is_empty() && !config.traffic.is_trace();
    (2..=LANE_MAX_STAGES).contains(&stages)
        && match config.buffer_mode {
            BufferMode::Unbuffered => {
                packed_eligible(config, stages, replications)
                    || matches!(config.traffic, TrafficPattern::OnOff { .. })
                        && replications >= ON_OFF_THRESHOLD
            }
            BufferMode::Fifo(depth) => {
                healthy && depth <= FIFO_MAX_DEPTH && replications >= FIFO_THRESHOLD
            }
            BufferMode::Wormhole { lanes, .. } => {
                healthy && lanes <= WORM_MAX_LANES && replications >= WORM_THRESHOLD
            }
        }
}

/// Runs one scenario once per `(seed, offered load)` lane, returning the
/// metrics in lane order — bit-identical to a fresh [`Simulator`] per lane
/// at that seed and load, but with the fabric, sampler, arenas and fault
/// machinery built once and shared. The lanes replace `config`'s own seed
/// and offered load.
///
/// Errors come in a fixed order: a lane load that is NaN or outside
/// `[0, 1]` ([`ConfigError::InvalidLoad`]), then the rest of the config,
/// then the fabric, then the traffic's fit and the fault plan's sites. An
/// empty batch runs nothing and checks nothing.
pub fn run_replications(
    net: &ConnectionNetwork,
    config: &SimConfig,
    lanes: &[(u64, f64)],
) -> Result<Vec<Metrics>, SimError> {
    if let Some(&(_, load)) = lanes.iter().find(|(_, load)| !(0.0..=1.0).contains(load)) {
        return Err(ConfigError::InvalidLoad(load).into());
    }
    let Some(&(seed, offered_load)) = lanes.first() else {
        return Ok(Vec::new());
    };
    let config = SimConfig {
        seed,
        offered_load,
        ..config.clone()
    };
    config.validate()?;
    let fabric = Fabric::for_traffic(net.clone(), &config.traffic)?;
    let (sampler, mut faults) = prepare(&fabric, &config)?;
    if packs(&config, fabric.stages(), lanes.len()) && matches!(fabric.routing(), Routing::Delta(_))
    {
        let mut out = Vec::with_capacity(lanes.len());
        for word in lanes.chunks(LANE_WIDTH) {
            out.extend(match config.buffer_mode {
                BufferMode::Unbuffered => {
                    LaneEngine::with_lanes(&fabric, &config, &sampler, faults.as_mut(), word).run()
                }
                BufferMode::Fifo(_) => fifo::run_word(&fabric, &config, &sampler, word),
                BufferMode::Wormhole { .. } => worm::run_word(&fabric, &config, &sampler, word),
            });
        }
        return Ok(out);
    }
    let mut sim = Simulator::prepared(fabric, config, sampler, faults);
    Ok(lanes
        .iter()
        .map(|&(seed, load)| {
            sim.rewind(seed, load);
            sim.run()
        })
        .collect())
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

    fn wormhole(lanes: usize) -> BufferMode {
        BufferMode::Wormhole {
            lanes,
            lane_depth: 3,
            flits_per_packet: 4,
        }
    }

    /// One mode per word engine: healthy batches of at least 16 lanes pack
    /// in all three.
    const MODES: [BufferMode; 3] = [
        BufferMode::Unbuffered,
        BufferMode::Fifo(4),
        BufferMode::Wormhole {
            lanes: 2,
            lane_depth: 3,
            flits_per_packet: 4,
        },
    ];

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
        use crate::traffic::TraceData;
        let zipf = SimConfig::default().with_traffic(TrafficPattern::Zipf { exponent: 1.0 });
        assert!(packed_eligible(&zipf, 4, 64));
        let on_off = SimConfig::default().with_traffic(TrafficPattern::OnOff {
            on_dwell: 8.0,
            off_dwell: 8.0,
            on_rate: 1.0,
        });
        assert!(!packed_eligible(&on_off, 4, 64));
        // `packs` adds unbuffered ON/OFF work from its own lane bound,
        // faults included; trace replay stays scalar.
        assert!(packs(&on_off, 4, ON_OFF_THRESHOLD) && !packs(&on_off, 4, ON_OFF_THRESHOLD - 1));
        assert!(!packs(&on_off, LANE_MAX_STAGES + 1, 64));
        let faulty_on_off = on_off
            .clone()
            .with_faults(FaultPlan::none().with_dead_link(1, 0, 1, 0));
        assert!(packs(&faulty_on_off, 4, ON_OFF_THRESHOLD));
        let trace = SimConfig::default().with_traffic(TrafficPattern::Trace(TraceData {
            cells: 8,
            period: 1,
            records: vec![],
        }));
        assert!(!packed_eligible(&trace, 4, 64) && !packs(&trace, 4, 64));
        // Healthy FIFO work packs up to the depth bound, ON/OFF included,
        // from its own lane bound; `packed_eligible` does not admit it.
        let deepest = SimConfig::default().with_buffer(BufferMode::Fifo(FIFO_MAX_DEPTH));
        assert!(packs(&deepest, 4, FIFO_THRESHOLD) && !packs(&deepest, 4, FIFO_THRESHOLD - 1));
        assert!(packs(&fifo, 4, 64) && !packed_eligible(&fifo, 4, 64));
        assert!(!packs(&fifo, LANE_MAX_STAGES + 1, 64));
        assert!(!packs(
            &fifo
                .clone()
                .with_buffer(BufferMode::Fifo(FIFO_MAX_DEPTH + 1)),
            4,
            64
        ));
        assert!(!packs(
            &fifo
                .clone()
                .with_faults(FaultPlan::none().with_dead_switch(1, 1, 0)),
            4,
            64
        ));
        assert!(packs(
            &fifo.clone().with_traffic(on_off.traffic.clone()),
            4,
            64
        ));
        assert!(!packs(
            &fifo.clone().with_traffic(trace.traffic.clone()),
            4,
            64
        ));
        // `packs` adds healthy wormhole work, ON/OFF included, up to the
        // lane bound; `packed_eligible` keeps its unbuffered-only meaning.
        let worm = SimConfig::default().with_buffer(wormhole(WORM_MAX_LANES));
        assert!(packs(&worm, 4, WORM_THRESHOLD) && !packed_eligible(&worm, 4, 64));
        assert!(!packs(&worm, 4, WORM_THRESHOLD - 1));
        assert!(!packs(&worm, LANE_MAX_STAGES + 1, 64));
        assert!(!packs(
            &worm.clone().with_buffer(wormhole(WORM_MAX_LANES + 1)),
            4,
            64
        ));
        let faulty = worm
            .clone()
            .with_faults(FaultPlan::none().with_dead_link(1, 0, 1, 0));
        assert!(!packs(&faulty, 4, 64));
        assert!(packs(&worm.clone().with_traffic(on_off.traffic), 4, 64));
        assert!(!packs(&worm.with_traffic(trace.traffic), 4, 64));
    }

    #[test]
    fn both_routes_match_fresh_scalar_simulators() {
        let net = omega(4);
        // 16 seeds, packed in every mode — all must be bit-identical to
        // fresh per-seed simulators.
        let seeds: Vec<u64> = (0..WORM_THRESHOLD as u64)
            .map(|k| 0xC0FFEE ^ (k * 7919))
            .collect();
        for mode in MODES {
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
        let net = omega(4);
        // 10 seeds: Zipf goes through the packed engine, ON/OFF — below its
        // 16-lane bound — through the scalar rewind loop; both must be
        // bit-identical to fresh per-seed simulators.
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
        // Sixteen lanes over four loads, the runs of equal loads split up,
        // packed in every mode.
        let loads = [
            0.0, 0.35, 0.35, 1.0, 0.35, 0.0, 1.0, 1.0, 0.35, 0.0, 0.6, 0.6, 0.8, 0.35, 0.8, 0.0,
        ];
        assert!(loads.len() >= WORM_THRESHOLD.max(FIFO_THRESHOLD));
        let lanes: Vec<(u64, f64)> = loads
            .iter()
            .enumerate()
            .map(|(k, &load)| (0xBEEF ^ (k as u64 * 4099), load))
            .collect();
        for mode in MODES {
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
    fn non_delta_fabrics_match_fresh_scalar_simulators() {
        use min_networks::rearrangeable::{benes, benes_variant};
        // Benes and its variant pass the eligibility gate but have no
        // destination-tag table, so their lanes run on the scalar engine:
        // multi-path routed under uniform traffic, looping circuits under
        // a full cell permutation.
        let loads = [0.0, 0.5, 1.0, 0.5, 0.25, 1.0, 0.0, 0.75, 0.5, 0.9];
        assert!(loads.len() >= LANE_THRESHOLD);
        let lanes: Vec<(u64, f64)> = loads
            .iter()
            .enumerate()
            .map(|(k, &load)| (0xB5E5 ^ (k as u64 * 7723), load))
            .collect();
        for net in [benes(3), benes_variant(3)] {
            for traffic in [
                TrafficPattern::Uniform,
                TrafficPattern::Permutation(vec![3, 2, 0, 1]),
            ] {
                let config = SimConfig::default()
                    .with_cycles(150, 15)
                    .with_traffic(traffic.clone());
                assert!(packed_eligible(&config, net.stages(), lanes.len()));
                let batched = run_replications(&net, &config, &lanes).unwrap();
                assert_eq!(batched.len(), lanes.len());
                for (m, &(seed, load)) in batched.iter().zip(&lanes) {
                    let config = config.clone().with_load(load);
                    assert_eq!(*m, fresh(&net, &config, seed), "{traffic:?} load {load}");
                }
            }
        }
    }

    #[test]
    fn bad_lane_loads_are_typed_errors() {
        // Both routes check every lane load before anything else, so a bad
        // load wins over a bad warm-up; NaN is refused too.
        let net = omega(3);
        for mode in MODES {
            let config = SimConfig::default().with_buffer(mode);
            let mut lanes: Vec<(u64, f64)> = (0..WORM_THRESHOLD.max(FIFO_THRESHOLD) as u64)
                .map(|s| (s, 0.5))
                .collect();
            assert!(packs(&config, 3, lanes.len()));
            for load in [-0.25, 1.5, f64::INFINITY] {
                lanes[3].1 = load;
                assert_eq!(
                    run_replications(&net, &config, &lanes).unwrap_err(),
                    SimError::Config(ConfigError::InvalidLoad(load)),
                    "{mode:?}"
                );
                let all_warmup = config.clone().with_cycles(10, 10);
                assert_eq!(
                    run_replications(&net, &all_warmup, &lanes).unwrap_err(),
                    SimError::Config(ConfigError::InvalidLoad(load)),
                    "{mode:?}"
                );
            }
            lanes[3].1 = f64::NAN;
            assert!(matches!(
                run_replications(&net, &config, &lanes),
                Err(SimError::Config(ConfigError::InvalidLoad(l))) if l.is_nan()
            ));
        }
    }

    #[test]
    fn empty_seed_lists_yield_no_metrics() {
        let net = omega(3);
        for mode in MODES {
            let config = SimConfig::default().with_buffer(mode);
            assert!(run_replications(&net, &config, &[]).unwrap().is_empty());
        }
    }

    #[test]
    fn wormhole_batches_that_stay_scalar_match_fresh_scalar_simulators() {
        use min_networks::rearrangeable::benes;
        // Each batch passes the lane-count gate but takes the scalar
        // rewind loop: a fault plan, a fabric without destination tags,
        // and more channels per cell than the packed engine takes.
        let lanes: Vec<(u64, f64)> = (0..WORM_THRESHOLD as u64)
            .map(|k| (0x3A7 ^ (k * 6007), (k % 5) as f64 / 4.0))
            .collect();
        let base = SimConfig::default().with_cycles(150, 15);
        let faulty = base.clone().with_buffer(wormhole(2)).with_faults(
            FaultPlan::none()
                .with_dead_link(1, 0, 1, 0)
                .with_dead_switch(1, 1, 70),
        );
        let wide = base.clone().with_buffer(wormhole(WORM_MAX_LANES + 2));
        // Benes passes the config gate; its fabric sends it scalar.
        let cases = [
            (omega(4), faulty, false),
            (benes(3), base.with_buffer(wormhole(2)), true),
            (omega(4), wide, false),
        ];
        for (net, config, gate) in cases {
            assert_eq!(packs(&config, net.stages(), lanes.len()), gate);
            let batched = run_replications(&net, &config, &lanes).unwrap();
            assert_eq!(batched.len(), lanes.len());
            for (m, &(seed, load)) in batched.iter().zip(&lanes) {
                let config = config.clone().with_load(load);
                assert_eq!(
                    *m,
                    fresh(&net, &config, seed),
                    "{:?} load {load}",
                    config.buffer_mode
                );
            }
        }
    }

    #[test]
    fn fifo_batches_that_stay_scalar_match_fresh_scalar_simulators() {
        use crate::traffic::{TraceData, TraceRecord};
        use min_networks::rearrangeable::benes;
        // Each batch takes the scalar rewind loop: a fault plan, a fabric
        // without destination tags, trace replay, a FIFO deeper than the
        // packed engine takes, and a batch below the lane bound.
        let lanes: Vec<(u64, f64)> = (0..FIFO_THRESHOLD as u64)
            .map(|k| (0xF1F0 ^ (k * 5231), (k % 5) as f64 / 4.0))
            .collect();
        let base = SimConfig::default()
            .with_cycles(150, 15)
            .with_buffer(BufferMode::Fifo(2));
        let faulty = base.clone().with_faults(
            FaultPlan::none()
                .with_dead_link(1, 0, 1, 0)
                .with_dead_switch(1, 1, 70),
        );
        let trace = base.clone().with_traffic(TrafficPattern::Trace(TraceData {
            cells: 8,
            period: 3,
            records: (0..16)
                .map(|t| TraceRecord {
                    cycle: t / 6,
                    source: t,
                    dest: (t * 5) % 8,
                })
                .collect(),
        }));
        let deep = base
            .clone()
            .with_buffer(BufferMode::Fifo(FIFO_MAX_DEPTH + 1));
        // Benes passes the config gate; its fabric sends it scalar.
        let cases = [
            (omega(4), faulty, lanes.len(), false),
            (benes(3), base.clone(), lanes.len(), true),
            (omega(4), trace, lanes.len(), false),
            (omega(4), deep, lanes.len(), false),
            (omega(4), base, FIFO_THRESHOLD - 1, false),
        ];
        for (net, config, count, gate) in cases {
            let lanes = &lanes[..count];
            assert_eq!(packs(&config, net.stages(), count), gate);
            let batched = run_replications(&net, &config, lanes).unwrap();
            assert_eq!(batched.len(), count);
            for (m, &(seed, load)) in batched.iter().zip(lanes) {
                let config = config.clone().with_load(load);
                assert_eq!(
                    *m,
                    fresh(&net, &config, seed),
                    "{:?} {} load {load}",
                    config.buffer_mode,
                    config.traffic.label()
                );
            }
        }
    }
}
