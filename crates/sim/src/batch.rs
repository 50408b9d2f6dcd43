//! Batched replications: the one way into the simulation engines for many
//! runs of one scenario.
//!
//! The campaign layer replicates every grid point several times under
//! derived seeds, and sweeps the offered load along a curve. A batch is a
//! list of `(seed, offered load)` lanes of one scenario — one grid point's
//! replications, or a whole load curve's — and a bundle is several such
//! curves that differ only in traffic pattern. [`run_replications`] runs a
//! batch as a bundle of one curve through the crate-private `run_bundle`,
//! which does the setup once: it checks every lane load and each curve's
//! config, builds the fabric (once, for a delta network), prepares each
//! traffic's destination sampler, and builds the fault runtime once. Then
//! it picks the engine from what it holds. A batch of at least
//! [`LANE_THRESHOLD`] lanes on a destination-tag routed fabric of at most
//! [`LANE_MAX_STAGES`] stages runs word-packed, 64 lanes per `u64` whatever
//! their loads and, in a bundle, their traffic patterns, in one of three
//! engines:
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
use crate::engine::{fault_runtime, sampler, SimError, Simulator};
use crate::fabric::{Fabric, Routing};
use crate::fault::FaultRuntime;
use crate::fifo::{self, FIFO_MAX_DEPTH, FIFO_THRESHOLD};
use crate::lane::{LaneEngine, LaneGroup, LANE_WIDTH, ON_OFF_THRESHOLD};
use crate::metrics::Metrics;
use crate::traffic::{DestSampler, TrafficPattern};
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

/// Fewest lanes a batch of this workload packs at: [`LANE_THRESHOLD`] for
/// unbuffered work with stateless traffic, `ON_OFF_THRESHOLD` for
/// unbuffered ON/OFF work, `FIFO_THRESHOLD` and `WORM_THRESHOLD` for FIFO
/// and wormhole work. The campaign planner also keeps a bundle's last
/// remainder shorter than this in its previous word.
pub(crate) fn pack_threshold(config: &SimConfig) -> usize {
    match config.buffer_mode {
        BufferMode::Unbuffered if matches!(config.traffic, TrafficPattern::OnOff { .. }) => {
            ON_OFF_THRESHOLD
        }
        BufferMode::Unbuffered => LANE_THRESHOLD,
        BufferMode::Fifo(_) => FIFO_THRESHOLD,
        BufferMode::Wormhole { .. } => WORM_THRESHOLD,
    }
}

/// Whether a batch of `replications` lanes of this workload runs
/// word-packed on a destination-tag routed fabric of at most
/// [`LANE_MAX_STAGES`] stages: at least [`pack_threshold`] lanes of the
/// unbuffered work [`packed_eligible`] admits, of unbuffered ON/OFF work
/// (faults included), or of healthy buffered work — an empty fault plan and
/// no trace replay (its schedule would be copied per lane) — that is FIFO
/// of at most `FIFO_MAX_DEPTH` packets per port or wormhole of at most
/// `WORM_MAX_LANES` channels per cell. A pure function of the config, so
/// the campaign planner gathers such curves into words without building a
/// fabric.
pub(crate) fn packs(config: &SimConfig, stages: usize, replications: usize) -> bool {
    let healthy = config.fault_plan.is_empty() && !config.traffic.is_trace();
    (2..=LANE_MAX_STAGES).contains(&stages)
        && replications >= pack_threshold(config)
        && match config.buffer_mode {
            BufferMode::Unbuffered => {
                !config.traffic.is_stateful()
                    || matches!(config.traffic, TrafficPattern::OnOff { .. })
            }
            BufferMode::Fifo(depth) => healthy && depth <= FIFO_MAX_DEPTH,
            BufferMode::Wormhole { lanes, .. } => healthy && lanes <= WORM_MAX_LANES,
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
    run_bundle(net, config, &[(&config.traffic, lanes)]).map_err(|(_, error)| error)
}

/// One curve of a bundle, set up: its lanes, its config (the curve's
/// traffic, its first lane's seed and load) and sampler, and its own
/// fabric unless it shares the bundle's delta fabric.
struct Curve<'l> {
    lanes: &'l [(u64, f64)],
    config: SimConfig,
    sampler: DestSampler,
    fabric: Option<Fabric>,
}

/// Runs several curves of one scenario that differ only in traffic — a
/// bundle, each `(traffic, lanes)` pair replacing `config`'s traffic — and
/// returns every lane's metrics, curve by curve in lane order, each
/// bit-identical to a fresh [`Simulator`] at that traffic, seed and load.
///
/// Each curve is checked as [`run_replications`] checks a batch, in curve
/// order; the first error comes back with its curve's position. A delta
/// fabric routes every traffic alike, so it is built once, and the fault
/// runtime, which depends on the plan and the network alone, is built once
/// and passed from curve to curve with the reroute epochs it cached. When
/// every curve packs at the bundle's lane count on a delta fabric, the
/// lanes are cut into 64-lane words in curve order, so one word may carry
/// several patterns as contiguous groups; otherwise each curve runs on its
/// own scalar [`Simulator`], rewound per lane.
pub(crate) fn run_bundle(
    net: &ConnectionNetwork,
    config: &SimConfig,
    curves: &[(&TrafficPattern, &[(u64, f64)])],
) -> Result<Vec<Metrics>, (usize, SimError)> {
    let (mut shared, mut faults) = (None, None);
    let mut set_up = Vec::with_capacity(curves.len());
    for (i, &(traffic, lanes)) in curves.iter().enumerate() {
        let curve = set_up_curve(net, config, traffic, lanes, &mut shared, &mut faults);
        set_up.extend(curve.map_err(|error| (i, error))?);
    }
    let total: usize = curves.iter().map(|(_, lanes)| lanes.len()).sum();
    let mut out = Vec::with_capacity(total);
    let packed = |fabric: &&Fabric| {
        let stages = fabric.stages();
        set_up.iter().all(|c| packs(&c.config, stages, total))
    };
    if let Some(fabric) = shared.as_ref().filter(packed) {
        let config = &set_up[0].config;
        for start in (0..total).step_by(LANE_WIDTH) {
            let groups = word_groups(&set_up, start..total.min(start + LANE_WIDTH));
            out.extend(match config.buffer_mode {
                BufferMode::Unbuffered => {
                    LaneEngine::with_groups(fabric, config, faults.as_mut(), &groups).run()
                }
                BufferMode::Fifo(_) => fifo::run_word(fabric, config, &groups),
                BufferMode::Wormhole { .. } => worm::run_word(fabric, config, &groups),
            });
        }
        return Ok(out);
    }
    for curve in set_up {
        let fabric = curve.fabric.or_else(|| shared.clone()).expect("a fabric");
        let mut sim = Simulator::prepared(fabric, curve.config, curve.sampler, faults);
        out.extend(curve.lanes.iter().map(|&(seed, load)| {
            sim.rewind(seed, load);
            sim.run()
        }));
        faults = sim.into_faults();
    }
    Ok(out)
}

/// Checks and sets up one curve of a bundle in [`run_replications`]' error
/// order, building its fabric unless the delta fabric in `shared` serves
/// it, and the bundle's fault runtime into `faults` unless an earlier
/// curve built it; an empty curve checks nothing and sets up nothing.
fn set_up_curve<'l>(
    net: &ConnectionNetwork,
    config: &SimConfig,
    traffic: &TrafficPattern,
    lanes: &'l [(u64, f64)],
    shared: &mut Option<Fabric>,
    faults: &mut Option<FaultRuntime>,
) -> Result<Option<Curve<'l>>, SimError> {
    if let Some(&(_, load)) = lanes.iter().find(|(_, load)| !(0.0..=1.0).contains(load)) {
        return Err(ConfigError::InvalidLoad(load).into());
    }
    let Some(&(seed, offered_load)) = lanes.first() else {
        return Ok(None);
    };
    let config = SimConfig {
        seed,
        offered_load,
        traffic: traffic.clone(),
        ..config.clone()
    };
    config.validate()?;
    let mut fabric = match shared {
        Some(_) => None,
        None => Some(Fabric::for_traffic(net.clone(), traffic)?),
    };
    let built = fabric.as_ref().or(shared.as_ref()).expect("a fabric");
    let sampler = sampler(built, &config)?;
    if faults.is_none() {
        *faults = fault_runtime(built, &config)?;
    }
    if fabric
        .as_ref()
        .is_some_and(|f| matches!(f.routing(), Routing::Delta(_)))
    {
        *shared = fabric.take();
    }
    Ok(Some(Curve {
        lanes,
        config,
        sampler,
        fabric,
    }))
}

/// The traffic groups of the word holding lanes `word` of the curves'
/// concatenated lanes.
fn word_groups<'a>(curves: &'a [Curve], word: std::ops::Range<usize>) -> Vec<LaneGroup<'a>> {
    let mut groups = Vec::new();
    let mut start = 0;
    for curve in curves {
        let end = start + curve.lanes.len();
        let (from, to) = (word.start.max(start), word.end.min(end));
        if from < to {
            groups.push(LaneGroup {
                traffic: &curve.config.traffic,
                sampler: &curve.sampler,
                lanes: &curve.lanes[from - start..to - start],
            });
        }
        start = end;
    }
    groups
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
    fn bundles_fall_back_per_curve_and_name_the_failing_curve() {
        use min_networks::rearrangeable::benes;
        let lanes: Vec<(u64, f64)> = (0..12u64)
            .map(|k| (0xB0D ^ (k * 811), k as f64 / 11.0))
            .collect();
        let (uniform, permutation) = (
            TrafficPattern::Uniform,
            TrafficPattern::Permutation(vec![3, 2, 0, 1]),
        );
        // Benes has no destination-tag table, so each curve builds its own
        // fabric (looping circuits for the permutation) and runs scalar;
        // faulty FIFO work on Omega shares the delta fabric but runs scalar
        // too. Under a dead link from cycle 30 the curves pass one fault
        // runtime along, its reroute epoch computed once. An empty curve
        // runs nothing.
        let curves = [
            (&uniform, &lanes[..5]),
            (&uniform, &lanes[..0]),
            (&permutation, &lanes[5..]),
        ];
        let plans = [
            FaultPlan::none(),
            FaultPlan::none().with_dead_link(1, 0, 1, 30),
        ];
        for (net, mode) in [
            (benes(3), BufferMode::Unbuffered),
            (omega(3), BufferMode::Fifo(2)),
        ] {
            for plan in &plans {
                let config = SimConfig::default()
                    .with_cycles(120, 12)
                    .with_buffer(mode)
                    .with_faults(plan.clone());
                let bundled = run_bundle(&net, &config, &curves).unwrap();
                let expected: Vec<Metrics> = curves
                    .iter()
                    .flat_map(|&(traffic, lanes)| lanes.iter().map(move |&lane| (traffic, lane)))
                    .map(|(traffic, (seed, load))| {
                        let config = config.clone().with_traffic(traffic.clone()).with_load(load);
                        fresh(&net, &config, seed)
                    })
                    .collect();
                assert_eq!(bundled, expected, "{mode:?} under {plan:?}");
            }
        }
        // Errors name the first failing curve.
        let config = SimConfig::default().with_cycles(120, 12);
        let mut bad = lanes.clone();
        bad[7].1 = 2.0;
        let curves = [(&uniform, &bad[..5]), (&permutation, &bad[5..])];
        assert_eq!(
            run_bundle(&omega(3), &config, &curves).unwrap_err(),
            (1, SimError::Config(ConfigError::InvalidLoad(2.0)))
        );
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

#[cfg(test)]
mod mixed_oracle {
    //! Scalar-vs-packed oracle for words that carry several traffic patterns.
    //!
    //! [`run_bundle`] runs the curves of one scenario that differ only in
    //! traffic, and when every curve packs at the bundle's lane count it cuts
    //! their lanes, in curve order, into words of 64: a word then holds its
    //! patterns as contiguous groups, each with its own draw, all through the
    //! one injection loop of the word engines. This proptest holds every lane
    //! of such bundles to a fresh scalar [`Simulator`] at that lane's traffic,
    //! seed and load, field for field, in all three engines: 2 to 4 patterns
    //! per bundle drawn from uniform, Zipf, ON/OFF, hot-spot and bit-reversal
    //! traffic, group boundaries anywhere in a word (one-lane groups and empty
    //! curves among them), loads of exactly 0 and 1 in every bundle, and
    //! bundles of 16 to 128 lanes, so a word holds anything from 1 to 64 lanes.
    //! Unbuffered bundles also run under a fault plan, whose reroutes every
    //! group draws through.

    use super::run_bundle;
    use crate::campaign::scenario_seed;
    use crate::config::{BufferMode, SimConfig};
    use crate::engine::Simulator;
    use crate::fault::FaultPlan;
    use crate::lane::LANE_WIDTH;
    use crate::metrics::Metrics;
    use crate::traffic::TrafficPattern;
    use min_core::ConnectionNetwork;
    use min_networks::random::random_independent_banyan;
    use min_networks::ClassicalNetwork;
    use min_routing::tag::destination_tags;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Most lanes one bundle draws: two full words.
    const MAX_LANES: usize = 2 * LANE_WIDTH;

    /// A catalog network, or one past the catalog a random Banyan network whose
    /// every stage is a proper independent connection, resampled until it
    /// routes by destination tag (Omega if none turns up).
    fn network(stages: usize, family: usize, seed: u64) -> ConnectionNetwork {
        if let Some(family) = ClassicalNetwork::ALL.get(family) {
            return family.build(stages);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..64)
            .filter_map(|_| random_independent_banyan(stages, 256, &mut rng))
            .find(|net| destination_tags(net).is_some())
            .unwrap_or_else(|| ClassicalNetwork::Omega.build(stages))
    }

    /// Uniform, Zipf, hot-spot, bit-reversal or ON/OFF traffic by `kind`,
    /// sized to `cells`.
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
    fn mixed_lanes(draws: &[(usize, f64)], seed: u64) -> Vec<(u64, f64)> {
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
    fn fresh(net: &ConnectionNetwork, config: &SimConfig, seed: u64, load: f64) -> Metrics {
        Simulator::new(net.clone(), config.clone().with_seed(seed).with_load(load))
            .unwrap()
            .run()
    }

    /// The three engines' modes: unbuffered, FIFO of depth 1 to 4, and
    /// wormhole of 1 to 8 channels per cell with lane depths and worm lengths
    /// from 1 to 5.
    fn mode_strategy() -> impl Strategy<Value = BufferMode> {
        (0usize..3, 1usize..=4, 1usize..=8, 1usize..=5, 1usize..=5).prop_map(
            |(kind, depth, lanes, lane_depth, flits_per_packet)| match kind {
                0 => BufferMode::Unbuffered,
                1 => BufferMode::Fifo(depth),
                _ => BufferMode::Wormhole {
                    lanes,
                    lane_depth,
                    flits_per_packet,
                },
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn mixed_traffic_words_match_fresh_scalar_simulators(
            stages in 2usize..=6,
            family in 0usize..=ClassicalNetwork::ALL.len(),
            mode in mode_strategy(),
            faulty in any::<bool>(),
            cycles in 40u64..=100,
            count in 16usize..=MAX_LANES,
            draws in proptest::collection::vec((0usize..4, 0.0f64..=1.0), MAX_LANES),
            groups in 2usize..=4,
            kinds in proptest::collection::vec(0usize..5, 4),
            cuts in proptest::collection::vec(0usize..=MAX_LANES, 3),
            one_lane_group in any::<bool>(),
            fraction in 0.05f64..0.95,
            seed in any::<u64>(),
        ) {
            let net = network(stages, family, seed);
            let cells = net.cells_per_stage();
            // A dead link from the first stage, live from the start: every
            // unbuffered group then draws through the reroute table.
            let plan = if faulty && mode == BufferMode::Unbuffered {
                FaultPlan::none().with_dead_link(0, 0, 1, 0)
            } else {
                FaultPlan::none()
            };
            let config = SimConfig::default()
                .with_cycles(cycles, cycles / 10)
                .with_buffer(mode)
                .with_faults(plan);
            let patterns: Vec<TrafficPattern> = kinds[..groups]
                .iter()
                .map(|&k| traffic(k, cells, fraction, seed))
                .collect();
            // Group boundaries anywhere in the bundle's lanes, the first group
            // a single lane when asked.
            let mut bounds: Vec<usize> = cuts[..patterns.len() - 1]
                .iter()
                .map(|&cut| cut % (count + 1))
                .collect();
            if one_lane_group {
                bounds[0] = 1;
            }
            bounds.sort_unstable();
            bounds.insert(0, 0);
            bounds.push(count);
            let lanes = mixed_lanes(&draws[..count], seed);
            let curves: Vec<(&TrafficPattern, &[(u64, f64)])> = patterns
                .iter()
                .zip(bounds.windows(2))
                .map(|(pattern, bound)| (pattern, &lanes[bound[0]..bound[1]]))
                .collect();
            let packed = run_bundle(&net, &config, &curves).unwrap();
            prop_assert_eq!(packed.len(), count);
            let expected = curves.iter().flat_map(|&(pattern, lanes)| {
                let config = config.clone().with_traffic(pattern.clone());
                lanes
                    .iter()
                    .map(move |&(seed, load)| (pattern.label(), load, config.clone(), seed))
            });
            for (metrics, (label, load, config, seed)) in packed.iter().zip(expected) {
                let scalar = fresh(&net, &config, seed, load);
                prop_assert!(
                    *metrics == scalar,
                    "{label} at load {load} in {mode:?}: packed {metrics:?}, scalar {scalar:?}"
                );
            }
        }
    }
}
