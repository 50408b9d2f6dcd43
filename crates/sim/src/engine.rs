//! The cycle-synchronous simulation engine.
//!
//! Each cycle proceeds in three phases, processed from the output side back
//! to the input side so that space freed in a stage is visible to the stage
//! behind it within the same cycle:
//!
//! 1. **delivery** — everything deliverable at a last-stage cell leaves the
//!    fabric (latencies are recorded, and a misroute counter audits that
//!    every packet really reached its destination cell);
//! 2. **switching** — every interior cell moves traffic one stage forward,
//!    choosing the out-port from the packet's destination tag;
//! 3. **injection** — each of the two terminals of every first-stage cell
//!    offers a packet with probability `offered_load`; accepted packets are
//!    tagged with the routing tag of their destination.
//!
//! The *storage* behind those phases is pluggable: the engine owns the
//! clock, the ChaCha8 RNG and the traffic sources, and drives a
//! [`SwitchCore`] — unbuffered, FIFO, or multi-lane wormhole (see
//! [`crate::switch`]) — selected by [`SimConfig::buffer_mode`]. All cores
//! store their state in flat, preallocated arenas.
//!
//! The engine is deterministic for a given [`SimConfig::seed`].
//!
//! [`Simulator::new`] is the single-run API: it validates the config,
//! builds the fabric and `prepare`s the sampler and fault runtime. Many
//! runs of one scenario go through [`crate::batch::run_replications`]
//! instead, which does that setup once per batch and then either packs the
//! lanes into machine words (unbuffered, and healthy FIFO and wormhole
//! work) or runs them all on one simulator, rewound to each lane's seed and
//! load. This engine and its switching cores are the packed engines'
//! oracle.

use crate::config::{ConfigError, SimConfig};
use crate::fabric::{Fabric, FabricError};
use crate::fault::{FaultError, FaultRuntime, FaultView};
use crate::metrics::Metrics;
use crate::packet::Packet;
use crate::switch::{build_core, SwitchCore};
use crate::traffic::{DestSampler, Offer, TrafficSources};
use min_core::ConnectionNetwork;
use rand::distributions::Bernoulli;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Why a simulator could not be built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimError {
    /// The configuration failed validation ([`SimConfig::validate`]).
    Config(ConfigError),
    /// The network cannot be simulated.
    Fabric(FabricError),
    /// The fault plan names a site outside the fabric.
    Fault(FaultError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid simulation config: {e}"),
            SimError::Fabric(e) => write!(f, "unsimulatable network: {e}"),
            SimError::Fault(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<FabricError> for SimError {
    fn from(e: FabricError) -> Self {
        SimError::Fabric(e)
    }
}

impl From<FaultError> for SimError {
    fn from(e: FaultError) -> Self {
        SimError::Fault(e)
    }
}

/// A running simulation.
#[derive(Debug)]
pub struct Simulator {
    fabric: Fabric,
    config: SimConfig,
    rng: ChaCha8Rng,
    core: Box<dyn SwitchCore>,
    /// Fault machinery, present only for a non-empty [`SimConfig::fault_plan`]
    /// — `None` runs the exact fault-free code path.
    faults: Option<FaultRuntime>,
    /// Injection state of the traffic pattern (ON/OFF chains, trace
    /// schedules; stateless for the classic patterns).
    sources: TrafficSources,
    /// The sources' injection coin at the configured load.
    coin: Bernoulli,
    /// Destination sampler of the traffic pattern (precomputed CDF for
    /// Zipf, a delegate for everything else).
    sampler: DestSampler,
    cycle: u64,
    next_packet_id: u64,
    metrics: Metrics,
}

impl Simulator {
    /// Builds a simulator for the given network and configuration. The
    /// configuration is validated first — including the traffic pattern
    /// against this fabric ([`crate::TrafficPattern::validate_for`]) — so
    /// an out-of-range load, a NaN hot-spot fraction, a permutation or
    /// trace that does not fit the fabric, an all-warm-up cycle budget, a
    /// zero lane/depth parameter or a fault site outside the fabric is a
    /// typed error here rather than a panic or silent misbehaviour mid-run.
    pub fn new(net: ConnectionNetwork, config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        let fabric = Fabric::for_traffic(net, &config.traffic)?;
        let (sampler, faults) = prepare(&fabric, &config)?;
        Ok(Self::prepared(fabric, config, sampler, faults))
    }

    /// Builds a simulator from a validated `config` and the fabric,
    /// sampler and fault runtime [`prepare`]d for it.
    pub(crate) fn prepared(
        fabric: Fabric,
        config: SimConfig,
        sampler: DestSampler,
        faults: Option<FaultRuntime>,
    ) -> Self {
        let sources = TrafficSources::new(&config.traffic, fabric.cells());
        let coin = sources.coin(config.offered_load);
        let core = build_core(config.buffer_mode, fabric.stages(), fabric.cells());
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        Simulator {
            fabric,
            config,
            rng,
            core,
            faults,
            sources,
            coin,
            sampler,
            cycle: 0,
            next_packet_id: 0,
            metrics: Metrics::default(),
        }
    }

    /// The fabric being simulated.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of packets currently inside the fabric.
    pub fn in_flight(&self) -> u64 {
        self.core.in_flight()
    }

    /// Number of (source, destination) cell pairs currently severed by
    /// active faults (0 for a healthy fabric or before any onset).
    pub fn severed_pairs(&self) -> u64 {
        self.faults.as_ref().map_or(0, FaultRuntime::severed_pairs)
    }

    /// Runs one cycle.
    pub fn step(&mut self) {
        // Phase 0: cross any fault-onset boundary (recomputes the
        // per-pair reroute table; a cheap no-op on every other cycle).
        if let Some(rt) = self.faults.as_mut() {
            rt.advance(self.fabric.network(), self.cycle);
        }
        let faults = match self.faults.as_ref() {
            Some(rt) => FaultView::at(&rt.state, self.cycle),
            None => FaultView::healthy(self.cycle),
        };

        // Phase 1: delivery at the last stage.
        self.core.deliver(
            &self.fabric,
            &faults,
            self.cycle,
            self.config.warmup,
            &mut self.metrics,
        );

        // Phase 2: switching, from the next-to-last stage back to the first.
        self.core
            .switch(&self.fabric, &faults, &mut self.rng, &mut self.metrics);

        // Phase 3: injection at the first stage (two terminals per cell).
        // Injection is open-loop: `offered` counts every offer the sources
        // make, whether or not the core can accept it, so offered_rate vs
        // normalized_throughput divergence locates the saturation point.
        // While a dead link or switch is active the tag comes from the
        // pair's surviving path (destination-tag reroute); otherwise the
        // fabric's routing picks it per (source, terminal). Either way an
        // unreachable destination refuses the packet at the source instead
        // of losing it inside.
        let reroute = self.faults.as_ref().and_then(FaultRuntime::rerouting);
        let cells = self.fabric.cells();
        for cell in 0..cells {
            for terminal in 0..2 {
                let offer = self.sources.offer_with(
                    self.cycle,
                    cell as u32,
                    terminal,
                    &self.coin,
                    &mut self.rng,
                );
                if offer == Offer::Idle {
                    continue;
                }
                self.metrics.offered += 1;
                if !self.core.can_accept(cell) {
                    // No space at the source cell: the packet is refused.
                    continue;
                }
                let destination = match offer {
                    Offer::PacketTo(dest) => dest,
                    _ => self.sampler.draw(cell as u32, &mut self.rng),
                };
                let tag = match reroute {
                    Some(table) => table.tag(cell, destination as usize),
                    None => self.fabric.route(cell as u32, terminal, destination),
                };
                let Some(tag) = tag else {
                    self.metrics.unroutable_drops += 1;
                    continue;
                };
                let packet = Packet {
                    id: self.next_packet_id,
                    source: cell as u32,
                    destination,
                    tag,
                    injected_at: self.cycle,
                };
                self.next_packet_id += 1;
                self.metrics.injected += 1;
                self.core.inject(cell, packet);
            }
        }

        self.cycle += 1;
        self.metrics.measured_cycles = self.cycle;
        self.metrics.in_flight_at_end = self.core.in_flight();
        let (occupied, slots) = self.core.occupancy();
        self.metrics.lane_occupancy_sum += occupied;
        self.metrics.lane_slot_cycles += slots;
    }

    /// Runs the configured number of cycles and returns the metrics.
    pub fn run(&mut self) -> Metrics {
        for _ in 0..self.config.cycles {
            self.step();
        }
        self.metrics.clone()
    }

    /// Rewinds the simulator to cycle 0 under a new seed and offered load,
    /// reusing the fabric tables, the switch core's arenas and the fault
    /// machinery (cached reroute epochs included). The next
    /// [`Simulator::run`] is bit-identical to a freshly built simulator with
    /// the same configuration, `seed` and `offered_load` — this is what
    /// lets the batching layer run every lane of a scenario through one
    /// engine instance. The caller has checked that the load lies in
    /// `[0, 1]`.
    pub(crate) fn rewind(&mut self, seed: u64, offered_load: f64) {
        self.config.seed = seed;
        self.config.offered_load = offered_load;
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self.core.reset();
        if let Some(rt) = self.faults.as_mut() {
            rt.rewind();
        }
        self.sources.reset();
        self.coin = self.sources.coin(offered_load);
        self.cycle = 0;
        self.next_packet_id = 0;
        self.metrics = Metrics::default();
    }

    /// The fault runtime, with every reroute epoch it cached, for the next
    /// curve of a bundle ([`crate::batch::run_bundle`]).
    pub(crate) fn into_faults(self) -> Option<FaultRuntime> {
        self.faults
    }
}

/// The setup both engines share once their fabric is built: the traffic
/// pattern checked against the fabric, its destination sampler, and the
/// fault runtime of a non-empty plan (whose sites are checked first).
pub(crate) fn prepare(
    fabric: &Fabric,
    config: &SimConfig,
) -> Result<(DestSampler, Option<FaultRuntime>), SimError> {
    Ok((sampler(fabric, config)?, fault_runtime(fabric, config)?))
}

/// The traffic pattern checked against the fabric, and its destination
/// sampler.
pub(crate) fn sampler(fabric: &Fabric, config: &SimConfig) -> Result<DestSampler, SimError> {
    let cells = fabric.cells();
    config
        .traffic
        .validate_for(cells as u32)
        .map_err(ConfigError::from)?;
    Ok(config
        .traffic
        .sampler(cells as u32, fabric.network().width()))
}

/// The fault runtime of a non-empty plan, its sites checked first; `None`
/// for a healthy run.
pub(crate) fn fault_runtime(
    fabric: &Fabric,
    config: &SimConfig,
) -> Result<Option<FaultRuntime>, SimError> {
    if config.fault_plan.is_empty() {
        return Ok(None);
    }
    config
        .fault_plan
        .validate(fabric.stages(), fabric.cells())?;
    Ok(Some(FaultRuntime::new(
        &config.fault_plan,
        fabric.stages(),
        fabric.cells(),
    )))
}

/// Convenience wrapper: build a simulator, run it, return the metrics.
pub fn simulate(net: ConnectionNetwork, config: SimConfig) -> Result<Metrics, SimError> {
    Ok(Simulator::new(net, config)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BufferMode;
    use crate::traffic::TrafficPattern;
    use min_networks::{baseline, omega};

    fn quick_config() -> SimConfig {
        SimConfig::default().with_cycles(400, 0).with_seed(42)
    }

    fn wormhole(lanes: usize, lane_depth: usize, flits_per_packet: usize) -> BufferMode {
        BufferMode::Wormhole {
            lanes,
            lane_depth,
            flits_per_packet,
        }
    }

    #[test]
    fn packets_are_never_misrouted() {
        for n in 2..=5 {
            let metrics = simulate(omega(n), quick_config().with_load(0.8)).unwrap();
            assert_eq!(metrics.misrouted, 0, "omega n={n}");
            assert!(metrics.delivered > 0);
        }
    }

    #[test]
    fn conservation_holds_in_all_buffer_modes() {
        for mode in [
            BufferMode::Unbuffered,
            BufferMode::Fifo(4),
            wormhole(2, 4, 4),
        ] {
            let metrics =
                simulate(omega(4), quick_config().with_load(0.9).with_buffer(mode)).unwrap();
            assert_eq!(
                metrics.injected,
                metrics.delivered + metrics.dropped() + metrics.in_flight_at_end,
                "mode {mode:?}"
            );
            assert!(metrics.offered >= metrics.injected);
        }
    }

    #[test]
    fn unbuffered_mode_drops_under_heavy_load() {
        let metrics = simulate(omega(4), quick_config().with_load(1.0)).unwrap();
        assert!(
            metrics.dropped() > 0,
            "full load must cause arbitration losses"
        );
        assert!(
            metrics.dropped_arbitration > 0,
            "unbuffered losses are arbitration losses"
        );
        // The last stage does not arbitrate today (it delivers everything
        // it holds), so an n-stage fabric tracks Patel's recurrence for n − 1
        // stages: ≈ 0.52 here, Patel(3), where Patel(4) ≈ 0.45. ROADMAP.md
        // item 1 (model fidelity) adds the missing arbitration.
        let tput = metrics.normalized_throughput(16);
        assert!(tput > 0.35 && tput < 0.75, "throughput {tput}");
    }

    #[test]
    fn buffered_mode_never_drops_inside_the_fabric() {
        let unbuffered = simulate(omega(4), quick_config().with_load(1.0)).unwrap();
        let buffered = simulate(
            omega(4),
            quick_config()
                .with_load(1.0)
                .with_buffer(BufferMode::Fifo(8)),
        )
        .unwrap();
        assert!(
            unbuffered.dropped() > 0,
            "the unbuffered fabric loses packets"
        );
        assert_eq!(buffered.dropped(), 0, "backpressure replaces dropping");
        assert!(buffered.delivered > 0);
        // With FIFOs, the fabric instead refuses injections when the source
        // queue is full: acceptance falls below 100% at full load.
        assert!(buffered.acceptance_rate() < 1.0);
    }

    #[test]
    fn low_load_uniform_traffic_is_delivered_almost_losslessly() {
        let metrics = simulate(omega(4), quick_config().with_load(0.1)).unwrap();
        let loss_rate = metrics.dropped() as f64 / metrics.injected.max(1) as f64;
        assert!(
            loss_rate < 0.2,
            "loss rate {loss_rate} too high at 10% load"
        );
        assert!(metrics.mean_latency() >= (omega(4).stages() - 1) as f64 * 0.9);
    }

    #[test]
    fn hotspot_traffic_reduces_throughput() {
        let uniform = simulate(omega(5), quick_config().with_load(0.9)).unwrap();
        let hotspot = simulate(
            omega(5),
            quick_config()
                .with_load(0.9)
                .with_traffic(TrafficPattern::Hotspot {
                    fraction: 0.5,
                    target: 0,
                }),
        )
        .unwrap();
        assert!(
            hotspot.delivered < uniform.delivered,
            "hot-spot must congest the fabric: {} vs {}",
            hotspot.delivered,
            uniform.delivered
        );
    }

    #[test]
    fn equivalent_networks_have_similar_uniform_throughput() {
        // Topologically equivalent fabrics under the same symmetric traffic
        // produce statistically indistinguishable throughput; with a finite
        // run we allow a 10% band.
        let cfg = quick_config().with_load(0.8).with_cycles(1_500, 0);
        let a = simulate(omega(4), cfg.clone())
            .unwrap()
            .normalized_throughput(8);
        let b = simulate(baseline(4), cfg).unwrap().normalized_throughput(8);
        let rel = (a - b).abs() / a.max(b);
        assert!(rel < 0.10, "throughputs {a} vs {b} differ by {rel}");
    }

    #[test]
    fn simulation_is_deterministic_for_a_fixed_seed() {
        for mode in [
            BufferMode::Unbuffered,
            BufferMode::Fifo(4),
            wormhole(2, 2, 3),
        ] {
            let cfg = quick_config().with_buffer(mode);
            let m1 = simulate(omega(4), cfg.clone()).unwrap();
            let m2 = simulate(omega(4), cfg.clone()).unwrap();
            assert_eq!(m1, m2, "mode {mode:?}");
            let m3 = simulate(omega(4), cfg.with_seed(43)).unwrap();
            assert_ne!(m1, m3, "different seeds should differ somewhere");
        }
    }

    #[test]
    fn step_by_step_api_matches_run() {
        let cfg = quick_config().with_cycles(50, 0);
        let mut s1 = Simulator::new(omega(3), cfg.clone()).unwrap();
        for _ in 0..50 {
            s1.step();
        }
        let m1 = s1.metrics().clone();
        let m2 = simulate(omega(3), cfg).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(s1.cycle(), 50);
    }

    #[test]
    fn invalid_configurations_are_typed_errors_not_panics() {
        let cases = [
            (
                quick_config().with_load(1.5),
                SimError::Config(ConfigError::InvalidLoad(1.5)),
            ),
            (
                quick_config().with_cycles(10, 10),
                SimError::Config(ConfigError::WarmupExceedsCycles {
                    warmup: 10,
                    cycles: 10,
                }),
            ),
            (
                quick_config().with_buffer(BufferMode::Fifo(0)),
                SimError::Config(ConfigError::ZeroParameter("fifo depth")),
            ),
            (
                quick_config().with_buffer(wormhole(0, 4, 4)),
                SimError::Config(ConfigError::ZeroParameter("wormhole lanes")),
            ),
        ];
        for (cfg, expected) in cases {
            assert_eq!(Simulator::new(omega(3), cfg).unwrap_err(), expected);
        }
    }

    #[test]
    fn reseeding_matches_a_freshly_built_simulator() {
        use crate::fault::FaultPlan;
        let plans = [
            FaultPlan::none(),
            FaultPlan::none()
                .with_dead_switch(1, 0, 200)
                .with_degraded_link(0, 1, 0, 0),
        ];
        for plan in plans {
            for mode in [
                BufferMode::Unbuffered,
                BufferMode::Fifo(4),
                wormhole(2, 2, 3),
            ] {
                let cfg = quick_config()
                    .with_load(0.9)
                    .with_buffer(mode)
                    .with_faults(plan.clone());
                let mut reused = Simulator::new(omega(4), cfg.clone()).unwrap();
                for (seed, load) in [(42u64, 0.9), (7, 0.3), (42, 0.9), (7, 1.0)] {
                    reused.rewind(seed, load);
                    let fresh = simulate(omega(4), cfg.clone().with_seed(seed).with_load(load));
                    assert_eq!(
                        reused.run(),
                        fresh.unwrap(),
                        "mode {mode:?} seed {seed} load {load}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_dormant_fault_plan_is_bit_identical_to_no_plan() {
        // A plan whose every onset lies beyond the run exercises the whole
        // fault machinery (runtime, pair table, per-cycle views) without a
        // single active fault — the metrics must be bit-identical to the
        // plain fault-free engine, in every buffer mode.
        use crate::fault::FaultPlan;
        let dormant = FaultPlan::none()
            .with_dead_link(1, 0, 1, 10_000)
            .with_dead_switch(2, 1, 10_000)
            .with_degraded_link(0, 2, 0, 10_000);
        for mode in [
            BufferMode::Unbuffered,
            BufferMode::Fifo(4),
            wormhole(2, 2, 3),
        ] {
            let cfg = quick_config().with_load(0.9).with_buffer(mode);
            let clean = simulate(omega(4), cfg.clone()).unwrap();
            let pinned = simulate(omega(4), cfg.with_faults(dormant.clone())).unwrap();
            assert_eq!(clean, pinned, "mode {mode:?}");
        }
    }

    #[test]
    fn a_dead_link_severs_pairs_and_costs_delivery() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::none().with_dead_link(1, 0, 1, 0);
        for mode in [
            BufferMode::Unbuffered,
            BufferMode::Fifo(4),
            wormhole(2, 2, 3),
        ] {
            let cfg = quick_config().with_load(0.8).with_buffer(mode);
            let clean = simulate(omega(4), cfg.clone()).unwrap();
            let faulty = simulate(omega(4), cfg.with_faults(plan.clone())).unwrap();
            assert!(
                faulty.delivered <= clean.delivered,
                "mode {mode:?}: {} > {}",
                faulty.delivered,
                clean.delivered
            );
            assert!(faulty.unroutable_drops > 0, "mode {mode:?}");
            assert_eq!(faulty.misrouted, 0, "reroute never misroutes");
            // Static fault + source-side refusal: nothing is lost in flight.
            assert_eq!(faulty.dropped_fault, 0, "mode {mode:?}");
            assert_eq!(
                faulty.injected,
                faulty.delivered + faulty.dropped() + faulty.in_flight_at_end,
                "conservation, mode {mode:?}"
            );
            assert!(faulty.delivered_despite_fault > 0);
        }
    }

    #[test]
    fn a_mid_run_switch_death_kills_traffic_in_flight() {
        use crate::fault::FaultPlan;
        let onset = 200;
        let plan = FaultPlan::none().with_dead_switch(1, 0, onset);
        for mode in [
            BufferMode::Unbuffered,
            BufferMode::Fifo(4),
            wormhole(2, 2, 3),
        ] {
            let cfg = quick_config().with_load(1.0).with_buffer(mode);
            let m = simulate(omega(4), cfg.with_faults(plan.clone())).unwrap();
            assert!(
                m.dropped_fault > 0,
                "mode {mode:?}: traffic inside (or headed into) the dying \
                 switch must be lost"
            );
            assert!(m.unroutable_drops > 0, "post-onset refusals");
            assert!(m.total_fault_exposure() > 0);
            assert!(
                m.fault_exposure.iter().take(2).any(|&c| c > 0),
                "exposure concentrates at or before the dead switch's stage: {:?}",
                m.fault_exposure
            );
            assert_eq!(
                m.injected,
                m.delivered + m.dropped() + m.in_flight_at_end,
                "conservation, mode {mode:?}"
            );
        }
    }

    #[test]
    fn a_degraded_link_throttles_but_severs_nothing() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::none().with_degraded_link(1, 0, 0, 0);
        for mode in [BufferMode::Fifo(4), wormhole(2, 2, 3)] {
            // Long enough that the halved link capacity dominates the
            // arbitration coin noise between the paired runs.
            let cfg = quick_config()
                .with_cycles(2000, 0)
                .with_load(0.9)
                .with_buffer(mode);
            let clean = simulate(omega(4), cfg.clone()).unwrap();
            let throttled = simulate(omega(4), cfg.with_faults(plan.clone())).unwrap();
            assert_eq!(throttled.unroutable_drops, 0, "mode {mode:?}");
            assert_eq!(throttled.dropped_fault, 0, "buffered cores hold, not drop");
            assert!(throttled.delivered <= clean.delivered, "mode {mode:?}");
            assert!(throttled.total_fault_exposure() > 0, "stalls are recorded");
            assert_eq!(
                throttled.delivered_despite_fault, throttled.delivered,
                "every delivery happened on a degraded fabric"
            );
        }
        // The unbuffered core has nowhere to hold a throttled packet.
        let m = simulate(omega(4), quick_config().with_load(0.9).with_faults(plan)).unwrap();
        assert!(m.dropped_fault > 0);
    }

    #[test]
    fn fault_sites_outside_the_fabric_are_typed_errors() {
        use crate::fault::{FaultError, FaultPlan};
        let cfg = quick_config().with_faults(FaultPlan::none().with_dead_link(9, 0, 0, 0));
        assert_eq!(
            Simulator::new(omega(4), cfg).unwrap_err(),
            SimError::Fault(FaultError::LinkStageOutOfRange {
                stage: 9,
                connections: 3
            })
        );
    }

    #[test]
    fn severed_pair_count_matches_the_banyan_link_load() {
        // Any single link of a Banyan fabric carries exactly cells/2
        // (source, destination) pairs.
        use crate::fault::FaultPlan;
        for n in 3..=5 {
            let cfg = quick_config().with_faults(FaultPlan::none().with_dead_link(1, 0, 1, 0));
            let mut sim = Simulator::new(omega(n), cfg).unwrap();
            sim.step();
            let cells = sim.fabric().cells() as u64;
            assert_eq!(sim.severed_pairs(), cells / 2, "omega n={n}");
        }
        // Healthy simulators sever nothing.
        let mut sim = Simulator::new(omega(3), quick_config()).unwrap();
        sim.step();
        assert_eq!(sim.severed_pairs(), 0);
    }

    #[test]
    fn wormhole_delivers_without_drops_or_misroutes() {
        let metrics = simulate(
            omega(4),
            quick_config().with_load(0.8).with_buffer(wormhole(2, 4, 4)),
        )
        .unwrap();
        assert!(metrics.delivered > 0);
        assert_eq!(metrics.misrouted, 0);
        assert_eq!(metrics.dropped(), 0, "wormhole applies backpressure");
        assert_eq!(
            metrics.injected,
            metrics.delivered + metrics.in_flight_at_end
        );
    }

    #[test]
    fn wormhole_latency_reflects_flit_serialization() {
        // At low load a worm crosses stages - 1 links and then streams its
        // remaining flits out one per cycle, so the latency floor is roughly
        // (stages - 1) + (flits - 1); the packet-atomic modes sit near
        // stages - 1.
        let flits = 6;
        let packetized = simulate(omega(4), quick_config().with_load(0.05)).unwrap();
        let worm = simulate(
            omega(4),
            quick_config()
                .with_load(0.05)
                .with_buffer(wormhole(2, 4, flits)),
        )
        .unwrap();
        assert!(
            worm.mean_latency() >= packetized.mean_latency() + (flits - 2) as f64,
            "wormhole {} vs packet {}",
            worm.mean_latency(),
            packetized.mean_latency()
        );
    }

    #[test]
    fn wormhole_flit_accounting_brackets_the_deliveries() {
        let flits = 4u64;
        let m = simulate(
            omega(4),
            quick_config()
                .with_load(1.0)
                .with_buffer(wormhole(2, 2, flits as usize)),
        )
        .unwrap();
        // Every delivered worm ejected exactly `flits` flits; partially
        // ejected worms account for the slack up to in-flight count.
        assert!(m.flits_delivered >= m.delivered * flits);
        assert!(m.flits_delivered <= (m.delivered + m.in_flight_at_end) * flits);
        // Full load over a shared flit-wide link must stall someone.
        assert!(m.flit_stalls > 0);
        assert!(m.mean_lane_occupancy() > 0.0);
    }

    #[test]
    fn wormhole_packet_throughput_is_bounded_by_flit_serialization() {
        // Each output link moves one flit per cycle, so packet throughput
        // per terminal cannot exceed 1 / flits_per_packet.
        let flits = 4;
        let m = simulate(
            omega(4),
            quick_config()
                .with_load(1.0)
                .with_cycles(1_000, 0)
                .with_buffer(wormhole(4, 4, flits)),
        )
        .unwrap();
        let tput = m.normalized_throughput(16);
        assert!(
            tput <= 1.0 / flits as f64 + 0.02,
            "throughput {tput} exceeds the flit-serialization bound"
        );
        assert!(tput > 0.05, "throughput {tput} suspiciously low");
        // The flit throughput sits well above the packet throughput.
        assert!(m.flit_throughput(16) > tput);
    }

    #[test]
    fn zipf_traffic_congests_relative_to_uniform() {
        // A skewed destination law concentrates load on the popular cells'
        // output links; deliveries must fall below the uniform baseline.
        let uniform = simulate(omega(5), quick_config().with_load(0.9)).unwrap();
        let zipf = simulate(
            omega(5),
            quick_config()
                .with_load(0.9)
                .with_traffic(TrafficPattern::Zipf { exponent: 1.2 }),
        )
        .unwrap();
        assert!(
            zipf.delivered < uniform.delivered,
            "zipf must congest the fabric: {} vs {}",
            zipf.delivered,
            uniform.delivered
        );
        assert!(zipf.misrouted == 0 && zipf.delivered > 0);
    }

    #[test]
    fn on_off_duty_cycle_shapes_the_offered_rate() {
        // Equal dwells give a 50% duty cycle: the long-run offered rate is
        // half the configured load, while a Bernoulli source offers the
        // full load.
        let cfg = quick_config().with_load(0.8).with_cycles(4_000, 0);
        let steady = simulate(omega(4), cfg.clone()).unwrap();
        let bursty = simulate(
            omega(4),
            cfg.with_traffic(TrafficPattern::OnOff {
                on_dwell: 20.0,
                off_dwell: 20.0,
                on_rate: 1.0,
            }),
        )
        .unwrap();
        let steady_rate = steady.offered_rate(16);
        let bursty_rate = bursty.offered_rate(16);
        assert!(
            (steady_rate - 0.8).abs() < 0.05,
            "bernoulli offered rate {steady_rate}"
        );
        assert!(
            (bursty_rate - 0.4).abs() < 0.06,
            "on/off offered rate {bursty_rate} (want ≈ 0.4)"
        );
        assert!(bursty.delivered > 0);
    }

    #[test]
    fn trace_replay_injects_exactly_the_recorded_offers() {
        use crate::traffic::{TraceData, TraceRecord};
        // omega(4) has 8 first-stage cells = 16 terminals. Three records
        // over a 5-cycle period, replayed for 400 cycles = 80 full periods.
        let trace = TraceData {
            cells: 8,
            period: 5,
            records: vec![
                TraceRecord {
                    cycle: 0,
                    source: 0,
                    dest: 7,
                },
                TraceRecord {
                    cycle: 0,
                    source: 9,
                    dest: 1,
                },
                TraceRecord {
                    cycle: 3,
                    source: 15,
                    dest: 0,
                },
            ],
        };
        let m = simulate(
            omega(4),
            quick_config()
                .with_load(0.0)
                .with_traffic(TrafficPattern::Trace(trace)),
        )
        .unwrap();
        // The trace ignores the offered load (0.0 here): the schedule is
        // the load. So sparse a schedule is always accepted and delivered.
        assert_eq!(m.offered, 3 * 80);
        assert_eq!(m.injected, 3 * 80);
        assert_eq!(m.misrouted, 0);
        assert_eq!(m.dropped(), 0);
        assert!(m.delivered >= m.injected - m.in_flight_at_end);
    }

    #[test]
    fn non_finite_hotspot_from_json_is_rejected_at_construction() {
        use crate::config::ConfigError;
        use crate::traffic::TrafficError;
        // serde_json cannot *emit* a NaN, but hostile or corrupted input can
        // still smuggle a non-finite fraction in (1e999 parses to +inf).
        // Construction must return a typed error, not panic in gen_bool.
        let traffic: TrafficPattern =
            serde_json::from_str(r#"{"Hotspot":{"fraction":1e999,"target":0}}"#).unwrap();
        let err = Simulator::new(omega(4), quick_config().with_traffic(traffic)).unwrap_err();
        assert!(matches!(
            err,
            SimError::Config(ConfigError::Traffic(TrafficError::NonFinite { .. }))
        ));
        // And a NaN built in-process is caught by the same gate.
        let err = Simulator::new(
            omega(4),
            quick_config().with_traffic(TrafficPattern::Hotspot {
                fraction: f64::NAN,
                target: 0,
            }),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::Config(ConfigError::Traffic(TrafficError::NonFinite { .. }))
        ));
    }

    #[test]
    fn traffic_that_does_not_fit_the_fabric_is_rejected_at_construction() {
        use crate::config::ConfigError;
        use crate::traffic::{TraceData, TrafficError};
        // omega(4) has 8 cells per stage.
        let cases = [
            (
                TrafficPattern::Permutation(vec![0, 1, 2]),
                TrafficError::PermutationLength { len: 3, cells: 8 },
            ),
            (
                TrafficPattern::Permutation(vec![0, 1, 2, 3, 4, 5, 6, 8]),
                TrafficError::PermutationEntry {
                    index: 7,
                    entry: 8,
                    cells: 8,
                },
            ),
            (
                TrafficPattern::Hotspot {
                    fraction: 0.5,
                    target: 8,
                },
                TrafficError::HotspotTargetOutOfRange {
                    target: 8,
                    cells: 8,
                },
            ),
            (
                TrafficPattern::Trace(TraceData {
                    cells: 4,
                    period: 2,
                    records: vec![],
                }),
                TrafficError::TraceCellsMismatch { trace: 4, cells: 8 },
            ),
        ];
        for (traffic, expected) in cases {
            let err =
                Simulator::new(omega(4), quick_config().with_traffic(traffic.clone())).unwrap_err();
            assert_eq!(
                err,
                SimError::Config(ConfigError::Traffic(expected)),
                "{traffic:?}"
            );
        }
    }

    #[test]
    fn stateful_traffic_reseeds_bit_identically() {
        use crate::traffic::{TraceData, TraceRecord};
        let patterns = [
            TrafficPattern::OnOff {
                on_dwell: 10.0,
                off_dwell: 6.0,
                on_rate: 0.9,
            },
            TrafficPattern::Zipf { exponent: 1.0 },
            TrafficPattern::Trace(TraceData {
                cells: 8,
                period: 3,
                records: vec![
                    TraceRecord {
                        cycle: 0,
                        source: 2,
                        dest: 5,
                    },
                    TraceRecord {
                        cycle: 1,
                        source: 11,
                        dest: 0,
                    },
                ],
            }),
        ];
        for traffic in patterns {
            for mode in [BufferMode::Unbuffered, BufferMode::Fifo(4)] {
                let cfg = quick_config()
                    .with_load(0.7)
                    .with_buffer(mode)
                    .with_traffic(traffic.clone());
                let mut reused = Simulator::new(omega(4), cfg.clone()).unwrap();
                for seed in [42u64, 7, 42] {
                    reused.rewind(seed, cfg.offered_load);
                    let fresh = simulate(omega(4), cfg.clone().with_seed(seed)).unwrap();
                    assert_eq!(reused.run(), fresh, "{traffic:?} mode {mode:?} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn wormhole_lane_starvation_throttles_injection() {
        // One lane per cell at full load: acceptance must fall well below 1.
        let m = simulate(
            omega(4),
            quick_config().with_load(1.0).with_buffer(wormhole(1, 2, 4)),
        )
        .unwrap();
        assert!(
            m.acceptance_rate() < 0.9,
            "acceptance {}",
            m.acceptance_rate()
        );
        assert!(m.delivered > 0);
    }
}
