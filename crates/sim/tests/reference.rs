//! Bit-for-bit equivalence of the arena-backed packet cores against a
//! straightforward `VecDeque` reference implementation.
//!
//! The engine refactor replaced the original `Vec<Vec<VecDeque<Packet>>>`
//! store with flat ring-buffer arenas behind the [`min_sim::SwitchCore`]
//! trait. The unbuffered and FIFO semantics were promised *unchanged*: same
//! RNG draw sequence, same arbitration, same retention order, same counters.
//! This test keeps the promise honest by re-implementing the original
//! store-and-forward step verbatim on `VecDeque`s and comparing every
//! counter and the full latency histogram across seeds, loads and both
//! packet-atomic buffer modes.

use min_sim::{simulate, BufferMode, DestSampler, Metrics, SimConfig, TrafficPattern};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// The pre-refactor engine, verbatim: nested `VecDeque` queues, one per
/// `(stage, cell)`, with the original three-phase cycle.
struct ReferenceSimulator {
    fabric: min_sim::fabric::Fabric,
    sampler: DestSampler,
    config: SimConfig,
    rng: ChaCha8Rng,
    queues: Vec<Vec<VecDeque<min_sim::Packet>>>,
    cycle: u64,
    next_packet_id: u64,
    metrics: Metrics,
}

impl ReferenceSimulator {
    fn new(net: min_core::ConnectionNetwork, config: SimConfig) -> Self {
        let fabric =
            min_sim::fabric::Fabric::for_traffic(net, &config.traffic).expect("2-regular network");
        let stages = fabric.stages();
        let cells = fabric.cells();
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let sampler = config
            .traffic
            .sampler(cells as u32, fabric.network().width());
        ReferenceSimulator {
            fabric,
            sampler,
            config,
            rng,
            queues: vec![vec![VecDeque::new(); cells]; stages],
            cycle: 0,
            next_packet_id: 0,
            metrics: Metrics::default(),
        }
    }

    fn capacity(&self) -> usize {
        match self.config.buffer_mode {
            BufferMode::Unbuffered => 2,
            BufferMode::Fifo(depth) => 2 * depth.max(1),
            BufferMode::Wormhole { .. } => unreachable!("reference model is packet-atomic"),
        }
    }

    fn in_flight(&self) -> u64 {
        self.queues
            .iter()
            .map(|stage| stage.iter().map(|q| q.len() as u64).sum::<u64>())
            .sum()
    }

    fn step(&mut self) {
        let stages = self.fabric.stages();
        let cells = self.fabric.cells();
        let capacity = self.capacity();
        let unbuffered = matches!(self.config.buffer_mode, BufferMode::Unbuffered);

        for cell in 0..cells {
            while let Some(p) = self.queues[stages - 1][cell].pop_front() {
                self.metrics.delivered += 1;
                if p.destination as usize != cell {
                    self.metrics.misrouted += 1;
                }
                if p.injected_at >= self.config.warmup {
                    self.metrics.record_latency(self.cycle - p.injected_at);
                }
            }
        }

        for s in (0..stages - 1).rev() {
            for cell in 0..cells {
                let mut port_used = [false; 2];
                let mut retained: VecDeque<min_sim::Packet> = VecDeque::new();
                let mut candidates: Vec<min_sim::Packet> = Vec::with_capacity(2);
                while candidates.len() < 2 {
                    match self.queues[s][cell].pop_front() {
                        Some(p) => candidates.push(p),
                        None => break,
                    }
                }
                if candidates.len() == 2 {
                    let p0 = candidates[0].port_at(s);
                    let p1 = candidates[1].port_at(s);
                    if p0 == p1 && self.rng.gen_bool(0.5) {
                        candidates.swap(0, 1);
                    }
                }
                for packet in candidates {
                    let port = packet.port_at(s) as usize;
                    if port_used[port] {
                        if unbuffered {
                            self.metrics.dropped_arbitration += 1;
                        } else {
                            retained.push_back(packet);
                        }
                        continue;
                    }
                    let next = self.fabric.next_cell(s, cell as u32, port as u8) as usize;
                    if self.queues[s + 1][next].len() < capacity {
                        port_used[port] = true;
                        self.queues[s + 1][next].push_back(packet);
                    } else if unbuffered {
                        self.metrics.dropped_backpressure += 1;
                    } else {
                        retained.push_back(packet);
                    }
                }
                while let Some(p) = retained.pop_back() {
                    self.queues[s][cell].push_front(p);
                }
                if unbuffered && s > 0 {
                    while self.queues[s][cell].pop_front().is_some() {
                        self.metrics.dropped_backpressure += 1;
                    }
                }
            }
        }

        for cell in 0..cells {
            for _terminal in 0..2 {
                if !self.rng.gen_bool(self.config.offered_load) {
                    continue;
                }
                self.metrics.offered += 1;
                if self.queues[0][cell].len() >= capacity {
                    continue;
                }
                let destination = self.sampler.draw(cell as u32, &mut self.rng);
                let packet = min_sim::Packet {
                    id: self.next_packet_id,
                    source: cell as u32,
                    destination,
                    tag: self
                        .fabric
                        .route(cell as u32, 0, destination)
                        .expect("delta tags reach every cell"),
                    injected_at: self.cycle,
                };
                self.next_packet_id += 1;
                self.metrics.injected += 1;
                self.queues[0][cell].push_back(packet);
            }
        }

        self.cycle += 1;
        self.metrics.measured_cycles = self.cycle;
        self.metrics.in_flight_at_end = self.in_flight();
    }

    fn run(mut self) -> Metrics {
        for _ in 0..self.config.cycles {
            self.step();
        }
        self.metrics
    }
}

/// Compares the arena engine against the reference on every field the
/// reference tracks (the arena engine additionally accumulates occupancy
/// statistics the old engine never had).
fn assert_matches_reference(cfg: SimConfig, label: &str) {
    for kind in min_networks::ClassicalNetwork::ALL {
        let net = kind.build(4);
        let reference = ReferenceSimulator::new(net.clone(), cfg.clone()).run();
        let arena = simulate(net, cfg.clone()).expect("catalog networks simulate");
        assert_eq!(arena.measured_cycles, reference.measured_cycles, "{label}");
        assert_eq!(arena.offered, reference.offered, "{label} {kind:?}");
        assert_eq!(arena.injected, reference.injected, "{label} {kind:?}");
        assert_eq!(arena.delivered, reference.delivered, "{label} {kind:?}");
        assert_eq!(
            arena.dropped_arbitration, reference.dropped_arbitration,
            "{label} {kind:?}"
        );
        assert_eq!(
            arena.dropped_backpressure, reference.dropped_backpressure,
            "{label} {kind:?}"
        );
        assert_eq!(
            arena.in_flight_at_end, reference.in_flight_at_end,
            "{label} {kind:?}"
        );
        assert_eq!(arena.misrouted, reference.misrouted, "{label} {kind:?}");
        assert_eq!(
            arena.total_latency, reference.total_latency,
            "{label} {kind:?}"
        );
        assert_eq!(arena.max_latency, reference.max_latency, "{label} {kind:?}");
        assert_eq!(
            arena.latency_histogram, reference.latency_histogram,
            "{label} {kind:?}"
        );
    }
}

#[test]
fn unbuffered_core_is_bit_identical_to_the_reference_engine() {
    for (seed, load) in [(1u64, 0.2), (42, 0.8), (0xDEAD, 1.0)] {
        let cfg = SimConfig::default()
            .with_seed(seed)
            .with_load(load)
            .with_cycles(300, 30);
        assert_matches_reference(cfg, "unbuffered");
    }
}

#[test]
fn fifo_core_is_bit_identical_to_the_reference_engine() {
    for (seed, load, depth) in [(7u64, 0.5, 1), (99, 0.9, 4), (0xBEEF, 1.0, 8)] {
        let cfg = SimConfig::default()
            .with_seed(seed)
            .with_load(load)
            .with_buffer(BufferMode::Fifo(depth))
            .with_cycles(300, 30);
        assert_matches_reference(cfg, "fifo");
    }
}

#[test]
fn equivalence_holds_under_skewed_traffic_too() {
    for mode in [BufferMode::Unbuffered, BufferMode::Fifo(2)] {
        for traffic in [
            TrafficPattern::Hotspot {
                fraction: 0.4,
                target: 2,
            },
            TrafficPattern::BitReversal,
        ] {
            let cfg = SimConfig::default()
                .with_seed(0x1988)
                .with_load(0.9)
                .with_buffer(mode)
                .with_traffic(traffic)
                .with_cycles(250, 25);
            assert_matches_reference(cfg, "skewed");
        }
    }
}
