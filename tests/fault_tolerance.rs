//! Cross-crate differential harness for the fault-injection subsystem.
//!
//! Three layers are pinned against each other:
//!
//! 1. **Oracle pin** — for every catalog cell at n = 3..=5 and every buffer
//!    architecture, a fault-free (dormant) `FaultPlan` exercises the whole
//!    fault machinery yet must reproduce today's engine results bit for
//!    bit; and a single-link fault must never *increase* the delivered
//!    packet count.
//! 2. **Routing vs. graph differential** — for random fault plans, the
//!    fault-aware router (`min-routing::disjoint::route_around`) must agree
//!    pair-by-pair with raw reachability on the damaged MI-digraph
//!    (`min-graph::paths::unique_path` on the arcs that survive), and every
//!    routable pair's chosen path must be verifiably fault-free.
//! 3. **Simulation consistency** — under uniform traffic,
//!    `unroutable_drops` is nonzero exactly when the plan severs some
//!    pair's last path, and conservation holds in every buffer mode.

use baseline_equivalence::prelude::*;
use min_graph::paths::unique_path;
use min_graph::MiDigraph;
use min_routing::path::verify_cell_path;
use min_sim::TrafficPattern;
use proptest::prelude::*;

fn modes() -> [BufferMode; 3] {
    [
        BufferMode::Unbuffered,
        BufferMode::Fifo(4),
        BufferMode::Wormhole {
            lanes: 2,
            lane_depth: 2,
            flits_per_packet: 3,
        },
    ]
}

fn base_config(mode: BufferMode) -> SimConfig {
    SimConfig::default()
        .with_cycles(400, 40)
        .with_seed(0x1988)
        .with_load(0.7)
        .with_buffer(mode)
}

/// The MI-digraph of `net` with the plan's dead links and dead switches
/// removed — the graph-layer ground truth the router is diffed against.
fn damaged_digraph(
    net: &baseline_equivalence::core::ConnectionNetwork,
    digest: &FaultDigest,
) -> MiDigraph {
    let cells = net.cells_per_stage();
    let mut g = MiDigraph::new(net.stages(), cells);
    for s in 0..net.stages() - 1 {
        let conn = net.connection(s);
        for v in 0..cells as u32 {
            if digest.cell_dead(s, v) {
                continue;
            }
            for port in 0..2u8 {
                if digest.link_dead(s, v, port) {
                    continue;
                }
                let to = if port == 0 {
                    conn.f(u64::from(v))
                } else {
                    conn.g(u64::from(v))
                } as u32;
                if digest.cell_dead(s + 1, to) {
                    continue;
                }
                g.add_arc(s, v, to);
            }
        }
    }
    g
}

/// Builds the routing digest of a plan's static (onset-0) dead faults.
fn digest_of(plan: &FaultPlan, stages: usize, cells: usize) -> FaultDigest {
    let mut digest = FaultDigest::new(stages, cells);
    for fault in &plan.faults {
        match fault.kind {
            FaultKind::DeadSwitch { stage, cell } => digest.kill_cell(stage, cell),
            FaultKind::DeadLink { stage, cell, port } => digest.kill_link(stage, cell, port),
            FaultKind::DegradedLink { .. } => {}
        }
    }
    digest
}

#[test]
fn dormant_fault_plans_reproduce_the_engine_bit_for_bit_across_the_catalog() {
    // The dormant plan (every onset beyond the run) builds the fault
    // runtime and the per-cycle views — and must change nothing. The catalog
    // runs uniform traffic on destination tags; the two Benes fabrics are
    // not delta, so they add the multi-path routing (uniform) and the
    // looping setting (a full cell permutation), which a plan that never
    // strikes must leave in charge.
    let mut subjects: Vec<(String, ConnectionNetwork, TrafficPattern)> = Vec::new();
    for n in 3..=5usize {
        for kind in ClassicalNetwork::ALL {
            subjects.push((
                format!("{kind} n={n}"),
                kind.build(n),
                TrafficPattern::Uniform,
            ));
        }
    }
    for (name, net) in [("benes", benes(3)), ("benes_variant", benes_variant(3))] {
        for traffic in [
            TrafficPattern::Uniform,
            TrafficPattern::Permutation(vec![2, 0, 3, 1]),
        ] {
            let label = format!("{name}(3) {}", traffic.label());
            subjects.push((label, net.clone(), traffic));
        }
    }
    for (label, net, traffic) in subjects {
        let dormant = FaultPlan::none()
            .with_dead_link(1, 0, 1, 1_000_000)
            .with_dead_switch(net.stages() - 1, 0, 1_000_000)
            .with_degraded_link(0, 1, 0, 1_000_000);
        for mode in modes() {
            let cfg = base_config(mode).with_traffic(traffic.clone());
            let clean = simulate(net.clone(), cfg.clone()).unwrap();
            let pinned = simulate(net.clone(), cfg.clone().with_faults(FaultPlan::none())).unwrap();
            let dormant_run = simulate(net.clone(), cfg.with_faults(dormant.clone())).unwrap();
            assert_eq!(clean, pinned, "{label} {mode:?}: empty plan");
            assert_eq!(clean, dormant_run, "{label} {mode:?}: dormant plan");
        }
    }
}

#[test]
fn single_link_faults_never_increase_delivered_count() {
    // Below saturation, severed traffic is refused at the source and the
    // rest delivers almost losslessly, so a dead link can only cost
    // deliveries. (Past saturation the comparison would be unsound: load
    // shedding famously *raises* the throughput of a saturated fabric,
    // which is exactly the stability effect the Omega-fault literature
    // studies.) The per-mode loads sit safely below each architecture's
    // saturation point — the wormhole's packet capacity is 1/flits.
    for n in 3..=5usize {
        for kind in ClassicalNetwork::ALL {
            for (stage, cell, port) in [(0, 0, 0), (1, 1, 1)] {
                let plan = FaultPlan::none().with_dead_link(stage, cell, port, 0);
                for (mode, load, cycles) in [
                    (BufferMode::Unbuffered, 0.5, 600),
                    (BufferMode::Fifo(4), 0.4, 600),
                    // The wormhole's packet capacity is 1/flits scaled by
                    // lane contention; 0.08 sits at ~40% of it, and the
                    // longer run keeps the severed-traffic gap an order of
                    // magnitude above the run-to-run decoupling noise.
                    (
                        BufferMode::Wormhole {
                            lanes: 2,
                            lane_depth: 2,
                            flits_per_packet: 3,
                        },
                        0.08,
                        4_000,
                    ),
                ] {
                    let cfg = base_config(mode).with_load(load).with_cycles(cycles, 40);
                    let clean = simulate(kind.build(n), cfg.clone()).unwrap();
                    let faulty = simulate(kind.build(n), cfg.with_faults(plan.clone())).unwrap();
                    assert!(
                        faulty.delivered <= clean.delivered,
                        "{kind} n={n} {mode:?} L{stage}.{cell}.{port}: \
                         {} delivered with the fault vs {} without",
                        faulty.delivered,
                        clean.delivered
                    );
                    assert!(
                        faulty.unroutable_drops > 0,
                        "{kind} n={n}: one dead link always severs pairs"
                    );
                }
            }
        }
    }
}

#[test]
fn fault_campaign_reports_are_byte_identical_at_any_thread_count() {
    let plans = vec![
        FaultPlan::none(),
        FaultPlan::none().with_dead_link(1, 0, 1, 0),
        FaultPlan::random_links(0xFA017, 2, 3, 4),
        FaultPlan::none()
            .with_dead_switch(1, 1, 30)
            .with_degraded_link(0, 0, 0, 0),
    ];
    let cfg = CampaignConfig::over_catalog(3..=3)
        .with_loads(vec![0.8])
        .with_buffer_modes(vec![BufferMode::Unbuffered, BufferMode::Fifo(2)])
        .with_fault_plans(plans)
        .with_cycles(120, 20);
    let sequential = run_campaign(&cfg, 1).unwrap();
    let parallel = run_campaign(&cfg, 6).unwrap();
    assert_eq!(sequential, parallel);
    assert_eq!(sequential.to_json(), parallel.to_json());
    // The fault axis is visible in the report: healthy scenarios never
    // refuse injections, faulty ones report their reliability counters.
    assert!(sequential.aggregate.total_unroutable_drops > 0);
    for r in &sequential.scenarios {
        assert_eq!(r.injected, r.delivered + r.dropped + r.in_flight, "{r:?}");
        if r.scenario.fault_plan.is_empty() {
            assert_eq!(r.unroutable_drops, 0);
            assert_eq!(r.dropped_fault, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Differential: the fault-aware router agrees with raw reachability on
    /// the damaged digraph, pair by pair, and every routable pair's path is
    /// verifiably fault-free — i.e. every still-connected pair really
    /// delivers.
    #[test]
    fn router_and_damaged_digraph_agree_on_every_pair(
        seed in any::<u64>(),
        links in 1usize..4,
        kind_index in 0usize..6,
    ) {
        let net = ClassicalNetwork::ALL[kind_index].build(4);
        let cells = net.cells_per_stage();
        let plan = FaultPlan::random_links(seed, links, net.stages(), cells);
        let digest = digest_of(&plan, net.stages(), cells);
        let damaged = damaged_digraph(&net, &digest);
        for src in 0..cells as u64 {
            for dst in 0..cells as u64 {
                let graph_route = unique_path(&damaged, src as u32, dst as u32);
                match route_around(&net, src, dst, &digest) {
                    FaultRoute::Routed(path) => {
                        prop_assert!(
                            graph_route.is_some(),
                            "{src}->{dst}: router found a path the graph lacks"
                        );
                        prop_assert!(verify_cell_path(&net, &path));
                        prop_assert!(digest.path_ok(&path), "{src}->{dst}: path crosses a fault");
                    }
                    FaultRoute::Unroutable => prop_assert!(
                        graph_route.is_none(),
                        "{src}->{dst}: graph still connects a pair the router severed"
                    ),
                }
            }
        }
    }

    /// Simulation consistency: `unroutable_drops` is nonzero exactly when
    /// the plan severs some pair's last path, and packets are conserved.
    #[test]
    fn unroutable_drops_appear_iff_the_plan_severs_a_pair(
        seed in any::<u64>(),
        links in 0usize..3,
        mode_index in 0usize..3,
    ) {
        let net = omega_net();
        let cells = net.cells_per_stage();
        let plan = FaultPlan::random_links(seed, links, net.stages(), cells);
        let digest = digest_of(&plan, net.stages(), cells);
        let severed = (0..cells as u64)
            .flat_map(|s| (0..cells as u64).map(move |d| (s, d)))
            .filter(|&(s, d)| !route_around(&net, s, d, &digest).is_routable())
            .count();
        let cfg = base_config(modes()[mode_index])
            .with_traffic(TrafficPattern::Uniform)
            .with_load(0.9)
            .with_faults(plan);
        let m = simulate(net, cfg).unwrap();
        prop_assert!(
            (m.unroutable_drops == 0) == (severed == 0),
            "unroutable_drops {} vs {} severed pairs", m.unroutable_drops, severed
        );
        prop_assert!(m.delivered > 0);
        prop_assert_eq!(
            m.injected,
            m.delivered + m.dropped_arbitration + m.dropped_backpressure
                + m.dropped_fault + m.in_flight_at_end
        );
    }
}

fn omega_net() -> baseline_equivalence::core::ConnectionNetwork {
    baseline_equivalence::networks::omega(4)
}
