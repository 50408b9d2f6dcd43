//! Golden metrics for the non-delta routings of the simulator.
//!
//! Every committed artifact and the other goldens run delta fabrics, where a
//! packet's tag is a function of its destination alone. A Benes fabric is
//! not delta: `Fabric::for_traffic` routes it with the looping setting under
//! a full cell permutation and with per-pair link-disjoint multi-path tags
//! otherwise, and a severing fault hands the tags to the fault runtime's
//! reroute table. This test pins the complete `Metrics` record of each of
//! those routings, through the whole engine and all three switching cores,
//! to `golden/routing_benes.json`, so a rework of the routing code must
//! reproduce every counter and the full latency histogram exactly.

use min_networks::rearrangeable::{benes, benes_variant};
use min_sim::{simulate, BufferMode, FaultPlan, Metrics, SimConfig, TrafficPattern};
use serde::Deserialize;

#[derive(Deserialize)]
struct Golden {
    network: String,
    traffic: String,
    mode: BufferMode,
    plan: String,
    metrics: Metrics,
}

/// The grid: Benes(3) and its variant, three traffic patterns (the last a
/// full cell permutation, which selects the looping setting), the three
/// switching cores, and no plan or a dead link from cycle 0.
fn cases() -> Vec<(&'static str, TrafficPattern, BufferMode, FaultPlan)> {
    let networks = ["benes", "benes_variant"];
    let traffic = [
        TrafficPattern::Uniform,
        TrafficPattern::BitReversal,
        TrafficPattern::Permutation(vec![2, 0, 3, 1]),
    ];
    let modes = [
        BufferMode::Unbuffered,
        BufferMode::Fifo(2),
        BufferMode::Wormhole {
            lanes: 2,
            lane_depth: 2,
            flits_per_packet: 3,
        },
    ];
    let plans = [
        FaultPlan::none(),
        FaultPlan::none().with_dead_link(1, 0, 1, 0),
    ];
    let mut cases = Vec::new();
    for network in networks {
        for pattern in &traffic {
            for &mode in &modes {
                for plan in &plans {
                    cases.push((network, pattern.clone(), mode, plan.clone()));
                }
            }
        }
    }
    cases
}

fn run(network: &str, traffic: TrafficPattern, mode: BufferMode, plan: FaultPlan) -> Metrics {
    let net = match network {
        "benes" => benes(3),
        _ => benes_variant(3),
    };
    let config = SimConfig::default()
        .with_cycles(400, 40)
        .with_seed(1988)
        .with_load(0.8)
        .with_traffic(traffic)
        .with_buffer(mode)
        .with_faults(plan);
    simulate(net, config).expect("Benes fabrics are simulatable")
}

#[test]
fn benes_routings_reproduce_their_golden_metrics() {
    let golden: Vec<Golden> =
        serde_json::from_str(include_str!("golden/routing_benes.json")).expect("golden parses");
    let cases = cases();
    assert_eq!(golden.len(), cases.len());
    for (g, (network, traffic, mode, plan)) in golden.into_iter().zip(cases) {
        let case = format!("{network} {} {mode:?} {}", traffic.label(), plan.label());
        assert_eq!(
            (
                g.network.as_str(),
                g.traffic.as_str(),
                g.mode,
                g.plan.as_str()
            ),
            (network, traffic.label(), mode, plan.label().as_str()),
            "golden order: {case}"
        );
        assert!(g.metrics.delivered > 0, "{case}: the run must deliver");
        assert_eq!(run(network, traffic, mode, plan), g.metrics, "{case}");
    }
}
