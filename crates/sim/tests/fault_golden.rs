//! Golden metrics for the buffered switching cores under faults.
//!
//! No differential oracle covers `FifoCore` on a faulty fabric: the packed
//! engine is unbuffered-only, the `VecDeque` reference is fault-free, and
//! the committed `stability.json` runs healthy fabrics. `WormholeCore` has
//! one below the engine: a unit proptest in `switch.rs` steps it in
//! lockstep with its pre-lane-mask implementation, kept there as a test
//! oracle, under random fault plans. This test pins the complete `Metrics`
//! record of a fixed faulty run per core, through the whole engine, to
//! `golden/fault_cores.json`, so any rework of the cores' storage must
//! reproduce every counter, the per-stage fault exposure and the full
//! latency histogram exactly.

use min_networks::ClassicalNetwork;
use min_sim::{simulate, BufferMode, FaultPlan, Metrics, SimConfig};
use serde::Deserialize;

#[derive(Deserialize)]
struct Golden {
    mode: BufferMode,
    metrics: Metrics,
}

/// A dead switch dying mid-run, a dead link going down before it, and a
/// link at half bandwidth from the start — every fault path of the cores.
fn plan() -> FaultPlan {
    FaultPlan::none()
        .with_dead_switch(2, 3, 300)
        .with_dead_link(1, 5, 0, 150)
        .with_degraded_link(0, 2, 1, 0)
}

fn run(mode: BufferMode) -> Metrics {
    let config = SimConfig::default()
        .with_cycles(600, 60)
        .with_seed(2024)
        .with_load(0.9)
        .with_buffer(mode)
        .with_faults(plan());
    simulate(ClassicalNetwork::Omega.build(4), config).expect("omega is a delta network")
}

#[test]
fn buffered_cores_reproduce_their_golden_metrics_under_faults() {
    let golden: Vec<Golden> =
        serde_json::from_str(include_str!("golden/fault_cores.json")).expect("golden parses");
    assert_eq!(golden.len(), 4);
    for Golden { mode, metrics } in golden {
        assert!(
            metrics.dropped_fault > 0 && metrics.total_fault_exposure() > 0,
            "{mode:?}: the plan must bite"
        );
        assert_eq!(run(mode), metrics, "{mode:?}");
    }
}
