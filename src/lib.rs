//! # `baseline-equivalence`
//!
//! A production-quality Rust reproduction of Bermond & Fourneau,
//! *"Independent Connections: An Easy Characterization of Baseline-Equivalent
//! Multistage Interconnection Networks"* (ICPP 1988; journal version
//! Theoretical Computer Science 64, 1989, 191–201).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`labels`] (`min-labels`) — GF(2) label algebra (word-packed
//!   elimination kernels) and PIPID permutations;
//! * [`graph`] (`min-graph`) — the MI-digraph engine;
//! * [`core`] (`min-core`) — independent connections, the `P(i,j)`
//!   properties, the certified constructive Baseline isomorphism, buddy and
//!   delta properties, and the equivalence-classification campaign engine;
//! * [`networks`] (`min-networks`) — the six classical networks, builders,
//!   random generators and counterexamples;
//! * [`routing`] (`min-routing`) — destination-tag routing, permutation
//!   admissibility analysis, and link-disjoint-path fault-tolerant
//!   rerouting;
//! * [`sim`] (`min-sim`) — the cycle-synchronous switch-level simulator
//!   (arena-backed unbuffered / FIFO / wormhole switching cores), the
//!   fault-injection subsystem, and the plan/execute/assemble campaign
//!   engine with its multi-threaded in-process runner;
//! * [`serve`] (`min-serve`) — the distributed campaign service: a
//!   master/worker executor for the same campaign plans over a
//!   length-prefixed JSON TCP protocol, with heartbeat failover and a
//!   `submit`/`status`/`results` CLI.
//!
//! ## Quick start
//!
//! ```
//! use baseline_equivalence::prelude::*;
//!
//! // Build the 16-terminal Omega network and certify its equivalence to the
//! // Baseline network with an explicit, verified node mapping, read straight
//! // off the network's connection tables (no digraph is built).
//! let omega = networks::omega(4);
//! let cert = core::baseline_isomorphism(&omega).unwrap();
//! assert!(cert.verify(&omega));
//!
//! // Every stage of the Omega network is an independent connection (§3)…
//! assert!(omega.connections().iter().all(core::is_independent));
//! // …and the network is destination-tag routable (§4).
//! assert!(core::is_delta(&omega));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use min_core as core;
pub use min_graph as graph;
pub use min_labels as labels;
pub use min_networks as networks;
pub use min_routing as routing;
pub use min_serve as serve;
pub use min_sim as sim;

/// Convenient single import for applications and examples.
pub mod prelude {
    pub use crate::{core, graph, labels, networks, routing, serve, sim};
    pub use min_core::{
        baseline_digraph, baseline_isomorphism, classify_subjects, equivalence_mapping,
        is_independent, satisfies_characterization, ClassificationReport, Connection,
        ConnectionNetwork, Subject, Witness,
    };
    pub use min_graph::MiDigraph;
    pub use min_labels::IndexPermutation;
    pub use min_networks::{
        benes, benes_variant, catalog_grid, ClassicalNetwork, ClassificationGrid, NetworkSpec,
        RandomFamily, Rewrite,
    };
    pub use min_routing::disjoint::{disjoint_paths, route_around, FaultDigest, FaultRoute};
    pub use min_routing::{loop_setup, LoopingSetting};
    pub use min_serve::{Master, MasterConfig, WorkerConfig};
    pub use min_sim::{
        assemble, curves, execute_shard, run_campaign, simulate, BufferMode, CampaignConfig,
        CampaignPlan, CampaignReport, FaultKind, FaultPlan, Shard, SimConfig, Simulator,
        SwitchCore, TraceData, TraceRecord, TrafficPattern,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn the_facade_re_exports_are_usable_together() {
        let net = ClassicalNetwork::Flip.build(3);
        let g: MiDigraph = net.to_digraph();
        assert!(satisfies_characterization(&g));
        let cert = baseline_isomorphism(&g).unwrap();
        assert!(cert.verify(&g));
        let theta = IndexPermutation::perfect_shuffle(3);
        assert_eq!(theta.width(), 3);
    }
}
