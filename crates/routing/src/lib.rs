//! # `min-routing` — bit-directed routing and permutation analysis
//!
//! The practical payoff of the paper's §4 is that PIPID-built networks come
//! with "a very simple bit directed routing": the port taken at every stage
//! is a bit of the destination address, independent of the source. This
//! crate provides that routing machinery, plus the analysis layer a network
//! architect actually uses:
//!
//! * [`path`] — the unique source→destination path of a Banyan network, at
//!   cell and at terminal granularity;
//! * [`tag`] — destination-tag routing for delta networks: computing the tag
//!   that reaches a given output, routing by tag, verifying self-routability;
//! * [`permutation_routing`] — conflict analysis when all `N` inputs send
//!   simultaneously according to a permutation: admissibility, conflict
//!   counting, the blocking structure;
//! * [`disjoint`] — link-disjoint path enumeration per (source,
//!   destination) pair and fault-aware rerouting: fall back across the
//!   disjoint paths when links or switches die, with a typed
//!   [`disjoint::FaultRoute::Unroutable`] outcome when a pair's last path
//!   is severed;
//! * [`looping`] — the looping algorithm: conflict-free switch settings for
//!   any full permutation on rearrangeable (Benes-structured) fabrics;
//! * [`router`] — the [`router::Router`] trait unifying delta, multi-path
//!   and permutation-configured routing behind one per-scenario interface;
//! * [`analysis`] — aggregate admissibility statistics (exhaustive for small
//!   `N`, Monte-Carlo beyond) used to demonstrate that topologically
//!   equivalent networks have identical admissibility *profiles* up to
//!   relabelling (experiment E12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod disjoint;
pub mod looping;
pub mod path;
pub mod permutation_routing;
pub mod router;
pub mod tag;

pub use looping::{loop_setup, LoopingError, LoopingSetting};
pub use router::{DeltaRouter, LoopingRouter, MultiPathRouter, Router};

pub use disjoint::{
    all_paths, disjoint_path_count, disjoint_paths, path_diversity_histogram, path_tag,
    route_all_to, route_around, surviving_path, FaultDigest, FaultRoute,
};
pub use path::{route_terminals, CellPath, TerminalRoute};
pub use permutation_routing::{permutation_conflicts, ConflictReport};
pub use tag::{destination_tags, route_with_tag, tag_for_destination, SelfRoutingTable};
