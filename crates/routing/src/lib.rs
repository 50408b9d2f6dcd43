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
//! * [`tag`] — destination-tag routing for delta networks: the table of
//!   tags that reach each output and the check that routing by them is
//!   self-routing (routing by a tag is `min_core::delta::route_by_tag`);
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
//! * [`analysis`] — aggregate admissibility statistics (exhaustive for small
//!   `N`, Monte-Carlo beyond) used to demonstrate that topologically
//!   equivalent networks have identical admissibility *profiles* up to
//!   relabelling (experiment E12).
//!
//! The simulator (`min-sim`) routes a fabric with three of these: the
//! destination-tag table of a delta network, the per-pair disjoint path
//! tags ([`path_tag`]) of any other, or a [`LoopingSetting`] for one full
//! permutation, and it reroutes by [`route_all_to`] once a link or switch
//! dies. The choice lives in its `Fabric`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod disjoint;
pub mod looping;
pub mod path;
pub mod permutation_routing;
pub mod tag;

pub use looping::{loop_setup, LoopingError, LoopingSetting};

pub use disjoint::{
    all_paths, disjoint_paths, path_diversity_histogram, path_tag, route_all_to, route_around,
    FaultDigest, FaultRoute,
};
pub use path::{route_terminals, CellPath, TerminalRoute};
pub use permutation_routing::{permutation_conflicts, ConflictReport};
pub use tag::{destination_tags, SelfRoutingTable};
