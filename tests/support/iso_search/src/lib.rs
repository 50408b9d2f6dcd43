//! # `iso-search` — the general isomorphism search, kept for the tests
//!
//! The library decides Baseline equivalence by the paper's
//! characterization: `min_core::baseline_isomorphism` returns a verified
//! certificate or says which hypothesis fails. This crate is the
//! independent oracle the tests hold that answer against: an exact
//! backtracking search for a stage-respecting isomorphism between two
//! arbitrary [`min_graph::MiDigraph`]s ([`iso::find_isomorphism`]),
//! pruned by 1-dimensional Weisfeiler–Leman colour refinement
//! ([`refine`]). It is exponential in the worst case and meant for small
//! instances. Beside it, [`digraph`] holds the derived digraphs only tests
//! build — reverse, slice, relabelled copy, equality up to arc order — and
//! [`iso::compose_mappings`] composes two search results. No shipped crate
//! depends on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digraph;
pub mod iso;
pub mod refine;

pub use iso::{find_isomorphism, IsoSearchOutcome};
