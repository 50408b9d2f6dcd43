//! # `min-graph` — the multistage interconnection digraph engine
//!
//! Section 2 of Bermond & Fourneau models a multistage interconnection
//! network as an **MI-digraph**: a digraph whose nodes are partitioned into
//! `n` ordered stages, with arcs only from stage `i` to stage `i+1`, every
//! interior node of in- and out-degree 2, and `N/2 = 2^{n-1}` nodes per
//! stage. Two networks are *topologically equivalent* iff their MI-digraphs
//! are isomorphic (stage structure included).
//!
//! This crate is the graph substrate for the whole workspace:
//!
//! * [`MiDigraph`] — the staged digraph itself, a plain container of
//!   forward and backward adjacency lists with degree queries and the
//!   regularity check. It is the input and output form of a network: DOT
//!   export, the text and JSON formats, and hand-built graphs. It is
//!   deliberately more permissive than the paper's definition (arbitrary
//!   degrees, parallel arcs, any width) so that the degenerate objects the
//!   paper discusses — the Fig. 5 parallel-link stage, non-Banyan graphs,
//!   counterexamples — can be represented and *rejected by checkers* rather
//!   than being unrepresentable.
//! * [`view`] — [`MiView`], the four read-only questions (stages, nodes
//!   per stage, children, properness) the characterization asks of a
//!   network. Path counts, components, sweeps and the mapping verification
//!   are generic over it, so they also run on a network's connection tables
//!   or on a closed-form formula without building an [`MiDigraph`].
//! * [`components`] — connected components of the undirected underlying
//!   graph restricted to a stage interval `(G)_{i,j}`, including the
//!   incremental prefix/suffix sweeps used by the `P(1,*)` / `P(*,n)`
//!   property checkers and by the constructive Baseline isomorphism.
//! * [`paths`] — path counting between stages (the Banyan property is a
//!   statement about path counts).
//! * [`iso`] — stage-respecting isomorphisms as per-stage bijections:
//!   verification and inversion of the certificates.
//! * [`dot`] / [`serialize`] — DOT export for figure regeneration and a
//!   compact serde-friendly exchange format.
//!
//! Stage indices are 0-based throughout the code; the paper's stage `i`
//! (1-based) is stage `i-1` here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod digraph;
pub mod dot;
pub mod iso;
pub mod paths;
pub mod serialize;
pub mod union_find;
pub mod view;

pub use components::{
    component_count_range, component_ids_range, prefix_sweep, suffix_sweep, RangeComponents,
    StageComponentIds, SweepResult,
};
pub use digraph::MiDigraph;
pub use iso::{verify_stage_mapping, StageMapping};
pub use paths::{is_banyan, path_counts_from, reachable_per_stage};
pub use union_find::UnionFind;
pub use view::MiView;
