//! # `min-networks` — the catalog of classical MINs
//!
//! Section 4 of Bermond & Fourneau closes with the corollary that motivates
//! the whole paper: *"As Omega, Baseline, Reverse Baseline, Flip, Indirect
//! Binary Cube and Modified Data Manipulator networks are designed using
//! PIPID permutations, they are all equivalent."* This crate provides those
//! six networks as first-class objects (with their PIPID stage sequences and
//! literature references), together with:
//!
//! * [`random`] — random generators used by tests and benchmarks: random
//!   PIPID networks, random independent-connection Banyan networks
//!   (the objects of Theorem 3), random arbitrary-wiring networks
//!   (the negative controls);
//! * [`classify_grid`] — declarative grids (catalog cells × stage counts ×
//!   random samples) feeding the equivalence-classification campaigns of
//!   `min_core::classify`;
//! * [`counterexample`] — the degenerate and non-equivalent networks that
//!   delimit the theory: Fig. 5 parallel-link stages, Banyan networks that
//!   are *not* Baseline-equivalent, and buddy-property networks that are not
//!   Baseline-equivalent (the point of reference \[10\]);
//! * [`faulty`] — damaged variants of the catalog networks (stuck cells)
//!   and the link-site list, feeding the fault-tolerance analysis of
//!   `min-routing` and the fault-injection campaigns of `min-sim`;
//! * [`rearrangeable`] — the constructions *outside* the unique-path scope:
//!   the Benes network, its 2024 shuffle-based variant, and
//!   fundamental-arrangement rewrites of catalog members;
//! * [`spec`] — [`spec::NetworkSpec`], the serializable, versioned network
//!   description both campaign runners consume (the replacement for the old
//!   `(ClassicalNetwork, usize)` tuples).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod classical;
pub mod classify_grid;
pub mod counterexample;
pub mod faulty;
pub mod random;
pub mod rearrangeable;
pub mod spec;

pub use catalog::{catalog_grid, ClassicalNetwork};
pub use classical::{
    baseline, flip, indirect_binary_cube, modified_data_manipulator, omega, reverse_baseline,
};
pub use classify_grid::{ClassificationGrid, RandomFamily};
pub use faulty::{link_sites, stuck_cell};
pub use rearrangeable::{benes, benes_entry_half, benes_exit_half, benes_variant, Rewrite};
pub use spec::NetworkSpec;
