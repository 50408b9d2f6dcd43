//! # `min-labels` — GF(2) label algebra and index-digit permutations
//!
//! Bermond & Fourneau (TCS 64, 1989) describe the cells of a multistage
//! interconnection network (MIN) by binary strings of length `n-1` and work
//! in the group `(Z_2^{n-1}, ⊕)` ("bitwise addition, or exclusive or").
//! Section 4 of the paper additionally manipulates *link* labels of length
//! `n` and the **PIPID** family of permutations (Permutations Induced by a
//! Permutation on the Index Digits).
//!
//! This crate provides the algebraic substrate used by the rest of the
//! workspace:
//!
//! * [`Label`] — a binary string of bounded width stored in a machine word,
//!   together with the bit-level helpers the paper uses (bitwise addition,
//!   digit extraction, translated sets / cosets).
//! * [`subspace::Subspace`] — GF(2) linear subspaces: reduced bases,
//!   membership, enumeration, basis extension. These implement the
//!   `(α_2, …, α_{n-1})`-generated sets of Proposition 1.
//! * [`linear::LinearMap`] and [`affine::AffineMap`] — linear / affine maps
//!   over GF(2). Independent connections turn out to be exactly the affine
//!   pairs `(f, f ⊕ c)` (see `min-core::affine_form`), so these types carry
//!   the certificates produced by the independence checker.
//! * [`bitmat`] — the kernels under those types: one word-packed GF(2)
//!   eliminator, which [`LinearMap`] and [`Subspace`] call for rank,
//!   kernel, solving, inversion and bases, and the doubling tables that
//!   evaluate an affine map on its whole domain. The digit-at-a-time
//!   implementations live in the crate's tests (`tests/support/scalar.rs`)
//!   as the reference oracle.
//! * [`index_perm::IndexPermutation`] — a permutation θ of the digit
//!   positions, i.e. a PIPID generator: perfect shuffle, sub-shuffles,
//!   butterflies, and arbitrary θ.
//! * [`perm::Permutation`] — an arbitrary permutation of `2^w` symbols, with
//!   PIPID detection, composition, inversion and random sampling.
//!
//! The crate is `#![forbid(unsafe_code)]` and has no mandatory heap
//! allocation on the hot paths (labels are plain `u64`s).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod bitmat;
pub mod gf2;
pub mod index_perm;
pub mod linear;
pub mod perm;
pub mod subspace;

pub use affine::AffineMap;
pub use gf2::{all_labels, bit, leading_bit, mask, Label, Width};
pub use index_perm::IndexPermutation;
pub use linear::LinearMap;
pub use perm::Permutation;
pub use subspace::Subspace;

/// Maximum label width supported by the crate (labels are stored in `u64`).
///
/// `MAX_WIDTH = 32` corresponds to a network with `N = 2^33` inputs — far
/// beyond anything constructible in memory — so the bound is never the
/// limiting factor in practice; it exists to keep index arithmetic in `usize`
/// safe on 32-bit hosts.
pub const MAX_WIDTH: Width = 32;

/// Checks that a width is within the supported range, panicking otherwise.
///
/// All public constructors funnel through this check so that the rest of the
/// code can assume `width <= MAX_WIDTH`.
#[inline]
pub fn check_width(width: Width) {
    assert!(
        width <= MAX_WIDTH,
        "label width {width} exceeds the supported maximum {MAX_WIDTH}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_width_accepts_supported_widths() {
        for w in 0..=MAX_WIDTH {
            check_width(w);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn check_width_rejects_oversized_widths() {
        check_width(MAX_WIDTH + 1);
    }
}
