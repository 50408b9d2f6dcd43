//! Scalar-vs-packed reference-oracle property tests.
//!
//! The bitset-packing refactor moved rank / kernel / solve / inverse /
//! composition onto the word-packed elimination kernels of
//! `min_labels::bitmat`; the pre-refactor digit-at-a-time implementations
//! are retained in `support/scalar.rs`. These proptests pin the two against
//! each other on random GF(2) matrices up to 16×16, so any semantic drift in
//! the packed kernels is caught against the historical behaviour.

#[path = "support/scalar.rs"]
mod scalar;

use min_labels::{all_labels, mask, BitMatrix, Label, LinearMap, Subspace};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random column list for a `width_in → width_out` map.
fn random_columns(width_in: usize, width_out: usize, seed: u64) -> Vec<Label> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..width_in)
        .map(|_| rng.gen::<u64>() & mask(width_out))
        .collect()
}

fn xor_selected(rows: &[Label], combo: u64) -> Label {
    let mut acc = 0u64;
    let mut rest = combo;
    while rest != 0 {
        let i = rest.trailing_zeros() as usize;
        acc ^= rows[i];
        rest &= rest - 1;
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Packed rank equals the historical insertion-sort rank.
    #[test]
    fn rank_agrees(w_in in 1usize..=16, w_out in 1usize..=16, seed in any::<u64>()) {
        let cols = random_columns(w_in, w_out, seed);
        let packed = BitMatrix::from_rows(w_out, cols.clone()).rank();
        prop_assert_eq!(packed, scalar::rank(w_out, &cols));
        prop_assert_eq!(packed, LinearMap::from_columns(w_in, w_out, cols).rank());
    }

    /// Packed row relations span the same kernel as the historical
    /// combination-tracking elimination, and every generator maps to zero.
    #[test]
    fn kernel_agrees(w_in in 1usize..=16, w_out in 1usize..=16, seed in any::<u64>()) {
        let cols = random_columns(w_in, w_out, seed);
        let packed = BitMatrix::from_rows(w_out, cols.clone()).row_relations();
        let reference = scalar::kernel(w_in, &cols);
        prop_assert_eq!(
            Subspace::from_generators(w_in, packed.iter().copied()),
            Subspace::from_generators(w_in, reference.iter().copied())
        );
        for &k in &packed {
            prop_assert_eq!(scalar::apply(&cols, k), 0);
        }
        let map = LinearMap::from_columns(w_in, w_out, cols);
        prop_assert_eq!(map.kernel().dim() + map.rank(), w_in);
    }

    /// Packed solving agrees with the historical elimination: same
    /// solvability verdict, and every returned solution actually solves.
    #[test]
    fn solve_agrees(w in 1usize..=16, seed in any::<u64>(), y_raw in any::<u64>()) {
        let cols = random_columns(w, w, seed);
        let y = y_raw & mask(w);
        let packed = BitMatrix::from_rows(w, cols.clone()).solve_combination(y);
        let reference = scalar::solve(w, &cols, y);
        prop_assert_eq!(packed.is_some(), reference.is_some());
        if let Some(x) = packed {
            prop_assert_eq!(scalar::apply(&cols, x), y);
        }
        if let Some(x) = reference {
            prop_assert_eq!(scalar::apply(&cols, x), y);
        }
        prop_assert_eq!(
            LinearMap::from_columns(w, w, cols).solve(y).is_some(),
            packed.is_some()
        );
    }

    /// Packed inversion agrees with the historical digit-at-a-time
    /// Gauss–Jordan, column for column.
    #[test]
    fn inverse_agrees(w in 1usize..=16, seed in any::<u64>()) {
        let cols = random_columns(w, w, seed);
        let packed = BitMatrix::from_rows(w, cols.clone()).combination_inverse();
        let reference = scalar::inverse(w, &cols);
        prop_assert_eq!(&packed, &reference);
        if let Some(inv) = packed {
            for (j, &combo) in inv.iter().enumerate() {
                prop_assert_eq!(xor_selected(&cols, combo), 1u64 << j);
            }
        }
    }

    /// Packed composition equals the historical per-column application.
    #[test]
    fn compose_agrees(
        w_in in 1usize..=16,
        w_mid in 1usize..=16,
        w_out in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let outer_cols = random_columns(w_mid, w_out, seed);
        let inner_cols = random_columns(w_in, w_mid, seed.wrapping_add(1));
        let reference = scalar::compose(&outer_cols, &inner_cols);
        let outer = LinearMap::from_columns(w_mid, w_out, outer_cols);
        let inner = LinearMap::from_columns(w_in, w_mid, inner_cols);
        let composed = outer.compose(&inner);
        prop_assert_eq!(composed.columns(), reference.as_slice());
    }

    /// The Gray-code table equals the historical one-apply-per-entry table
    /// (checked at small widths where the full domain is cheap).
    #[test]
    fn table_agrees(w_in in 1usize..=10, w_out in 1usize..=16, seed in any::<u64>()) {
        let cols = random_columns(w_in, w_out, seed);
        let offset = seed & mask(w_out);
        let reference = scalar::table(w_in, &cols, offset);
        let map = LinearMap::from_columns(w_in, w_out, cols);
        let packed: Vec<Label> = map.table().iter().map(|&v| v ^ offset).collect();
        prop_assert_eq!(packed, reference);
        for x in all_labels(w_in) {
            prop_assert_eq!(map.table()[x as usize], map.apply(x));
        }
    }
}

// Sanity checks of the oracle itself.

#[test]
fn apply_and_table_agree() {
    let columns = vec![0b011, 0b101, 0b110];
    let t = scalar::table(3, &columns, 0b001);
    for x in 0..8u64 {
        assert_eq!(t[x as usize], scalar::apply(&columns, x) ^ 0b001);
    }
}

#[test]
fn rank_counts_independent_columns() {
    assert_eq!(scalar::rank(3, &[0b001, 0b010, 0b011]), 2);
    assert_eq!(scalar::rank(3, &[0b001, 0b010, 0b100]), 3);
    assert_eq!(scalar::rank(3, &[0, 0, 0]), 0);
}

#[test]
fn kernel_generators_map_to_zero() {
    let columns = vec![0b0011, 0b0101, 0b0110, 0b0000];
    for k in scalar::kernel(4, &columns) {
        assert_eq!(scalar::apply(&columns, k), 0);
    }
    assert_eq!(
        scalar::rank(4, &columns) + scalar::kernel(4, &columns).len(),
        4
    );
}

#[test]
fn inverse_and_solve_agree() {
    let columns = vec![0b011, 0b110, 0b100];
    let inv = scalar::inverse(3, &columns).expect("invertible");
    for y in 0..8u64 {
        let x = scalar::solve(3, &columns, y).expect("full rank");
        assert_eq!(scalar::apply(&columns, x), y);
        assert_eq!(scalar::apply(&inv, y), x);
    }
    assert!(scalar::inverse(3, &[0b001, 0b001, 0b100]).is_none());
}

#[test]
fn compose_is_pointwise_composition() {
    let a = vec![0b01, 0b11];
    let b = vec![0b10, 0b01];
    let ab = scalar::compose(&a, &b);
    for x in 0..4u64 {
        assert_eq!(
            scalar::apply(&ab, x),
            scalar::apply(&a, scalar::apply(&b, x))
        );
    }
}
