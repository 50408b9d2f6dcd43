//! Linear maps over GF(2).
//!
//! A map `L : Z_2^{w_in} -> Z_2^{w_out}` is linear when
//! `L(x ⊕ y) = L(x) ⊕ L(y)`. We store it by its images of the canonical
//! basis vectors (`columns[j] = L(e_j)`), which makes application a handful
//! of XORs and composition one application per column.
//!
//! Independent connections (paper, §3) are precisely the connections whose
//! `f` is *affine* with linear part shared by `g` (see
//! `min-core::affine_form`), so [`LinearMap`] is the certificate type
//! produced by the fast independence checker.
//!
//! Rank, kernel, solving and inversion feed the columns straight into the
//! crate's word-packed eliminator ([`crate::bitmat`]), column `j` carrying
//! combination bit `j`; full-domain evaluation uses the doubling table
//! kernel. The digit-at-a-time implementations are retained in the crate's
//! `tests/support/scalar.rs` as the reference oracle.

use crate::bitmat::{affine_table, Eliminator};
use crate::gf2::{mask, Label, Width};
use crate::subspace::Subspace;

/// A GF(2) linear map stored column-wise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearMap {
    width_in: Width,
    width_out: Width,
    /// `columns[j]` is the image of the canonical basis vector `e_j`.
    columns: Vec<Label>,
}

impl LinearMap {
    /// The identity map on `Z_2^width`.
    pub fn identity(width: Width) -> Self {
        crate::check_width(width);
        LinearMap {
            width_in: width,
            width_out: width,
            columns: (0..width).map(|j| 1u64 << j).collect(),
        }
    }

    /// The zero map `Z_2^{width_in} -> Z_2^{width_out}`.
    pub fn zero(width_in: Width, width_out: Width) -> Self {
        crate::check_width(width_in);
        crate::check_width(width_out);
        LinearMap {
            width_in,
            width_out,
            columns: vec![0; width_in],
        }
    }

    /// Builds a map from explicit columns (`columns[j] = L(e_j)`).
    pub fn from_columns(width_in: Width, width_out: Width, columns: Vec<Label>) -> Self {
        crate::check_width(width_in);
        crate::check_width(width_out);
        assert_eq!(
            columns.len(),
            width_in,
            "a map on Z_2^{width_in} needs exactly {width_in} columns"
        );
        let m = mask(width_out);
        LinearMap {
            width_in,
            width_out,
            columns: columns.into_iter().map(|c| c & m).collect(),
        }
    }

    /// Builds the unique linear map agreeing with `func` on the canonical
    /// basis. (Whether `func` itself is linear is a separate question:
    /// compare [`LinearMap::table`] with `func` on the whole domain.)
    pub fn interpolate<F: Fn(Label) -> Label>(width_in: Width, width_out: Width, func: F) -> Self {
        let f0 = func(0);
        let columns = (0..width_in)
            .map(|j| (func(1u64 << j) ^ f0) & mask(width_out))
            .collect();
        LinearMap {
            width_in,
            width_out,
            columns,
        }
    }

    /// Input width.
    pub fn width_in(&self) -> Width {
        self.width_in
    }

    /// Output width.
    pub fn width_out(&self) -> Width {
        self.width_out
    }

    /// Column access (`L(e_j)`).
    pub fn columns(&self) -> &[Label] {
        &self.columns
    }

    /// Applies the map to `x`.
    #[inline]
    pub fn apply(&self, x: Label) -> Label {
        let mut acc = 0u64;
        let mut rest = x & mask(self.width_in);
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            acc ^= self.columns[j];
            rest &= rest - 1;
        }
        acc
    }

    /// Evaluates the map on **every** input of the domain
    /// ([`crate::bitmat::affine_table`]): `table()[x] = L(x)`, one XOR per
    /// entry.
    pub fn table(&self) -> Vec<Label> {
        affine_table(&self.columns, 0)
    }

    /// Composition `self ∘ other` (apply `other` first): column `j` of the
    /// result is `self` applied to column `j` of `other`.
    pub fn compose(&self, other: &LinearMap) -> LinearMap {
        assert_eq!(
            other.width_out, self.width_in,
            "composition requires matching intermediate widths"
        );
        LinearMap {
            width_in: other.width_in,
            width_out: self.width_out,
            columns: other.columns.iter().map(|&c| self.apply(c)).collect(),
        }
    }

    /// Rank of the matrix over GF(2).
    pub fn rank(&self) -> usize {
        Eliminator::of_rows(&self.columns).0.rank()
    }

    /// Image of the map, as a subspace of the codomain.
    pub fn image(&self) -> Subspace {
        Subspace::from_generators(self.width_out, self.columns.iter().copied())
    }

    /// Kernel of the map, as a subspace of the domain: the span of the
    /// linear relations among the columns.
    pub fn kernel(&self) -> Subspace {
        Subspace::from_generators(self.width_in, Eliminator::of_rows(&self.columns).1)
    }

    /// Solves `L x = y`, or `None` when `y` is outside the image: `x`
    /// selects the columns whose XOR is `y`.
    pub fn solve(&self, y: Label) -> Option<Label> {
        let (e, _) = Eliminator::of_rows(&self.columns);
        let (residue, combo) = e.reduce(y & mask(self.width_out), 0);
        (residue == 0).then_some(combo)
    }

    /// `true` when the map is a bijection of `Z_2^width` (square and full
    /// rank).
    pub fn is_invertible(&self) -> bool {
        self.width_in == self.width_out && self.rank() == self.width_in
    }

    /// Inverse of an invertible square map: column `j` of the inverse is
    /// the combination of columns that produces `e_j`.
    pub fn inverse(&self) -> Option<LinearMap> {
        if self.width_in != self.width_out {
            return None;
        }
        let (e, _) = Eliminator::of_rows(&self.columns);
        if e.rank() < self.width_in {
            return None;
        }
        let columns = (0..self.width_in)
            .map(|j| {
                let (residue, combo) = e.reduce(1u64 << j, 0);
                debug_assert_eq!(residue, 0, "full rank spans every unit vector");
                combo
            })
            .collect();
        Some(LinearMap {
            width_in: self.width_in,
            width_out: self.width_out,
            columns,
        })
    }

    /// Samples a uniformly random linear map.
    pub fn random<R: rand::Rng>(width_in: Width, width_out: Width, rng: &mut R) -> Self {
        let columns = (0..width_in)
            .map(|_| rng.gen::<u64>() & mask(width_out))
            .collect();
        LinearMap {
            width_in,
            width_out,
            columns,
        }
    }

    /// Samples a uniformly random *invertible* linear map by rejection.
    pub fn random_invertible<R: rand::Rng>(width: Width, rng: &mut R) -> Self {
        loop {
            let m = Self::random(width, width, rng);
            if m.is_invertible() {
                return m;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn identity_applies_as_identity() {
        let id = LinearMap::identity(5);
        for x in crate::all_labels(5) {
            assert_eq!(id.apply(x), x);
        }
        assert!(id.is_invertible());
        assert_eq!(id.rank(), 5);
    }

    #[test]
    fn zero_map_sends_everything_to_zero() {
        let z = LinearMap::zero(4, 3);
        for x in crate::all_labels(4) {
            assert_eq!(z.apply(x), 0);
        }
        assert_eq!(z.rank(), 0);
        assert_eq!(z.kernel().dim(), 4);
    }

    #[test]
    fn interpolate_recovers_a_linear_function() {
        // shift-right is linear
        let f = |x: Label| x >> 1;
        let m = LinearMap::interpolate(4, 3, f);
        assert_eq!(m.table(), crate::all_labels(4).map(f).collect::<Vec<_>>());
    }

    #[test]
    fn interpolate_detects_nonlinearity_via_the_table() {
        // x -> x*x (mod domain) is not linear over GF(2)
        let f = |x: Label| (x.wrapping_mul(x)) & 0b1111;
        let m = LinearMap::interpolate(4, 4, f);
        assert_ne!(m.table(), crate::all_labels(4).map(f).collect::<Vec<_>>());
    }

    #[test]
    fn composition_matches_pointwise_application() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let a = LinearMap::random(5, 6, &mut rng);
        let b = LinearMap::random(4, 5, &mut rng);
        let c = a.compose(&b);
        for x in crate::all_labels(4) {
            assert_eq!(c.apply(x), a.apply(b.apply(x)));
        }
    }

    #[test]
    fn rank_nullity_theorem_holds() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..20 {
            let m = LinearMap::random(6, 6, &mut rng);
            assert_eq!(m.rank() + m.kernel().dim(), 6);
        }
    }

    #[test]
    fn kernel_members_map_to_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let m = LinearMap::random(7, 4, &mut rng);
        for k in m.kernel().elements() {
            assert_eq!(m.apply(k), 0);
        }
    }

    #[test]
    fn inverse_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for _ in 0..10 {
            let m = LinearMap::random_invertible(6, &mut rng);
            let inv = m.inverse().expect("invertible by construction");
            for x in crate::all_labels(6) {
                assert_eq!(inv.apply(m.apply(x)), x);
                assert_eq!(m.apply(inv.apply(x)), x);
            }
        }
    }

    #[test]
    fn singular_maps_have_no_inverse() {
        let m = LinearMap::from_columns(3, 3, vec![0b001, 0b001, 0b100]);
        assert!(!m.is_invertible());
        assert!(m.inverse().is_none());
    }

    #[test]
    fn table_matches_pointwise_application() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        for _ in 0..10 {
            let m = LinearMap::random(7, 5, &mut rng);
            let table = m.table();
            assert_eq!(table.len(), 128);
            for x in crate::all_labels(7) {
                assert_eq!(table[x as usize], m.apply(x));
            }
        }
    }

    #[test]
    fn solve_finds_preimages_exactly_on_the_image() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for _ in 0..10 {
            let m = LinearMap::random(5, 5, &mut rng);
            let image = m.image();
            for y in crate::all_labels(5) {
                match m.solve(y) {
                    Some(x) => assert_eq!(m.apply(x), y),
                    None => assert!(!image.contains(y)),
                }
            }
        }
    }

    #[test]
    fn image_dimension_equals_rank() {
        let m = LinearMap::from_columns(4, 4, vec![0b0001, 0b0010, 0b0011, 0b0000]);
        assert_eq!(m.rank(), 2);
        assert_eq!(m.image().dim(), 2);
        assert!(m.image().contains(0b0011));
        assert!(!m.image().contains(0b0100));
    }
}
