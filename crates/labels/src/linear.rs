//! Linear maps over GF(2).
//!
//! A map `L : Z_2^{w_in} -> Z_2^{w_out}` is linear when
//! `L(x ⊕ y) = L(x) ⊕ L(y)`. We store it by its images of the canonical
//! basis vectors (`columns[j] = L(e_j)`), which makes application a handful
//! of XORs and composition a matrix product over GF(2).
//!
//! Independent connections (paper, §3) are precisely the connections whose
//! `f` is *affine* with linear part shared by `g` (see
//! `min-core::affine_form`), so [`LinearMap`] is the certificate type
//! produced by the fast independence checker.
//!
//! Since the bitset-packing refactor this type is a thin shim: rank,
//! kernel, inversion, solving and composition all delegate to the
//! word-packed elimination kernels of [`crate::bitmat`] (the column list is
//! handed to [`BitMatrix`] as the rows of the transpose), and full-domain
//! evaluation uses the Gray-code table builder. The historical
//! digit-at-a-time implementations are retained in the crate's
//! `tests/support/scalar.rs` as the reference oracle and benchmark baseline.

use crate::bitmat::{gray_code_table, BitMatrix};
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
    /// basis. (Whether `func` itself is linear is a separate question —
    /// see [`LinearMap::agrees_with`].)
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

    /// Evaluates the map on **every** input of the domain in one Gray-code
    /// pass: `table()[x] = L(x)`, one XOR per entry.
    pub fn table(&self) -> Vec<Label> {
        gray_code_table(self.width_in, &self.columns, 0)
    }

    /// The packed transpose view: the columns of this map are the rows of
    /// the returned [`BitMatrix`], which is how the elimination kernels
    /// consume it (see the orientation note in [`crate::bitmat`]).
    pub fn column_matrix(&self) -> BitMatrix {
        BitMatrix::from_rows(self.width_out, self.columns.clone())
    }

    /// Checks whether `func` agrees with this linear map on **every** input
    /// of the domain. Combined with [`LinearMap::interpolate`] this is an
    /// exact linearity test for an arbitrary function table.
    pub fn agrees_with<F: Fn(Label) -> Label>(&self, func: F) -> bool {
        let m = mask(self.width_out);
        self.table()
            .iter()
            .zip(crate::all_labels(self.width_in))
            .all(|(&img, x)| img == func(x) & m)
    }

    /// Composition `self ∘ other` (apply `other` first), as a packed matrix
    /// product: every column of the result is one row-combination pass.
    pub fn compose(&self, other: &LinearMap) -> LinearMap {
        assert_eq!(
            other.width_out, self.width_in,
            "composition requires matching intermediate widths"
        );
        let product = other.column_matrix().mul(&self.column_matrix());
        LinearMap {
            width_in: other.width_in,
            width_out: self.width_out,
            columns: product.rows().to_vec(),
        }
    }

    /// Rank of the matrix over GF(2) (packed XOR-row elimination).
    pub fn rank(&self) -> usize {
        self.column_matrix().rank()
    }

    /// Image of the map, as a subspace of the codomain.
    pub fn image(&self) -> Subspace {
        Subspace::from_generators(self.width_out, self.columns.iter().copied())
    }

    /// Kernel of the map, as a subspace of the domain: the packed
    /// elimination collects the linear relations among the columns.
    pub fn kernel(&self) -> Subspace {
        Subspace::from_generators(self.width_in, self.column_matrix().row_relations())
    }

    /// Solves `L x = y`, or `None` when `y` is outside the image.
    pub fn solve(&self, y: Label) -> Option<Label> {
        self.column_matrix().solve_combination(y)
    }

    /// `true` when the map is a bijection of `Z_2^width` (square and full
    /// rank).
    pub fn is_invertible(&self) -> bool {
        self.width_in == self.width_out && self.rank() == self.width_in
    }

    /// Inverse of an invertible square map (one packed Gauss–Jordan pass;
    /// no digit-at-a-time row rebuilding).
    pub fn inverse(&self) -> Option<LinearMap> {
        if self.width_in != self.width_out {
            return None;
        }
        let inv_columns = self.column_matrix().combination_inverse()?;
        Some(LinearMap {
            width_in: self.width_in,
            width_out: self.width_out,
            columns: inv_columns,
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
        assert!(m.agrees_with(f));
    }

    #[test]
    fn interpolate_detects_nonlinearity_via_agrees_with() {
        // x -> x*x (mod domain) is not linear over GF(2)
        let f = |x: Label| (x.wrapping_mul(x)) & 0b1111;
        let m = LinearMap::interpolate(4, 4, f);
        assert!(!m.agrees_with(f));
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
