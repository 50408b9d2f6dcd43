//! Affine maps over GF(2): `x ↦ L(x) ⊕ t`.
//!
//! The fast independence checker in `min-core` proves that a connection
//! `(f, g)` is independent exactly when `f` is affine and `g = f ⊕ c` for a
//! constant `c`. [`AffineMap`] is the concrete certificate: the linear part
//! `L`, the translation `t = f(0)`, and helpers to verify the certificate
//! against an arbitrary function table.

use crate::gf2::{mask, Label, Width};
use crate::linear::LinearMap;

/// An affine map `x ↦ linear(x) ⊕ offset` over GF(2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineMap {
    linear: LinearMap,
    offset: Label,
}

impl AffineMap {
    /// Builds an affine map from its linear part and offset.
    pub fn new(linear: LinearMap, offset: Label) -> Self {
        let offset = offset & mask(linear.width_out());
        AffineMap { linear, offset }
    }

    /// The identity map viewed as an affine map.
    pub fn identity(width: Width) -> Self {
        AffineMap::new(LinearMap::identity(width), 0)
    }

    /// A pure translation `x ↦ x ⊕ v`.
    pub fn translation(width: Width, v: Label) -> Self {
        AffineMap::new(LinearMap::identity(width), v)
    }

    /// Interpolates the unique affine map agreeing with `func` at `0` and on
    /// the canonical basis vectors.
    ///
    /// Whether `func` is actually affine must then be checked with
    /// [`AffineMap::agrees_with`]; the pair of calls constitutes an exact
    /// affinity test for a function given as a table or closure.
    pub fn interpolate<F: Fn(Label) -> Label>(width_in: Width, width_out: Width, func: F) -> Self {
        let offset = func(0) & mask(width_out);
        let linear = LinearMap::interpolate(width_in, width_out, &func);
        AffineMap { linear, offset }
    }

    /// Linear part.
    pub fn linear(&self) -> &LinearMap {
        &self.linear
    }

    /// Constant part (`f(0)`).
    pub fn offset(&self) -> Label {
        self.offset
    }

    /// Input width.
    pub fn width_in(&self) -> Width {
        self.linear.width_in()
    }

    /// Output width.
    pub fn width_out(&self) -> Width {
        self.linear.width_out()
    }

    /// Applies the map.
    #[inline]
    pub fn apply(&self, x: Label) -> Label {
        self.linear.apply(x) ^ self.offset
    }

    /// Evaluates the map on **every** input of the domain
    /// ([`crate::bitmat::affine_table`]): `table()[x] = f(x)`, one XOR per
    /// entry. Cell-label tables use the kernel's `u32` form,
    /// [`crate::bitmat::affine_cell_table`], instead.
    pub fn table(&self) -> Vec<Label> {
        crate::bitmat::affine_table(self.linear.columns(), self.offset)
    }

    /// Checks that `func` agrees with this affine map on the whole domain.
    pub fn agrees_with<F: Fn(Label) -> Label>(&self, func: F) -> bool {
        let m = mask(self.width_out());
        self.table()
            .iter()
            .zip(crate::all_labels(self.width_in()))
            .all(|(&img, x)| img == func(x) & m)
    }

    /// Composition `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &AffineMap) -> AffineMap {
        AffineMap {
            linear: self.linear.compose(&other.linear),
            offset: self.linear.apply(other.offset) ^ self.offset,
        }
    }

    /// `true` when the map is a bijection (its linear part is invertible).
    pub fn is_invertible(&self) -> bool {
        self.linear.is_invertible()
    }

    /// Inverse of an invertible affine map.
    pub fn inverse(&self) -> Option<AffineMap> {
        let inv = self.linear.inverse()?;
        let offset = inv.apply(self.offset);
        Some(AffineMap {
            linear: inv,
            offset,
        })
    }

    /// Samples a random affine map.
    pub fn random<R: rand::Rng>(width_in: Width, width_out: Width, rng: &mut R) -> Self {
        AffineMap {
            linear: LinearMap::random(width_in, width_out, rng),
            offset: rng.gen::<u64>() & mask(width_out),
        }
    }

    /// Samples a random invertible affine map.
    pub fn random_invertible<R: rand::Rng>(width: Width, rng: &mut R) -> Self {
        AffineMap {
            linear: LinearMap::random_invertible(width, rng),
            offset: rng.gen::<u64>() & mask(width),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn identity_and_translation_apply_correctly() {
        let id = AffineMap::identity(4);
        let tr = AffineMap::translation(4, 0b1010);
        for x in crate::all_labels(4) {
            assert_eq!(id.apply(x), x);
            assert_eq!(tr.apply(x), x ^ 0b1010);
        }
    }

    #[test]
    fn interpolate_recovers_affine_functions() {
        let f = |x: Label| (x >> 1) ^ 0b100;
        let a = AffineMap::interpolate(4, 3, f);
        assert!(a.agrees_with(f));
        assert_eq!(a.offset(), 0b100);
    }

    #[test]
    fn interpolate_rejects_non_affine_functions() {
        let f = |x: Label| if x == 3 { 0 } else { x };
        let a = AffineMap::interpolate(3, 3, f);
        assert!(!a.agrees_with(f));
    }

    #[test]
    fn table_matches_pointwise_application() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for _ in 0..10 {
            let a = AffineMap::random(6, 4, &mut rng);
            let table = a.table();
            assert_eq!(table.len(), 64);
            for x in crate::all_labels(6) {
                assert_eq!(table[x as usize], a.apply(x));
            }
        }
    }

    #[test]
    fn composition_matches_pointwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = AffineMap::random(5, 5, &mut rng);
        let b = AffineMap::random(5, 5, &mut rng);
        let c = a.compose(&b);
        for x in crate::all_labels(5) {
            assert_eq!(c.apply(x), a.apply(b.apply(x)));
        }
    }

    #[test]
    fn inverse_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = AffineMap::random_invertible(6, &mut rng);
        let inv = a.inverse().unwrap();
        for x in crate::all_labels(6) {
            assert_eq!(inv.apply(a.apply(x)), x);
        }
    }

    #[test]
    fn translation_difference_of_affine_pair_is_constant() {
        // If g = f ⊕ c as maps, then f(x) ⊕ g(x) is the constant c — the
        // structural fact behind Lemma 2's "difference between the labels is
        // constant" argument.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let f = AffineMap::random(5, 5, &mut rng);
        let c = 0b10110;
        let g = AffineMap::new(f.linear().clone(), f.offset() ^ c);
        for x in crate::all_labels(5) {
            assert_eq!(f.apply(x) ^ g.apply(x), c);
        }
    }
}
