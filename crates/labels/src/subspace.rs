//! GF(2) linear subspaces of `Z_2^w`.
//!
//! Proposition 1 of the paper manipulates bases `(α_1, …, α_{n-1})` of
//! `Z_2^{n-1}` and the subspace `A` generated by `(α_2, …, α_{n-1})`, whose
//! `α_1`-translate is `B = V_i \ A`. [`Subspace`] provides exactly these
//! operations: the reduced basis of a span, membership testing, enumerating
//! all elements, and extending a basis to one of the full space. The basis
//! is built and extended by the crate's one eliminator
//! ([`crate::bitmat`]); [`Subspace::reduce`] only reads it.

use crate::bitmat::Eliminator;
use crate::gf2::{bit, mask, Label, Width};

/// A linear subspace of `Z_2^w` represented by a row-reduced basis.
///
/// The basis vectors are kept in *reduced row echelon form over GF(2)*:
/// each basis vector has a distinct leading (highest set) bit, and that bit
/// is zero in every other basis vector. This makes membership testing a
/// simple reduction and makes equality of subspaces structural equality of
/// the basis vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subspace {
    width: Width,
    /// Row-reduced basis, sorted by decreasing leading bit.
    basis: Vec<Label>,
}

impl Subspace {
    /// The zero subspace `{0}` of `Z_2^width`.
    pub fn zero(width: Width) -> Self {
        crate::check_width(width);
        Subspace {
            width,
            basis: Vec::new(),
        }
    }

    /// The full space `Z_2^width`.
    pub fn full(width: Width) -> Self {
        Self::from_generators(width, (0..width).map(|k| 1u64 << k))
    }

    /// Builds the subspace spanned by an arbitrary family of generators.
    ///
    /// Generators outside the width are truncated; zero and dependent
    /// generators are discarded. One elimination pass produces the reduced
    /// basis directly, in decreasing leading-bit order, whatever the order
    /// of the generators.
    pub fn from_generators<I: IntoIterator<Item = Label>>(width: Width, gens: I) -> Self {
        crate::check_width(width);
        let mut e = Eliminator::new();
        for g in gens {
            e.absorb(g & mask(width), 0);
        }
        Subspace {
            width,
            basis: e.into_reduced_basis(),
        }
    }

    /// Width of the ambient space.
    pub fn width(&self) -> Width {
        self.width
    }

    /// Dimension of the subspace.
    pub fn dim(&self) -> usize {
        self.basis.len()
    }

    /// Number of elements, `2^dim`.
    pub fn len(&self) -> usize {
        1usize << self.dim()
    }

    /// `true` when the subspace is `{0}`.
    pub fn is_empty(&self) -> bool {
        self.basis.is_empty()
    }

    /// The row-reduced basis vectors, highest leading bit first.
    pub fn basis(&self) -> &[Label] {
        &self.basis
    }

    /// Reduces `x` against the basis, returning the residue.
    ///
    /// The residue is zero iff `x` is a member of the subspace.
    pub fn reduce(&self, mut x: Label) -> Label {
        x &= mask(self.width);
        for &b in &self.basis {
            let lead = crate::leading_bit(b).expect("basis vectors are non-zero");
            if bit(x, lead) == 1 {
                x ^= b;
            }
        }
        x
    }

    /// Membership test.
    pub fn contains(&self, x: Label) -> bool {
        self.reduce(x) == 0
    }

    /// Enumerates all `2^dim` elements of the subspace in increasing order.
    ///
    /// The span is tabulated by doubling (one XOR per element rather than
    /// one per basis vector, [`crate::bitmat::affine_table`]) and then
    /// sorted.
    pub fn elements(&self) -> Vec<Label> {
        let mut out = crate::bitmat::affine_table(&self.basis, 0);
        out.sort_unstable();
        out
    }

    /// Enumerates the coset `v ⊕ S` ("the `v`-translated set of S").
    pub fn coset(&self, v: Label) -> Vec<Label> {
        let mut out: Vec<Label> = self.elements().iter().map(|&e| e ^ v).collect();
        out.sort_unstable();
        out
    }

    /// Extends the current basis to a basis of the full space and returns
    /// the *added* vectors: the unit vectors `e_k`, in increasing `k`, that
    /// lie outside the span of the basis and of the earlier added ones.
    ///
    /// Proposition 1 extends `{α_1}` by `(α_2, …, α_{n-1})`; this is the
    /// general version of that step.
    pub fn complete_basis(&self) -> Vec<Label> {
        let mut e = Eliminator::new();
        for &b in &self.basis {
            e.absorb(b, 0);
        }
        (0..self.width)
            .map(|k| 1u64 << k)
            .filter(|&unit| e.absorb(unit, 0).is_none())
            .collect()
    }

    /// Sum (join) of two subspaces.
    pub fn sum(&self, other: &Subspace) -> Subspace {
        let gens = self.basis.iter().chain(&other.basis).copied();
        Subspace::from_generators(self.width, gens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_subspace_contains_only_zero() {
        let s = Subspace::zero(4);
        assert_eq!(s.dim(), 0);
        assert_eq!(s.len(), 1);
        assert!(s.contains(0));
        assert!(!s.contains(1));
        assert_eq!(s.elements(), vec![0]);
    }

    #[test]
    fn full_space_contains_everything() {
        let s = Subspace::full(3);
        assert_eq!(s.dim(), 3);
        for x in 0..8 {
            assert!(s.contains(x));
        }
    }

    #[test]
    fn dependent_generators_do_not_increase_dimension() {
        let s = Subspace::from_generators(4, [0b0011, 0b0101, 0b0110]);
        assert_eq!(s.dim(), 2, "third generator is the sum of the first two");
        assert!(s.contains(0b0110));
        assert!(!s.contains(0b1000));
    }

    #[test]
    fn elements_enumerates_exactly_the_span() {
        let s = Subspace::from_generators(3, [0b001, 0b110]);
        assert_eq!(s.elements(), vec![0b000, 0b001, 0b110, 0b111]);
    }

    #[test]
    fn coset_is_a_translated_set() {
        let s = Subspace::from_generators(3, [0b001, 0b010]);
        assert_eq!(s.coset(0b100), vec![0b100, 0b101, 0b110, 0b111]);
        assert!(crate::gf2::is_translate_of(&s.elements(), &s.coset(0b100)));
    }

    #[test]
    fn complete_basis_reaches_full_dimension() {
        let s = Subspace::from_generators(5, [0b10101, 0b00111]);
        let added = s.complete_basis();
        assert_eq!(added.len(), 3);
        assert!(added.iter().all(|&e| e.count_ones() == 1));
        let all = s.basis().iter().chain(&added).copied();
        assert_eq!(Subspace::from_generators(5, all).dim(), 5);
    }

    #[test]
    fn proposition1_style_decomposition() {
        // alpha_1 is a distinguished vector, A = span(alpha_2..alpha_{n-1}),
        // B = alpha_1 + A; A and B partition the space.
        let width = 4;
        let alpha1 = 0b1011u64;
        let partial = Subspace::from_generators(width, [alpha1]);
        let rest = partial.complete_basis();
        assert_eq!(rest.len(), 3);
        let a = Subspace::from_generators(width, rest.iter().copied());
        assert!(!a.contains(alpha1), "alpha_1 must lie outside A");
        let b = a.coset(alpha1);
        let mut union: Vec<u64> = a.elements();
        union.extend(&b);
        union.sort_unstable();
        assert_eq!(union, (0..16u64).collect::<Vec<_>>());
    }

    #[test]
    fn membership_after_insert_is_consistent() {
        let join = |s: &Subspace, x: Label| s.sum(&Subspace::from_generators(6, [x]));
        let s = join(&Subspace::zero(6), 0b100101);
        let s = join(&s, 0b010011);
        assert_eq!(s.dim(), 2);
        assert_eq!(join(&s, 0b110110), s, "sum of the previous two");
        assert!(s.contains(0b110110));
    }
}
