//! Permutations of the index digits (the generators of the PIPID family).
//!
//! Section 4 of the paper: *"we define a Permutation Induced by a
//! Permutation on the Index Digits (PIPID) as a permutation on the index of
//! the representation"*:
//!
//! ```text
//! A ∈ PIPID(2^n)  ⇔  ∃ θ ∈ S_n :  A(x_{n-1}, …, x_1, x_0) = (x_{θ(n-1)}, …, x_{θ(1)}, x_{θ(0)})
//! ```
//!
//! [`IndexPermutation`] stores θ itself; the induced permutation on labels
//! is available through [`IndexPermutation::apply`] (cheap, no table) or can
//! be expanded to a full [`crate::perm::Permutation`] table.
//!
//! The classical generators of the six networks of Wu & Feng are provided as
//! constructors: the perfect shuffle σ, the inverse shuffle σ⁻¹, the
//! k-sub-shuffles and the k-butterflies β_k.

use crate::gf2::{bit, mask, Label, Width};

/// A permutation θ of the digit positions `{0, …, width-1}`.
///
/// The induced PIPID permutation `A_θ` sends a label `x` to the label whose
/// digit `i` is digit `θ(i)` of `x`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexPermutation {
    /// `map[i] = θ(i)`: result digit `i` is taken from source digit `θ(i)`.
    map: Vec<usize>,
}

impl IndexPermutation {
    /// The identity permutation on `width` digits.
    pub fn identity(width: Width) -> Self {
        crate::check_width(width);
        IndexPermutation {
            map: (0..width).collect(),
        }
    }

    /// Builds θ from an explicit table `map[i] = θ(i)`.
    ///
    /// Panics unless `map` is a permutation of `{0, …, map.len()-1}`.
    pub fn from_map(map: Vec<usize>) -> Self {
        crate::check_width(map.len());
        let mut seen = vec![false; map.len()];
        for &t in &map {
            assert!(
                t < map.len(),
                "index {t} out of range for width {}",
                map.len()
            );
            assert!(!seen[t], "index {t} appears twice: not a permutation");
            seen[t] = true;
        }
        IndexPermutation { map }
    }

    /// The perfect shuffle σ: a circular **left** shift of the digit string,
    /// `σ(x_{n-1}, x_{n-2}, …, x_0) = (x_{n-2}, …, x_0, x_{n-1})`
    /// (paper, §4; Lawrie's Omega network uses n of these).
    pub fn perfect_shuffle(width: Width) -> Self {
        crate::check_width(width);
        // Result digit i (for i >= 1) is source digit i-1; result digit 0 is
        // source digit width-1.
        let map = (0..width)
            .map(|i| {
                if i == 0 {
                    width.saturating_sub(1)
                } else {
                    i - 1
                }
            })
            .collect();
        IndexPermutation { map }
    }

    /// The inverse perfect shuffle σ⁻¹: a circular **right** shift of the
    /// digit string (the "unshuffle" used by the Flip network).
    pub fn inverse_shuffle(width: Width) -> Self {
        Self::perfect_shuffle(width).inverse()
    }

    /// The `k`-sub-shuffle σ_k: the perfect shuffle applied to the `k`
    /// low-order digits, leaving digits `k, …, width-1` fixed.
    ///
    /// `sub_shuffle(width, width)` is the full shuffle, `sub_shuffle(width, 0)`
    /// and `sub_shuffle(width, 1)` are the identity.
    pub fn sub_shuffle(width: Width, k: usize) -> Self {
        crate::check_width(width);
        assert!(k <= width, "sub-shuffle span {k} exceeds width {width}");
        let mut map: Vec<usize> = (0..width).collect();
        if k >= 2 {
            for (i, slot) in map.iter_mut().enumerate().take(k) {
                *slot = if i == 0 { k - 1 } else { i - 1 };
            }
        }
        IndexPermutation { map }
    }

    /// The `k`-sub-inverse-shuffle: circular right shift of the `k`
    /// low-order digits (used by the Baseline network's stages).
    pub fn sub_inverse_shuffle(width: Width, k: usize) -> Self {
        Self::sub_shuffle(width, k).inverse()
    }

    /// The `k`-butterfly β_k: exchanges digit `k` and digit `0`, leaving the
    /// others fixed (Pease's indirect binary n-cube is built from these).
    pub fn butterfly(width: Width, k: usize) -> Self {
        crate::check_width(width);
        assert!(
            k < width,
            "butterfly digit {k} out of range for width {width}"
        );
        let mut map: Vec<usize> = (0..width).collect();
        map.swap(0, k);
        IndexPermutation { map }
    }

    /// A general transposition of digits `a` and `b`.
    pub fn transposition(width: Width, a: usize, b: usize) -> Self {
        crate::check_width(width);
        assert!(a < width && b < width);
        let mut map: Vec<usize> = (0..width).collect();
        map.swap(a, b);
        IndexPermutation { map }
    }

    /// Samples a uniformly random digit permutation (Fisher–Yates).
    pub fn random<R: rand::Rng>(width: Width, rng: &mut R) -> Self {
        crate::check_width(width);
        let mut map: Vec<usize> = (0..width).collect();
        for i in (1..width).rev() {
            let j = rng.gen_range(0..=i);
            map.swap(i, j);
        }
        IndexPermutation { map }
    }

    /// Number of digits.
    pub fn width(&self) -> Width {
        self.map.len()
    }

    /// The underlying table `θ(i)`.
    pub fn map(&self) -> &[usize] {
        &self.map
    }

    /// `θ(i)`.
    #[inline]
    pub fn theta(&self, i: usize) -> usize {
        self.map[i]
    }

    /// `θ⁻¹(j)`: the result position that receives source digit `j`.
    ///
    /// §4 of the paper calls `k = θ⁻¹(0)` the *critical digit*: the result
    /// position receiving the "exit-port" digit of a link label. `k = 0`
    /// produces the degenerate parallel-link stage of Fig. 5.
    pub fn theta_inv(&self, j: usize) -> usize {
        self.map
            .iter()
            .position(|&t| t == j)
            .expect("theta is a permutation, every digit has a preimage")
    }

    /// Applies the induced PIPID permutation to a label.
    #[inline]
    pub fn apply(&self, x: Label) -> Label {
        let mut out = 0u64;
        for (i, &src) in self.map.iter().enumerate() {
            out |= bit(x, src) << i;
        }
        out & mask(self.width())
    }

    /// Inverse digit permutation (the induced label permutations are then
    /// mutually inverse as well).
    pub fn inverse(&self) -> IndexPermutation {
        let mut inv = vec![0usize; self.map.len()];
        for (i, &t) in self.map.iter().enumerate() {
            inv[t] = i;
        }
        IndexPermutation { map: inv }
    }

    /// Composition: `self.compose(other)` induces the label permutation
    /// `A_self ∘ A_other` (apply `other` first).
    pub fn compose(&self, other: &IndexPermutation) -> IndexPermutation {
        assert_eq!(self.width(), other.width(), "widths must match");
        // (A_self ∘ A_other)(x) digit i = A_other(x) digit self.map[i]
        //                              = x digit other.map[self.map[i]]
        IndexPermutation {
            map: self.map.iter().map(|&i| other.map[i]).collect(),
        }
    }

    /// `true` for the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &t)| i == t)
    }

    /// Order of θ in the symmetric group (smallest `k > 0` with `θ^k = id`).
    pub fn order(&self) -> usize {
        let mut acc = self.clone();
        let mut k = 1;
        while !acc.is_identity() {
            acc = acc.compose(self);
            k += 1;
        }
        k
    }
}

impl std::fmt::Display for IndexPermutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "θ[")?;
        for (i, t) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{i}←{t}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn identity_fixes_every_label() {
        let id = IndexPermutation::identity(5);
        for x in crate::all_labels(5) {
            assert_eq!(id.apply(x), x);
        }
        assert!(id.is_identity());
        assert_eq!(id.order(), 1);
    }

    #[test]
    fn perfect_shuffle_is_a_circular_left_shift() {
        // σ(x_{n-1}, …, x_0) = (x_{n-2}, …, x_0, x_{n-1})
        let sigma = IndexPermutation::perfect_shuffle(4);
        for x in crate::all_labels(4) {
            let expected = ((x << 1) | (x >> 3)) & 0b1111;
            assert_eq!(sigma.apply(x), expected);
        }
    }

    #[test]
    fn inverse_shuffle_undoes_the_shuffle() {
        let sigma = IndexPermutation::perfect_shuffle(6);
        let inv = IndexPermutation::inverse_shuffle(6);
        for x in crate::all_labels(6) {
            assert_eq!(inv.apply(sigma.apply(x)), x);
            assert_eq!(sigma.apply(inv.apply(x)), x);
        }
    }

    #[test]
    fn shuffle_order_equals_width() {
        for w in 1..=8 {
            let sigma = IndexPermutation::perfect_shuffle(w);
            assert_eq!(sigma.order(), w.max(1));
        }
    }

    #[test]
    fn sub_shuffle_leaves_high_digits_fixed() {
        let s = IndexPermutation::sub_shuffle(5, 3);
        for x in crate::all_labels(5) {
            let y = s.apply(x);
            assert_eq!(y >> 3, x >> 3, "high digits must be untouched");
            let low = x & 0b111;
            let expected_low = ((low << 1) | (low >> 2)) & 0b111;
            assert_eq!(y & 0b111, expected_low);
        }
    }

    #[test]
    fn sub_shuffle_degenerate_spans_are_identity() {
        assert!(IndexPermutation::sub_shuffle(4, 0).is_identity());
        assert!(IndexPermutation::sub_shuffle(4, 1).is_identity());
        assert_eq!(
            IndexPermutation::sub_shuffle(4, 4),
            IndexPermutation::perfect_shuffle(4)
        );
    }

    #[test]
    fn butterfly_swaps_digit_k_with_digit_zero() {
        let b = IndexPermutation::butterfly(4, 2);
        assert_eq!(b.apply(0b0001), 0b0100);
        assert_eq!(b.apply(0b0100), 0b0001);
        assert_eq!(b.apply(0b1010), 0b1010); // digits 1 and 3 untouched, 2<->0: 0b1010 has bit1,bit3 -> unchanged
        assert_eq!(b.apply(0b0101), 0b0101); // bits 0 and 2 both set: swap is a no-op
        assert_eq!(b.order(), 2);
    }

    #[test]
    fn theta_inv_is_the_inverse_table() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let p = IndexPermutation::random(7, &mut rng);
        for j in 0..7 {
            assert_eq!(p.theta(p.theta_inv(j)), j);
            assert_eq!(p.inverse().theta(j), p.theta_inv(j));
        }
    }

    #[test]
    fn critical_digit_of_shuffle_is_one() {
        // For the perfect shuffle, θ(1) = 0, so θ^{-1}(0) = 1: the induced
        // connection is non-degenerate (paper §4: k must be non-zero).
        let sigma = IndexPermutation::perfect_shuffle(5);
        assert_eq!(sigma.theta_inv(0), 1);
    }

    #[test]
    fn critical_digit_zero_characterizes_fig5() {
        // Any θ fixing digit 0 gives the degenerate stage of Fig. 5.
        let theta = IndexPermutation::transposition(4, 1, 3);
        assert_eq!(theta.theta_inv(0), 0);
    }

    #[test]
    fn composition_matches_label_composition() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for _ in 0..20 {
            let a = IndexPermutation::random(6, &mut rng);
            let b = IndexPermutation::random(6, &mut rng);
            let c = a.compose(&b);
            for x in crate::all_labels(6) {
                assert_eq!(c.apply(x), a.apply(b.apply(x)));
            }
        }
    }

    #[test]
    fn inverse_composes_to_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let p = IndexPermutation::random(8, &mut rng);
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn from_map_rejects_duplicates() {
        IndexPermutation::from_map(vec![0, 1, 1]);
    }

    #[test]
    fn display_is_reasonable() {
        let s = IndexPermutation::perfect_shuffle(3).to_string();
        assert!(s.starts_with("θ["));
    }
}
