//! Bit-level helpers over `Z_2^w`.
//!
//! The paper labels the cells of stage `i` with the binary `(n-1)`-tuples
//! `(x_{n-1}, …, x_1)` and the links with the `n`-tuples
//! `(x_{n-1}, …, x_1, x_0)`. We store such a tuple as the integer
//! `Σ x_k 2^k` in a [`Label`] (`u64`), and keep the *width* (the number of
//! significant digits) alongside wherever it matters.
//!
//! The group operation of the paper, "bitwise addition (or exclusive or)",
//! is plain `^` on the integer representation, so most of this module is
//! small, heavily used utility functions plus the translated-set (coset)
//! helper from Section 3.

/// A binary string of bounded width stored least-significant-digit first.
///
/// Digit `k` of the paper's tuple `(x_{w-1}, …, x_0)` is bit `k` of the
/// integer. Bitwise addition (`⊕` in the paper) is `^`.
pub type Label = u64;

/// Number of significant binary digits in a [`Label`].
pub type Width = usize;

/// Returns the mask selecting the `width` low-order digits.
///
/// ```
/// use min_labels::mask;
/// assert_eq!(mask(0), 0);
/// assert_eq!(mask(3), 0b111);
/// assert_eq!(mask(32), 0xFFFF_FFFF);
/// ```
#[inline]
pub fn mask(width: Width) -> Label {
    if width == 0 {
        0
    } else if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Extracts digit `k` (0 or 1) of `x`.
///
/// ```
/// use min_labels::bit;
/// assert_eq!(bit(0b1010, 1), 1);
/// assert_eq!(bit(0b1010, 2), 0);
/// ```
#[inline]
pub fn bit(x: Label, k: usize) -> u64 {
    (x >> k) & 1
}

/// Position of the highest set digit of `x`, or `None` for `x = 0`.
///
/// [`crate::Subspace::reduce`] keys each basis vector by this position.
///
/// ```
/// use min_labels::gf2::leading_bit;
/// assert_eq!(leading_bit(0b1010), Some(3));
/// assert_eq!(leading_bit(1), Some(0));
/// assert_eq!(leading_bit(0), None);
/// ```
#[inline]
pub fn leading_bit(x: Label) -> Option<usize> {
    if x == 0 {
        None
    } else {
        Some(63 - x.leading_zeros() as usize)
    }
}

/// Iterator over all `2^width` labels of the given width, in natural order.
///
/// ```
/// use min_labels::all_labels;
/// let v: Vec<u64> = all_labels(2).collect();
/// assert_eq!(v, vec![0, 1, 2, 3]);
/// ```
#[inline]
pub fn all_labels(width: Width) -> impl Iterator<Item = Label> {
    debug_assert!(width < 63, "enumerating 2^{width} labels would overflow");
    0..(1u64 << width)
}

/// The `v`-translated set of `set`: `{ a ⊕ v : a ∈ set }` (paper, §3).
///
/// The result preserves multiplicity but not order; it is sorted so that two
/// translated sets can be compared with `==`.
pub fn translated_set(set: &[Label], v: Label) -> Vec<Label> {
    let mut out: Vec<Label> = set.iter().map(|&a| a ^ v).collect();
    out.sort_unstable();
    out
}

/// Returns `true` if `b` is a translate (coset shift) of `a`, i.e. there is a
/// single vector `v` with `b = { x ⊕ v : x ∈ a }`.
///
/// Both slices are treated as sets; duplicates are ignored. Lemma 2 of the
/// paper repeatedly argues that the "buddy" set `B_j` is a translated set of
/// `A_j`; this predicate is what the corresponding tests check.
pub fn is_translate_of(a: &[Label], b: &[Label]) -> bool {
    let mut sa: Vec<Label> = a.to_vec();
    let mut sb: Vec<Label> = b.to_vec();
    sa.sort_unstable();
    sa.dedup();
    sb.sort_unstable();
    sb.dedup();
    if sa.len() != sb.len() {
        return false;
    }
    if sa.is_empty() {
        return true;
    }
    // If b = a ⊕ v then v must be a_min ⊕ b_i for some i; but using sorted
    // order the translate of the minimum need not be the minimum of b, so we
    // try every candidate shift derived from the first element of a.
    for &candidate in &sb {
        let v = sa[0] ^ candidate;
        if translated_set(&sa, v) == sb {
            return true;
        }
    }
    false
}

/// Formats a label as the paper's tuple notation `(x_{w-1}, …, x_0)`.
///
/// ```
/// use min_labels::gf2::format_tuple;
/// assert_eq!(format_tuple(0b101, 3), "(1,0,1)");
/// ```
pub fn format_tuple(x: Label, width: Width) -> String {
    let mut parts = Vec::with_capacity(width);
    for k in (0..width).rev() {
        parts.push(if bit(x, k) == 1 { "1" } else { "0" });
    }
    format!("({})", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_is_all_ones_below_width() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(1), 1);
        assert_eq!(mask(5), 31);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn bit_extracts_individual_digits() {
        let x = 0b1011_0101;
        let digits: Vec<u64> = (0..8).map(|k| bit(x, k)).collect();
        assert_eq!(digits, vec![1, 0, 1, 0, 1, 1, 0, 1]);
    }

    #[test]
    fn all_labels_enumerates_the_full_domain() {
        assert_eq!(all_labels(0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(all_labels(3).count(), 8);
    }

    #[test]
    fn translated_set_is_an_involution() {
        let a = vec![0b000, 0b011, 0b101, 0b110];
        let t = translated_set(&a, 0b111);
        let back = translated_set(&t, 0b111);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(back, sorted);
    }

    #[test]
    fn translate_detection_finds_the_shift() {
        let a = vec![1, 2, 4];
        let b = translated_set(&a, 5);
        assert!(is_translate_of(&a, &b));
        // A set that happens to be globally symmetric under the shift is a
        // translate of itself.
        let sym = vec![1u64, 2, 4, 7];
        let shifted = translated_set(&sym, 5);
        assert_eq!(shifted, sym, "this set is invariant under ⊕5");
        assert!(is_translate_of(&sym, &shifted));
    }

    #[test]
    fn translate_detection_rejects_non_translates() {
        let a = vec![0, 1, 2, 3];
        let b = vec![0, 1, 2, 4];
        assert!(!is_translate_of(&a, &b));
    }

    #[test]
    fn translate_detection_handles_subspace_with_many_self_maps() {
        // A subspace is a translate of itself by any of its own elements.
        let a = vec![0b00, 0b01, 0b10, 0b11];
        assert!(is_translate_of(&a, &a));
        assert!(is_translate_of(&a, &translated_set(&a, 0b10)));
    }

    #[test]
    fn format_tuple_renders_paper_notation() {
        assert_eq!(format_tuple(0, 3), "(0,0,0)");
        assert_eq!(format_tuple(0b110, 3), "(1,1,0)");
        assert_eq!(format_tuple(0b1, 4), "(0,0,0,1)");
    }
}
