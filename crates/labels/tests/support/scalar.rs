//! Retained digit-at-a-time GF(2) reference kernels.
//!
//! These are the pre-packing implementations that `LinearMap` and `Subspace`
//! used before the `min_labels::bitmat` rewrite, kept verbatim (modulo being
//! free functions over explicit column lists) as the **reference oracle**
//! the scalar-vs-packed property tests (`tests/packed_oracle.rs`) pin the
//! packed kernels against. That test includes this file with `#[path]`; it
//! is not part of the library.
//! A map is given as its column list (`columns[j] = L(e_j)`), exactly like
//! `min_labels::LinearMap`.

use min_labels::{bit, mask, Label, Width};

/// Applies the map digit by digit: XOR of the columns selected by `x`.
pub fn apply(columns: &[Label], x: Label) -> Label {
    let mut acc = 0u64;
    let mut rest = x & mask(columns.len());
    while rest != 0 {
        let j = rest.trailing_zeros() as usize;
        acc ^= columns[j];
        rest &= rest - 1;
    }
    acc
}

/// Evaluates the map on every input the pre-packing way: one full
/// [`apply`] per table entry.
pub fn table(width_in: Width, columns: &[Label], offset: Label) -> Vec<Label> {
    (0..(1u64 << width_in))
        .map(|x| apply(columns, x) ^ offset)
        .collect()
}

/// Rank by insertion into a sorted reduced basis — the historical
/// `Subspace::from_generators` + `insert` path, with its per-insert re-sort.
pub fn rank(width_out: Width, columns: &[Label]) -> usize {
    let m = mask(width_out);
    let mut basis: Vec<Label> = Vec::new();
    for &c in columns {
        let mut x = c & m;
        for &b in &basis {
            let lead = 63 - b.leading_zeros() as usize;
            if bit(x, lead) == 1 {
                x ^= b;
            }
        }
        if x == 0 {
            continue;
        }
        let lead = 63 - x.leading_zeros() as usize;
        for b in &mut basis {
            if bit(*b, lead) == 1 {
                *b ^= x;
            }
        }
        basis.push(x);
        basis.sort_unstable_by(|a, b| b.cmp(a));
    }
    basis.len()
}

/// Kernel generators by column elimination with combination tracking and a
/// re-sort after every pivot — the historical `LinearMap::kernel` body.
pub fn kernel(width_in: Width, columns: &[Label]) -> Vec<Label> {
    let mut reduced: Vec<(Label, Label)> = Vec::new(); // (value, combination)
    let mut kernel_gens = Vec::new();
    for j in 0..width_in {
        let mut val = columns[j];
        let mut combo = 1u64 << j;
        for &(rv, rc) in &reduced {
            if rv != 0 {
                let lead = 63 - rv.leading_zeros() as usize;
                if bit(val, lead) == 1 {
                    val ^= rv;
                    combo ^= rc;
                }
            }
        }
        if val == 0 {
            kernel_gens.push(combo);
        } else {
            reduced.push((val, combo));
            reduced.sort_unstable_by_key(|r| std::cmp::Reverse(r.0));
        }
    }
    kernel_gens
}

/// Inverse of a square map by the historical digit-at-a-time Gauss–Jordan:
/// rows are rebuilt bit by bit from the columns, eliminated with per-digit
/// pivot tests, and converted back bit by bit.
pub fn inverse(width: Width, columns: &[Label]) -> Option<Vec<Label>> {
    assert_eq!(columns.len(), width, "a square map has width columns");
    if rank(width, columns) != width {
        return None;
    }
    let w = width;
    let mut rows: Vec<Label> = (0..w)
        .map(|i| {
            let mut r = 0u64;
            for j in 0..w {
                r |= bit(columns[j], i) << j;
            }
            r
        })
        .collect();
    let mut inv_rows: Vec<Label> = (0..w).map(|i| 1u64 << i).collect();
    for col in 0..w {
        let pivot = (col..w).find(|&r| bit(rows[r], col) == 1)?;
        rows.swap(col, pivot);
        inv_rows.swap(col, pivot);
        for r in 0..w {
            if r != col && bit(rows[r], col) == 1 {
                rows[r] ^= rows[col];
                inv_rows[r] ^= inv_rows[col];
            }
        }
    }
    let inv_columns: Vec<Label> = (0..w)
        .map(|j| {
            let mut c = 0u64;
            for i in 0..w {
                c |= bit(inv_rows[i], j) << i;
            }
            c
        })
        .collect();
    Some(inv_columns)
}

/// Solves `L x = y` by the same digit-at-a-time elimination style as
/// [`inverse`], carried on an augmented target.
pub fn solve(width_out: Width, columns: &[Label], y: Label) -> Option<Label> {
    let m = mask(width_out);
    let mut reduced: Vec<(Label, Label)> = Vec::new(); // (value, combination)
    for (j, &c) in columns.iter().enumerate() {
        let mut val = c & m;
        let mut combo = 1u64 << j;
        for &(rv, rc) in &reduced {
            let lead = 63 - rv.leading_zeros() as usize;
            if bit(val, lead) == 1 {
                val ^= rv;
                combo ^= rc;
            }
        }
        if val != 0 {
            reduced.push((val, combo));
            reduced.sort_unstable_by_key(|r| std::cmp::Reverse(r.0));
        }
    }
    let mut val = y & m;
    let mut combo = 0u64;
    for &(rv, rc) in &reduced {
        let lead = 63 - rv.leading_zeros() as usize;
        if bit(val, lead) == 1 {
            val ^= rv;
            combo ^= rc;
        }
    }
    (val == 0).then_some(combo)
}

/// Composition `outer ∘ inner` by one digit-at-a-time [`apply`] per column —
/// the historical `LinearMap::compose` body.
pub fn compose(outer: &[Label], inner: &[Label]) -> Vec<Label> {
    inner.iter().map(|&c| apply(outer, c)).collect()
}
