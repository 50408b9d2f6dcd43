//! The GF(2) kernels: one word-packed eliminator and one doubling table.
//!
//! The crate-private `Eliminator` is the only code in the crate that builds
//! or extends a basis. Every vector is one `u64` word, so a reduction XORs
//! whole words instead of scanning digits. [`crate::LinearMap`] feeds it its
//! columns (rank, kernel, solve, inverse) and [`crate::Subspace`] its
//! generators (the reduced basis, basis completion); through them it serves
//! the independence checkers and the classification campaigns in
//! `min-core`.
//!
//! [`affine_table`] and [`affine_cell_table`] evaluate an affine map on its
//! whole domain, one XOR per entry.
//!
//! The digit-at-a-time implementations the eliminator replaced are kept in
//! `tests/support/scalar.rs` as the reference oracle; the property tests in
//! `tests/packed_oracle.rs` pin the two against each other.

use crate::gf2::Label;
use std::ops::BitXor;

/// Incremental row-echelon eliminator with pivot rows indexed by their
/// leading bit, so reduction never searches or sorts.
///
/// Each pivot carries a *combination* word remembering which fed vectors
/// were XORed into it; relations, solutions and inverses all fall out of the
/// same single elimination pass.
#[derive(Debug, Clone)]
pub(crate) struct Eliminator {
    values: [u64; 64],
    combos: [u64; 64],
    /// Bit `b` set ⇔ a pivot row with leading bit `b` exists.
    occupied: u64,
}

impl Eliminator {
    /// An eliminator with no pivots.
    pub(crate) fn new() -> Self {
        Eliminator {
            values: [0; 64],
            combos: [0; 64],
            occupied: 0,
        }
    }

    /// An eliminator fed `rows` in order, row `i` carrying combination bit
    /// `i`, with the relations among the rows: the combinations of the
    /// dependent ones, in feeding order.
    pub(crate) fn of_rows(rows: &[u64]) -> (Self, Vec<u64>) {
        let mut e = Eliminator::new();
        let relations = rows
            .iter()
            .enumerate()
            .filter_map(|(i, &row)| e.absorb(row, 1u64 << i))
            .collect();
        (e, relations)
    }

    /// Fully reduces `(value, combo)` against the pivot rows: the residue
    /// has no pivoted bit left (zero residue ⇔ `value` was in the span).
    ///
    /// The loop touches only *pivoted* bits of the running value
    /// (`value & occupied`), one word-AND per step, so a reduction costs one
    /// XOR per pivot actually hit — never a scan over every digit.
    pub(crate) fn reduce(&self, mut value: u64, mut combo: u64) -> (u64, u64) {
        loop {
            let hits = value & self.occupied;
            if hits == 0 {
                return (value, combo);
            }
            // The highest pivoted bit strictly decreases every iteration:
            // XORing the pivot clears bit b and only perturbs lower bits.
            let b = 63 - hits.leading_zeros() as usize;
            value ^= self.values[b];
            combo ^= self.combos[b];
        }
    }

    /// Feeds `(value, combo)` through the eliminator; returns the relation
    /// combo when the value was dependent, `None` when its residue became a
    /// new pivot.
    ///
    /// The pivots are kept in *echelon* form only: [`Eliminator::reduce`]
    /// stays complete without back-substitution, and the rank / relation /
    /// solve / inverse paths never pay for it.
    /// [`Eliminator::into_reduced_basis`] normalizes on demand.
    pub(crate) fn absorb(&mut self, value: u64, combo: u64) -> Option<u64> {
        let (residue, combo) = self.reduce(value, combo);
        if residue == 0 {
            return Some(combo);
        }
        let b = 63 - residue.leading_zeros() as usize;
        debug_assert_eq!((self.occupied >> b) & 1, 0, "a residue has no pivoted bit");
        self.values[b] = residue;
        self.combos[b] = combo;
        self.occupied |= 1u64 << b;
        None
    }

    /// Number of pivots: the dimension of the span fed so far.
    pub(crate) fn rank(&self) -> usize {
        self.occupied.count_ones() as usize
    }

    /// Normalizes the echelon pivots to the unique **reduced** row-echelon
    /// basis and returns it by decreasing leading bit.
    ///
    /// Pivot bits are processed in ascending order, so every pivot a row is
    /// reduced against is already normalized and each cross-pivot bit is
    /// cleared exactly once.
    pub(crate) fn into_reduced_basis(mut self) -> Vec<u64> {
        let mut occ = self.occupied;
        while occ != 0 {
            let b = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let mut v = self.values[b];
            loop {
                // Other pivoted bits of v are all strictly below b.
                let hits = v & self.occupied & !(1u64 << b);
                if hits == 0 {
                    break;
                }
                let p = 63 - hits.leading_zeros() as usize;
                v ^= self.values[p];
            }
            self.values[b] = v;
        }
        let mut out = Vec::with_capacity(self.rank());
        let mut occ = self.occupied;
        while occ != 0 {
            let b = 63 - occ.leading_zeros() as usize;
            occ &= !(1u64 << b);
            out.push(self.values[b]);
        }
        out
    }
}

/// Evaluates the affine map `x ↦ offset ⊕ (⊕_{j ∈ x} columns[j])` on
/// **every** input of `columns.len()` bits: `out[x]` is its image.
///
/// The table is built by doubling: its first `2^k` entries cover the inputs
/// of `k` bits, and the next `2^k` are the same entries XOR `columns[k]`,
/// so each entry costs one XOR and the table is written in order. This is
/// the one table kernel behind [`crate::LinearMap::table`],
/// [`crate::AffineMap::table`] and [`crate::Subspace::elements`];
/// [`affine_cell_table`] is its `u32` form.
pub fn affine_table(columns: &[Label], offset: Label) -> Vec<Label> {
    let mut table = Vec::new();
    fill_doubling(&mut table, columns.iter().copied(), offset);
    table
}

/// [`affine_table`] with `u32` entries, the form of cell-label tables,
/// written into `table`'s allocation (resized to `2^columns.len()`
/// entries). `min-core` builds connection tables
/// (`Connection::from_affine`) and Baseline certificates with it, with no
/// `u64` table in between.
///
/// # Panics
///
/// Panics when `offset` or a column does not fit in 32 bits.
pub fn affine_cell_table(columns: &[Label], offset: Label, mut table: Vec<u32>) -> Vec<u32> {
    let cell = |v: Label| u32::try_from(v).expect("cell labels fit in 32 bits");
    fill_doubling(&mut table, columns.iter().map(|&c| cell(c)), cell(offset));
    table
}

fn fill_doubling<T: Copy + Default + BitXor<Output = T>>(
    table: &mut Vec<T>,
    columns: impl ExactSizeIterator<Item = T>,
    offset: T,
) {
    let width = columns.len();
    assert!(width < 48, "a 2^{width}-entry table would not fit");
    table.resize(1 << width, T::default());
    table[0] = offset;
    for (k, col) in columns.enumerate() {
        let (done, next) = table[..2 << k].split_at_mut(1 << k);
        for (to, &from) in next.iter_mut().zip(done.iter()) {
            *to = from ^ col;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf2::mask;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_rows(nrows: usize, ncols: usize, rng: &mut ChaCha8Rng) -> Vec<u64> {
        (0..nrows).map(|_| rng.gen::<u64>() & mask(ncols)).collect()
    }

    fn xor_selected(rows: &[u64], combo: u64) -> u64 {
        let mut acc = 0u64;
        let mut rest = combo;
        while rest != 0 {
            acc ^= rows[rest.trailing_zeros() as usize];
            rest &= rest - 1;
        }
        acc
    }

    #[test]
    fn identity_has_full_rank_and_fixed_points() {
        let rows: Vec<u64> = (0..7).map(|i| 1u64 << i).collect();
        let (e, relations) = Eliminator::of_rows(&rows);
        assert_eq!(e.rank(), 7);
        assert!(relations.is_empty());
        for x in 0..128u64 {
            // The combination producing x from the unit rows is x itself.
            assert_eq!(e.reduce(x, 0), (0, x));
        }
        assert_eq!(
            e.into_reduced_basis(),
            rows.into_iter().rev().collect::<Vec<_>>()
        );
    }

    #[test]
    fn rank_plus_relations_is_the_row_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        for _ in 0..50 {
            let (e, relations) = Eliminator::of_rows(&random_rows(9, 6, &mut rng));
            assert_eq!(e.rank() + relations.len(), 9);
        }
    }

    #[test]
    fn relations_select_rows_that_cancel() {
        let mut rng = ChaCha8Rng::seed_from_u64(2025);
        for _ in 0..50 {
            let rows = random_rows(10, 5, &mut rng);
            for combo in Eliminator::of_rows(&rows).1 {
                assert_ne!(combo, 0, "a relation involves at least one row");
                assert_eq!(xor_selected(&rows, combo), 0);
            }
        }
    }

    #[test]
    fn row_space_basis_is_reduced_and_spans() {
        let rows = [0b0011, 0b0101, 0b0110, 0b1111];
        let (e, _) = Eliminator::of_rows(&rows);
        let rank = e.rank();
        let basis = e.clone().into_reduced_basis();
        assert_eq!(basis.len(), rank);
        assert!(rows.iter().all(|&r| e.reduce(r, 0).0 == 0));
        // Reduced: every leading bit appears in exactly one basis row.
        for (i, &b) in basis.iter().enumerate() {
            let lead = 63 - b.leading_zeros() as usize;
            for (j, &other) in basis.iter().enumerate() {
                if i != j {
                    assert_eq!((other >> lead) & 1, 0, "pivot bit leaks into row {j}");
                }
            }
        }
        // Ordered by decreasing value (equivalently, decreasing leading bit).
        assert!(basis.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn solve_combination_finds_witnesses_exactly_on_the_row_space() {
        let mut rng = ChaCha8Rng::seed_from_u64(2026);
        for _ in 0..50 {
            let rows = random_rows(5, 8, &mut rng);
            let (e, _) = Eliminator::of_rows(&rows);
            let span = crate::Subspace::from_generators(8, rows.iter().copied());
            for target in 0..256u64 {
                match e.reduce(target, 0) {
                    (0, combo) => assert_eq!(xor_selected(&rows, combo), target),
                    _ => assert!(!span.contains(target)),
                }
            }
        }
    }

    #[test]
    fn combination_inverse_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(2027);
        let mut inverted = 0;
        for _ in 0..60 {
            let rows = random_rows(6, 6, &mut rng);
            let (e, _) = Eliminator::of_rows(&rows);
            if e.rank() < 6 {
                continue;
            }
            inverted += 1;
            for j in 0..6 {
                let (residue, combo) = e.reduce(1u64 << j, 0);
                assert_eq!(residue, 0, "full rank spans every unit vector");
                assert_eq!(xor_selected(&rows, combo), 1u64 << j);
            }
        }
        assert!(inverted >= 10, "random 6x6 matrices are often invertible");
    }

    #[test]
    fn affine_table_matches_bitwise_evaluation() {
        let mut rng = ChaCha8Rng::seed_from_u64(2030);
        for _ in 0..20 {
            let width = 6;
            let columns: Vec<u64> = (0..width).map(|_| rng.gen::<u64>() & 0xFF).collect();
            let offset = rng.gen::<u64>() & 0xFF;
            let table = affine_table(&columns, offset);
            let cells = affine_cell_table(&columns, offset, Vec::new());
            for x in 0..(1u64 << width) {
                let mut expect = offset;
                for (j, &c) in columns.iter().enumerate() {
                    if (x >> j) & 1 == 1 {
                        expect ^= c;
                    }
                }
                assert_eq!(table[x as usize], expect, "x = {x}");
                assert_eq!(u64::from(cells[x as usize]), expect, "x = {x}");
            }
        }
        assert_eq!(affine_table(&[], 5), vec![5]);
    }

    #[test]
    #[should_panic(expected = "fit in 32 bits")]
    fn cell_tables_refuse_labels_past_32_bits() {
        let _ = affine_cell_table(&[1 << 32], 0, Vec::new());
    }
}
