//! Word-packed GF(2) matrices and the elimination kernels built on them.
//!
//! Every row of a [`BitMatrix`] is one `u64` word, so XOR-row elimination,
//! rank, kernel/image bases, solving and inversion all run on whole rows at
//! once instead of digit by digit. These are the hot kernels behind
//! [`crate::LinearMap`], [`crate::Subspace`] and [`crate::AffineMap`], and —
//! through them — behind the independence checkers and the
//! equivalence-classification campaigns in `min-core`.
//!
//! ## Orientation
//!
//! A [`BitMatrix`] is a plain `nrows × ncols` matrix over GF(2), row-major.
//! [`crate::LinearMap`] stores a map by its *columns* (`columns[j] = L(e_j)`),
//! which is exactly the row list of the **transpose**, so the bridge is
//! `BitMatrix::from_rows(width_out, columns)`. All the shim code in
//! `linear.rs` works in this transposed view:
//!
//! * `rank(L) = rank(Lᵀ)` — [`BitMatrix::rank`];
//! * `ker L` = the linear relations among the columns —
//!   [`BitMatrix::row_relations`];
//! * `L x = y` ⇔ `y` is the XOR of the columns selected by `x` —
//!   [`BitMatrix::solve_combination`];
//! * columns of `L⁻¹` = the column combinations producing each `e_j` —
//!   [`BitMatrix::combination_inverse`].
//!
//! The pre-refactor digit-at-a-time implementations are retained verbatim in
//! `tests/support/scalar.rs` as the reference oracle; the property tests in
//! `tests/packed_oracle.rs` pin the two against each other, and the
//! `classification` benchmark measures the packed-vs-scalar gap.

use crate::gf2::{mask, parity, Label};
use std::ops::BitXor;

/// A dense GF(2) matrix with up to 64 columns, one `u64` word per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    ncols: usize,
    rows: Vec<u64>,
}

/// Incremental reduced-row-echelon eliminator with pivot rows indexed by
/// their leading bit, so reduction never searches or sorts.
///
/// Each pivot carries a *combination* word remembering which original rows
/// were XORed into it; relations, solutions and inverses all fall out of the
/// same single elimination pass.
#[derive(Debug, Clone)]
struct Eliminator {
    values: [u64; 64],
    combos: [u64; 64],
    /// Bit `b` set ⇔ a pivot row with leading bit `b` exists.
    occupied: u64,
}

impl Eliminator {
    fn new() -> Self {
        Eliminator {
            values: [0; 64],
            combos: [0; 64],
            occupied: 0,
        }
    }

    /// Fully reduces `(value, combo)` against the pivot rows: the residue
    /// has no pivoted bit left (zero residue ⇔ `value` was in the row
    /// space).
    ///
    /// The loop touches only *pivoted* bits of the running value
    /// (`value & occupied`), one word-AND per step, so a reduction costs one
    /// XOR per pivot actually hit — never a scan over every digit.
    fn reduce(&self, mut value: u64, mut combo: u64) -> (u64, u64) {
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

    /// Inserts a fully reduced, non-zero row as a new pivot. The basis is
    /// kept in *echelon* form only — [`Eliminator::reduce`] stays complete
    /// without back-substitution, and the rank / relation / solve / inverse
    /// paths never pay for it. [`Eliminator::rref_basis`] normalizes on
    /// demand.
    fn insert(&mut self, value: u64, combo: u64) {
        debug_assert_ne!(value, 0, "only non-zero residues become pivots");
        let b = 63 - value.leading_zeros() as usize;
        debug_assert_eq!((self.occupied >> b) & 1, 0, "pivot slot must be free");
        self.values[b] = value;
        self.combos[b] = combo;
        self.occupied |= 1u64 << b;
    }

    /// Feeds `(value, combo)` through the eliminator; returns the relation
    /// combo when the value was dependent, `None` when it became a pivot.
    fn absorb(&mut self, value: u64, combo: u64) -> Option<u64> {
        let (residue, combo) = self.reduce(value, combo);
        if residue == 0 {
            Some(combo)
        } else {
            self.insert(residue, combo);
            None
        }
    }

    fn rank(&self) -> usize {
        self.occupied.count_ones() as usize
    }

    /// Normalizes the echelon pivots to the unique **reduced** row-echelon
    /// basis and returns it by decreasing leading bit.
    ///
    /// Pivot bits are processed in ascending order, so every pivot a row is
    /// reduced against is already normalized and each cross-pivot bit is
    /// cleared exactly once.
    fn rref_basis(&mut self) -> Vec<u64> {
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

impl BitMatrix {
    /// Builds a matrix from its rows (each masked to `ncols` bits).
    pub fn from_rows(ncols: usize, rows: Vec<u64>) -> Self {
        assert!(ncols <= 64, "a packed row holds at most 64 digits");
        let m = mask(ncols);
        BitMatrix {
            ncols,
            rows: rows.into_iter().map(|r| r & m).collect(),
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        assert!(n <= 64, "a packed row holds at most 64 digits");
        BitMatrix {
            ncols: n,
            rows: (0..n).map(|i| 1u64 << i).collect(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The packed rows.
    pub fn rows(&self) -> &[u64] {
        &self.rows
    }

    /// Row `i` as a packed word.
    pub fn row(&self, i: usize) -> u64 {
        self.rows[i]
    }

    /// The transposed matrix (digit-level; used only off the hot paths).
    pub fn transpose(&self) -> BitMatrix {
        assert!(self.nrows() <= 64, "the transpose needs packable rows");
        let rows = (0..self.ncols)
            .map(|j| {
                let mut r = 0u64;
                for (i, &row) in self.rows.iter().enumerate() {
                    r |= ((row >> j) & 1) << i;
                }
                r
            })
            .collect();
        BitMatrix {
            ncols: self.nrows(),
            rows,
        }
    }

    /// Applies the matrix to a column vector: `y_i = ⟨row_i, x⟩`.
    pub fn apply(&self, x: u64) -> u64 {
        let x = x & mask(self.ncols);
        let mut y = 0u64;
        for (i, &row) in self.rows.iter().enumerate() {
            y |= parity(row & x) << i;
        }
        y
    }

    /// Matrix product `self · other` over GF(2): row `i` of the result is
    /// the XOR of the rows of `other` selected by row `i` of `self`.
    pub fn mul(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(
            self.ncols,
            other.nrows(),
            "inner dimensions must agree for a product"
        );
        let rows = self
            .rows
            .iter()
            .map(|&row| {
                let mut acc = 0u64;
                let mut rest = row;
                while rest != 0 {
                    let j = rest.trailing_zeros() as usize;
                    acc ^= other.rows[j];
                    rest &= rest - 1;
                }
                acc
            })
            .collect();
        BitMatrix {
            ncols: other.ncols,
            rows,
        }
    }

    /// Rank over GF(2) (word-packed elimination, no sorting, no transposes).
    pub fn rank(&self) -> usize {
        let mut e = Eliminator::new();
        for &row in &self.rows {
            let (residue, _) = e.reduce(row, 0);
            if residue != 0 {
                e.insert(residue, 0);
            }
        }
        e.rank()
    }

    /// The unique reduced row-echelon basis of the row space, ordered by
    /// decreasing leading bit.
    pub fn row_space_basis(&self) -> Vec<u64> {
        let mut e = Eliminator::new();
        for &row in &self.rows {
            let (residue, _) = e.reduce(row, 0);
            if residue != 0 {
                e.insert(residue, 0);
            }
        }
        e.rref_basis()
    }

    /// A basis of the linear relations among the rows: each returned word
    /// selects a set of rows whose XOR is zero.
    ///
    /// In the transposed [`crate::LinearMap`] view, where the rows are the
    /// map's columns, this is exactly a kernel basis of the map.
    pub fn row_relations(&self) -> Vec<u64> {
        assert!(
            self.nrows() <= 64,
            "relation combinations are packed into one word"
        );
        let mut e = Eliminator::new();
        let mut relations = Vec::new();
        for (i, &row) in self.rows.iter().enumerate() {
            if let Some(combo) = e.absorb(row, 1u64 << i) {
                relations.push(combo);
            }
        }
        relations
    }

    /// Finds a set of rows whose XOR equals `target`, as a packed selector
    /// word, or `None` when `target` is outside the row space.
    ///
    /// In the transposed [`crate::LinearMap`] view this solves `L x = y`.
    pub fn solve_combination(&self, target: u64) -> Option<u64> {
        assert!(
            self.nrows() <= 64,
            "solution combinations are packed into one word"
        );
        let mut e = Eliminator::new();
        for (i, &row) in self.rows.iter().enumerate() {
            let (residue, combo) = e.reduce(row, 1u64 << i);
            if residue != 0 {
                e.insert(residue, combo);
            }
        }
        let (residue, combo) = e.reduce(target & mask(self.ncols), 0);
        (residue == 0).then_some(combo)
    }

    /// For a square full-rank matrix, returns for every unit vector `e_j`
    /// the row combination producing it (`out[j]`); `None` when singular.
    ///
    /// In the transposed [`crate::LinearMap`] view, `out[j]` is column `j`
    /// of the inverse map.
    pub fn combination_inverse(&self) -> Option<Vec<u64>> {
        assert_eq!(
            self.nrows(),
            self.ncols,
            "only square matrices can be inverted"
        );
        let mut e = Eliminator::new();
        for (i, &row) in self.rows.iter().enumerate() {
            let (residue, combo) = e.reduce(row, 1u64 << i);
            if residue != 0 {
                e.insert(residue, combo);
            }
        }
        if e.rank() < self.ncols {
            return None;
        }
        let columns = (0..self.ncols)
            .map(|j| {
                let (residue, combo) = e.reduce(1u64 << j, 0);
                debug_assert_eq!(residue, 0, "full rank spans every unit vector");
                combo
            })
            .collect();
        Some(columns)
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
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_matrix(nrows: usize, ncols: usize, rng: &mut ChaCha8Rng) -> BitMatrix {
        BitMatrix::from_rows(ncols, (0..nrows).map(|_| rng.gen::<u64>()).collect())
    }

    #[test]
    fn identity_has_full_rank_and_fixed_points() {
        let id = BitMatrix::identity(7);
        assert_eq!(id.rank(), 7);
        for x in 0..128u64 {
            assert_eq!(id.apply(x), x);
        }
        assert_eq!(id.combination_inverse().unwrap(), id.rows().to_vec());
    }

    #[test]
    fn rank_plus_relations_is_the_row_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        for _ in 0..50 {
            let m = random_matrix(9, 6, &mut rng);
            assert_eq!(m.rank() + m.row_relations().len(), m.nrows());
        }
    }

    #[test]
    fn relations_select_rows_that_cancel() {
        let mut rng = ChaCha8Rng::seed_from_u64(2025);
        for _ in 0..50 {
            let m = random_matrix(10, 5, &mut rng);
            for combo in m.row_relations() {
                assert_ne!(combo, 0, "a relation involves at least one row");
                let mut acc = 0u64;
                let mut rest = combo;
                while rest != 0 {
                    let i = rest.trailing_zeros() as usize;
                    acc ^= m.row(i);
                    rest &= rest - 1;
                }
                assert_eq!(acc, 0);
            }
        }
    }

    #[test]
    fn row_space_basis_is_reduced_and_spans() {
        let m = BitMatrix::from_rows(4, vec![0b0011, 0b0101, 0b0110, 0b1111]);
        let basis = m.row_space_basis();
        assert_eq!(basis.len(), m.rank());
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
            let m = random_matrix(5, 8, &mut rng);
            let basis = m.row_space_basis();
            let span = crate::Subspace::from_generators(8, basis.iter().copied());
            for target in 0..256u64 {
                match m.solve_combination(target) {
                    Some(combo) => {
                        let mut acc = 0u64;
                        let mut rest = combo;
                        while rest != 0 {
                            let i = rest.trailing_zeros() as usize;
                            acc ^= m.row(i);
                            rest &= rest - 1;
                        }
                        assert_eq!(acc, target);
                    }
                    None => assert!(!span.contains(target)),
                }
            }
        }
    }

    #[test]
    fn combination_inverse_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(2027);
        let mut inverted = 0;
        for _ in 0..60 {
            let m = random_matrix(6, 6, &mut rng);
            let Some(inv) = m.combination_inverse() else {
                assert!(m.rank() < 6);
                continue;
            };
            inverted += 1;
            for (j, &combo) in inv.iter().enumerate() {
                let mut acc = 0u64;
                let mut rest = combo;
                while rest != 0 {
                    let i = rest.trailing_zeros() as usize;
                    acc ^= m.row(i);
                    rest &= rest - 1;
                }
                assert_eq!(acc, 1u64 << j);
            }
        }
        assert!(inverted >= 10, "random 6x6 matrices are often invertible");
    }

    #[test]
    fn mul_matches_composed_application() {
        let mut rng = ChaCha8Rng::seed_from_u64(2028);
        for _ in 0..30 {
            let a = random_matrix(5, 6, &mut rng);
            let b = random_matrix(6, 4, &mut rng);
            let ab = a.mul(&b);
            assert_eq!(ab.nrows(), 5);
            assert_eq!(ab.ncols(), 4);
            // In the row-combination reading, row i of ab selects columns of
            // b the way row i of a selects rows of b; check via transpose
            // application: (a·b)ᵀ x = bᵀ (aᵀ x).
            for x in 0..32u64 {
                assert_eq!(
                    ab.transpose().apply(x),
                    b.transpose().apply(a.transpose().apply(x))
                );
            }
        }
    }

    #[test]
    fn transpose_is_an_involution() {
        let mut rng = ChaCha8Rng::seed_from_u64(2029);
        let m = random_matrix(7, 5, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().rank(), m.rank());
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
