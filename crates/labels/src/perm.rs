//! Arbitrary permutations of `2^w` symbols.
//!
//! The interconnection scheme between two stages of a MIN is classically
//! given as a permutation of the `N = 2^n` link labels (paper, §4 and
//! Fig. 4). [`Permutation`] is the table representation of such a
//! permutation, with the operations the rest of the workspace needs:
//! application, composition, inversion, random sampling, and — crucially —
//! **PIPID detection**: deciding whether a given table is induced by a
//! permutation of the index digits, and if so recovering θ.

use crate::gf2::{Label, Width};
use crate::index_perm::IndexPermutation;

/// A permutation of the labels `{0, …, 2^width - 1}` stored as a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    width: Width,
    /// `table[x] = π(x)`.
    table: Vec<Label>,
}

impl Permutation {
    /// The identity permutation on `2^width` symbols.
    pub fn identity(width: Width) -> Self {
        crate::check_width(width);
        Permutation {
            width,
            table: crate::all_labels(width).collect(),
        }
    }

    /// Builds a permutation from an explicit table; panics if the table is
    /// not a bijection of the right size.
    pub fn from_table(width: Width, table: Vec<Label>) -> Self {
        crate::check_width(width);
        let n = 1usize << width;
        assert_eq!(table.len(), n, "table must have 2^width = {n} entries");
        let mut seen = vec![false; n];
        for &y in &table {
            let y = y as usize;
            assert!(y < n, "image {y} out of range");
            assert!(!seen[y], "image {y} appears twice: not a bijection");
            seen[y] = true;
        }
        Permutation { width, table }
    }

    /// Builds a permutation from a closure; panics if the closure is not a
    /// bijection on the domain.
    pub fn from_fn<F: Fn(Label) -> Label>(width: Width, f: F) -> Self {
        let table = crate::all_labels(width).map(f).collect();
        Self::from_table(width, table)
    }

    /// Expands an index-digit permutation θ into its induced PIPID table.
    pub fn from_index_perm(theta: &IndexPermutation) -> Self {
        let width = theta.width();
        Permutation {
            width,
            table: crate::all_labels(width).map(|x| theta.apply(x)).collect(),
        }
    }

    /// Samples a uniformly random permutation (Fisher–Yates).
    pub fn random<R: rand::Rng>(width: Width, rng: &mut R) -> Self {
        crate::check_width(width);
        let mut table: Vec<Label> = crate::all_labels(width).collect();
        for i in (1..table.len()).rev() {
            let j = rng.gen_range(0..=i);
            table.swap(i, j);
        }
        Permutation { width, table }
    }

    /// Label width (the permutation acts on `2^width` symbols).
    pub fn width(&self) -> Width {
        self.width
    }

    /// Number of symbols, `2^width`.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Always `false`: even the width-0 permutation acts on one symbol.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The raw table.
    pub fn table(&self) -> &[Label] {
        &self.table
    }

    /// Applies the permutation.
    #[inline]
    pub fn apply(&self, x: Label) -> Label {
        self.table[x as usize]
    }

    /// Inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u64; self.table.len()];
        for (x, &y) in self.table.iter().enumerate() {
            inv[y as usize] = x as u64;
        }
        Permutation {
            width: self.width,
            table: inv,
        }
    }

    /// Composition `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.width, other.width, "widths must match");
        Permutation {
            width: self.width,
            table: other
                .table
                .iter()
                .map(|&y| self.table[y as usize])
                .collect(),
        }
    }

    /// `true` for the identity.
    pub fn is_identity(&self) -> bool {
        self.table.iter().enumerate().all(|(x, &y)| x as u64 == y)
    }

    /// Decides whether this permutation is a PIPID, i.e. induced by a digit
    /// permutation θ, and returns θ if so.
    ///
    /// The test interpolates θ from the images of the basis labels
    /// (`π(2^j)` must be a power of two and `π(0) = 0`) and then verifies
    /// the candidate against the full table, so it never returns a wrong θ.
    pub fn as_pipid(&self) -> Option<IndexPermutation> {
        if self.width == 0 {
            return Some(IndexPermutation::identity(0));
        }
        if self.apply(0) != 0 {
            return None;
        }
        // π(e_j) must be some e_i; then θ(i) = j.
        let mut theta_map = vec![usize::MAX; self.width];
        for j in 0..self.width {
            let img = self.apply(1u64 << j);
            if img.count_ones() != 1 {
                return None;
            }
            let i = img.trailing_zeros() as usize;
            if theta_map[i] != usize::MAX {
                return None;
            }
            theta_map[i] = j;
        }
        if theta_map.contains(&usize::MAX) {
            return None;
        }
        let theta = IndexPermutation::from_map(theta_map);
        // Verify on the whole table (a permutation can agree with a PIPID on
        // the basis yet differ elsewhere).
        for x in crate::all_labels(self.width) {
            if self.apply(x) != theta.apply(x) {
                return None;
            }
        }
        Some(theta)
    }
}

impl std::fmt::Display for Permutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (x, y) in self.table.iter().enumerate() {
            if x > 0 {
                write!(f, " ")?;
            }
            write!(f, "{x}→{y}")?;
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
    fn identity_behaves() {
        let id = Permutation::identity(4);
        assert!(id.is_identity());
        assert!(id.as_pipid().is_some());
    }

    #[test]
    fn from_table_rejects_non_bijections() {
        let r = std::panic::catch_unwind(|| Permutation::from_table(2, vec![0, 1, 1, 3]));
        assert!(r.is_err());
    }

    #[test]
    fn inverse_and_compose_are_consistent() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let p = Permutation::random(5, &mut rng);
        let q = Permutation::random(5, &mut rng);
        assert!(p.compose(&p.inverse()).is_identity());
        let pq = p.compose(&q);
        for x in crate::all_labels(5) {
            assert_eq!(pq.apply(x), p.apply(q.apply(x)));
        }
    }

    #[test]
    fn pipid_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        for _ in 0..20 {
            let theta = IndexPermutation::random(6, &mut rng);
            let p = Permutation::from_index_perm(&theta);
            let back = p.as_pipid().expect("a PIPID table must be detected");
            assert_eq!(back, theta);
        }
    }

    #[test]
    fn shuffle_table_is_pipid_and_linear() {
        let sigma = IndexPermutation::perfect_shuffle(5);
        let p = Permutation::from_index_perm(&sigma);
        let linear = crate::linear::LinearMap::interpolate(5, 5, |x| p.apply(x));
        assert_eq!(linear.table(), p.table());
        assert_eq!(p.as_pipid(), Some(sigma));
    }

    #[test]
    fn random_permutations_are_rarely_pipid() {
        // There are w! PIPIDs among (2^w)! permutations; for w = 4 a random
        // table is essentially never one — and the detector must say so.
        let mut rng = ChaCha8Rng::seed_from_u64(47);
        let mut pipid_count = 0;
        for _ in 0..50 {
            if Permutation::random(4, &mut rng).as_pipid().is_some() {
                pipid_count += 1;
            }
        }
        assert!(pipid_count <= 1);
    }

    #[test]
    fn linear_but_not_pipid_is_classified_correctly() {
        // x -> M x for an invertible non-permutation-matrix M is linear yet
        // not a PIPID.
        let m = crate::linear::LinearMap::from_columns(3, 3, vec![0b011, 0b010, 0b100]);
        assert!(m.is_invertible());
        let p = Permutation::from_fn(3, |x| m.apply(x));
        assert!(p.as_pipid().is_none());
    }

    #[test]
    fn pipid_detection_rejects_basis_coincidence() {
        // A permutation that maps basis vectors to basis vectors but is not
        // a PIPID globally (swap two non-basis entries of a PIPID table).
        let sigma = IndexPermutation::perfect_shuffle(3);
        let mut table: Vec<u64> = (0..8u64).map(|x| sigma.apply(x)).collect();
        table.swap(3, 5); // entries for labels 3 and 5 (both non-basis)
        let p = Permutation::from_table(3, table);
        assert!(p.as_pipid().is_none());
    }
}
