//! Connections `(f, g)` between two consecutive stages.
//!
//! Paper, §3: *"a connection `(f, g)` between the i-th stage and the
//! (i+1)-st stage of the MI-digraph `G` is a pair of functions `f` and `g`
//! defined on `Z_2^{n-1}` such that, if `x` is a node of the i-th stage then
//! the two children of `x` in the (i+1)-st stage are `f(x)` and `g(x)`."*
//!
//! [`Connection`] stores the two function tables explicitly. Constructors
//! exist for closures, for affine pairs, for PIPID stages (§4) and for
//! arbitrary link permutations (the classical way of drawing a MIN stage,
//! Fig. 4). `Connection::in_arcs` is the one pass that inverts them: the
//! reverse network, the buddy property and Proposition 1 all read it.

use min_labels::bitmat::affine_cell_table;
use min_labels::{all_labels, mask, AffineMap, Label, Permutation, Width};

/// A connection `(f, g)` on cell labels of `width` bits.
///
/// The domain is `Z_2^width` (i.e. `2^width` cells per stage); `f(x)` and
/// `g(x)` are the two children of cell `x`. `f(x) = g(x)` is allowed — that
/// is the degenerate parallel-link situation of the paper's Fig. 5 — and is
/// reported by [`Connection::has_parallel_links`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    width: Width,
    f: Vec<u32>,
    g: Vec<u32>,
}

impl Connection {
    /// Builds a connection from explicit tables.
    pub fn from_tables(width: Width, f: Vec<u32>, g: Vec<u32>) -> Self {
        min_labels::check_width(width);
        let n = 1usize << width;
        assert_eq!(f.len(), n, "f must have 2^width entries");
        assert_eq!(g.len(), n, "g must have 2^width entries");
        assert!(
            f.iter().chain(g.iter()).all(|&y| (y as usize) < n),
            "images must be valid cell labels"
        );
        Connection { width, f, g }
    }

    /// Builds a connection from two closures.
    pub fn from_fn<F, G>(width: Width, f: F, g: G) -> Self
    where
        F: Fn(Label) -> Label,
        G: Fn(Label) -> Label,
    {
        let m = mask(width);
        let ft = all_labels(width).map(|x| (f(x) & m) as u32).collect();
        let gt = all_labels(width).map(|x| (g(x) & m) as u32).collect();
        Connection {
            width,
            f: ft,
            g: gt,
        }
    }

    /// Builds the connection induced by a permutation of the `2^{width+1}`
    /// **link** labels (paper, §4 / Fig. 4).
    ///
    /// The two out-links of cell `x` carry the labels `2x` and `2x + 1`; the
    /// permutation `A` maps out-link labels to in-link labels of the next
    /// stage, and the cell incident to an in-link is given by its `width`
    /// high-order digits, i.e. `A(2x + b) >> 1`.
    pub fn from_link_permutation(perm: &Permutation) -> Self {
        assert!(
            perm.width() >= 1,
            "a link permutation needs at least 1 digit"
        );
        let width = perm.width() - 1;
        let f = all_labels(width)
            .map(|x| (perm.apply(2 * x) >> 1) as u32)
            .collect();
        let g = all_labels(width)
            .map(|x| (perm.apply(2 * x + 1) >> 1) as u32)
            .collect();
        Connection { width, f, g }
    }

    /// Builds the connection `(f, f ⊕ difference)` from an affine map — by
    /// the affine characterization (see [`crate::affine_form()`]) every such
    /// connection is independent.
    ///
    /// Both tables are written by the `u32` table kernel
    /// ([`min_labels::bitmat::affine_cell_table`]) from the columns of `f`,
    /// `g`'s with the offset `t ⊕ difference`: one XOR per cell instead of
    /// one per label digit.
    pub fn from_affine(f: &AffineMap, difference: Label) -> Self {
        assert_eq!(
            f.width_in(),
            f.width_out(),
            "a stage connection maps a stage onto an equal-sized stage"
        );
        let width = f.width_in();
        let columns = f.linear().columns();
        let g_offset = f.offset() ^ (difference & mask(width));
        Connection {
            width,
            f: affine_cell_table(columns, f.offset(), Vec::new()),
            g: affine_cell_table(columns, g_offset, Vec::new()),
        }
    }

    /// Cell-label width (the paper's `n-1`).
    pub fn width(&self) -> Width {
        self.width
    }

    /// Number of cells per stage, `2^width`.
    pub fn cells(&self) -> usize {
        1usize << self.width
    }

    /// `f(x)`.
    #[inline]
    pub fn f(&self, x: Label) -> Label {
        self.f[x as usize] as Label
    }

    /// `g(x)`.
    #[inline]
    pub fn g(&self, x: Label) -> Label {
        self.g[x as usize] as Label
    }

    /// The two children `{f(x), g(x)}` of cell `x` (possibly equal).
    #[inline]
    pub fn children(&self, x: Label) -> [Label; 2] {
        [self.f(x), self.g(x)]
    }

    /// Raw `f` table.
    pub fn f_table(&self) -> &[u32] {
        &self.f
    }

    /// Raw `g` table.
    pub fn g_table(&self) -> &[u32] {
        &self.g
    }

    /// `true` when some cell has `f(x) = g(x)` (two parallel links towards a
    /// single child — the degenerate situation of Fig. 5, which destroys the
    /// Banyan property).
    pub fn has_parallel_links(&self) -> bool {
        self.f.iter().zip(self.g.iter()).any(|(a, b)| a == b)
    }

    /// The arcs entering every cell of the target stage, in one pass over
    /// the tables. Arcs are taken in arc order — source `x` ascending, `f`
    /// before `g` — which is the order the reverse digraph lists a cell's
    /// children in.
    pub(crate) fn in_arcs(&self) -> Vec<InArcs> {
        let mut arcs = vec![InArcs::default(); self.cells()];
        let links = self.f.iter().zip(&self.g).flat_map(|(&a, &b)| [a, b]);
        for (link, y) in links.enumerate() {
            let cell = &mut arcs[y as usize];
            if cell.degree < 2 {
                cell.links[cell.degree as usize] = link as u32;
            }
            cell.degree += 1;
        }
        arcs
    }

    /// `true` when every target cell has in-degree exactly 2 (the regularity
    /// demanded of interior MI-digraph stages).
    pub fn is_two_regular(&self) -> bool {
        self.in_arcs().iter().all(|a| a.degree == 2)
    }

    /// The constant difference `f ⊕ g` if it is constant, `None` otherwise.
    ///
    /// Lemma 2 observes that for independent connections
    /// `f(x) ⊕ g(x) = f(y) ⊕ g(y)` for all `x, y`; this accessor is the
    /// corresponding diagnostic.
    pub fn constant_difference(&self) -> Option<Label> {
        let d0 = self.f(0) ^ self.g(0);
        if all_labels(self.width).all(|x| self.f(x) ^ self.g(x) == d0) {
            Some(d0)
        } else {
            None
        }
    }
}

/// The arcs entering one target cell, as [`Connection::in_arcs`] finds
/// them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InArcs {
    /// Number of arcs entering the cell; parallel arcs count twice.
    pub(crate) degree: u32,
    /// The first two in-arcs in arc order, as the §4 out-link labels
    /// `2x + b` of their source: parent `x`, with `b = 0` for its `f`-arc
    /// and `b = 1` for its `g`-arc. Slots past `degree` are 0.
    pub(crate) links: [u32; 2],
}

impl InArcs {
    /// The two parents in arc order, so ascending; `None` unless the
    /// in-degree is 2.
    pub(crate) fn parents(&self) -> Option<[u32; 2]> {
        (self.degree == 2).then(|| self.links.map(|link| link >> 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use min_labels::IndexPermutation;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The first Baseline stage at width 2: f(x) = x >> 1, g(x) = (x>>1)|2.
    fn baseline_stage0() -> Connection {
        Connection::from_fn(2, |x| x >> 1, |x| (x >> 1) | 0b10)
    }

    #[test]
    fn from_fn_and_tables_agree() {
        let a = baseline_stage0();
        let b = Connection::from_tables(2, vec![0, 0, 1, 1], vec![2, 2, 3, 3]);
        assert_eq!(a, b);
        assert_eq!(a.children(1), [0, 2]);
        assert_eq!(a.cells(), 4);
    }

    #[test]
    fn link_permutation_derivation_matches_paper_formula() {
        // Perfect shuffle on 3-digit links: child cell of x on port b is
        // (2x + b) mod 4 — the textbook Omega stage.
        let sigma = IndexPermutation::perfect_shuffle(3);
        let perm = Permutation::from_index_perm(&sigma);
        let conn = Connection::from_link_permutation(&perm);
        assert_eq!(conn.width(), 2);
        for x in 0..4u64 {
            assert_eq!(conn.f(x), (2 * x) % 4);
            assert_eq!(conn.g(x), (2 * x + 1) % 4);
        }
        assert!(conn.is_two_regular());
        assert!(!conn.has_parallel_links());
    }

    #[test]
    fn degenerate_link_permutation_produces_parallel_links() {
        // A permutation fixing digit 0 (θ⁻¹(0) = 0) sends both out-links of
        // a cell to the same child: Fig. 5.
        let theta = IndexPermutation::transposition(3, 1, 2);
        let perm = Permutation::from_index_perm(&theta);
        let conn = Connection::from_link_permutation(&perm);
        assert!(conn.has_parallel_links());
        for x in 0..4u64 {
            assert_eq!(conn.f(x), conn.g(x));
        }
    }

    #[test]
    fn from_affine_builds_constant_difference_pairs() {
        let aff = AffineMap::identity(3);
        let conn = Connection::from_affine(&aff, 0b101);
        assert_eq!(conn.constant_difference(), Some(0b101));
        for x in 0..8u64 {
            assert_eq!(conn.f(x), x);
            assert_eq!(conn.g(x), x ^ 0b101);
        }
        assert!(conn.is_two_regular());
    }

    #[test]
    fn from_affine_equals_the_pointwise_tables() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for width in 0..=16 {
            let f = AffineMap::random(width, width, &mut rng);
            // Unmasked: both constructors keep only the label's bits.
            let d: Label = rng.gen();
            let pointwise = Connection::from_fn(width, |x| f.apply(x), |x| f.apply(x) ^ d);
            assert_eq!(Connection::from_affine(&f, d), pointwise, "{width}");
        }
    }

    #[test]
    fn constant_difference_detects_non_constant_pairs() {
        let conn = Connection::from_fn(2, |x| x, |x| if x == 0 { 1 } else { x ^ 1 });
        // f ⊕ g is 1 everywhere except at x = 0 and 1 where it is 1 as well;
        // build a genuinely non-constant example instead:
        let conn2 = Connection::from_fn(2, |x| x, |x| if x < 2 { x ^ 1 } else { x ^ 2 });
        assert_eq!(conn.constant_difference(), Some(1));
        assert_eq!(conn2.constant_difference(), None);
    }

    #[test]
    fn indegree_accounting() {
        let conn = baseline_stage0();
        let degrees = |c: &Connection| c.in_arcs().iter().map(|a| a.degree).collect::<Vec<_>>();
        assert_eq!(degrees(&conn), vec![2, 2, 2, 2]);
        assert!(conn.is_two_regular());
        // Cell 1 is entered by the f-arc of 2 and the f-arc of 3.
        assert_eq!(conn.in_arcs()[1].links, [4, 6]);
        let skew = Connection::from_fn(2, |_| 0, |x| x);
        assert_eq!(degrees(&skew), vec![5, 1, 1, 1]);
        assert!(!skew.is_two_regular());
        // Cell 0 keeps its first two in-arcs: both arcs of cell 0.
        assert_eq!(skew.in_arcs()[0].links, [0, 1]);
        assert_eq!(skew.in_arcs()[3].links, [7, 0]);
    }

    #[test]
    #[should_panic(expected = "2^width entries")]
    fn from_tables_rejects_wrong_sizes() {
        let _ = Connection::from_tables(2, vec![0, 1], vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "valid cell labels")]
    fn from_tables_rejects_out_of_range_images() {
        let _ = Connection::from_tables(1, vec![0, 3], vec![1, 0]);
    }
}
