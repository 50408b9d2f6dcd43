//! The `P(i,j)` properties and the Section 2 characterization theorem.
//!
//! > **P(i,j).** An MI-digraph with `n` stages satisfies `P(i,j)` (for
//! > `1 ≤ i ≤ j ≤ n`) iff the sub-digraph `(G)_{i,j}` has exactly
//! > `2^{n-1-(j-i)}` connected components.
//! >
//! > **P(1,\*)** holds iff `P(1,j)` holds for every `j`;
//! > **P(\*,n)** holds iff `P(i,n)` holds for every `i`.
//! >
//! > **Theorem (§2).** All MI-digraphs with `n` stages satisfying the Banyan
//! > property, `P(*, n)` and `P(1, *)` are isomorphic (to the Baseline
//! > MI-digraph).
//!
//! Stage indices in this module are 0-based: the paper's `P(i, j)` is
//! `p_property(g, i-1, j-1)`.
//!
//! Every check reads the network through [`MiView`], so a
//! `ConnectionNetwork` is checked on its own tables.

use min_graph::components::{component_count_range, prefix_sweep, suffix_sweep};
use min_graph::paths::is_banyan;
use min_graph::MiView;

/// Expected component count of `(G)_{lo,hi}` for a Baseline-equivalent
/// MI-digraph: `width / 2^{hi-lo}`.
///
/// (Equivalently the paper's `2^{n-1-(j-i)}` since `width = 2^{n-1}`.)
pub fn expected_components(width: usize, lo: usize, hi: usize) -> usize {
    let span = hi - lo;
    if span >= usize::BITS as usize {
        return 0;
    }
    width >> span
}

/// The `2^{stages-1}` cells per stage of a `stages`-stage Baseline-shaped
/// MI-digraph, or `None` when that count does not fit a `usize`.
pub(crate) fn baseline_width(stages: usize) -> Option<usize> {
    let bits = u32::try_from(stages.checked_sub(1)?).ok()?;
    1usize.checked_shl(bits)
}

/// `P(lo, hi)` for 0-based stage indices.
pub fn p_property<G: MiView>(g: &G, lo: usize, hi: usize) -> bool {
    component_count_range(g, lo, hi) == expected_components(g.nodes_per_stage(), lo, hi)
}

/// `P(1, *)`: every prefix `(G)_{1,j}` has the required number of
/// components. Computed with one incremental union-find sweep.
pub fn p_one_star<G: MiView>(g: &G) -> bool {
    let sweep = prefix_sweep(g);
    sweep
        .counts
        .iter()
        .enumerate()
        .all(|(j, &count)| count == expected_components(g.nodes_per_stage(), 0, j))
}

/// `P(*, n)`: every suffix `(G)_{i,n}` has the required number of
/// components.
pub fn p_star_n<G: MiView>(g: &G) -> bool {
    let sweep = suffix_sweep(g);
    let last = g.stage_count() - 1;
    sweep
        .counts
        .iter()
        .enumerate()
        .all(|(i, &count)| count == expected_components(g.nodes_per_stage(), i, last))
}

/// Full evaluation of the characterization hypotheses with per-stage detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharacterizationReport {
    /// Whether the digraph has the shape of a 2×2-cell MI-digraph
    /// (`width = 2^{stages-1}`, 2-in/2-out interior regularity).
    pub proper_shape: bool,
    /// Whether the Banyan property holds.
    pub banyan: bool,
    /// `(expected, actual)` component counts of every prefix `(G)_{1,j}`,
    /// indexed by 0-based `j`.
    pub prefix_components: Vec<(usize, usize)>,
    /// `(expected, actual)` component counts of every suffix `(G)_{i,n}`,
    /// indexed by 0-based `i`.
    pub suffix_components: Vec<(usize, usize)>,
}

impl CharacterizationReport {
    /// `true` when `P(1,*)` holds.
    pub fn p_one_star(&self) -> bool {
        self.prefix_components.iter().all(|&(e, a)| e == a)
    }

    /// `true` when `P(*,n)` holds.
    pub fn p_star_n(&self) -> bool {
        self.suffix_components.iter().all(|&(e, a)| e == a)
    }

    /// `true` when all hypotheses of the characterization theorem hold, i.e.
    /// the digraph is topologically equivalent to the Baseline network.
    pub fn satisfied(&self) -> bool {
        self.proper_shape && self.banyan && self.p_one_star() && self.p_star_n()
    }
}

/// Evaluates every hypothesis of the characterization theorem.
pub fn characterization_report<G: MiView>(g: &G) -> CharacterizationReport {
    let (stages, width) = (g.stage_count(), g.nodes_per_stage());
    let width_ok = baseline_width(stages) == Some(width) && g.is_proper();
    let banyan = is_banyan(g);
    let prefix = prefix_sweep(g);
    let suffix = suffix_sweep(g);
    let last = stages - 1;
    CharacterizationReport {
        proper_shape: width_ok,
        banyan,
        prefix_components: prefix
            .counts
            .iter()
            .enumerate()
            .map(|(j, &c)| (expected_components(width, 0, j), c))
            .collect(),
        suffix_components: suffix
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (expected_components(width, i, last), c))
            .collect(),
    }
}

/// `true` when the digraph satisfies the Banyan property, `P(1,*)` and
/// `P(*,n)` (and is a proper 2×2-cell MI-digraph) — i.e. exactly the
/// hypotheses under which the Section 2 theorem asserts Baseline
/// equivalence.
pub fn satisfies_characterization<G: MiView>(g: &G) -> bool {
    characterization_report(g).satisfied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::Connection;
    use crate::network::ConnectionNetwork;
    use min_graph::MiDigraph;
    use min_labels::{IndexPermutation, Permutation};

    fn baseline(n: usize) -> MiDigraph {
        crate::baseline_iso::baseline_digraph(n)
    }

    fn omega(n: usize) -> MiDigraph {
        let sigma = IndexPermutation::perfect_shuffle(n);
        let perm = Permutation::from_index_perm(&sigma);
        let conn = Connection::from_link_permutation(&perm);
        ConnectionNetwork::new(n - 1, vec![conn; n - 1]).to_digraph()
    }

    #[test]
    fn expected_component_counts_match_the_paper() {
        // n = 4, width = 8: (G)_{1,1} has 8 components, (G)_{1,4} has 1.
        assert_eq!(expected_components(8, 0, 0), 8);
        assert_eq!(expected_components(8, 0, 3), 1);
        assert_eq!(expected_components(8, 1, 3), 2);
        assert_eq!(expected_components(8, 2, 3), 4);
    }

    #[test]
    fn baseline_satisfies_everything() {
        for n in 2..=6 {
            let g = baseline(n);
            assert!(p_one_star(&g), "P(1,*) fails for baseline n={n}");
            assert!(p_star_n(&g), "P(*,n) fails for baseline n={n}");
            assert!(
                satisfies_characterization(&g),
                "characterization fails n={n}"
            );
            let report = characterization_report(&g);
            assert!(report.proper_shape && report.banyan);
        }
    }

    #[test]
    fn omega_satisfies_everything() {
        for n in 2..=6 {
            let g = omega(n);
            assert!(satisfies_characterization(&g), "omega n={n}");
        }
    }

    #[test]
    fn individual_p_properties_hold_on_the_baseline() {
        let g = baseline(4);
        for lo in 0..4 {
            for hi in lo..4 {
                assert!(p_property(&g, lo, hi), "P({},{}) fails", lo + 1, hi + 1);
            }
        }
    }

    #[test]
    fn parallel_link_network_fails_banyan_but_not_p_properties() {
        // Replace the last Baseline stage with a degenerate double-link
        // stage: components stay right (each pair collapses), but the Banyan
        // property fails — showing the hypotheses are genuinely separate.
        let n = 3usize;
        let width = n - 1;
        let c0 = Connection::from_fn(width, |x| x >> 1, |x| (x >> 1) | 0b10);
        let degenerate = Connection::from_fn(width, |x| x, |x| x);
        let net = ConnectionNetwork::new(width, vec![c0, degenerate]);
        let g = net.to_digraph();
        let report = characterization_report(&g);
        assert!(!report.banyan);
        assert!(!report.satisfied());
        // The degenerate stage still glues each node to one partner, so
        // P(*, n) changes: the suffix (G)_{2,3} now has 4 components
        // (each node only linked to its double partner) — in fact it has 4,
        // which is what a proper network would need at (G)_{3,3} not
        // (G)_{2,3}; assert the report records the mismatch.
        let last_suffix = report.suffix_components[1];
        assert_ne!(last_suffix.0, last_suffix.1);
    }

    #[test]
    fn random_wiring_fails_the_characterization() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(107);
        // A network with 2-regular but random (non-independent) stages is
        // overwhelmingly unlikely to be Baseline-equivalent.
        let width = 3usize;
        let mut fails = 0;
        for _ in 0..10 {
            let connections: Vec<Connection> = (0..3)
                .map(|_| {
                    let p = min_labels::Permutation::random(width + 1, &mut rng);
                    Connection::from_link_permutation(&p)
                })
                .collect();
            let net = ConnectionNetwork::new(width, connections);
            if !satisfies_characterization(&net.to_digraph()) {
                fails += 1;
            }
        }
        assert!(
            fails >= 8,
            "random networks should essentially never qualify"
        );
    }

    #[test]
    fn report_is_detailed_enough_to_locate_failures() {
        let g = MiDigraph::new(3, 4); // no arcs at all
        let report = characterization_report(&g);
        assert!(!report.proper_shape);
        assert!(!report.banyan);
        assert!(!report.p_one_star());
        assert!(!report.p_star_n());
        assert_eq!(report.prefix_components.len(), 3);
        assert_eq!(report.suffix_components.len(), 3);
        assert_eq!(report.prefix_components[1], (2, 8));
    }

    #[test]
    fn a_width_past_the_label_range_is_not_proper_shape() {
        // 65 stages would need 2^64 cells per stage; the shape check must
        // say no instead of overflowing the shift.
        let g = MiDigraph::new(65, 1);
        assert!(!characterization_report(&g).proper_shape);
    }
}
