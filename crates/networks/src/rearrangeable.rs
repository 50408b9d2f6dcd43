//! Rearrangeable networks and fundamental-arrangement rewrites.
//!
//! The catalog of [`crate::classical`] stops at unique-path banyan networks
//! — exactly the scope of the paper's characterization. This module adds the
//! constructions that sit *outside* it:
//!
//! * [`benes`] — the Benes network over `2^n` terminals: the Baseline's
//!   `n − 1` splitting connections followed by the Reverse Baseline's
//!   `n − 1` merging connections, `2n − 1` stages in total. Every full
//!   permutation is realisable conflict-free (`min_routing::looping`), but
//!   with `2^(n-1)` cells per stage across `2n − 1` stages the MI-digraph is
//!   not "square", so the network is **not** Baseline-equivalent — the
//!   classification campaign reports the typed `WrongWidth` violation.
//! * [`benes_variant`] — the shuffle-based topological variant (cf. the
//!   2024 construction of arXiv:2411.04135): Omega's perfect shuffles for
//!   the first half and Flip's inverse shuffles for the second. Same
//!   recursive split/merge structure under a relabelling, so the looping
//!   algorithm configures it identically.
//! * [`benes_entry_half`] / [`benes_exit_half`] — the two banyan halves of
//!   [`benes`]. Each is a catalog member in disguise (Baseline resp.
//!   Reverse Baseline), hence **is** Baseline-equivalent: the pair of
//!   verdicts "full Benes no, halves yes" is the headline row of the
//!   extended classification report.
//! * [`Rewrite`] — fundamental-arrangement rewrites in the spirit of Gur &
//!   Zalevsky (arXiv:1012.5597): drawing the network right-to-left
//!   ([`Rewrite::Reverse`]) or conjugating every stage by a cell
//!   relabelling ([`Rewrite::VerticalFlip`], [`Rewrite::BitReversal`]).
//!   All three preserve Baseline-equivalence, which the classification
//!   campaign verifies constructively.

use crate::classical::{baseline_thetas, flip_thetas, omega_thetas, reverse_baseline_thetas};
use min_core::pipid::connection_from_pipid;
use min_core::{Connection, ConnectionNetwork};
use min_labels::IndexPermutation;
use serde::{Deserialize, Serialize};

/// Builds a `2n − 1`-stage network from two theta half-sequences sharing the
/// middle stage.
fn from_halves(
    n: usize,
    first: Vec<IndexPermutation>,
    second: Vec<IndexPermutation>,
) -> ConnectionNetwork {
    assert!(
        n >= 2,
        "a Benes-style network needs at least two stages per half"
    );
    let connections: Vec<Connection> = first
        .iter()
        .chain(second.iter())
        .map(|t| connection_from_pipid(t).connection)
        .collect();
    debug_assert_eq!(connections.len(), 2 * (n - 1));
    ConnectionNetwork::new(n - 1, connections)
}

/// The Benes network over `2^n` terminals: `2n − 1` stages of `2^(n-1)`
/// cells — the Baseline's splitting half followed by the Reverse Baseline's
/// merging half, sharing the middle stage.
pub fn benes(n: usize) -> ConnectionNetwork {
    from_halves(n, baseline_thetas(n), reverse_baseline_thetas(n))
}

/// The shuffle-based Benes variant: Omega's perfect-shuffle half followed by
/// Flip's inverse-shuffle half (the 2024 topological construction). Same
/// size and rearrangeability as [`benes`], different wiring.
pub fn benes_variant(n: usize) -> ConnectionNetwork {
    from_halves(n, omega_thetas(n), flip_thetas(n))
}

/// The entry (splitting) half of [`benes`] — exactly the Baseline network.
pub fn benes_entry_half(n: usize) -> ConnectionNetwork {
    crate::classical::baseline(n)
}

/// The exit (merging) half of [`benes`] — exactly the Reverse Baseline.
pub fn benes_exit_half(n: usize) -> ConnectionNetwork {
    crate::classical::reverse_baseline(n)
}

/// A fundamental-arrangement rewrite of a network: the same fabric drawn
/// differently (Gur & Zalevsky's transformations between the classical
/// drawings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rewrite {
    /// Mirror the network end-to-end (read the stages right-to-left).
    Reverse,
    /// Conjugate every stage by the vertical flip of the drawing: cell `x`
    /// relabelled to its bit complement.
    VerticalFlip,
    /// Conjugate every stage by the bit-reversal relabelling of the cells.
    BitReversal,
}

impl Rewrite {
    /// All rewrites, in a fixed order.
    pub const ALL: [Rewrite; 3] = [
        Rewrite::Reverse,
        Rewrite::VerticalFlip,
        Rewrite::BitReversal,
    ];

    /// Short stable label used in spec names and reports.
    pub fn label(self) -> &'static str {
        match self {
            Rewrite::Reverse => "reverse",
            Rewrite::VerticalFlip => "vflip",
            Rewrite::BitReversal => "bitrev",
        }
    }

    /// Applies the rewrite.
    ///
    /// Panics if a [`Rewrite::Reverse`] target has no reverse network
    /// ([`ConnectionNetwork::reverse`] needs every in-degree to be 2) —
    /// impossible for proper networks, which is all the specs construct.
    pub fn apply(self, net: &ConnectionNetwork) -> ConnectionNetwork {
        match self {
            Rewrite::Reverse => net
                .reverse()
                .expect("a proper network's reverse is a connection network"),
            Rewrite::VerticalFlip => {
                let width = net.width();
                let mask = (1u64 << width).wrapping_sub(1);
                conjugate(net, |x| !x & mask)
            }
            Rewrite::BitReversal => {
                let width = net.width();
                conjugate(net, move |x| {
                    let mut out = 0u64;
                    for b in 0..width {
                        out |= ((x >> b) & 1) << (width - 1 - b);
                    }
                    out
                })
            }
        }
    }
}

impl std::fmt::Display for Rewrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Conjugates every connection by a cell relabelling `p` (an involution or
/// any bijection on cell labels): the rewritten stage maps `x` to
/// `p(f(p(x)))`, i.e. the same drawing with the cells renamed.
fn conjugate(net: &ConnectionNetwork, p: impl Fn(u64) -> u64) -> ConnectionNetwork {
    let width = net.width();
    let connections = net
        .connections()
        .iter()
        .map(|conn| Connection::from_fn(width, |x| p(conn.f(p(x))), |x| p(conn.g(p(x)))))
        .collect();
    ConnectionNetwork::new(width, connections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::{baseline, reverse_baseline};
    use iso_search::digraph::same_arcs;
    use min_core::independence::is_independent;

    #[test]
    fn benes_has_the_rearrangeable_shape() {
        for n in 2..=6 {
            for net in [benes(n), benes_variant(n)] {
                assert_eq!(net.stages(), 2 * n - 1);
                assert_eq!(net.cells_per_stage(), 1 << (n - 1));
                assert_eq!(net.terminals(), 1 << n);
                assert!(net.is_proper());
                assert!(net.connections().iter().all(is_independent));
            }
        }
    }

    #[test]
    fn benes_halves_are_the_baseline_pair() {
        for n in 2..=5 {
            assert_eq!(benes_entry_half(n), baseline(n));
            assert_eq!(benes_exit_half(n), reverse_baseline(n));
            // The full Benes is literally the concatenation of its halves.
            let full = benes(n);
            assert_eq!(&full.connections()[..n - 1], baseline(n).connections());
            assert_eq!(
                &full.connections()[n - 1..],
                reverse_baseline(n).connections()
            );
        }
    }

    #[test]
    fn benes_is_not_delta_beyond_the_degenerate_size() {
        // With 2n−1 > n stages the tag space outgrows the cell count, so the
        // destination table cannot be a bijection onto the cells.
        for n in 2..=5 {
            assert!(min_core::delta::delta_report(&benes(n))
                .destination
                .map(|d| d.len() != benes(n).cells_per_stage())
                .unwrap_or(true));
        }
    }

    #[test]
    fn rewrites_preserve_shape_and_properness() {
        let nets = [baseline(4), crate::classical::omega(4)];
        for net in &nets {
            for rw in Rewrite::ALL {
                let out = rw.apply(net);
                assert_eq!(out.stages(), net.stages(), "{rw}");
                assert_eq!(out.cells_per_stage(), net.cells_per_stage(), "{rw}");
                assert!(out.is_proper(), "{rw}");
                assert!(out.connections().iter().all(is_independent), "{rw}");
            }
        }
    }

    #[test]
    fn reverse_rewrite_of_the_baseline_is_the_reverse_baseline_digraph() {
        let rewritten = Rewrite::Reverse.apply(&baseline(4)).to_digraph();
        assert!(same_arcs(&rewritten, &reverse_baseline(4).to_digraph()));
    }

    #[test]
    fn conjugations_are_involutions() {
        let net = crate::classical::flip(4);
        for rw in [Rewrite::VerticalFlip, Rewrite::BitReversal] {
            assert_eq!(rw.apply(&rw.apply(&net)), net, "{rw}");
        }
    }

    #[test]
    fn vertical_flip_actually_relabels() {
        let net = baseline(4);
        assert_ne!(Rewrite::VerticalFlip.apply(&net), net);
    }
}
