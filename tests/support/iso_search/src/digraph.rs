//! Digraphs derived from a digraph, for the tests: the reverse, a stage
//! slice, a relabelled copy, and equality up to arc order.
//!
//! The library reverses a network on its connection tables
//! (`min_core::ConnectionNetwork::reverse`); [`reverse`] here is the plain
//! arc-flipping definition the tests hold it to, and it also reverses the
//! graphs that are no network at all.

use min_graph::iso::is_stage_bijection;
use min_graph::MiDigraph;

/// The reverse MI-digraph `G⁻¹`: stages in reverse order and every arc
/// flipped (the paper's "reverse network", §3). Each node's children are
/// its parents in `g`, in arc order.
pub fn reverse(g: &MiDigraph) -> MiDigraph {
    let mut rev = MiDigraph::new(g.stages(), g.width());
    for (s, from, to) in g.arcs() {
        // Arc (s, from) -> (s+1, to) becomes, in the reversed stage order,
        // an arc from stage (stages-2-s) node `to` to stage (stages-1-s)
        // node `from`.
        rev.add_arc(g.stages() - 2 - s, to, from);
    }
    rev
}

/// The sub-digraph induced by the stage interval `lo ..= hi` (the paper's
/// `(G)_{i,j}`) as a standalone MI-digraph with `hi - lo + 1` stages.
pub fn slice(g: &MiDigraph, lo: usize, hi: usize) -> MiDigraph {
    assert!(lo <= hi && hi < g.stages(), "invalid stage interval");
    let mut out = MiDigraph::new(hi - lo + 1, g.width());
    for (s, from, to) in g.arcs().filter(|&(s, _, _)| (lo..hi).contains(&s)) {
        out.add_arc(s - lo, from, to);
    }
    out
}

/// Relabels the nodes of every stage according to `mapping`
/// (`mapping[stage][old_index] = new_index`). Panics unless each per-stage
/// map is a bijection.
pub fn relabel(g: &MiDigraph, mapping: &[Vec<u32>]) -> MiDigraph {
    assert_eq!(mapping.len(), g.stages(), "one map per stage required");
    for m in mapping {
        assert!(is_stage_bijection(m, g.width()), "not a bijection");
    }
    let mut out = MiDigraph::new(g.stages(), g.width());
    for (s, from, to) in g.arcs() {
        out.add_arc(s, mapping[s][from as usize], mapping[s + 1][to as usize]);
    }
    out
}

/// A copy of `g` with every adjacency list sorted: two digraphs with the
/// same arcs have `==` normalized copies whatever their insertion order.
pub fn normalized(g: &MiDigraph) -> MiDigraph {
    let mut out = MiDigraph::new(g.stages(), g.width());
    for s in 0..g.stages() - 1 {
        for v in 0..g.width() as u32 {
            let mut kids = g.children(s, v).to_vec();
            kids.sort_unstable();
            // Sources in ascending order leave every parent list sorted.
            for c in kids {
                out.add_arc(s, v, c);
            }
        }
    }
    out
}

/// Structural equality up to arc order.
pub fn same_arcs(a: &MiDigraph, b: &MiDigraph) -> bool {
    a.stages() == b.stages() && a.width() == b.width() && normalized(a) == normalized(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny 3-stage, width-4 butterfly-like graph used by several tests.
    fn sample() -> MiDigraph {
        let mut g = MiDigraph::new(3, 4);
        // stage 0 -> 1: node v -> {v, v ^ 2}
        for v in 0..4u32 {
            g.add_arc(0, v, v);
            g.add_arc(0, v, v ^ 2);
        }
        // stage 1 -> 2: node v -> {v, v ^ 1}
        for v in 0..4u32 {
            g.add_arc(1, v, v);
            g.add_arc(1, v, v ^ 1);
        }
        g
    }

    #[test]
    fn reverse_flips_arcs_and_stage_order() {
        let g = sample();
        let r = reverse(&g);
        assert_eq!(r.stages(), 3);
        assert_eq!(r.arc_count(), g.arc_count());
        // Arc (0, v) -> (1, v^2) becomes (1, v^2) -> (2, v) in the reverse.
        for v in 0..4u32 {
            assert!(r.children(1, v ^ 2).contains(&v));
        }
        // Double reversal returns the original graph.
        assert!(same_arcs(&g, &reverse(&r)));
    }

    #[test]
    fn slice_extracts_the_requested_interval() {
        let g = sample();
        let s = slice(&g, 1, 2);
        assert_eq!(s.stages(), 2);
        assert_eq!(s.arc_count(), 8);
        assert_eq!(s.children(0, 2), &[2, 3]);
        let single = slice(&g, 0, 0);
        assert_eq!(single.stages(), 1);
        assert_eq!(single.arc_count(), 0);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = sample();
        // Swap nodes 0 and 1 in stage 1 only.
        let mapping = vec![vec![0, 1, 2, 3], vec![1, 0, 2, 3], vec![0, 1, 2, 3]];
        let h = relabel(&g, &mapping);
        assert_eq!(h.arc_count(), g.arc_count());
        // The arc (0,0) -> (1,0) must now point at (1,1).
        assert!(h.children(0, 0).contains(&1));
        // Relabelling back with the same (involutive) mapping restores g.
        assert!(same_arcs(&relabel(&h, &mapping), &g));
    }

    #[test]
    #[should_panic(expected = "not a bijection")]
    fn relabel_rejects_non_bijections() {
        let g = sample();
        let bad = vec![vec![0, 0, 2, 3], vec![0, 1, 2, 3], vec![0, 1, 2, 3]];
        let _ = relabel(&g, &bad);
    }

    #[test]
    fn same_arcs_ignores_insertion_order() {
        let mut a = MiDigraph::new(2, 2);
        a.add_arc(0, 0, 0);
        a.add_arc(0, 0, 1);
        let mut b = MiDigraph::new(2, 2);
        b.add_arc(0, 0, 1);
        b.add_arc(0, 0, 0);
        assert!(same_arcs(&a, &b));
        assert_ne!(a, b, "raw equality is order-sensitive by design");
    }
}
