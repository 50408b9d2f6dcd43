//! Stage-aware colour refinement (1-dimensional Weisfeiler–Leman).
//!
//! Colour refinement is used by the isomorphism machinery in two ways:
//!
//! * as a cheap *non-isomorphism* certificate — if the multisets of stable
//!   colours of two MI-digraphs differ on any stage, the digraphs cannot be
//!   isomorphic;
//! * as a pruning order for the exact backtracking search in [`crate::iso`].
//!
//! Nodes start with their stage as colour (an MI-digraph isomorphism must
//! preserve stages) and are repeatedly split by the multiset of child and
//! parent colours until a fixed point.

use min_graph::MiDigraph;
use std::collections::HashMap;

/// Stable colouring of an MI-digraph. `colors[stage][node]` is a small
/// integer; equal colours mean "not distinguished by 1-WL".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Per-stage, per-node colour.
    pub colors: Vec<Vec<u32>>,
    /// Total number of distinct colours.
    pub color_count: u32,
    /// Number of refinement rounds performed before stabilising.
    pub rounds: usize,
}

impl Coloring {
    /// Histogram of colours per stage (sorted), a stage-respecting
    /// isomorphism invariant.
    pub fn stage_histograms(&self) -> Vec<Vec<(u32, usize)>> {
        self.colors
            .iter()
            .map(|stage| {
                let mut h: HashMap<u32, usize> = HashMap::new();
                for &c in stage {
                    *h.entry(c).or_default() += 1;
                }
                let mut v: Vec<(u32, usize)> = h.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect()
    }
}

/// Per-node refinement signature: own colour, sorted child colours, sorted
/// parent colours.
type NodeSignature = (u32, Vec<u32>, Vec<u32>);

/// Runs colour refinement to a fixed point.
pub fn color_refinement(g: &MiDigraph) -> Coloring {
    let n = g.stages();
    let w = g.width();
    // Initial colour = stage index.
    let mut colors: Vec<Vec<u32>> = (0..n).map(|s| vec![s as u32; w]).collect();
    let mut color_count = n as u32;
    let mut rounds = 0usize;

    loop {
        rounds += 1;
        // Signature of each node: (own colour, sorted child colours, sorted parent colours).
        let mut signatures: Vec<Vec<NodeSignature>> = Vec::with_capacity(n);
        for s in 0..n {
            let mut stage_sigs = Vec::with_capacity(w);
            for v in 0..w as u32 {
                let mut kid_colors: Vec<u32> = g
                    .children(s, v)
                    .iter()
                    .map(|&c| colors[s + 1][c as usize])
                    .collect();
                kid_colors.sort_unstable();
                let mut parent_colors: Vec<u32> = g
                    .parents(s, v)
                    .iter()
                    .map(|&p| colors[s - 1][p as usize])
                    .collect();
                parent_colors.sort_unstable();
                stage_sigs.push((colors[s][v as usize], kid_colors, parent_colors));
            }
            signatures.push(stage_sigs);
        }
        // Canonicalise signatures to new colours.
        let mut sig_to_color: HashMap<NodeSignature, u32> = HashMap::new();
        let mut next_color = 0u32;
        let mut new_colors: Vec<Vec<u32>> = Vec::with_capacity(n);
        for stage_sigs in signatures {
            let mut stage_colors = Vec::with_capacity(w);
            for sig in stage_sigs {
                let c = *sig_to_color.entry(sig).or_insert_with(|| {
                    let c = next_color;
                    next_color += 1;
                    c
                });
                stage_colors.push(c);
            }
            new_colors.push(stage_colors);
        }
        let stabilized = next_color == color_count && partition_equal(&colors, &new_colors);
        colors = new_colors;
        color_count = next_color;
        if stabilized || rounds > n * w + 2 {
            break;
        }
    }
    Coloring {
        colors,
        color_count,
        rounds,
    }
}

/// `true` if the two colourings induce the same partition of the nodes
/// (colour *names* may differ).
fn partition_equal(a: &[Vec<u32>], b: &[Vec<u32>]) -> bool {
    let mut fwd: HashMap<u32, u32> = HashMap::new();
    let mut bwd: HashMap<u32, u32> = HashMap::new();
    for (sa, sb) in a.iter().zip(b.iter()) {
        for (&ca, &cb) in sa.iter().zip(sb.iter()) {
            match fwd.get(&ca) {
                Some(&expected) if expected != cb => return false,
                None => {
                    fwd.insert(ca, cb);
                }
                _ => {}
            }
            match bwd.get(&cb) {
                Some(&expected) if expected != ca => return false,
                None => {
                    bwd.insert(cb, ca);
                }
                _ => {}
            }
        }
    }
    true
}

/// Quick necessary condition for stage-respecting isomorphism: the stable
/// colour histograms of the two digraphs must match stage by stage.
pub fn refinement_compatible(g: &MiDigraph, h: &MiDigraph) -> bool {
    if g.stages() != h.stages() || g.width() != h.width() {
        return false;
    }
    // Refine the disjoint union so colour names are comparable.
    let mut union = MiDigraph::new(g.stages(), g.width() + h.width());
    for (s, from, to) in g.arcs() {
        union.add_arc(s, from, to);
    }
    let offset = g.width() as u32;
    for (s, from, to) in h.arcs() {
        union.add_arc(s, from + offset, to + offset);
    }
    let coloring = color_refinement(&union);
    for s in 0..g.stages() {
        let mut hg: HashMap<u32, i64> = HashMap::new();
        for v in 0..g.width() {
            *hg.entry(coloring.colors[s][v]).or_default() += 1;
        }
        for v in 0..h.width() {
            *hg.entry(coloring.colors[s][g.width() + v]).or_default() -= 1;
        }
        if hg.values().any(|&c| c != 0) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::relabel;

    fn baseline8() -> MiDigraph {
        let mut g = MiDigraph::new(3, 4);
        for v in 0..4u32 {
            g.add_arc(0, v, v >> 1);
            g.add_arc(0, v, (v >> 1) | 2);
        }
        for v in 0..4u32 {
            let high = v & 2;
            g.add_arc(1, v, high);
            g.add_arc(1, v, high | 1);
        }
        g
    }

    #[test]
    fn refinement_terminates_and_reports_counts() {
        let g = baseline8();
        let c = color_refinement(&g);
        assert!(c.color_count >= 3, "stages are always distinguished");
        assert_eq!(c.colors.len(), 3);
        assert!(c.rounds >= 1);
    }

    #[test]
    fn vertex_transitive_stages_stay_monochromatic() {
        // In the Baseline, all nodes of a stage look alike to 1-WL.
        let g = baseline8();
        let c = color_refinement(&g);
        for s in 0..3 {
            let first = c.colors[s][0];
            assert!(c.colors[s].iter().all(|&x| x == first));
        }
    }

    #[test]
    fn irregular_nodes_get_split() {
        let mut g = MiDigraph::new(2, 3);
        g.add_arc(0, 0, 0);
        g.add_arc(0, 0, 1);
        g.add_arc(0, 1, 1);
        // node 2 of stage 0 has out-degree 0 and must receive its own colour.
        let c = color_refinement(&g);
        assert_ne!(c.colors[0][0], c.colors[0][2]);
        assert_ne!(c.colors[0][1], c.colors[0][2]);
    }

    #[test]
    fn compatible_graphs_pass_the_filter() {
        let g = baseline8();
        // A relabelled copy is certainly compatible.
        let mapping = vec![vec![1, 0, 3, 2], vec![2, 3, 0, 1], vec![0, 1, 2, 3]];
        let h = relabel(&g, &mapping);
        assert!(refinement_compatible(&g, &h));
    }

    #[test]
    fn incompatible_graphs_fail_the_filter() {
        let g = baseline8();
        let mut h = MiDigraph::new(3, 4);
        // Same number of arcs per stage overall, but an irregular degree
        // distribution (one node of out-degree 3, one of out-degree 1).
        h.add_arc(0, 0, 0);
        h.add_arc(0, 0, 1);
        h.add_arc(0, 0, 2);
        h.add_arc(0, 1, 3);
        h.add_arc(0, 2, 0);
        h.add_arc(0, 2, 1);
        h.add_arc(0, 3, 2);
        h.add_arc(0, 3, 3);
        for v in 0..4u32 {
            h.add_arc(1, v, v);
            h.add_arc(1, v, v ^ 1);
        }
        assert!(!refinement_compatible(&g, &h));
    }

    #[test]
    fn refinement_is_only_a_necessary_condition() {
        // 1-WL cannot tell the Baseline from the "parallel-arc" graph in
        // which every cell sends both outputs to the same child: both are
        // 2-in/2-out regular and stage-monochromatic. The exact search in
        // `iso` is what separates them; here we only document the weakness.
        let g = baseline8();
        let mut h = MiDigraph::new(3, 4);
        for v in 0..4u32 {
            h.add_arc(0, v, v);
            h.add_arc(0, v, v);
            h.add_arc(1, v, v);
            h.add_arc(1, v, v ^ 1);
        }
        assert!(refinement_compatible(&g, &h));
    }

    #[test]
    fn size_mismatch_is_incompatible() {
        let g = baseline8();
        let h = MiDigraph::new(3, 8);
        assert!(!refinement_compatible(&g, &h));
        let k = MiDigraph::new(4, 4);
        assert!(!refinement_compatible(&g, &k));
    }
}
