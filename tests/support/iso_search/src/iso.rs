//! Exact stage-respecting isomorphism search.
//!
//! A backtracking search over per-stage bijections, nodes taken stage by
//! stage so that each candidate image can be checked against the images of
//! its parents, and pruned by the colour classes of [`crate::refine`].

use crate::refine::{color_refinement, refinement_compatible, Coloring};
use min_graph::iso::{verify_stage_mapping, StageMapping};
use min_graph::MiDigraph;

/// Outcome of [`find_isomorphism`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsoSearchOutcome {
    /// An isomorphism was found.
    Found(StageMapping),
    /// The digraphs are definitely not isomorphic (exhaustive search).
    NotIsomorphic,
    /// The search exceeded its node budget before reaching a conclusion.
    Aborted,
}

impl IsoSearchOutcome {
    /// Returns the mapping if one was found.
    pub fn mapping(&self) -> Option<&StageMapping> {
        match self {
            IsoSearchOutcome::Found(m) => Some(m),
            _ => None,
        }
    }

    /// `true` iff the outcome proves isomorphism.
    pub fn is_isomorphic(&self) -> bool {
        matches!(self, IsoSearchOutcome::Found(_))
    }
}

/// Number of arcs into `b` among a node's `children` (parallel arcs count).
fn multiplicity(children: &[u32], b: u32) -> usize {
    children.iter().filter(|&&c| c == b).count()
}

/// Exact stage-respecting isomorphism search.
///
/// `node_budget` bounds the number of search-tree nodes explored; when the
/// budget is exhausted the outcome is [`IsoSearchOutcome::Aborted`]. With
/// the default pruning the search is practical for widths up to ~64.
pub fn find_isomorphism(g: &MiDigraph, h: &MiDigraph, node_budget: u64) -> IsoSearchOutcome {
    if g.stages() != h.stages() || g.width() != h.width() {
        return IsoSearchOutcome::NotIsomorphic;
    }
    if g.arc_count() != h.arc_count() {
        return IsoSearchOutcome::NotIsomorphic;
    }
    if !refinement_compatible(g, h) {
        return IsoSearchOutcome::NotIsomorphic;
    }
    let gc = color_refinement(g);
    let hc = color_refinement(h);

    let stages = g.stages();
    let w = g.width();
    let mut mapping: StageMapping = vec![vec![u32::MAX; w]; stages];
    let mut used: Vec<Vec<bool>> = vec![vec![false; w]; stages];
    let mut visited: u64 = 0;

    // Order nodes stage by stage so that when a node is assigned, all its
    // parents are already assigned and the arcs to them can be checked.
    // The search state is genuinely nine-dimensional; bundling it into a
    // struct would only rename the problem.
    #[allow(clippy::too_many_arguments)]
    fn backtrack(
        g: &MiDigraph,
        h: &MiDigraph,
        gc: &Coloring,
        hc: &Coloring,
        mapping: &mut StageMapping,
        used: &mut [Vec<bool>],
        pos: usize,
        visited: &mut u64,
        budget: u64,
    ) -> Option<bool> {
        let w = g.width();
        let total = g.stages() * w;
        if pos == total {
            return Some(true);
        }
        *visited += 1;
        if *visited > budget {
            return None; // aborted
        }
        let s = pos / w;
        let v = (pos % w) as u32;
        // Candidate images: same stage, unused, same out/in degree, and
        // consistent with already-assigned parents.
        for x in 0..w as u32 {
            if used[s][x as usize] {
                continue;
            }
            if g.out_degree(s, v) != h.out_degree(s, x) || g.in_degree(s, v) != h.in_degree(s, x) {
                continue;
            }
            // Colour refinement classes must agree class-size-wise; we use
            // the per-graph colourings only as a heuristic filter on the
            // degree signature (colour ids are not directly comparable
            // across graphs, so compare class sizes instead).
            let g_class = gc.colors[s]
                .iter()
                .filter(|&&c| c == gc.colors[s][v as usize])
                .count();
            let h_class = hc.colors[s]
                .iter()
                .filter(|&&c| c == hc.colors[s][x as usize])
                .count();
            if g_class != h_class {
                continue;
            }
            if s > 0 {
                let ok = g.parents(s, v).iter().all(|&p| {
                    let p_img = mapping[s - 1][p as usize];
                    multiplicity(g.children(s - 1, p), v)
                        == multiplicity(h.children(s - 1, p_img), x)
                });
                if !ok {
                    continue;
                }
            }
            mapping[s][v as usize] = x;
            used[s][x as usize] = true;
            match backtrack(g, h, gc, hc, mapping, used, pos + 1, visited, budget) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => return None,
            }
            mapping[s][v as usize] = u32::MAX;
            used[s][x as usize] = false;
        }
        Some(false)
    }

    match backtrack(
        g,
        h,
        &gc,
        &hc,
        &mut mapping,
        &mut used,
        0,
        &mut visited,
        node_budget,
    ) {
        Some(true) => {
            debug_assert!(verify_stage_mapping(g, h, &mapping));
            IsoSearchOutcome::Found(mapping)
        }
        Some(false) => IsoSearchOutcome::NotIsomorphic,
        None => IsoSearchOutcome::Aborted,
    }
}

/// Composes two stage mappings: `second ∘ first` (apply `first`, then
/// `second`).
pub fn compose_mappings(first: &StageMapping, second: &StageMapping) -> StageMapping {
    assert_eq!(first.len(), second.len(), "stage counts must match");
    first
        .iter()
        .zip(second.iter())
        .map(|(f, s)| f.iter().map(|&v| s[v as usize]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::relabel;
    use min_graph::iso::invert_mapping;

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

    /// The width-4 "Omega-like" digraph: stage connection = perfect shuffle
    /// based wiring; known to be isomorphic to the Baseline.
    fn omega8() -> MiDigraph {
        let mut g = MiDigraph::new(3, 4);
        // Children of cell x under a shuffle inter-stage connection on
        // 8 links: child = ((2x + b) * 2 + carry) truncated — computed
        // directly: link = 2x+b, shuffled = circular-left-shift_3(link),
        // child cell = shuffled >> 1.
        let shuffle3 = |l: u32| ((l << 1) | (l >> 2)) & 0b111;
        for s in 0..2 {
            for x in 0..4u32 {
                for b in 0..2u32 {
                    let link = 2 * x + b;
                    let child = shuffle3(link) >> 1;
                    g.add_arc(s, x, child);
                }
            }
        }
        g
    }

    #[test]
    fn relabelled_copy_is_found_isomorphic() {
        let g = baseline8();
        let mapping = vec![vec![3, 1, 0, 2], vec![0, 2, 1, 3], vec![2, 3, 0, 1]];
        let h = relabel(&g, &mapping);
        assert!(verify_stage_mapping(&g, &h, &mapping));
        let outcome = find_isomorphism(&g, &h, 1_000_000);
        assert!(outcome.is_isomorphic());
        let found = outcome.mapping().unwrap();
        assert!(verify_stage_mapping(&g, &h, found));
    }

    #[test]
    fn omega_and_baseline_width4_are_isomorphic() {
        let g = baseline8();
        let h = omega8();
        let outcome = find_isomorphism(&g, &h, 1_000_000);
        assert!(outcome.is_isomorphic(), "classical equivalence at N=8");
    }

    #[test]
    fn parallel_arc_graph_is_not_isomorphic_to_baseline() {
        let g = baseline8();
        let mut h = MiDigraph::new(3, 4);
        for v in 0..4u32 {
            h.add_arc(0, v, v);
            h.add_arc(0, v, v);
            h.add_arc(1, v, v);
            h.add_arc(1, v, v ^ 1);
        }
        let outcome = find_isomorphism(&g, &h, 1_000_000);
        assert_eq!(outcome, IsoSearchOutcome::NotIsomorphic);
    }

    #[test]
    fn arc_count_mismatch_short_circuits() {
        let g = baseline8();
        let mut h = baseline8();
        h.add_arc(0, 0, 0);
        assert_eq!(
            find_isomorphism(&g, &h, 10),
            IsoSearchOutcome::NotIsomorphic
        );
    }

    #[test]
    fn tiny_budget_aborts() {
        let g = baseline8();
        let mapping = vec![vec![3, 1, 0, 2], vec![0, 2, 1, 3], vec![2, 3, 0, 1]];
        let h = relabel(&g, &mapping);
        assert_eq!(find_isomorphism(&g, &h, 1), IsoSearchOutcome::Aborted);
    }

    #[test]
    fn compose_and_invert_mappings() {
        let g = baseline8();
        let m1 = vec![vec![1, 0, 3, 2], vec![2, 3, 0, 1], vec![0, 1, 2, 3]];
        let h = relabel(&g, &m1);
        let m2 = vec![vec![0, 2, 1, 3], vec![3, 1, 2, 0], vec![1, 0, 3, 2]];
        let k = relabel(&h, &m2);
        let composed = compose_mappings(&m1, &m2);
        assert!(verify_stage_mapping(&g, &k, &composed));
        let inv = invert_mapping(&composed);
        assert!(verify_stage_mapping(&k, &g, &inv));
    }
}
