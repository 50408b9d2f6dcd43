//! Path counting and the Banyan property.
//!
//! The paper: *"We say that a network has the Banyan property if and only if
//! for any input and any output there exists a unique path connecting
//! them."* In the MI-digraph model (no explicit input/output nodes) this is
//! the statement that between every first-stage node and every last-stage
//! node there is exactly one directed path.
//!
//! Because every interior node of a proper MI-digraph has out-degree 2, the
//! number of maximal paths leaving a first-stage node is `2^{n-1}`, which
//! equals the number of last-stage nodes; hence "exactly one path to every
//! output" is equivalent to "at most one path to every output", and also to
//! "the forward-reachable set doubles at every stage". The functions below
//! expose all three views because different callers (tests, benchmarks,
//! counterexample search) want different granularity.
//!
//! Every function reads the arcs through [`MiView`], so it runs on an
//! [`crate::MiDigraph`] or directly on a network's connection tables.

use crate::view::MiView;

/// Number of distinct directed paths from node `src` of the first stage to
/// each node of the last stage.
///
/// Counts saturate at `u64::MAX` (irrelevant in practice: a proper
/// MI-digraph has at most `2^{n-1}` paths from a node).
pub fn path_counts_from<G: MiView>(g: &G, src: u32) -> Vec<u64> {
    let w = g.nodes_per_stage();
    let mut counts = vec![0u64; w];
    counts[src as usize] = 1;
    for s in 0..g.stage_count().saturating_sub(1) {
        let mut next = vec![0u64; w];
        for v in 0..w as u32 {
            let c = counts[v as usize];
            if c == 0 {
                continue;
            }
            for &child in g.children_of(s, v).as_ref() {
                next[child as usize] = next[child as usize].saturating_add(c);
            }
        }
        counts = next;
    }
    counts
}

/// Sizes of the forward-reachable set of `src` at every stage.
///
/// For a Banyan MI-digraph built from 2×2 cells these sizes are
/// `1, 2, 4, …, 2^{n-1}`.
pub fn reachable_per_stage<G: MiView>(g: &G, src: u32) -> Vec<usize> {
    let w = g.nodes_per_stage();
    let mut reach = vec![false; w];
    reach[src as usize] = true;
    let mut sizes = vec![1usize];
    for s in 0..g.stage_count().saturating_sub(1) {
        let mut next = vec![false; w];
        for v in 0..w as u32 {
            if reach[v as usize] {
                for &child in g.children_of(s, v).as_ref() {
                    next[child as usize] = true;
                }
            }
        }
        sizes.push(next.iter().filter(|&&b| b).count());
        reach = next;
    }
    sizes
}

/// Exact Banyan-property test: every (first-stage, last-stage) pair is
/// joined by exactly one directed path.
///
/// Runs [`path_counts_from`] from every source, stopping at the first
/// source with a missing or repeated path; `O(stages · width²)` in the
/// worst case.
pub fn is_banyan<G: MiView>(g: &G) -> bool {
    banyan_violation(g).is_none()
}

/// Returns a witness of a Banyan violation, if any: either a pair that is
/// connected by ≥ 2 paths or a pair with no path at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BanyanViolation {
    /// `(source, sink, count)` with `count >= 2` paths.
    MultiplePaths(u32, u32, u64),
    /// `(source, sink)` with no connecting path.
    NoPath(u32, u32),
}

/// Finds a Banyan violation if one exists (see [`BanyanViolation`]): the
/// first sink, in node order, of the first source whose path counts are
/// not all 1.
pub fn banyan_violation<G: MiView>(g: &G) -> Option<BanyanViolation> {
    (0..g.nodes_per_stage() as u32).find_map(|src| {
        let counts = path_counts_from(g, src);
        counts.iter().enumerate().find_map(|(dst, &c)| match c {
            0 => Some(BanyanViolation::NoPath(src, dst as u32)),
            1 => None,
            _ => Some(BanyanViolation::MultiplePaths(src, dst as u32, c)),
        })
    })
}

/// The unique directed path from first-stage node `src` to last-stage node
/// `dst` in a Banyan MI-digraph, as the sequence of node indices (one per
/// stage). Returns `None` when no path exists, including when `src` or
/// `dst` is not a node of its stage.
///
/// If the digraph is not Banyan the function still returns *some* path when
/// one exists (the lexicographically first one in child order).
pub fn unique_path<G: MiView>(g: &G, src: u32, dst: u32) -> Option<Vec<u32>> {
    let w = g.nodes_per_stage();
    let n = g.stage_count();
    if src as usize >= w || dst as usize >= w {
        return None;
    }
    // Backward reachability from dst so the forward walk can be greedy.
    let mut reaches_dst = vec![vec![false; w]; n];
    reaches_dst[n - 1][dst as usize] = true;
    for s in (0..n.saturating_sub(1)).rev() {
        for v in 0..w as u32 {
            if g.children_of(s, v)
                .as_ref()
                .iter()
                .any(|&c| reaches_dst[s + 1][c as usize])
            {
                reaches_dst[s][v as usize] = true;
            }
        }
    }
    if !reaches_dst[0][src as usize] {
        return None;
    }
    let mut path = vec![src];
    let mut cur = src;
    for s in 0..n - 1 {
        let next = g
            .children_of(s, cur)
            .as_ref()
            .iter()
            .copied()
            .find(|&c| reaches_dst[s + 1][c as usize])?;
        path.push(next);
        cur = next;
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MiDigraph;

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

    /// A graph where two paths converge: both stage-0 nodes send both arcs
    /// to the same pair, and stage 1 funnels into node 0.
    fn convergent() -> MiDigraph {
        let mut g = MiDigraph::new(3, 2);
        g.add_arc(0, 0, 0);
        g.add_arc(0, 0, 1);
        g.add_arc(0, 1, 0);
        g.add_arc(0, 1, 1);
        g.add_arc(1, 0, 0);
        g.add_arc(1, 0, 0); // parallel arcs -> 2 paths to node 0
        g.add_arc(1, 1, 1);
        g.add_arc(1, 1, 1);
        g
    }

    #[test]
    fn baseline_is_banyan() {
        let g = baseline8();
        assert!(is_banyan(&g));
        assert_eq!(banyan_violation(&g), None);
        for src in 0..4u32 {
            assert_eq!(path_counts_from(&g, src), vec![1, 1, 1, 1]);
            assert_eq!(reachable_per_stage(&g, src), vec![1, 2, 4]);
        }
    }

    #[test]
    fn convergent_graph_is_not_banyan() {
        let g = convergent();
        assert!(!is_banyan(&g));
        match banyan_violation(&g).unwrap() {
            BanyanViolation::MultiplePaths(_, _, c) => assert!(c >= 2),
            other => panic!("expected MultiplePaths, got {other:?}"),
        }
    }

    #[test]
    fn missing_arcs_yield_no_path_violation() {
        let mut g = MiDigraph::new(3, 2);
        // Only connect node 0 forward; node 1 of stage 0 is a dead end.
        g.add_arc(0, 0, 0);
        g.add_arc(0, 0, 1);
        g.add_arc(1, 0, 0);
        g.add_arc(1, 1, 1);
        let v = banyan_violation(&g).unwrap();
        assert!(matches!(v, BanyanViolation::NoPath(1, _)));
        assert!(!is_banyan(&g));
    }

    #[test]
    fn unique_path_walks_the_baseline() {
        let g = baseline8();
        for src in 0..4u32 {
            for dst in 0..4u32 {
                let p = unique_path(&g, src, dst).expect("banyan graph: path exists");
                assert_eq!(p.len(), 3);
                assert_eq!(p[0], src);
                assert_eq!(p[2], dst);
                // Every consecutive pair must be an arc.
                for s in 0..2 {
                    assert!(g.children(s, p[s]).contains(&p[s + 1]));
                }
            }
        }
    }

    #[test]
    fn unique_path_returns_none_when_unreachable() {
        let mut g = MiDigraph::new(2, 2);
        g.add_arc(0, 0, 0);
        assert!(unique_path(&g, 0, 1).is_none());
        assert!(unique_path(&g, 1, 1).is_none());
        assert_eq!(unique_path(&g, 0, 0), Some(vec![0, 0]));
        // Endpoints outside the stage have no path either.
        assert!(unique_path(&g, 2, 0).is_none());
        assert!(unique_path(&g, 0, 2).is_none());
    }

    #[test]
    fn single_stage_graph_is_trivially_banyan_on_diagonal_only() {
        let g = MiDigraph::new(1, 4);
        // With one stage there are no arcs; each node reaches only itself.
        assert_eq!(path_counts_from(&g, 2), vec![0, 0, 1, 0]);
        assert!(!is_banyan(&g), "off-diagonal pairs have no path");
        assert_eq!(reachable_per_stage(&g, 0), vec![1]);
    }

    #[test]
    fn reachable_per_stage_reports_saturation() {
        let g = convergent();
        // The reachable set saturates at width 2 instead of doubling to 4,
        // and the path counts show the convergence (2 paths per sink).
        assert_eq!(reachable_per_stage(&g, 0), vec![1, 2, 2]);
        assert_eq!(path_counts_from(&g, 0), vec![2, 2]);
    }
}
