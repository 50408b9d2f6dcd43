//! Connected components of stage intervals `(G)_{i,j}`.
//!
//! The paper's `P(i,j)` property says that the sub-digraph `(G)_{i,j}`
//! (stages `i` through `j`, undirected) has exactly `2^{n-1-(j-i)}`
//! connected components. `P(1,*)` and `P(*,n)` quantify this over all
//! prefixes / suffixes. This module provides:
//!
//! * [`component_count_range`] / [`component_ids_range`] — components of an
//!   arbitrary interval, from scratch;
//! * [`prefix_sweep`] / [`suffix_sweep`] — *incremental* computations of all
//!   prefixes `(G)_{1,j}` (resp. suffixes `(G)_{i,n}`) in a single pass,
//!   which is what the `P(1,*)`/`P(*,n)` checkers and the constructive
//!   Baseline isomorphism use.
//!
//! Every function takes any [`MiView`], so a network's connection tables
//! are read directly.
//!
//! All stage indices here are 0-based.

use crate::union_find::UnionFind;
use crate::view::MiView;

/// Components of one stage interval.
#[derive(Debug, Clone)]
pub struct RangeComponents {
    /// First stage of the interval (0-based, inclusive).
    pub lo: usize,
    /// Last stage of the interval (0-based, inclusive).
    pub hi: usize,
    /// Number of connected components of the undirected subgraph.
    pub count: usize,
    /// `ids[s - lo][v]` = component id of node `v` of stage `s`; ids are
    /// compact (`0 .. count`) and numbered by first appearance scanning
    /// stages then node indices.
    pub ids: Vec<Vec<u32>>,
}

impl RangeComponents {
    /// Component id of node `v` of (absolute) stage `s`.
    pub fn id(&self, s: usize, v: u32) -> u32 {
        self.ids[s - self.lo][v as usize]
    }

    /// The members of every component, as `(stage, node)` pairs grouped by
    /// component id.
    pub fn members(&self) -> Vec<Vec<(usize, u32)>> {
        let mut out = vec![Vec::new(); self.count];
        for (off, stage_ids) in self.ids.iter().enumerate() {
            for (v, &c) in stage_ids.iter().enumerate() {
                out[c as usize].push((self.lo + off, v as u32));
            }
        }
        out
    }

    /// How many nodes of (absolute) stage `s` each component contains.
    ///
    /// Lemma 2 of the paper shows that for Banyan graphs built with
    /// independent connections every component of `(G)_{j,n}` intersects
    /// every stage in the same number of nodes; this accessor is what the
    /// corresponding tests inspect.
    pub fn stage_intersection_sizes(&self, s: usize) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.ids[s - self.lo] {
            sizes[c as usize] += 1;
        }
        sizes
    }
}

/// Number of connected components of `(G)_{lo,hi}` (undirected).
pub fn component_count_range<G: MiView>(g: &G, lo: usize, hi: usize) -> usize {
    component_ids_range(g, lo, hi).count
}

/// Connected components of `(G)_{lo,hi}` (undirected), with per-node ids.
pub fn component_ids_range<G: MiView>(g: &G, lo: usize, hi: usize) -> RangeComponents {
    assert!(lo <= hi && hi < g.stage_count(), "invalid stage interval");
    let w = g.nodes_per_stage();
    let span = hi - lo + 1;
    let mut uf = UnionFind::new(span * w);
    let idx = |s: usize, v: u32| ((s - lo) * w + v as usize) as u32;
    for s in lo..hi {
        for v in 0..w as u32 {
            for &c in g.children_of(s, v).as_ref() {
                uf.union(idx(s, v), idx(s + 1, c));
            }
        }
    }
    let flat_ids = uf.component_ids();
    let ids: Vec<Vec<u32>> = (0..span)
        .map(|off| flat_ids[off * w..(off + 1) * w].to_vec())
        .collect();
    RangeComponents {
        lo,
        hi,
        count: uf.component_count(),
        ids,
    }
}

/// Result of an incremental prefix or suffix component sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// For a prefix sweep, `counts[j]` = number of components of
    /// `(G)_{0..=j}`; for a suffix sweep, `counts[i]` = number of components
    /// of `(G)_{i..=last}`.
    pub counts: Vec<usize>,
    /// For a prefix sweep, `stage_ids[j][v]` = component id of node `v` of
    /// stage `j` **within** `(G)_{0..=j}`; for a suffix sweep, within
    /// `(G)_{j..=last}`. Ids are compact per entry and numbered by first
    /// appearance over increasing node index.
    pub stage_ids: Vec<Vec<u32>>,
}

/// Per-stage component ids produced by a sweep (type alias used in public
/// signatures for readability).
pub type StageComponentIds = Vec<Vec<u32>>;

/// Incremental components of every prefix `(G)_{0..=j}`.
///
/// A single union-find is grown stage by stage; after stage `j` is absorbed
/// the structure is exactly the undirected `(G)_{0..=j}`, so both the global
/// component count and the component ids of stage-`j` nodes can be read off.
/// Total cost is `O(E α(V))` for **all** prefixes together.
pub fn prefix_sweep<G: MiView>(g: &G) -> SweepResult {
    sweep(g, false)
}

/// Incremental components of every suffix `(G)_{i..=last}`: the same pass
/// as [`prefix_sweep`], absorbing the stages from the last one down.
pub fn suffix_sweep<G: MiView>(g: &G) -> SweepResult {
    sweep(g, true)
}

/// The union-find pass behind both sweeps. Each newly absorbed stage `s` is
/// joined to the previously absorbed one through the arcs between them,
/// united tail first, in tail-node order.
fn sweep<G: MiView>(g: &G, from_last: bool) -> SweepResult {
    let w = g.nodes_per_stage();
    let n = g.stage_count();
    let mut uf = UnionFind::new(n * w);
    let mut root_ids = vec![u32::MAX; n * w];
    let idx = |s: usize, v: u32| (s * w + v as usize) as u32;
    let mut counts = vec![0usize; n];
    let mut stage_ids = vec![Vec::new(); n];
    let mut merges = 0usize;
    // `k` stages have been absorbed before stage `s`.
    for k in 0..n {
        let s = if from_last { n - 1 - k } else { k };
        if k > 0 {
            let tail = if from_last { s } else { s - 1 };
            for v in 0..w as u32 {
                for &c in g.children_of(tail, v).as_ref() {
                    if uf.union(idx(tail, v), idx(tail + 1, c)) {
                        merges += 1;
                    }
                }
            }
        }
        counts[s] = (k + 1) * w - merges;
        stage_ids[s] = uf.compact_ids(idx(s, 0)..idx(s + 1, 0), &mut root_ids);
    }
    SweepResult { counts, stage_ids }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MiDigraph;

    /// The 3-stage, width-4 Baseline MI-digraph built by hand:
    /// stage 0 -> 1: v -> { v>>1, (v>>1) | 2 } ; stage 1 -> 2 within halves.
    fn baseline8() -> MiDigraph {
        let mut g = MiDigraph::new(3, 4);
        for v in 0..4u32 {
            g.add_arc(0, v, v >> 1);
            g.add_arc(0, v, (v >> 1) | 2);
        }
        for v in 0..4u32 {
            let high = v & 2;
            let low = v & 1;
            let _ = low;
            g.add_arc(1, v, high);
            g.add_arc(1, v, high | 1);
        }
        g
    }

    #[test]
    fn whole_graph_is_connected() {
        let g = baseline8();
        assert_eq!(component_count_range(&g, 0, 2), 1);
    }

    #[test]
    fn single_stage_has_one_component_per_node() {
        let g = baseline8();
        assert_eq!(component_count_range(&g, 1, 1), 4);
        assert_eq!(component_count_range(&g, 2, 2), 4);
    }

    #[test]
    fn suffix_interval_splits_into_halves() {
        let g = baseline8();
        let rc = component_ids_range(&g, 1, 2);
        assert_eq!(rc.count, 2, "(G)_{{2,3}} of the Baseline has 2 components");
        // Components are the top half {0,1} and bottom half {2,3} in both stages.
        assert_eq!(rc.id(1, 0), rc.id(1, 1));
        assert_eq!(rc.id(2, 0), rc.id(2, 1));
        assert_eq!(rc.id(1, 0), rc.id(2, 0));
        assert_ne!(rc.id(1, 0), rc.id(1, 2));
        let sizes = rc.stage_intersection_sizes(1);
        assert_eq!(sizes, vec![2, 2]);
    }

    #[test]
    fn prefix_interval_pairs_up_nodes() {
        let g = baseline8();
        let rc = component_ids_range(&g, 0, 1);
        assert_eq!(rc.count, 2);
        // Stage-0 nodes 0 and 1 share both children (0 and 2), so they are in
        // the same prefix component; similarly 2 and 3.
        assert_eq!(rc.id(0, 0), rc.id(0, 1));
        assert_eq!(rc.id(0, 2), rc.id(0, 3));
        assert_ne!(rc.id(0, 0), rc.id(0, 2));
    }

    #[test]
    fn prefix_sweep_matches_from_scratch_counts() {
        let g = baseline8();
        let sweep = prefix_sweep(&g);
        for j in 0..3 {
            assert_eq!(
                sweep.counts[j],
                component_count_range(&g, 0, j),
                "prefix 0..={j}"
            );
        }
        // P(1,*) for the Baseline: counts must be 2^{n-1-j} = 4, 2, 1.
        assert_eq!(sweep.counts, vec![4, 2, 1]);
    }

    #[test]
    fn suffix_sweep_matches_from_scratch_counts() {
        let g = baseline8();
        let sweep = suffix_sweep(&g);
        for i in 0..3 {
            assert_eq!(
                sweep.counts[i],
                component_count_range(&g, i, 2),
                "suffix {i}..=2"
            );
        }
        assert_eq!(sweep.counts, vec![1, 2, 4]);
    }

    #[test]
    fn sweep_stage_ids_agree_with_range_ids_up_to_renaming() {
        let g = baseline8();
        let sweep = suffix_sweep(&g);
        for i in 0..3 {
            let rc = component_ids_range(&g, i, 2);
            let sweep_ids = &sweep.stage_ids[i];
            // Same partition of stage-i nodes, possibly different id names.
            for a in 0..4 {
                for b in 0..4 {
                    let same_in_sweep = sweep_ids[a] == sweep_ids[b];
                    let same_in_range = rc.id(i, a as u32) == rc.id(i, b as u32);
                    assert_eq!(same_in_sweep, same_in_range);
                }
            }
        }
    }

    #[test]
    fn disconnected_stages_without_arcs_are_all_singletons() {
        let g = MiDigraph::new(4, 3);
        let sweep = prefix_sweep(&g);
        assert_eq!(sweep.counts, vec![3, 6, 9, 12]);
        let sweep = suffix_sweep(&g);
        assert_eq!(sweep.counts, vec![12, 9, 6, 3]);
    }

    #[test]
    fn members_partition_all_nodes() {
        let g = baseline8();
        let rc = component_ids_range(&g, 0, 2);
        let members = rc.members();
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, g.node_count());
    }

    #[test]
    #[should_panic(expected = "invalid stage interval")]
    fn invalid_interval_panics() {
        let g = baseline8();
        let _ = component_count_range(&g, 2, 1);
    }
}
