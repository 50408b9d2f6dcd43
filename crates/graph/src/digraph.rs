//! The MI-digraph data structure: construction, degree queries, the
//! regularity check, and the DOT, text and JSON forms.
//!
//! The characterization and the network algebra run on a network's
//! connection tables through [`MiView`]; an [`MiDigraph`] is what a network
//! is written to and read from, and what a hand-built or file-loaded graph
//! is given as.

use crate::view::MiView;
use serde::{map_get, Deserialize, Error, Serialize, Value};

/// A multistage interconnection digraph.
///
/// Nodes are partitioned into `stages` ordered stages of `width` nodes each;
/// arcs go only from stage `s` to stage `s+1`. Parallel arcs are allowed
/// (they arise from the degenerate PIPID stages of Fig. 5) and degrees are
/// not constrained by the data structure — the paper's regularity
/// requirements are checked by [`MiDigraph::is_proper`].
///
/// Each node keeps its children and its parents in insertion order, and
/// `==` compares them in that order.
///
/// The JSON shape is `{"stages", "width", "fwd", "bwd"}`, the fields below
/// in order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MiDigraph {
    stages: usize,
    width: usize,
    /// `fwd[s][v]` = children (stage `s+1` indices) of node `v` of stage
    /// `s`; `fwd.len() == stages - 1`.
    fwd: Vec<Vec<Vec<u32>>>,
    /// `bwd[s][v]` = parents (stage `s-1` indices) of node `v` of stage `s`;
    /// the lists of `bwd[0]` are always empty.
    bwd: Vec<Vec<Vec<u32>>>,
}

impl MiDigraph {
    /// Creates an MI-digraph with the given number of stages and nodes per
    /// stage and no arcs.
    pub fn new(stages: usize, width: usize) -> Self {
        assert!(stages >= 1, "an MI-digraph needs at least one stage");
        assert!(width >= 1, "each stage needs at least one node");
        MiDigraph {
            stages,
            width,
            fwd: vec![vec![Vec::new(); width]; stages - 1],
            bwd: vec![vec![Vec::new(); width]; stages],
        }
    }

    /// Materializes any [`MiView`]: the arcs of every non-final stage, in
    /// node order and, per node, in the view's child order.
    pub fn from_view<V: MiView>(view: &V) -> Self {
        let mut g = MiDigraph::new(view.stage_count(), view.nodes_per_stage());
        for s in 0..g.stages - 1 {
            for v in 0..g.width as u32 {
                for &c in view.children_of(s, v).as_ref() {
                    g.add_arc(s, v, c);
                }
            }
        }
        g
    }

    /// Number of stages (`n` in the paper).
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Nodes per stage (`N/2 = 2^{n-1}` for the paper's networks).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.stages * self.width
    }

    /// Total number of arcs.
    pub fn arc_count(&self) -> usize {
        self.fwd.iter().flatten().map(Vec::len).sum()
    }

    /// Adds an arc from node `from` of stage `stage` to node `to` of stage
    /// `stage + 1`. Parallel arcs are permitted.
    #[inline]
    pub fn add_arc(&mut self, stage: usize, from: u32, to: u32) {
        assert!(
            stage + 1 < self.stages,
            "arc source stage {stage} has no successor stage"
        );
        assert!((from as usize) < self.width, "source index out of range");
        assert!((to as usize) < self.width, "target index out of range");
        self.fwd[stage][from as usize].push(to);
        self.bwd[stage + 1][to as usize].push(from);
    }

    /// Children of node `v` of stage `stage` (empty for the last stage).
    #[inline]
    pub fn children(&self, stage: usize, v: u32) -> &[u32] {
        if stage + 1 >= self.stages {
            &[]
        } else {
            &self.fwd[stage][v as usize]
        }
    }

    /// Parents of node `v` of stage `stage` (empty for the first stage).
    #[inline]
    pub fn parents(&self, stage: usize, v: u32) -> &[u32] {
        &self.bwd[stage][v as usize]
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, stage: usize, v: u32) -> usize {
        self.children(stage, v).len()
    }

    /// In-degree of a node.
    pub fn in_degree(&self, stage: usize, v: u32) -> usize {
        self.parents(stage, v).len()
    }

    /// Iterates over all arcs as `(stage, from, to)` triples.
    pub fn arcs(&self) -> impl Iterator<Item = (usize, u32, u32)> + '_ {
        self.fwd.iter().enumerate().flat_map(|(s, stage)| {
            stage
                .iter()
                .enumerate()
                .flat_map(move |(v, kids)| kids.iter().map(move |&c| (s, v as u32, c)))
        })
    }

    /// Checks the regularity requirements of the paper's MI-digraph
    /// definition: every node of a non-final stage has out-degree 2, every
    /// node of a non-initial stage has in-degree 2, and arcs only join
    /// consecutive stages (guaranteed structurally).
    ///
    /// Note that the paper additionally requires `width = 2^{stages - 1}`;
    /// that is a property of the *networks*, not of the digraph container,
    /// and is checked by `min-core`.
    pub fn is_proper(&self) -> bool {
        for s in 0..self.stages {
            for v in 0..self.width as u32 {
                if s + 1 < self.stages && self.out_degree(s, v) != 2 {
                    return false;
                }
                if s > 0 && self.in_degree(s, v) != 2 {
                    return false;
                }
            }
        }
        true
    }
}

/// Rebuilds the digraph from `fwd` by checked arc insertion, then requires
/// `bwd` to hold the same parents (keeping its order, so a round trip
/// preserves `==`). Inconsistent input is an [`Error`], never a panic.
impl Deserialize for MiDigraph {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let entries = v
            .as_map()
            .ok_or_else(|| Error::custom("expected an MI-digraph map"))?;
        let stages = usize::from_value(map_get(entries, "stages")?)?;
        let width = usize::from_value(map_get(entries, "width")?)?;
        let fwd = Vec::<Vec<Vec<u32>>>::from_value(map_get(entries, "fwd")?)?;
        let bwd = Vec::<Vec<Vec<u32>>>::from_value(map_get(entries, "bwd")?)?;
        if stages == 0 || width == 0 {
            return Err(Error::custom(
                "an MI-digraph needs at least one stage and one node per stage",
            ));
        }
        if fwd.len() != stages - 1 || bwd.len() != stages {
            return Err(Error::custom(format!(
                "{stages} stages need {} fwd and {stages} bwd stage lists, got {} and {}",
                stages - 1,
                fwd.len(),
                bwd.len()
            )));
        }
        if fwd.iter().chain(&bwd).any(|stage| stage.len() != width) {
            return Err(Error::custom(format!(
                "every stage list needs one entry per node ({width})"
            )));
        }
        let mut g = MiDigraph::new(stages, width);
        for (s, stage) in fwd.iter().enumerate() {
            for (from, kids) in stage.iter().enumerate() {
                for &to in kids {
                    if to as usize >= width {
                        return Err(Error::custom(format!(
                            "child {to} of node {from} of stage {s} is out of range (width {width})"
                        )));
                    }
                    g.add_arc(s, from as u32, to);
                }
            }
        }
        for (s, stage) in bwd.iter().enumerate() {
            for (v, parents) in stage.iter().enumerate() {
                let mut given = parents.clone();
                given.sort_unstable();
                let mut rebuilt = g.parents(s, v as u32).to_vec();
                rebuilt.sort_unstable();
                if given != rebuilt {
                    return Err(Error::custom(format!(
                        "bwd disagrees with fwd at node {v} of stage {s}"
                    )));
                }
                g.bwd[s][v].copy_from_slice(parents);
            }
        }
        Ok(g)
    }
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
    fn construction_counts_nodes_and_arcs() {
        let g = sample();
        assert_eq!(g.stages(), 3);
        assert_eq!(g.width(), 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.arc_count(), 16);
    }

    #[test]
    fn adjacency_is_recorded_in_both_directions() {
        let g = sample();
        assert_eq!(g.children(0, 1), &[1, 3]);
        let mut parents = g.parents(1, 3).to_vec();
        parents.sort_unstable();
        assert_eq!(parents, vec![1, 3]);
        assert!(g.children(2, 0).is_empty(), "last stage has no children");
        assert!(g.parents(0, 0).is_empty(), "first stage has no parents");
    }

    #[test]
    fn degrees_and_properness() {
        let g = sample();
        assert!(g.is_proper());
        let mut h = MiDigraph::new(3, 4);
        h.add_arc(0, 0, 0);
        assert!(!h.is_proper());
    }

    #[test]
    fn parallel_arcs_are_representable_and_detected() {
        let mut g = MiDigraph::new(2, 2);
        g.add_arc(0, 0, 1);
        g.add_arc(0, 0, 1);
        g.add_arc(0, 1, 0);
        g.add_arc(0, 1, 0);
        assert_eq!(g.children(0, 0), &[1, 1]);
        assert_eq!(g.parents(1, 0), &[1, 1]);
        assert!(g.is_proper(), "degree-wise the graph is still 2-regular");
    }

    /// Degrees past the paper's 2 keep insertion order and survive a JSON
    /// round trip.
    #[test]
    fn lists_outgrow_the_initial_stride_in_order() {
        let mut g = MiDigraph::new(2, 3);
        for c in [2, 0, 1, 1, 2] {
            g.add_arc(0, 1, c);
        }
        g.add_arc(0, 0, 2);
        assert_eq!(g.children(0, 1), &[2, 0, 1, 1, 2]);
        assert_eq!(g.children(0, 0), &[2]);
        assert_eq!(g.parents(1, 2), &[1, 1, 0]);
        assert_eq!(g.out_degree(0, 2), 0);
        assert_eq!(g.arc_count(), 6);
        let back: MiDigraph = serde_json::from_str(&serde_json::to_string(&g).unwrap()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn json_keeps_the_nested_list_shape() {
        let mut g = MiDigraph::new(2, 2);
        g.add_arc(0, 1, 0);
        g.add_arc(0, 0, 0);
        let json = serde_json::to_string(&g).unwrap();
        assert_eq!(
            json,
            r#"{"stages":2,"width":2,"fwd":[[[0],[0]]],"bwd":[[[],[]],[[1,0],[]]]}"#
        );
        let back: MiDigraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g, "bwd order survives the round trip");
    }

    #[test]
    fn hostile_json_is_an_error_not_a_panic() {
        let hostile = [
            // Lists missing for every stage.
            r#"{"stages":3,"width":4,"fwd":[],"bwd":[]}"#,
            // A child beyond the width.
            r#"{"stages":2,"width":2,"fwd":[[[7],[]]],"bwd":[[[],[]],[[],[]]]}"#,
            // No stages, no nodes.
            r#"{"stages":0,"width":2,"fwd":[],"bwd":[]}"#,
            r#"{"stages":1,"width":0,"fwd":[],"bwd":[[]]}"#,
            // One node list short.
            r#"{"stages":2,"width":2,"fwd":[[[0]]],"bwd":[[[],[]],[[0],[]]]}"#,
            // bwd names a parent fwd does not have, or misses one.
            r#"{"stages":2,"width":2,"fwd":[[[0],[]]],"bwd":[[[],[]],[[1],[]]]}"#,
            r#"{"stages":2,"width":2,"fwd":[[[0],[0]]],"bwd":[[[],[]],[[0],[]]]}"#,
            r#"{"stages":2,"width":2,"fwd":[[[],[]]],"bwd":[[[1],[]],[[],[]]]}"#,
        ];
        for json in hostile {
            assert!(
                serde_json::from_str::<MiDigraph>(json).is_err(),
                "accepted {json}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no successor stage")]
    fn adding_arc_from_last_stage_panics() {
        let mut g = MiDigraph::new(2, 2);
        g.add_arc(1, 0, 0);
    }
}
