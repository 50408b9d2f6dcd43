//! A read-only view of a staged digraph's arcs.
//!
//! The characterization asks a network only four things: how many stages
//! it has, how many nodes each stage holds, which children a node has, and
//! whether every degree is 2. [`MiView`] is exactly those four questions.
//! Every §2 algorithm that reads only children is written against it: the
//! path counts and the Banyan test of [`crate::paths`], the components and
//! sweeps of [`crate::components`], `min-core`'s `P(i,j)` properties,
//! characterization report and component tries, and
//! [`crate::iso::verify_stage_mapping`]. They run unchanged on an
//! [`MiDigraph`], on a network's own connection tables (`min-core`'s
//! `ConnectionNetwork`) or on a closed-form formula (`min-core`'s
//! `BaselineView`), and no digraph has to be materialized first. Only
//! what needs parents, a reversal or a file takes an [`MiDigraph`].

use crate::digraph::MiDigraph;

/// Read-only access to the arcs of a staged digraph.
///
/// The two size methods are named apart from the inherent `stages()` and
/// `width()` of the implementing types: a `ConnectionNetwork`'s `width()`
/// counts label bits, not nodes.
pub trait MiView {
    /// Number of stages (`n` in the paper).
    fn stage_count(&self) -> usize;

    /// Nodes per stage (`N/2 = 2^{n-1}` for the paper's networks).
    fn nodes_per_stage(&self) -> usize;

    /// Children (stage `stage + 1` indices) of node `v` of stage `stage`,
    /// with multiplicity and in a fixed order. `stage` must not be the last
    /// stage.
    fn children_of(&self, stage: usize, v: u32) -> impl AsRef<[u32]>;

    /// `true` when every node of a non-final stage has out-degree 2 and
    /// every node of a non-initial stage has in-degree 2.
    fn is_proper(&self) -> bool;
}

impl MiView for MiDigraph {
    fn stage_count(&self) -> usize {
        self.stages()
    }

    fn nodes_per_stage(&self) -> usize {
        self.width()
    }

    #[inline]
    fn children_of(&self, stage: usize, v: u32) -> impl AsRef<[u32]> {
        self.children(stage, v)
    }

    fn is_proper(&self) -> bool {
        MiDigraph::is_proper(self)
    }
}
