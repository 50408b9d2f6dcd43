//! Networks as sequences of connections.
//!
//! An `n`-stage MIN on `N = 2^n` terminals is, in the paper's model, an
//! MI-digraph whose stages are joined by `n-1` connections. A
//! [`ConnectionNetwork`] is exactly that: the common cell-label width plus
//! the ordered list of connections. It is an [`MiView`] of its own tables,
//! which is all the characterization reads, and it reverses itself on its
//! tables too. The plain [`MiDigraph`] of `min-graph` is only for input and
//! output: [`ConnectionNetwork::to_digraph`] writes one (always possible),
//! and [`ConnectionNetwork::from_digraph`] reads one back when every
//! interior node has out-degree exactly 2, so that an `(f, g)`
//! decomposition exists.

use crate::connection::{Connection, InArcs};
use crate::reverse::reverse_connection;
use min_graph::{MiDigraph, MiView};
use min_labels::Width;

/// A multistage interconnection network given by its inter-stage
/// connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionNetwork {
    width: Width,
    connections: Vec<Connection>,
}

impl ConnectionNetwork {
    /// Builds a network from a list of connections (all of the same width).
    ///
    /// `connections.len()` is the number of inter-stage links, so the network
    /// has `connections.len() + 1` stages and `2^{width+1}` terminals.
    pub fn new(width: Width, connections: Vec<Connection>) -> Self {
        min_labels::check_width(width);
        for (i, c) in connections.iter().enumerate() {
            assert_eq!(
                c.width(),
                width,
                "connection {i} has width {} but the network expects {width}",
                c.width()
            );
        }
        ConnectionNetwork { width, connections }
    }

    /// Cell-label width (the paper's `n-1`).
    pub fn width(&self) -> Width {
        self.width
    }

    /// Number of stages (`n`).
    pub fn stages(&self) -> usize {
        self.connections.len() + 1
    }

    /// Number of cells per stage (`N/2`).
    pub fn cells_per_stage(&self) -> usize {
        1usize << self.width
    }

    /// Number of network terminals (`N = 2 · cells_per_stage`).
    pub fn terminals(&self) -> usize {
        self.cells_per_stage() * 2
    }

    /// The connections, first stage first.
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// The connection between stage `i` and stage `i+1` (0-based).
    pub fn connection(&self, i: usize) -> &Connection {
        &self.connections[i]
    }

    /// `true` when every connection is 2-regular, i.e. the induced digraph
    /// satisfies the paper's in/out-degree requirements.
    pub fn is_proper(&self) -> bool {
        self.connections.iter().all(Connection::is_two_regular)
    }

    /// `true` when some stage has parallel links (Fig. 5 degeneracy).
    pub fn has_parallel_links(&self) -> bool {
        self.connections.iter().any(Connection::has_parallel_links)
    }

    /// Expands the network into an [`MiDigraph`]: cell `x` of stage `s`
    /// gets the arcs to `f(x)` and `g(x)`, in that order.
    ///
    /// The characterization does not need this: the network is itself an
    /// [`MiView`], so the sweeps and the verification read its tables.
    pub fn to_digraph(&self) -> MiDigraph {
        MiDigraph::from_view(self)
    }

    /// Recovers a connection network from a digraph whose interior nodes all
    /// have out-degree 2. The assignment of the two children to `f` and `g`
    /// is arbitrary (first child listed becomes `f`); the induced digraph is
    /// identical either way.
    pub fn from_digraph(g: &MiDigraph) -> Option<ConnectionNetwork> {
        let cells = g.width();
        if !cells.is_power_of_two() {
            return None;
        }
        let width = cells.trailing_zeros() as usize;
        let mut connections = Vec::with_capacity(g.stages().saturating_sub(1));
        for s in 0..g.stages().saturating_sub(1) {
            let mut f = Vec::with_capacity(cells);
            let mut gt = Vec::with_capacity(cells);
            for v in 0..cells as u32 {
                let kids = g.children(s, v);
                if kids.len() != 2 {
                    return None;
                }
                f.push(kids[0]);
                gt.push(kids[1]);
            }
            connections.push(Connection::from_tables(width, f, gt));
        }
        Some(ConnectionNetwork { width, connections })
    }

    /// The reverse network `G⁻¹`, last stage first, read off each stage's
    /// in-arcs: the two parents of a cell in arc order (source ascending,
    /// `f` before `g`) become its `f` and `g` children, the decomposition
    /// [`ConnectionNetwork::from_digraph`] gives the reversed digraph.
    /// `None` when some in-degree is not 2.
    pub fn reverse(&self) -> Option<ConnectionNetwork> {
        let stages = self.connections.iter().rev();
        let connections: Option<Vec<_>> = stages
            .map(|conn| {
                let parents: Vec<[u32; 2]> = conn
                    .in_arcs()
                    .iter()
                    .map(InArcs::parents)
                    .collect::<Option<_>>()?;
                let table = |i: usize| parents.iter().map(|p| p[i]).collect();
                Some(Connection::from_tables(self.width, table(0), table(1)))
            })
            .collect();
        Some(ConnectionNetwork::new(self.width, connections?))
    }

    /// The reverse network with every stage decomposed by Proposition 1
    /// (requires every stage to be a proper independent connection). Its
    /// `f`/`g` choice can differ from [`ConnectionNetwork::reverse`]'s.
    pub fn reverse_via_proposition1(
        &self,
    ) -> Result<ConnectionNetwork, crate::error::ReverseError> {
        let stages = self.connections.iter().rev();
        let connections: Result<Vec<_>, _> = stages.map(reverse_connection).collect();
        Ok(ConnectionNetwork::new(self.width, connections?))
    }
}

/// The network's own `f`/`g` tables as an MI-digraph: the children of cell
/// `v` of stage `s` are `[f(v), g(v)]`, the order [`ConnectionNetwork::to_digraph`]
/// inserts them in.
impl MiView for ConnectionNetwork {
    fn stage_count(&self) -> usize {
        self.stages()
    }

    fn nodes_per_stage(&self) -> usize {
        self.cells_per_stage()
    }

    #[inline]
    fn children_of(&self, stage: usize, v: u32) -> impl AsRef<[u32]> {
        let conn = &self.connections[stage];
        [conn.f_table()[v as usize], conn.g_table()[v as usize]]
    }

    fn is_proper(&self) -> bool {
        ConnectionNetwork::is_proper(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independence::is_independent;
    use iso_search::digraph::{reverse, same_arcs};

    /// The canonical 3-stage Baseline as a connection network.
    fn baseline3() -> ConnectionNetwork {
        let c0 = Connection::from_fn(2, |x| x >> 1, |x| (x >> 1) | 0b10);
        let c1 = Connection::from_fn(2, |x| x & 0b10, |x| (x & 0b10) | 1);
        ConnectionNetwork::new(2, vec![c0, c1])
    }

    #[test]
    fn shape_accessors() {
        let net = baseline3();
        assert_eq!(net.stages(), 3);
        assert_eq!(net.width(), 2);
        assert_eq!(net.cells_per_stage(), 4);
        assert_eq!(net.terminals(), 8);
        assert!(net.is_proper());
        assert!(!net.has_parallel_links());
        assert_eq!(net.connections().len(), 2);
        assert_eq!(net.connection(0).f(3), 1);
    }

    #[test]
    fn to_digraph_produces_the_expected_arcs() {
        let net = baseline3();
        let g = net.to_digraph();
        assert_eq!(g.stages(), 3);
        assert_eq!(g.width(), 4);
        assert_eq!(g.arc_count(), 16);
        assert!(g.is_proper());
        assert!(g.children(0, 3).contains(&1));
        assert!(g.children(0, 3).contains(&3));
    }

    #[test]
    fn from_digraph_round_trips_the_structure() {
        let net = baseline3();
        let g = net.to_digraph();
        let back = ConnectionNetwork::from_digraph(&g).expect("2-regular digraph decomposes");
        assert!(same_arcs(&back.to_digraph(), &g));
        assert_eq!(back.stages(), net.stages());
    }

    #[test]
    fn from_digraph_rejects_irregular_graphs() {
        let mut g = MiDigraph::new(2, 2);
        g.add_arc(0, 0, 0);
        assert!(ConnectionNetwork::from_digraph(&g).is_none());
        let h = MiDigraph::new(2, 3);
        assert!(
            ConnectionNetwork::from_digraph(&h).is_none(),
            "width must be a power of two"
        );
    }

    #[test]
    fn reverse_reverses_the_digraph() {
        let net = baseline3();
        let rev = net.reverse().expect("proper network reverses");
        assert!(same_arcs(&rev.to_digraph(), &reverse(&net.to_digraph())));
    }

    #[test]
    fn reverse_via_proposition1_matches_the_digraph_reverse() {
        let net = baseline3();
        let rev = net.reverse_via_proposition1().expect("independent stages");
        assert!(same_arcs(&rev.to_digraph(), &reverse(&net.to_digraph())));
        for conn in rev.connections() {
            assert!(is_independent(conn), "Proposition 1 preserves independence");
        }
    }

    #[test]
    #[should_panic(expected = "has width")]
    fn mismatched_connection_widths_are_rejected() {
        let c0 = Connection::from_fn(2, |x| x, |x| x ^ 1);
        let c1 = Connection::from_fn(3, |x| x, |x| x ^ 1);
        let _ = ConnectionNetwork::new(2, vec![c0, c1]);
    }
}
