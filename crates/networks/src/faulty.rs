//! Faulty-cell variants of the catalog networks.
//!
//! The stability literature anchored by the paper's networks (3-disjoint-path
//! Omega MINs, wormhole fabrics under switch failures) studies topologies
//! *after* a component dies. This module provides those damaged objects as
//! first-class values so the analysis layers can be pointed at them:
//!
//! * [`stuck_cell`] — a *connection network* whose cell is jammed in one
//!   state: both out-ports collapse onto the same target, producing the
//!   parallel-link redundancy the disjoint-path machinery of `min-routing`
//!   falls back across;
//! * [`link_sites`] — the canonical enumeration of every link of a network,
//!   the site list fault-injection sweeps draw from.
//!
//! Dead links and dead switches are simulated, not built: `min-sim`'s
//! `FaultPlan` injects them into a running fabric.

use min_core::{Connection, ConnectionNetwork};

/// Every link site of the network, in canonical order: stage-major, then
/// cell, then port (0 = `f`, 1 = `g`). A link site is the arc leaving
/// `cell` through `port` of connection `stage`.
pub fn link_sites(net: &ConnectionNetwork) -> Vec<(usize, u32, u8)> {
    let cells = net.cells_per_stage() as u32;
    (0..net.stages() - 1)
        .flat_map(|stage| {
            (0..cells).flat_map(move |cell| (0..2u8).map(move |port| (stage, cell, port)))
        })
        .collect()
}

/// A copy of `net` whose cell at `(stage, cell)` is stuck in one switching
/// state: both out-ports are jammed onto the target normally reached through
/// `port`, creating a pair of parallel links there.
///
/// The damaged network stays 2-out-regular (so it remains a
/// [`ConnectionNetwork`]), but it is no longer proper — the bypassed target
/// loses an in-arc — and some pairs gain a second, link-disjoint path
/// through the parallel arcs while others lose their only one. This is the
/// canonical object for exercising `min-routing`'s disjoint-path fallback.
///
/// # Panics
///
/// Panics when the site is out of range.
pub fn stuck_cell(net: &ConnectionNetwork, stage: usize, cell: u32, port: u8) -> ConnectionNetwork {
    let cells = net.cells_per_stage();
    assert!(stage + 1 < net.stages(), "link stage {stage} out of range");
    assert!((cell as usize) < cells, "cell {cell} out of range");
    assert!(port < 2, "port {port} out of range");
    let connections = net
        .connections()
        .iter()
        .enumerate()
        .map(|(s, conn)| {
            if s != stage {
                return conn.clone();
            }
            let jammed = if port == 0 {
                conn.f(u64::from(cell))
            } else {
                conn.g(u64::from(cell))
            } as u32;
            let mut f = conn.f_table().to_vec();
            let mut g = conn.g_table().to_vec();
            f[cell as usize] = jammed;
            g[cell as usize] = jammed;
            Connection::from_tables(net.width(), f, g)
        })
        .collect();
    ConnectionNetwork::new(net.width(), connections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ClassicalNetwork;
    use min_graph::paths::path_counts_from;

    #[test]
    fn link_sites_enumerate_every_arc_once() {
        let net = ClassicalNetwork::Omega.build(4);
        let sites = link_sites(&net);
        assert_eq!(sites.len(), (net.stages() - 1) * net.cells_per_stage() * 2);
        assert_eq!(sites[0], (0, 0, 0));
        assert_eq!(sites[1], (0, 0, 1));
        let unique: std::collections::HashSet<_> = sites.iter().collect();
        assert_eq!(unique.len(), sites.len());
    }

    #[test]
    fn a_stuck_cell_creates_parallel_links_and_multipath_redundancy() {
        let net = ClassicalNetwork::Omega.build(3);
        let jammed = stuck_cell(&net, 0, 0, 0);
        assert!(jammed.connection(0).has_parallel_links());
        assert!(!jammed.is_proper(), "the bypassed target lost an in-arc");
        // Paths through the jammed cell double; paths through the bypassed
        // target vanish.
        let counts = path_counts_from(&jammed.to_digraph(), 0);
        assert!(counts.iter().any(|&c| c >= 2), "parallel-arc multipath");
        assert!(counts.contains(&0), "severed pairs");
        // The other stages are untouched.
        assert_eq!(jammed.connection(1), net.connection(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_sites_panic() {
        let net = ClassicalNetwork::Omega.build(3);
        let _ = stuck_cell(&net, 9, 0, 0);
    }
}
