//! Unique paths in Banyan networks.
//!
//! Terminals are numbered `0 .. N-1`; input terminal `t` is wired to port
//! `t mod 2` of first-stage cell `t div 2`, and output terminal `t` to port
//! `t mod 2` of last-stage cell `t div 2` (the natural order of the paper's
//! drawings).

use min_core::ConnectionNetwork;
use min_graph::paths::unique_path;
use serde::{Deserialize, Serialize};

/// A path through the network at cell granularity: one cell per stage and
/// the out-port (0 = `f`, 1 = `g`) taken after each non-final stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellPath {
    /// The cell visited at every stage.
    pub cells: Vec<u32>,
    /// The out-port taken at every non-final stage (`ports.len() ==
    /// cells.len() - 1`).
    pub ports: Vec<u8>,
}

/// A terminal-to-terminal route: the input/output terminals plus the cell
/// path between them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TerminalRoute {
    /// Input terminal (`0 .. N-1`).
    pub input: u64,
    /// Output terminal (`0 .. N-1`).
    pub output: u64,
    /// The path through the cells.
    pub path: CellPath,
}

/// Computes the cell-level path from first-stage cell `src` to last-stage
/// cell `dst`, if one exists. A cell at or beyond the cell count has no
/// path.
pub fn route_cells(net: &ConnectionNetwork, src: u64, dst: u64) -> Option<CellPath> {
    let cells = unique_path(net, u32::try_from(src).ok()?, u32::try_from(dst).ok()?)?;
    // Every hop is `f` or `g` of its cell; prefer reporting port 0 when
    // both reach the child (parallel links).
    let ports = cells
        .windows(2)
        .enumerate()
        .map(|(s, hop)| {
            let f = net.connection(s).f(u64::from(hop[0]));
            u8::from(f != u64::from(hop[1]))
        })
        .collect();
    Some(CellPath { cells, ports })
}

/// Computes the terminal-to-terminal route.
pub fn route_terminals(net: &ConnectionNetwork, input: u64, output: u64) -> Option<TerminalRoute> {
    let n_terminals = net.terminals() as u64;
    if input >= n_terminals || output >= n_terminals {
        return None;
    }
    let path = route_cells(net, input >> 1, output >> 1)?;
    Some(TerminalRoute {
        input,
        output,
        path,
    })
}

/// Checks that a [`CellPath`] is consistent with the network (every hop is a
/// real arc reached through the recorded port).
pub fn verify_cell_path(net: &ConnectionNetwork, path: &CellPath) -> bool {
    if path.cells.len() != net.stages() || path.ports.len() + 1 != path.cells.len() {
        return false;
    }
    for (s, window) in path.cells.windows(2).enumerate() {
        let conn = net.connection(s);
        let from = u64::from(window[0]);
        let to = u64::from(window[1]);
        let via = if path.ports[s] == 0 {
            conn.f(from)
        } else {
            conn.g(from)
        };
        if via != to {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use min_networks::{baseline, omega};

    #[test]
    fn every_terminal_pair_routes_in_a_banyan_network() {
        for n in 2..=5 {
            let net = omega(n);
            let terminals = net.terminals() as u64;
            for input in 0..terminals {
                for output in 0..terminals {
                    let route = route_terminals(&net, input, output)
                        .unwrap_or_else(|| panic!("no route {input}->{output} in omega {n}"));
                    assert_eq!(route.path.cells.len(), n);
                    assert_eq!(route.path.cells[0] as u64, input >> 1);
                    assert_eq!(*route.path.cells.last().unwrap() as u64, output >> 1);
                    assert!(verify_cell_path(&net, &route.path));
                }
            }
        }
    }

    #[test]
    fn baseline_routes_follow_the_recursive_halving() {
        let net = baseline(4);
        // From any source cell, choosing port 0 at stage 0 keeps the path in
        // the top half of the remaining stages.
        let route = route_cells(&net, 5, 0).unwrap();
        assert_eq!(route.ports[0], 0, "destination 0 lies in the top half");
        let route = route_cells(&net, 5, 7).unwrap();
        assert_eq!(route.ports[0], 1, "destination 7 lies in the bottom half");
    }

    #[test]
    fn out_of_range_terminals_are_rejected() {
        let net = omega(3);
        assert!(route_terminals(&net, 99, 0).is_none());
        assert!(route_terminals(&net, 0, 99).is_none());
    }

    #[test]
    fn out_of_range_cells_have_no_path() {
        let net = omega(3);
        for (src, dst) in [(4, 0), (0, 4), (1 << 32, 3), (3, (1 << 32) | 3)] {
            assert_eq!(route_cells(&net, src, dst), None, "{src} -> {dst}");
        }
    }

    #[test]
    fn verify_rejects_corrupted_paths() {
        let net = omega(3);
        let mut route = route_cells(&net, 0, 3).unwrap();
        assert!(verify_cell_path(&net, &route));
        route.ports[0] ^= 1;
        assert!(!verify_cell_path(&net, &route));
        let short = CellPath {
            cells: vec![0, 1],
            ports: vec![0],
        };
        assert!(!verify_cell_path(&net, &short));
    }

    #[test]
    fn ports_encode_the_f_or_g_choice() {
        let net = omega(3);
        for src in 0..4u64 {
            for dst in 0..4u64 {
                let p = route_cells(&net, src, dst).unwrap();
                for (s, &port) in p.ports.iter().enumerate() {
                    let conn = net.connection(s);
                    let from = u64::from(p.cells[s]);
                    let expected = if port == 0 {
                        conn.f(from)
                    } else {
                        conn.g(from)
                    };
                    assert_eq!(expected, u64::from(p.cells[s + 1]));
                }
            }
        }
    }
}
