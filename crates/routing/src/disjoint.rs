//! Link-disjoint path enumeration and fault-aware rerouting.
//!
//! The stability literature around the paper's networks — 3-disjoint-path
//! Omega variants, wormhole MINs under switch failures — measures a fabric
//! by how much *path redundancy* it offers each (source, destination) pair
//! and how routing degrades when links die. This module provides that
//! analysis layer on top of [`min_graph::paths`]-style stage-monotone
//! reachability:
//!
//! * [`all_paths`] — every stage-monotone path between a first-stage and a
//!   last-stage cell, in lexicographic port order;
//! * [`disjoint_paths`] — a maximal pairwise *link-disjoint* subset of those
//!   paths (greedy in enumeration order, so the destination-tag path of a
//!   Banyan network is always the first entry);
//! * [`FaultDigest`] — a set of dead links and dead switches;
//! * [`route_around`] — destination-tag-style rerouting under a digest:
//!   fall back across the disjoint paths in order, then across any surviving
//!   path, with a typed [`FaultRoute::Unroutable`] when the pair's last path
//!   is severed;
//! * [`path_diversity_histogram`] — the per-pair disjoint-path counts of the
//!   whole fabric, the "how redundant is this topology" summary statistic.
//!
//! For a Banyan network every pair has exactly one path, so the disjoint set
//! is a singleton and a single well-placed dead link always severs some
//! pairs; the machinery is written for general proper MI-fabrics (including
//! the parallel-link and stuck-cell variants of `min-networks`), where real
//! fallback happens.

use crate::path::CellPath;
use min_core::ConnectionNetwork;

/// Flat index of the inter-stage link leaving `cell` of connection `stage`
/// through `port` (0 = `f`, 1 = `g`).
#[inline]
fn link_index(cells: usize, stage: usize, cell: u32, port: u8) -> usize {
    (stage * cells + cell as usize) * 2 + port as usize
}

/// Backward reachability table: `reach[s][v]` is true when last-stage cell
/// `dst` can be reached from cell `v` of stage `s`. When `digest` is given,
/// dead cells and dead links are excluded, so the table answers "can `dst`
/// still be reached" under the faults.
fn reaches_dst(net: &ConnectionNetwork, dst: u64, digest: Option<&FaultDigest>) -> Vec<Vec<bool>> {
    let stages = net.stages();
    let cells = net.cells_per_stage();
    let mut reach = vec![vec![false; cells]; stages];
    let dst_alive = !digest.is_some_and(|d| d.cell_dead(stages - 1, dst as u32));
    reach[stages - 1][dst as usize] = dst_alive;
    for s in (0..stages - 1).rev() {
        let conn = net.connection(s);
        for v in 0..cells as u64 {
            if digest.is_some_and(|d| d.cell_dead(s, v as u32)) {
                continue;
            }
            for port in 0..2u8 {
                if digest.is_some_and(|d| d.link_dead(s, v as u32, port)) {
                    continue;
                }
                let child = if port == 0 { conn.f(v) } else { conn.g(v) };
                if reach[s + 1][child as usize] {
                    reach[s][v as usize] = true;
                    break;
                }
            }
        }
    }
    reach
}

/// Every stage-monotone path from first-stage cell `src` to last-stage cell
/// `dst`, in lexicographic port order (port 0 explored before port 1 at
/// every stage). A Banyan network yields exactly one path per pair; networks
/// with parallel links or extra redundancy yield more.
///
/// The enumeration is pruned by backward reachability, so its cost is
/// proportional to the number of paths actually returned (times the stage
/// count), not to the full `2^{stages-1}` fan-out.
pub fn all_paths(net: &ConnectionNetwork, src: u64, dst: u64) -> Vec<CellPath> {
    let cells = net.cells_per_stage() as u64;
    if src >= cells || dst >= cells {
        return Vec::new();
    }
    all_paths_with_reach(net, src, dst, &reaches_dst(net, dst, None))
}

/// [`all_paths`] against a precomputed fault-free reachability table for
/// `dst`, so per-destination batch callers share the table across sources.
fn all_paths_with_reach(
    net: &ConnectionNetwork,
    src: u64,
    dst: u64,
    reach: &[Vec<bool>],
) -> Vec<CellPath> {
    if !reach[0][src as usize] {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut cur = CellPath {
        cells: vec![src as u32],
        ports: Vec::new(),
    };
    walk_paths(net, reach, dst, &mut cur, &mut out);
    out
}

/// Depth-first path enumeration behind [`all_paths`], restricted to cells
/// that still reach `dst`.
fn walk_paths(
    net: &ConnectionNetwork,
    reach: &[Vec<bool>],
    dst: u64,
    cur: &mut CellPath,
    out: &mut Vec<CellPath>,
) {
    let stage = cur.cells.len() - 1;
    let from = u64::from(*cur.cells.last().expect("paths start at src"));
    if stage == net.stages() - 1 {
        if from == dst {
            out.push(cur.clone());
        }
        return;
    }
    let conn = net.connection(stage);
    for port in 0..2u8 {
        let next = if port == 0 {
            conn.f(from)
        } else {
            conn.g(from)
        };
        if !reach[stage + 1][next as usize] {
            continue;
        }
        cur.cells.push(next as u32);
        cur.ports.push(port);
        walk_paths(net, reach, dst, cur, out);
        cur.cells.pop();
        cur.ports.pop();
    }
}

/// A maximal pairwise **link-disjoint** subset of the `src → dst` paths,
/// chosen greedily in the [`all_paths`] enumeration order (two paths are
/// link-disjoint when they share no `(stage, cell, port)` arc; they may
/// share cells). The first entry is always the lexicographically first path
/// — for a delta network, the destination-tag path.
pub fn disjoint_paths(net: &ConnectionNetwork, src: u64, dst: u64) -> Vec<CellPath> {
    greedy_disjoint(net, all_paths(net, src, dst))
}

/// The greedy maximal link-disjoint filter behind [`disjoint_paths`].
fn greedy_disjoint(net: &ConnectionNetwork, candidates: Vec<CellPath>) -> Vec<CellPath> {
    let cells = net.cells_per_stage();
    let stages = net.stages();
    let mut used = vec![false; stages.saturating_sub(1) * cells * 2];
    let mut kept = Vec::new();
    'candidates: for path in candidates {
        for (s, &port) in path.ports.iter().enumerate() {
            if used[link_index(cells, s, path.cells[s], port)] {
                continue 'candidates;
            }
        }
        for (s, &port) in path.ports.iter().enumerate() {
            used[link_index(cells, s, path.cells[s], port)] = true;
        }
        kept.push(path);
    }
    kept
}

/// Histogram of the per-pair disjoint-path counts over every (first-stage,
/// last-stage) cell pair: `hist[k]` is the number of pairs joined by exactly
/// `k` pairwise link-disjoint paths (`hist[0]` counts disconnected pairs).
/// For a Banyan network the histogram is `[0, cells²]`.
pub fn path_diversity_histogram(net: &ConnectionNetwork) -> Vec<u64> {
    let cells = net.cells_per_stage() as u64;
    let mut hist = vec![0u64; 2];
    for src in 0..cells {
        for dst in 0..cells {
            let k = disjoint_paths(net, src, dst).len();
            if k >= hist.len() {
                hist.resize(k + 1, 0);
            }
            hist[k] += 1;
        }
    }
    hist
}

/// Encodes a path's port choices as a destination-tag-style routing tag:
/// bit `s` of the tag is the out-port taken at connection `s`. Every
/// stage-monotone path is expressible this way, which is what lets a
/// rerouted path ride the existing bit-directed switching hardware.
pub fn path_tag(path: &CellPath) -> u32 {
    path.ports
        .iter()
        .enumerate()
        .fold(0u32, |tag, (s, &port)| tag | (u32::from(port) << s))
}

/// A set of dead links and dead switches against which routes are computed.
///
/// Stage/cell indexing matches the fabric: switches live at
/// `(stage 0..stages, cell)`, links at `(stage 0..stages-1, cell, port)` —
/// the arc leaving `cell` through `port` of connection `stage`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultDigest {
    stages: usize,
    cells: usize,
    dead_link: Vec<bool>,
    dead_cell: Vec<bool>,
}

impl FaultDigest {
    /// A digest with no faults for a `stages × cells` fabric.
    pub fn new(stages: usize, cells: usize) -> Self {
        FaultDigest {
            stages,
            cells,
            dead_link: vec![false; stages.saturating_sub(1) * cells * 2],
            dead_cell: vec![false; stages * cells],
        }
    }

    /// Marks the link leaving `cell` through `port` of connection `stage`
    /// as dead.
    pub fn kill_link(&mut self, stage: usize, cell: u32, port: u8) {
        assert!(stage + 1 < self.stages, "link stage {stage} out of range");
        self.dead_link[link_index(self.cells, stage, cell, port)] = true;
    }

    /// Marks the switch at `(stage, cell)` as dead.
    pub fn kill_cell(&mut self, stage: usize, cell: u32) {
        assert!(stage < self.stages, "switch stage {stage} out of range");
        self.dead_cell[stage * self.cells + cell as usize] = true;
    }

    /// Whether the link at `(stage, cell, port)` is dead.
    #[inline]
    pub fn link_dead(&self, stage: usize, cell: u32, port: u8) -> bool {
        self.dead_link[link_index(self.cells, stage, cell, port)]
    }

    /// Whether the switch at `(stage, cell)` is dead.
    #[inline]
    pub fn cell_dead(&self, stage: usize, cell: u32) -> bool {
        self.dead_cell[stage * self.cells + cell as usize]
    }

    /// Whether the digest holds no faults at all.
    pub fn is_clean(&self) -> bool {
        !self.dead_link.iter().any(|&d| d) && !self.dead_cell.iter().any(|&d| d)
    }

    /// Whether `path` avoids every dead link and dead switch.
    pub fn path_ok(&self, path: &CellPath) -> bool {
        for (s, &cell) in path.cells.iter().enumerate() {
            if self.cell_dead(s, cell) {
                return false;
            }
        }
        for (s, &port) in path.ports.iter().enumerate() {
            if self.link_dead(s, path.cells[s], port) {
                return false;
            }
        }
        true
    }
}

/// The outcome of routing a pair under faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultRoute {
    /// A surviving path (its ports encode the routing tag via [`path_tag`]).
    Routed(CellPath),
    /// Every `src → dst` path crosses a dead link or a dead switch.
    Unroutable,
}

impl FaultRoute {
    /// The surviving path, if any.
    pub fn path(&self) -> Option<&CellPath> {
        match self {
            FaultRoute::Routed(path) => Some(path),
            FaultRoute::Unroutable => None,
        }
    }

    /// Whether the pair is still routable.
    pub fn is_routable(&self) -> bool {
        matches!(self, FaultRoute::Routed(_))
    }
}

/// The greedy forward walk behind [`route_around`]'s fallback: the
/// lexicographically first path through the precomputed fault-aware
/// reachability table of the destination.
fn forward_walk(
    net: &ConnectionNetwork,
    src: u64,
    reach: &[Vec<bool>],
    digest: &FaultDigest,
) -> Option<CellPath> {
    if !reach[0][src as usize] {
        return None;
    }
    let mut path = CellPath {
        cells: vec![src as u32],
        ports: Vec::new(),
    };
    let mut cur = src;
    for s in 0..net.stages() - 1 {
        let conn = net.connection(s);
        let (next, port) = (0..2u8).find_map(|port| {
            if digest.link_dead(s, cur as u32, port) {
                return None;
            }
            let child = if port == 0 { conn.f(cur) } else { conn.g(cur) };
            reach[s + 1][child as usize].then_some((child, port))
        })?;
        path.cells.push(next as u32);
        path.ports.push(port);
        cur = next;
    }
    Some(path)
}

/// Routes `src → dst` under the digest: try the pair's link-disjoint paths
/// in enumeration order (the destination-tag path first), and when none of
/// them survives fall back to *any* surviving path — a surviving path can
/// lie outside the greedy disjoint set in redundant fabrics. Returns
/// [`FaultRoute::Unroutable`] only when the pair's last path is severed.
pub fn route_around(
    net: &ConnectionNetwork,
    src: u64,
    dst: u64,
    digest: &FaultDigest,
) -> FaultRoute {
    let cells = net.cells_per_stage() as u64;
    if src >= cells || dst >= cells || digest.cell_dead(net.stages() - 1, dst as u32) {
        return FaultRoute::Unroutable;
    }
    let reach_free = reaches_dst(net, dst, None);
    let reach_fault = reaches_dst(net, dst, Some(digest));
    route_source(net, src, dst, &reach_free, &reach_fault, digest)
}

/// [`route_around`] for every source at once: one entry per first-stage
/// cell, routed to `dst` under the digest. The two per-destination
/// reachability tables (fault-free for the disjoint enumeration,
/// fault-aware for the fallback walk) are computed once and shared across
/// all sources, which is what the engine's per-epoch pair-table rebuild
/// wants — per pair the results are identical to [`route_around`].
pub fn route_all_to(net: &ConnectionNetwork, dst: u64, digest: &FaultDigest) -> Vec<FaultRoute> {
    let cells = net.cells_per_stage();
    let last = net.stages() - 1;
    if dst >= cells as u64 || digest.cell_dead(last, dst as u32) {
        return vec![FaultRoute::Unroutable; cells];
    }
    let reach_free = reaches_dst(net, dst, None);
    let reach_fault = reaches_dst(net, dst, Some(digest));
    (0..cells as u64)
        .map(|src| route_source(net, src, dst, &reach_free, &reach_fault, digest))
        .collect()
}

/// The per-source body of [`route_around`] and [`route_all_to`], given the
/// fault-free and fault-aware reachability tables of a live, in-range `dst`:
/// the first surviving link-disjoint path, else the fault-aware walk.
fn route_source(
    net: &ConnectionNetwork,
    src: u64,
    dst: u64,
    reach_free: &[Vec<bool>],
    reach_fault: &[Vec<bool>],
    digest: &FaultDigest,
) -> FaultRoute {
    if digest.cell_dead(0, src as u32) {
        return FaultRoute::Unroutable;
    }
    greedy_disjoint(net, all_paths_with_reach(net, src, dst, reach_free))
        .into_iter()
        .find(|path| digest.path_ok(path))
        .or_else(|| forward_walk(net, src, reach_fault, digest))
        .map_or(FaultRoute::Unroutable, FaultRoute::Routed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::verify_cell_path;
    use crate::tag::destination_tags;
    use min_networks::{baseline, omega};

    #[test]
    fn banyan_pairs_have_exactly_one_path_and_it_is_the_tag_path() {
        let net = omega(4);
        let table = destination_tags(&net).unwrap();
        for src in 0..8u64 {
            for dst in 0..8u64 {
                let paths = all_paths(&net, src, dst);
                assert_eq!(paths.len(), 1, "{src}->{dst}");
                let disjoint = disjoint_paths(&net, src, dst);
                assert_eq!(disjoint, paths);
                assert!(verify_cell_path(&net, &paths[0]));
                assert_eq!(
                    path_tag(&paths[0]),
                    table.tag_of_destination[dst as usize],
                    "the unique path is the destination-tag path"
                );
            }
        }
    }

    #[test]
    fn parallel_links_create_two_disjoint_paths() {
        // A fabric whose every connection jams both ports onto the same
        // target (parallel arcs at each stage): each connected pair has
        // four paths, of which exactly two are pairwise link-disjoint.
        let twin = min_core::Connection::from_fn(2, |x| x, |x| x);
        let net = min_core::ConnectionNetwork::new(2, vec![twin.clone(), twin]);
        assert_eq!(all_paths(&net, 0, 0).len(), 4);
        let paths = disjoint_paths(&net, 0, 0);
        assert_eq!(paths.len(), 2);
        assert_ne!(paths[0].ports, paths[1].ports);
        assert_eq!(paths[0].cells, paths[1].cells, "cells shared, links not");
    }

    #[test]
    fn diversity_histogram_of_a_banyan_network_is_all_ones() {
        let net = baseline(4);
        let hist = path_diversity_histogram(&net);
        assert_eq!(hist, vec![0, 64]);
    }

    #[test]
    fn a_dead_link_severs_exactly_half_a_cell_column_of_pairs() {
        // In a Banyan fabric the link leaving (stage s, cell c) through port
        // p carries 2^s sources × cells/2^{s+1} destinations = cells/2 pairs.
        for n in 3..=5usize {
            let net = omega(n);
            let cells = net.cells_per_stage() as u64;
            let mut digest = FaultDigest::new(net.stages(), cells as usize);
            digest.kill_link(1, 0, 1);
            let severed = (0..cells)
                .flat_map(|s| (0..cells).map(move |d| (s, d)))
                .filter(|&(s, d)| !route_around(&net, s, d, &digest).is_routable())
                .count() as u64;
            assert_eq!(severed, cells / 2, "omega n={n}");
        }
    }

    #[test]
    fn route_around_prefers_a_surviving_disjoint_path() {
        // Parallel-link fabric: killing one of the twin arcs leaves the
        // sibling, so the pair reroutes instead of dying.
        let twin = min_core::Connection::from_fn(2, |x| x, |x| x);
        let net = min_core::ConnectionNetwork::new(2, vec![twin.clone(), twin]);
        let mut digest = FaultDigest::new(net.stages(), net.cells_per_stage());
        digest.kill_link(0, 0, 0);
        match route_around(&net, 0, 0, &digest) {
            FaultRoute::Routed(path) => {
                assert_eq!(path.ports[0], 1, "rerouted onto the sibling link");
                assert!(digest.path_ok(&path));
            }
            FaultRoute::Unroutable => panic!("a disjoint sibling path survives"),
        }
        // Killing both parallel arcs of the first stage severs the pair.
        digest.kill_link(0, 0, 1);
        assert_eq!(route_around(&net, 0, 0, &digest), FaultRoute::Unroutable);
    }

    #[test]
    fn dead_switches_sever_everything_through_them() {
        let net = omega(3);
        let mut digest = FaultDigest::new(net.stages(), net.cells_per_stage());
        digest.kill_cell(0, 2);
        for dst in 0..4u64 {
            assert_eq!(route_around(&net, 2, dst, &digest), FaultRoute::Unroutable);
        }
        // Other sources lose exactly the pairs routed through the mid-stage
        // cells they share with nothing here: source 0 keeps all its pairs.
        for dst in 0..4u64 {
            assert!(route_around(&net, 0, dst, &digest).is_routable());
        }
        assert!(!digest.is_clean());
        assert!(FaultDigest::new(3, 4).is_clean());
    }

    #[test]
    fn batched_routing_agrees_with_the_per_pair_api() {
        let net = omega(4);
        let cells = net.cells_per_stage();
        let mut digest = FaultDigest::new(net.stages(), cells);
        digest.kill_link(1, 0, 1);
        digest.kill_cell(0, 3);
        for dst in 0..cells as u64 {
            let batched = route_all_to(&net, dst, &digest);
            assert_eq!(batched.len(), cells);
            for src in 0..cells as u64 {
                assert_eq!(
                    batched[src as usize],
                    route_around(&net, src, dst, &digest),
                    "{src}->{dst}"
                );
            }
        }
        assert!(route_all_to(&net, 99, &digest)
            .iter()
            .all(|r| !r.is_routable()));
    }

    #[test]
    fn path_tags_encode_ports_bit_per_stage() {
        let path = CellPath {
            cells: vec![0, 1, 2, 3],
            ports: vec![1, 0, 1],
        };
        assert_eq!(path_tag(&path), 0b101);
        assert_eq!(
            path_tag(&CellPath {
                cells: vec![7],
                ports: vec![],
            }),
            0
        );
    }

    #[test]
    fn out_of_range_pairs_are_unroutable_and_pathless() {
        let net = omega(3);
        let digest = FaultDigest::new(net.stages(), net.cells_per_stage());
        assert!(all_paths(&net, 99, 0).is_empty());
        assert_eq!(route_around(&net, 0, 99, &digest), FaultRoute::Unroutable);
        assert_eq!(route_around(&net, 99, 0, &digest), FaultRoute::Unroutable);
    }
}
