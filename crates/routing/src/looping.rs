//! The looping algorithm: conflict-free switch settings for rearrangeable
//! networks.
//!
//! A Benes network (2n−1 stages) realises *every* permutation of its 2^n
//! terminals without link conflicts — but unlike the delta networks of §4 it
//! is not self-routing: the port taken at a stage depends on the whole
//! permutation, not just the destination. The classical looping algorithm
//! (Opferman & Tsao-Wu 1971) computes such a setting recursively: the outer
//! stages partition the circuits between the two half-size subnetworks (a
//! 2-colouring of the circuit constraint graph, whose components are paths
//! and even cycles), then each half is solved independently.
//!
//! [`loop_setup`] implements this *structurally*: instead of assuming the
//! textbook wiring it discovers the two interior subnetworks by a union-find
//! sweep over the window's inner connections, so any network with the
//! recursive split/merge shape — the Baseline-based Benes, its
//! shuffle-based 2024 variant, or a relabelled rewrite — loops correctly,
//! and networks without that shape fail with a typed [`LoopingError`]
//! instead of a wrong setting.
//!
//! The result is a per-source-terminal routing tag (bit `s` = out-port at
//! connection `s`, the same encoding as [`crate::path_tag`]), which plugs
//! directly into the simulator's tag-driven switch cores (`min-sim`'s
//! fabric keeps the setting as its looping routing).

use min_core::ConnectionNetwork;
use serde::{Deserialize, Serialize};

/// Why the looping algorithm could not configure the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopingError {
    /// The permutation has the wrong number of entries (must equal the
    /// terminal count, two per first-stage cell).
    WrongLength {
        /// Expected entry count (`2 × cells`).
        expected: usize,
        /// Actual entry count.
        found: usize,
    },
    /// The requested mapping repeats or skips a destination terminal.
    NotPermutation {
        /// First source terminal whose image collides with an earlier one.
        terminal: usize,
    },
    /// Looping needs an odd stage count (outer stage pair + recursive
    /// middle); delta networks have an even count and are self-routing
    /// instead.
    EvenStageCount {
        /// The network's stage count.
        stages: usize,
    },
    /// A connection is not 2-regular in both directions, so the recursive
    /// split/merge structure cannot exist.
    NotProper,
    /// The two out-links of a cell at the window's first stage land in the
    /// same interior subnetwork — the stage does not split.
    SplitNotDisjoint {
        /// Stage window `(lo, hi)` being configured.
        window: (usize, usize),
        /// Offending cell at stage `lo`.
        cell: u64,
    },
    /// The two in-links of a cell at the window's last stage come from the
    /// same interior subnetwork — the stage does not merge.
    MergeNotDisjoint {
        /// Stage window `(lo, hi)` being configured.
        window: (usize, usize),
        /// Offending cell at stage `hi`.
        cell: u64,
    },
    /// The window's interior does not decompose into exactly two
    /// subnetworks reachable from the circuits.
    ComponentCount {
        /// Stage window `(lo, hi)` being configured.
        window: (usize, usize),
        /// Number of interior components found.
        found: usize,
    },
}

impl std::fmt::Display for LoopingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoopingError::WrongLength { expected, found } => {
                write!(f, "permutation has {found} entries, expected {expected}")
            }
            LoopingError::NotPermutation { terminal } => {
                write!(f, "terminal {terminal} maps onto an already-used output")
            }
            LoopingError::EvenStageCount { stages } => {
                write!(f, "looping needs an odd stage count, found {stages}")
            }
            LoopingError::NotProper => write!(f, "a connection is not 2-regular"),
            LoopingError::SplitNotDisjoint { window, cell } => write!(
                f,
                "stage {} cell {cell} does not split between the two subnetworks of window {:?}",
                window.0, window
            ),
            LoopingError::MergeNotDisjoint { window, cell } => write!(
                f,
                "stage {} cell {cell} does not merge the two subnetworks of window {:?}",
                window.1, window
            ),
            LoopingError::ComponentCount { window, found } => write!(
                f,
                "window {window:?} interior has {found} components, expected 2"
            ),
        }
    }
}

impl std::error::Error for LoopingError {}

/// A complete conflict-free switch setting for one permutation: the routing
/// tag of every source terminal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopingSetting {
    /// `tags[t]` routes source terminal `t` (bit `s` = out-port at
    /// connection `s`).
    pub tags: Vec<u32>,
    /// `destinations[t]` = destination terminal of source terminal `t` (the
    /// permutation the setting realises).
    pub destinations: Vec<u32>,
}

impl LoopingSetting {
    /// Number of terminals configured.
    pub fn terminals(&self) -> usize {
        self.tags.len()
    }

    /// The routing tag of source terminal `t`.
    pub fn tag(&self, terminal: usize) -> u32 {
        self.tags[terminal]
    }

    /// Follows the tag of terminal `t` through the fabric, returning the
    /// cell visited at every stage.
    pub fn trace(&self, net: &ConnectionNetwork, terminal: usize) -> Vec<u64> {
        let tag = self.tags[terminal];
        let mut cell = (terminal as u64) >> 1;
        let mut cells = Vec::with_capacity(net.stages());
        cells.push(cell);
        for (s, conn) in net.connections().iter().enumerate() {
            cell = if (tag >> s) & 1 == 0 {
                conn.f(cell)
            } else {
                conn.g(cell)
            };
            cells.push(cell);
        }
        cells
    }

    /// Checks the setting end-to-end: every terminal's tag must arrive at
    /// its destination cell and no two circuits may share a link (the
    /// conflict-freedom the looping algorithm guarantees).
    pub fn verify(&self, net: &ConnectionNetwork) -> bool {
        let cells = net.cells_per_stage();
        let connections = net.connections().len();
        if self.tags.len() != 2 * cells || self.destinations.len() != 2 * cells {
            return false;
        }
        // One flag per (connection, cell, port) link.
        let mut used = vec![false; connections * cells * 2];
        for t in 0..self.tags.len() {
            let trace = self.trace(net, t);
            if *trace.last().unwrap() != u64::from(self.destinations[t]) >> 1 {
                return false;
            }
            for s in 0..connections {
                let port = ((self.tags[t] >> s) & 1) as usize;
                let slot = (s * cells + trace[s] as usize) * 2 + port;
                if used[slot] {
                    return false; // two circuits on one link
                }
                used[slot] = true;
            }
        }
        true
    }
}

/// One source→destination circuit threaded through a recursion window.
#[derive(Clone, Copy)]
struct Circuit {
    /// Cell at the window's first stage.
    src: u64,
    /// Cell at the window's last stage.
    dst: u64,
    /// Source terminal whose tag this circuit writes.
    terminal: usize,
}

/// Union-find over the interior cells of one recursion window.
struct Interior {
    /// Parent pointers, indexed `(stage - lo_interior) * cells + cell`.
    parent: Vec<u32>,
    lo: usize,
    cells: usize,
}

impl Interior {
    /// Builds the components of stages `lo..=hi` joined by every connection
    /// lying entirely inside the range.
    fn new(net: &ConnectionNetwork, lo: usize, hi: usize) -> Self {
        let cells = net.cells_per_stage();
        let mut uf = Interior {
            parent: (0..((hi - lo + 1) * cells) as u32).collect(),
            lo,
            cells,
        };
        for s in lo..hi {
            let conn = net.connection(s);
            for x in 0..cells as u64 {
                uf.union(uf.index(s, x), uf.index(s + 1, conn.f(x)));
                uf.union(uf.index(s, x), uf.index(s + 1, conn.g(x)));
            }
        }
        uf
    }

    fn index(&self, stage: usize, cell: u64) -> usize {
        (stage - self.lo) * self.cells + cell as usize
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] as usize != i {
            let up = self.parent[self.parent[i] as usize];
            self.parent[i] = up;
            i = up as usize;
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb as u32;
        }
    }

    fn root(&mut self, stage: usize, cell: u64) -> usize {
        let i = self.index(stage, cell);
        self.find(i)
    }
}

/// Computes a conflict-free switch setting realising `permutation` (source
/// terminal `t` → destination terminal `permutation[t]`) on a rearrangeable
/// network with the recursive Benes split/merge structure.
///
/// The network's shape is *discovered*, not assumed: at every recursion
/// window the two interior subnetworks are found by union-find, so the
/// Baseline-based Benes, shuffle-based variants and relabelled rewrites
/// all loop with the same code. A typed [`LoopingError`] reports exactly
/// which structural precondition failed otherwise.
pub fn loop_setup(
    net: &ConnectionNetwork,
    permutation: &[u32],
) -> Result<LoopingSetting, LoopingError> {
    let cells = net.cells_per_stage();
    let terminals = 2 * cells;
    if permutation.len() != terminals {
        return Err(LoopingError::WrongLength {
            expected: terminals,
            found: permutation.len(),
        });
    }
    let mut hit = vec![false; terminals];
    for (t, &d) in permutation.iter().enumerate() {
        if (d as usize) >= terminals || hit[d as usize] {
            return Err(LoopingError::NotPermutation { terminal: t });
        }
        hit[d as usize] = true;
    }
    if net.stages() % 2 == 0 {
        return Err(LoopingError::EvenStageCount {
            stages: net.stages(),
        });
    }
    if !net.is_proper() {
        return Err(LoopingError::NotProper);
    }

    let mut tags = vec![0u32; terminals];
    let circuits: Vec<Circuit> = (0..terminals)
        .map(|t| Circuit {
            src: (t as u64) >> 1,
            dst: u64::from(permutation[t]) >> 1,
            terminal: t,
        })
        .collect();
    configure(net, 0, net.stages() - 1, circuits, &mut tags)?;
    Ok(LoopingSetting {
        tags,
        destinations: permutation.to_vec(),
    })
}

/// Predecessors of `dst` under `conn`, as `(cell, port)` pairs.
fn predecessors(conn: &min_core::Connection, cells: usize, dst: u64) -> Vec<(u64, u8)> {
    let mut preds = Vec::with_capacity(2);
    for y in 0..cells as u64 {
        if conn.f(y) == dst {
            preds.push((y, 0));
        }
        if conn.g(y) == dst {
            preds.push((y, 1));
        }
    }
    preds
}

/// Recursively configures the circuits of one stage window `[lo, hi]`.
fn configure(
    net: &ConnectionNetwork,
    lo: usize,
    hi: usize,
    circuits: Vec<Circuit>,
    tags: &mut [u32],
) -> Result<(), LoopingError> {
    if circuits.is_empty() || lo == hi {
        // A single middle stage: circuits pass straight through its 2×2
        // cells; the adjacent ports were fixed by the enclosing window.
        return Ok(());
    }
    let window = (lo, hi);
    let cells = net.cells_per_stage();
    let mut interior = Interior::new(net, lo + 1, hi - 1);
    let first = net.connection(lo);
    let last = net.connection(hi - 1);

    // Out-links of every window-entry cell must split between two interior
    // components; collect the two component roots as the recursion targets.
    let mut roots: Vec<usize> = Vec::with_capacity(2);
    let mut split = vec![(0usize, 0usize); cells]; // (root via f, root via g)
    for c in &circuits {
        let rf = interior.root(lo + 1, first.f(c.src));
        let rg = interior.root(lo + 1, first.g(c.src));
        if rf == rg {
            return Err(LoopingError::SplitNotDisjoint {
                window,
                cell: c.src,
            });
        }
        for r in [rf, rg] {
            if !roots.contains(&r) {
                roots.push(r);
            }
        }
        split[c.src as usize] = (rf, rg);
    }
    if roots.len() != 2 {
        return Err(LoopingError::ComponentCount {
            window,
            found: roots.len(),
        });
    }
    roots.sort_unstable();

    // In-links of every window-exit cell must merge the same two components;
    // remember which predecessor serves which component.
    let mut merge = vec![[(0u64, 0u8); 2]; cells]; // per dst, pred for roots[0] / roots[1]
    for c in &circuits {
        let preds = predecessors(last, cells, c.dst);
        if preds.len() != 2 {
            return Err(LoopingError::NotProper);
        }
        let r0 = interior.root(hi - 1, preds[0].0);
        let r1 = interior.root(hi - 1, preds[1].0);
        if r0 == r1 || !roots.contains(&r0) || !roots.contains(&r1) {
            return Err(LoopingError::MergeNotDisjoint {
                window,
                cell: c.dst,
            });
        }
        if r0 == roots[0] {
            merge[c.dst as usize] = [preds[0], preds[1]];
        } else {
            merge[c.dst as usize] = [preds[1], preds[0]];
        }
    }

    // 2-colour the circuit constraint graph: circuits sharing an entry cell
    // or an exit cell must use different subnetworks. Degrees are at most 2
    // (≤2 circuits per cell each side), so components are paths or even
    // cycles and a BFS colouring always succeeds on a full permutation.
    let mut by_src: Vec<Vec<usize>> = vec![Vec::new(); cells];
    let mut by_dst: Vec<Vec<usize>> = vec![Vec::new(); cells];
    for (i, c) in circuits.iter().enumerate() {
        by_src[c.src as usize].push(i);
        by_dst[c.dst as usize].push(i);
    }
    let neighbours = |i: usize| -> Vec<usize> {
        let c = &circuits[i];
        by_src[c.src as usize]
            .iter()
            .chain(by_dst[c.dst as usize].iter())
            .copied()
            .filter(|&j| j != i)
            .collect()
    };
    let mut colour = vec![u8::MAX; circuits.len()];
    for start in 0..circuits.len() {
        if colour[start] != u8::MAX {
            continue;
        }
        colour[start] = 0;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(i) = queue.pop_front() {
            for j in neighbours(i) {
                if colour[j] == u8::MAX {
                    colour[j] = 1 - colour[i];
                    queue.push_back(j);
                } else if colour[j] == colour[i] {
                    // Odd constraint cycle: impossible for a full
                    // permutation, reachable only through a duplicated
                    // circuit multiset.
                    return Err(LoopingError::ComponentCount {
                        window,
                        found: roots.len(),
                    });
                }
            }
        }
    }

    // Record the outer ports and hand the shrunken circuits to each half.
    let mut halves: [Vec<Circuit>; 2] = [Vec::new(), Vec::new()];
    for (i, c) in circuits.iter().enumerate() {
        let half = colour[i] as usize;
        let target = roots[half];
        let (rf, _) = split[c.src as usize];
        let entry_port = u8::from(rf != target);
        let child = if entry_port == 0 {
            first.f(c.src)
        } else {
            first.g(c.src)
        };
        let (pred, exit_port) = merge[c.dst as usize][half];
        tags[c.terminal] |= (u32::from(entry_port) << lo) | (u32::from(exit_port) << (hi - 1));
        halves[half].push(Circuit {
            src: child,
            dst: pred,
            terminal: c.terminal,
        });
    }
    let [a, b] = halves;
    configure(net, lo + 1, hi - 1, a, tags)?;
    configure(net, lo + 1, hi - 1, b, tags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use min_networks::rearrangeable::{benes, benes_variant};
    use min_networks::{baseline, omega};

    fn identity(terminals: usize) -> Vec<u32> {
        (0..terminals as u32).collect()
    }

    fn rotation(terminals: usize, by: usize) -> Vec<u32> {
        (0..terminals)
            .map(|t| ((t + by) % terminals) as u32)
            .collect()
    }

    #[test]
    fn identity_and_rotations_loop_on_benes() {
        for n in 2..=5 {
            let net = benes(n);
            let terminals = 2 * net.cells_per_stage();
            for perm in [
                identity(terminals),
                rotation(terminals, 1),
                rotation(terminals, 3),
            ] {
                let setting = loop_setup(&net, &perm).expect("benes loops");
                assert!(setting.verify(&net), "n={n}");
            }
        }
    }

    #[test]
    fn the_shuffle_based_variant_loops_too() {
        for n in 2..=5 {
            let net = benes_variant(n);
            let terminals = 2 * net.cells_per_stage();
            let setting = loop_setup(&net, &rotation(terminals, 1)).expect("variant loops");
            assert!(setting.verify(&net), "n={n}");
        }
    }

    #[test]
    fn every_permutation_of_the_smallest_benes_is_realised() {
        // benes(2): 4 terminals, 24 permutations — exhaustive.
        let net = benes(2);
        let mut perm = [0u32, 1, 2, 3];
        permute_all(&mut perm, 0, &mut |p| {
            let setting = loop_setup(&net, p).expect("realisable");
            assert!(setting.verify(&net), "{p:?}");
        });
    }

    fn permute_all(p: &mut [u32; 4], k: usize, visit: &mut impl FnMut(&[u32])) {
        if k == p.len() {
            visit(p);
            return;
        }
        for i in k..p.len() {
            p.swap(k, i);
            permute_all(p, k + 1, visit);
            p.swap(k, i);
        }
    }

    #[test]
    fn non_rearrangeable_inputs_fail_with_typed_errors() {
        let net = benes(3);
        let terminals = 2 * net.cells_per_stage();
        assert_eq!(
            loop_setup(&net, &identity(3)),
            Err(LoopingError::WrongLength {
                expected: terminals,
                found: 3
            })
        );
        let mut doubled = identity(terminals);
        doubled[1] = doubled[0];
        assert_eq!(
            loop_setup(&net, &doubled),
            Err(LoopingError::NotPermutation { terminal: 1 })
        );
        // Delta networks have even stage counts.
        let even = baseline(4);
        assert_eq!(
            loop_setup(&even, &identity(2 * even.cells_per_stage())),
            Err(LoopingError::EvenStageCount { stages: 4 })
        );
        // An odd-stage unique-path network has no interior split: the Omega
        // at n=3 is 3-stage but its middle window is a single component.
        let odd_omega = omega(3);
        let res = loop_setup(&odd_omega, &identity(2 * odd_omega.cells_per_stage()));
        assert!(
            matches!(
                res,
                Err(LoopingError::SplitNotDisjoint { .. })
                    | Err(LoopingError::ComponentCount { .. })
                    | Err(LoopingError::MergeNotDisjoint { .. })
            ),
            "{res:?}"
        );
    }

    #[test]
    fn tags_use_one_bit_per_connection() {
        let net = benes(4);
        let terminals = 2 * net.cells_per_stage();
        let setting = loop_setup(&net, &rotation(terminals, 5)).unwrap();
        let mask = (1u32 << (net.stages() - 1)) - 1;
        for &tag in &setting.tags {
            assert_eq!(tag & !mask, 0);
        }
    }
}
