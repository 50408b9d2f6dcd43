//! The switching fabric: a connection network plus the routing that steers
//! its packets.
//!
//! The fabric holds its routing as one [`Routing`] enum, and
//! [`Fabric::route`] answers the engine's one question — *which tag does
//! the packet at `(source, terminal)` use for `destination`?* — whatever
//! the topology. [`Fabric::for_traffic`], the one constructor, checks
//! 2-regularity and picks the routing for the scenario: a delta network
//! gets its destination-tag table; any other network gets the looping
//! algorithm for a full-permutation traffic pattern on a rearrangeable
//! fabric (a structural failure is the typed
//! [`FabricError::NotRearrangeable`]), and per-pair multi-path routing
//! otherwise. Only the destination-tag arm can run word-packed
//! ([`crate::batch::run_replications`] checks it).
//!
//! While a dead link or switch is active, the engines take their tags from
//! the fault runtime's reroute table instead (see [`crate::fault`]).

use crate::traffic::TrafficPattern;
use min_core::ConnectionNetwork;
use min_routing::disjoint::{disjoint_paths, path_tag};
use min_routing::looping::{loop_setup, LoopingError, LoopingSetting};
use min_routing::tag::{destination_tags, SelfRoutingTable};

/// How a fabric picks the routing tag of a packet.
#[derive(Debug, Clone)]
pub enum Routing {
    /// The bit-directed routing of the paper's §4: the tag depends on the
    /// destination alone. Exactly the delta networks have it.
    Delta(SelfRoutingTable),
    /// A conflict-free setting for one full permutation, computed by the
    /// looping algorithm and keyed by source terminal: any destination other
    /// than the configured one is refused.
    Looping(LoopingSetting),
    /// Per-pair link-disjoint path tags, indexed
    /// `source * cells + destination`; the two terminals of a source cell
    /// spread across the pair's paths.
    MultiPath(Vec<Vec<u32>>),
}

/// A simulatable fabric: the network topology together with the routing the
/// cells use to steer packets.
#[derive(Debug, Clone)]
pub struct Fabric {
    net: ConnectionNetwork,
    routing: Routing,
}

impl Fabric {
    /// Builds a fabric with the routing selected for `traffic`:
    ///
    /// * a delta network gets its destination-tag table, whatever the
    ///   traffic;
    /// * a non-delta network under [`TrafficPattern::Permutation`] traffic
    ///   that is a full cell permutation is configured by the looping
    ///   algorithm — every packet follows its conflict-free circuit;
    /// * any other non-delta combination falls back to per-pair
    ///   link-disjoint multi-path routing.
    pub fn for_traffic(
        net: ConnectionNetwork,
        traffic: &TrafficPattern,
    ) -> Result<Self, FabricError> {
        if !net.is_proper() {
            return Err(FabricError::NotTwoRegular);
        }
        let cells = net.cells_per_stage();
        let routing = match (destination_tags(&net), traffic) {
            (Some(table), _) => Routing::Delta(table),
            (None, TrafficPattern::Permutation(dest)) if is_cell_permutation(dest, cells) => {
                // Lift the cell permutation to terminals: terminal `2c + k`
                // goes to terminal `2·perm[c] + k`, which keeps the two
                // packets of a source cell on link-disjoint circuits.
                let permutation: Vec<u32> = (0..2 * cells as u32)
                    .map(|t| 2 * dest[(t >> 1) as usize] + (t & 1))
                    .collect();
                Routing::Looping(
                    loop_setup(&net, &permutation).map_err(FabricError::NotRearrangeable)?,
                )
            }
            // Quadratic in the cell count, with a path sweep per pair —
            // sized for the moderate fabrics the campaigns drive.
            (None, _) => Routing::MultiPath(
                (0..cells as u64)
                    .flat_map(|src| (0..cells as u64).map(move |dst| (src, dst)))
                    .map(|(src, dst)| {
                        disjoint_paths(&net, src, dst)
                            .iter()
                            .map(path_tag)
                            .collect()
                    })
                    .collect(),
            ),
        };
        Ok(Fabric { net, routing })
    }

    /// The underlying network.
    pub fn network(&self) -> &ConnectionNetwork {
        &self.net
    }

    /// The routing steering this fabric's packets.
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// Cells per stage.
    pub fn cells(&self) -> usize {
        self.net.cells_per_stage()
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.net.stages()
    }

    /// Routing tag for a packet entering at `(source, terminal)` bound for
    /// `destination`, or `None` when the routing cannot reach it (counted as
    /// an unroutable drop by the engine).
    #[inline]
    pub fn route(&self, source: u32, terminal: usize, destination: u32) -> Option<u32> {
        match &self.routing {
            Routing::Delta(table) => table.tag_of_destination.get(destination as usize).copied(),
            Routing::MultiPath(tags) => {
                let list = &tags[source as usize * self.cells() + destination as usize];
                (!list.is_empty()).then(|| list[terminal % list.len()])
            }
            Routing::Looping(setting) => {
                let t = 2 * source as usize + (terminal & 1);
                (t < setting.terminals() && setting.destinations[t] >> 1 == destination)
                    .then(|| setting.tags[t])
            }
        }
    }

    /// Next-stage cell reached from `cell` through out-port `port` of
    /// connection `stage`.
    #[inline]
    pub fn next_cell(&self, stage: usize, cell: u32, port: u8) -> u32 {
        let conn = self.net.connection(stage);
        if port == 0 {
            conn.f(u64::from(cell)) as u32
        } else {
            conn.g(u64::from(cell)) as u32
        }
    }
}

/// `true` when `dest` is a permutation of the cell labels `0..cells`.
fn is_cell_permutation(dest: &[u32], cells: usize) -> bool {
    if dest.len() != cells {
        return false;
    }
    let mut seen = vec![false; cells];
    for &d in dest {
        let Some(slot) = seen.get_mut(d as usize) else {
            return false;
        };
        if std::mem::replace(slot, true) {
            return false;
        }
    }
    true
}

/// Why a fabric could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// Some stage is not 2-regular.
    NotTwoRegular,
    /// The looping algorithm could not configure the requested permutation
    /// (the network is not Benes-structured, or the pattern is malformed).
    NotRearrangeable(LoopingError),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::NotTwoRegular => write!(f, "the network is not 2-in/2-out regular"),
            FabricError::NotRearrangeable(e) => {
                write!(f, "the looping algorithm cannot configure the fabric: {e}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;
    use min_core::delta::route_by_tag;
    use min_networks::rearrangeable::benes;
    use min_networks::{baseline, omega};

    fn uniform(net: ConnectionNetwork) -> Result<Fabric, FabricError> {
        Fabric::for_traffic(net, &TrafficPattern::Uniform)
    }

    #[test]
    fn classical_networks_build_fabrics() {
        for n in 2..=6 {
            let fabric = uniform(omega(n)).expect("omega is delta");
            assert_eq!(fabric.stages(), n);
            assert_eq!(fabric.cells(), 1 << (n - 1));
            assert!(matches!(fabric.routing(), Routing::Delta(_)));
            let fabric = uniform(baseline(n)).expect("baseline is delta");
            assert_eq!(fabric.cells(), 1 << (n - 1));
        }
    }

    #[test]
    fn tags_route_to_their_destination() {
        let fabric = uniform(omega(4)).unwrap();
        for dst in 0..8u32 {
            let tag = fabric.route(0, 0, dst).unwrap();
            for src in 0..8u32 {
                let mut cell = src;
                for s in 0..3 {
                    cell = fabric.next_cell(s, cell, ((tag >> s) & 1) as u8);
                }
                assert_eq!(cell, dst);
                // Every source and terminal gets the destination's tag.
                for terminal in 0..2 {
                    assert_eq!(fabric.route(src, terminal, dst), Some(tag));
                }
            }
        }
    }

    #[test]
    fn delta_routing_reproduces_destination_tags() {
        let net = omega(4);
        let table = destination_tags(&net).unwrap();
        let fabric = uniform(net).expect("omega is delta");
        assert!(matches!(fabric.routing(), Routing::Delta(_)));
        for dst in 0..fabric.cells() as u32 {
            for src in [0u32, 3, 7] {
                for terminal in 0..2 {
                    assert_eq!(
                        fabric.route(src, terminal, dst),
                        Some(table.tag_of_destination[dst as usize])
                    );
                }
            }
        }
    }

    #[test]
    fn benes_is_not_delta_but_is_multi_path_routable() {
        let net = benes(3);
        assert!(destination_tags(&net).is_none());
        let fabric = uniform(net.clone()).unwrap();
        let Routing::MultiPath(tags) = fabric.routing() else {
            panic!("uniform traffic on Benes routes multi-path");
        };
        let cells = fabric.cells() as u32;
        for src in 0..cells {
            for dst in 0..cells {
                let paths = tags[(src * cells + dst) as usize].len();
                assert!(paths >= 2, "{src}->{dst}");
                for terminal in 0..2 {
                    let tag = fabric.route(src, terminal, dst).unwrap();
                    assert_eq!(
                        route_by_tag(&net, u64::from(src), u64::from(tag)),
                        u64::from(dst)
                    );
                }
                // The two terminals ride different disjoint paths.
                assert_ne!(fabric.route(src, 0, dst), fabric.route(src, 1, dst));
            }
        }
    }

    #[test]
    fn looping_routing_serves_exactly_the_configured_permutation() {
        // A terminal permutation that is no lifted cell permutation (the two
        // terminals of a cell go to different cells), so the routing must
        // key by terminal, not by cell.
        let net = benes(3);
        let cells = net.cells_per_stage() as u32;
        let perm: Vec<u32> = (0..2 * cells).map(|t| t ^ 5).collect();
        let fabric = Fabric {
            routing: Routing::Looping(loop_setup(&net, &perm).unwrap()),
            net: net.clone(),
        };
        for t in 0..2 * cells {
            let (src, terminal) = (t >> 1, (t & 1) as usize);
            let configured = perm[t as usize] >> 1;
            let tag = fabric
                .route(src, terminal, configured)
                .expect("configured pair routes");
            assert_eq!(
                route_by_tag(&net, u64::from(src), u64::from(tag)),
                u64::from(configured)
            );
            // Any other destination is refused.
            let other = (configured + 1) % cells;
            assert_eq!(fabric.route(src, terminal, other), None);
        }
        // A source past the last terminal is refused too.
        assert_eq!(fabric.route(cells, 0, perm[0] >> 1), None);
    }

    #[test]
    fn non_delta_networks_are_rejected() {
        // A proper 2-stage network with no destination-tag table: it is
        // refused the delta arm (so the batch layer never packs it) and
        // routes multi-path, each tag reaching its destination.
        let table: [u64; 4] = [0, 1, 3, 2];
        let weird = min_core::Connection::from_fn(
            2,
            move |x| table[x as usize],
            move |x| table[x as usize] ^ 2,
        );
        let second = min_core::Connection::from_fn(2, |x| x >> 1, |x| (x >> 1) | 2);
        let net = min_core::ConnectionNetwork::new(2, vec![weird, second]);
        assert!(destination_tags(&net).is_none());
        let fabric = uniform(net.clone()).unwrap();
        assert!(matches!(fabric.routing(), Routing::MultiPath(_)));
        for src in 0..fabric.cells() as u32 {
            for dst in 0..fabric.cells() as u32 {
                let tag = fabric.route(src, 0, dst).expect("every pair has a path");
                assert_eq!(
                    route_by_tag(&net, u64::from(src), u64::from(tag)),
                    u64::from(dst)
                );
            }
        }
    }

    #[test]
    fn irregular_networks_are_rejected() {
        let skew = min_core::Connection::from_fn(2, |_| 0, |x| x);
        let second = min_core::Connection::from_fn(2, |x| x, |x| x ^ 1);
        let net = min_core::ConnectionNetwork::new(2, vec![skew, second]);
        assert_eq!(uniform(net).unwrap_err(), FabricError::NotTwoRegular);
    }

    #[test]
    fn delta_networks_route_by_tag_under_any_traffic() {
        // The traffic picks the routing of a non-delta fabric only: a delta
        // fabric gets its destination-tag table even under a full cell
        // permutation.
        let net = omega(4);
        let table = destination_tags(&net).unwrap();
        let cells = net.cells_per_stage() as u32;
        for traffic in [
            TrafficPattern::Uniform,
            TrafficPattern::BitReversal,
            TrafficPattern::Permutation((0..cells).rev().collect()),
        ] {
            let fabric = Fabric::for_traffic(net.clone(), &traffic).unwrap();
            let Routing::Delta(routed) = fabric.routing() else {
                panic!("omega is delta under {traffic:?}");
            };
            assert_eq!(routed.tag_of_destination, table.tag_of_destination);
        }
    }

    #[test]
    fn permutation_traffic_on_benes_uses_the_looping_router() {
        let net = benes(3);
        let cells = net.cells_per_stage() as u32;
        let perm: Vec<u32> = (0..cells).map(|c| (c + 1) % cells).collect();
        let fabric = Fabric::for_traffic(net, &TrafficPattern::Permutation(perm.clone())).unwrap();
        assert!(matches!(fabric.routing(), Routing::Looping(_)));
        for src in 0..cells {
            for terminal in 0..2 {
                assert!(fabric.route(src, terminal, perm[src as usize]).is_some());
            }
        }
    }

    #[test]
    fn non_permutation_traffic_on_benes_falls_back_to_multi_path() {
        for traffic in [
            TrafficPattern::Uniform,
            TrafficPattern::BitReversal,
            // A many-to-one pattern is not a permutation.
            TrafficPattern::Permutation(vec![0, 0, 1, 2]),
        ] {
            let fabric = Fabric::for_traffic(benes(3), &traffic).unwrap();
            assert!(
                matches!(fabric.routing(), Routing::MultiPath(_)),
                "{traffic:?}"
            );
        }
    }

    #[test]
    fn looping_failures_surface_as_not_rearrangeable() {
        // A 4-stage slice of Benes(3) is not delta-tag routable (8 tags for
        // 4 cells) and has an even stage count, so the looping recursion
        // cannot pair its connections — the typed error says which.
        let full = benes(3);
        let net = min_core::ConnectionNetwork::new(full.width(), full.connections()[..3].to_vec());
        assert!(destination_tags(&net).is_none());
        let cells = net.cells_per_stage() as u32;
        let perm: Vec<u32> = (0..cells).map(|c| c ^ 1).collect();
        match Fabric::for_traffic(net, &TrafficPattern::Permutation(perm)) {
            Err(FabricError::NotRearrangeable(_)) => {}
            other => panic!("expected NotRearrangeable, got {other:?}"),
        }
    }
}
