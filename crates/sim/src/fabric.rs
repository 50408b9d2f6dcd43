//! The switching fabric: a connection network plus the router that steers
//! its packets.
//!
//! The fabric holds a [`min_routing::router::Router`] trait object, so the
//! engine asks one uniform question — *which tag does the packet at
//! `(source, terminal)` use for `destination`?* — whatever the topology.
//! One private constructor checks 2-regularity and gives every delta
//! network its destination-tag table; the two public entry points differ
//! only in what a non-delta network gets:
//!
//! * [`Fabric::new`] refuses it with [`FabricError::NotDelta`] (the
//!   bit-parallel lane engine needs destination tags);
//! * [`Fabric::for_traffic`] routes it for the scenario — the looping
//!   algorithm for a full-permutation traffic pattern on a rearrangeable
//!   fabric (a structural failure is the typed
//!   [`FabricError::NotRearrangeable`]), and per-pair multi-path routing
//!   otherwise.

use crate::traffic::TrafficPattern;
use min_core::ConnectionNetwork;
use min_routing::looping::LoopingError;
use min_routing::router::{DeltaRouter, LoopingRouter, MultiPathRouter, Router};
use min_routing::tag::{destination_tags, SelfRoutingTable};
use std::sync::Arc;

/// A simulatable fabric: the network topology together with the router the
/// cells use to steer packets.
#[derive(Clone)]
pub struct Fabric {
    net: ConnectionNetwork,
    /// The destination-tag table, present exactly when the network is delta
    /// (kept alongside the router for the lane engine's word-packed path).
    routing: Option<SelfRoutingTable>,
    router: Arc<dyn Router>,
}

impl Fabric {
    /// Builds a destination-tag-routed fabric, refusing a network that is
    /// not delta.
    pub fn new(net: ConnectionNetwork) -> Result<Self, FabricError> {
        Self::build(net, |_| Err(FabricError::NotDelta))
    }

    /// Builds a fabric with the router selected for `traffic`:
    ///
    /// * a delta network gets its destination-tag table (bit-identical to
    ///   [`Fabric::new`]);
    /// * a non-delta network under [`TrafficPattern::Permutation`] traffic
    ///   that is a full cell permutation is configured by the looping
    ///   algorithm — every packet follows its conflict-free circuit;
    /// * any other non-delta combination falls back to per-pair
    ///   link-disjoint multi-path routing.
    pub fn for_traffic(
        net: ConnectionNetwork,
        traffic: &TrafficPattern,
    ) -> Result<Self, FabricError> {
        Self::build(net, |net| {
            let cells = net.cells_per_stage();
            Ok(match traffic {
                TrafficPattern::Permutation(dest) if is_cell_permutation(dest, cells) => {
                    // Lift the cell permutation to terminals: terminal
                    // `2c + k` goes to terminal `2·perm[c] + k`, which keeps
                    // the two packets of a source cell on link-disjoint
                    // circuits.
                    let permutation: Vec<u32> = (0..2 * cells as u32)
                        .map(|t| 2 * dest[(t >> 1) as usize] + (t & 1))
                        .collect();
                    Arc::new(
                        LoopingRouter::new(net, &permutation)
                            .map_err(FabricError::NotRearrangeable)?,
                    )
                }
                _ => Arc::new(MultiPathRouter::new(net)),
            })
        })
    }

    /// Checks 2-regularity, routes a delta network by its destination-tag
    /// table, and asks `non_delta` for the router of any other network.
    fn build(
        net: ConnectionNetwork,
        non_delta: impl FnOnce(&ConnectionNetwork) -> Result<Arc<dyn Router>, FabricError>,
    ) -> Result<Self, FabricError> {
        if !net.is_proper() {
            return Err(FabricError::NotTwoRegular);
        }
        let routing = destination_tags(&net);
        let router: Arc<dyn Router> = match &routing {
            Some(table) => Arc::new(DeltaRouter::from_table(table.clone())),
            None => non_delta(&net)?,
        };
        Ok(Fabric {
            net,
            routing,
            router,
        })
    }

    /// The underlying network.
    pub fn network(&self) -> &ConnectionNetwork {
        &self.net
    }

    /// The destination-tag table when the network is delta.
    pub fn delta_routing(&self) -> Option<&SelfRoutingTable> {
        self.routing.as_ref()
    }

    /// The router steering this fabric's packets.
    pub fn router(&self) -> &dyn Router {
        self.router.as_ref()
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
    /// `destination`, or `None` when the router cannot reach it (counted as
    /// an unroutable drop by the engine).
    pub fn route(&self, source: u32, terminal: usize, destination: u32) -> Option<u32> {
        self.router
            .tag(u64::from(source), terminal, u64::from(destination))
    }

    /// Routing tag for a destination cell. Panics for a non-delta fabric —
    /// the source-aware entry point is [`Fabric::route`].
    pub fn tag_for(&self, destination: u32) -> u32 {
        let table = self
            .routing
            .as_ref()
            .expect("tag_for requires a delta fabric");
        table.tag_of_destination[destination as usize]
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

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("stages", &self.stages())
            .field("cells", &self.cells())
            .field("router", &self.router.label())
            .finish()
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
    /// The network is not destination-tag routable.
    NotDelta,
    /// The looping algorithm could not configure the requested permutation
    /// (the network is not Benes-structured, or the pattern is malformed).
    NotRearrangeable(LoopingError),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::NotTwoRegular => write!(f, "the network is not 2-in/2-out regular"),
            FabricError::NotDelta => {
                write!(f, "the network is not destination-tag routable (not delta)")
            }
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
    use min_networks::rearrangeable::benes;
    use min_networks::{baseline, omega};

    #[test]
    fn classical_networks_build_fabrics() {
        for n in 2..=6 {
            let fabric = Fabric::new(omega(n)).expect("omega is delta");
            assert_eq!(fabric.stages(), n);
            assert_eq!(fabric.cells(), 1 << (n - 1));
            assert_eq!(fabric.router().label(), "delta");
            let fabric = Fabric::new(baseline(n)).expect("baseline is delta");
            assert_eq!(fabric.cells(), 1 << (n - 1));
        }
    }

    #[test]
    fn tags_route_to_their_destination() {
        let fabric = Fabric::new(omega(4)).unwrap();
        for dst in 0..8u32 {
            let tag = fabric.tag_for(dst);
            for src in 0..8u32 {
                let mut cell = src;
                for s in 0..3 {
                    cell = fabric.next_cell(s, cell, ((tag >> s) & 1) as u8);
                }
                assert_eq!(cell, dst);
                // The router interface agrees with the table.
                for terminal in 0..2 {
                    assert_eq!(fabric.route(src, terminal, dst), Some(tag));
                }
            }
        }
    }

    #[test]
    fn non_delta_networks_are_rejected() {
        let table: [u64; 4] = [0, 1, 3, 2];
        let weird = min_core::Connection::from_fn(
            2,
            move |x| table[x as usize],
            move |x| table[x as usize] ^ 2,
        );
        let second = min_core::Connection::from_fn(2, |x| x >> 1, |x| (x >> 1) | 2);
        let net = min_core::ConnectionNetwork::new(2, vec![weird, second]);
        assert_eq!(Fabric::new(net).unwrap_err(), FabricError::NotDelta);
    }

    #[test]
    fn irregular_networks_are_rejected() {
        let skew = min_core::Connection::from_fn(2, |_| 0, |x| x);
        let second = min_core::Connection::from_fn(2, |x| x, |x| x ^ 1);
        let net = min_core::ConnectionNetwork::new(2, vec![skew, second]);
        assert_eq!(
            Fabric::new(net.clone()).unwrap_err(),
            FabricError::NotTwoRegular
        );
        assert_eq!(
            Fabric::for_traffic(net, &TrafficPattern::Uniform).unwrap_err(),
            FabricError::NotTwoRegular
        );
    }

    #[test]
    fn for_traffic_matches_new_on_delta_networks() {
        let a = Fabric::new(omega(4)).unwrap();
        let b = Fabric::for_traffic(omega(4), &TrafficPattern::Uniform).unwrap();
        assert_eq!(
            a.delta_routing().unwrap().tag_of_destination,
            b.delta_routing().unwrap().tag_of_destination
        );
        assert_eq!(b.router().label(), "delta");
    }

    #[test]
    fn permutation_traffic_on_benes_uses_the_looping_router() {
        let net = benes(3);
        let cells = net.cells_per_stage() as u32;
        let perm: Vec<u32> = (0..cells).map(|c| (c + 1) % cells).collect();
        let fabric = Fabric::for_traffic(net, &TrafficPattern::Permutation(perm.clone())).unwrap();
        assert_eq!(fabric.router().label(), "looping");
        assert!(fabric.delta_routing().is_none());
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
            assert_eq!(fabric.router().label(), "multi-path", "{traffic:?}");
        }
    }

    #[test]
    fn looping_failures_surface_as_not_rearrangeable() {
        // A 4-stage slice of Benes(3) is not delta-tag routable (8 tags for
        // 4 cells) and has an even stage count, so the looping recursion
        // cannot pair its connections — the typed error says which.
        let full = benes(3);
        let net = min_core::ConnectionNetwork::new(full.width(), full.connections()[..3].to_vec());
        assert!(min_routing::tag::destination_tags(&net).is_none());
        let cells = net.cells_per_stage() as u32;
        let perm: Vec<u32> = (0..cells).map(|c| c ^ 1).collect();
        match Fabric::for_traffic(net, &TrafficPattern::Permutation(perm)) {
            Err(FabricError::NotRearrangeable(_)) => {}
            other => panic!("expected NotRearrangeable, got {other:?}"),
        }
    }
}
