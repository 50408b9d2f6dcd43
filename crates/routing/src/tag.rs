//! Destination-tag (bit-directed) routing.
//!
//! For a delta network the cell reached from *any* source after applying the
//! port choices `t_0, t_1, …` depends only on the tag `t`; §4 of the paper
//! points out that PIPID-built networks admit exactly this kind of routing
//! ("a very simple bit directed routing"), which is why the classical
//! networks were designed with PIPID stages in the first place.

use min_core::delta::{delta_report, route_by_tag};
use min_core::ConnectionNetwork;
use serde::{Deserialize, Serialize};

/// The self-routing table of a delta network: the bijection between routing
/// tags and destination cells.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelfRoutingTable {
    /// `destination_of_tag[t]` = last-stage cell reached with tag `t`.
    pub destination_of_tag: Vec<u32>,
    /// `tag_of_destination[d]` = tag reaching last-stage cell `d`.
    pub tag_of_destination: Vec<u32>,
}

impl SelfRoutingTable {
    /// Number of destinations / tags.
    pub fn len(&self) -> usize {
        self.destination_of_tag.len()
    }

    /// `true` when the table is empty (never the case for real networks).
    pub fn is_empty(&self) -> bool {
        self.destination_of_tag.is_empty()
    }
}

/// Computes the self-routing table of a delta network; `None` when the
/// network is not delta (with respect to its own `(f,g)` decomposition) or
/// when the tag→destination map is not a bijection.
pub fn destination_tags(net: &ConnectionNetwork) -> Option<SelfRoutingTable> {
    let report = delta_report(net);
    let destination_of_tag = report.destination?;
    let cells = net.cells_per_stage();
    if destination_of_tag.len() != cells {
        return None;
    }
    let mut tag_of_destination = vec![u32::MAX; cells];
    for (tag, &dest) in destination_of_tag.iter().enumerate() {
        if tag_of_destination[dest as usize] != u32::MAX {
            return None; // not a bijection
        }
        tag_of_destination[dest as usize] = tag as u32;
    }
    Some(SelfRoutingTable {
        destination_of_tag,
        tag_of_destination,
    })
}

/// Verifies that the network is self-routing: for every source and every
/// destination, routing with the destination's tag really ends at that
/// destination.
pub fn verify_self_routing(net: &ConnectionNetwork) -> bool {
    let Some(table) = destination_tags(net) else {
        return false;
    };
    let cells = net.cells_per_stage() as u64;
    for dst in 0..cells {
        let tag = u64::from(table.tag_of_destination[dst as usize]);
        for src in 0..cells {
            if route_by_tag(net, src, tag) != dst {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use min_networks::{
        baseline, flip, indirect_binary_cube, modified_data_manipulator, omega, reverse_baseline,
    };

    #[test]
    fn all_classical_networks_are_self_routing() {
        for n in 2..=6 {
            for (name, net) in [
                ("omega", omega(n)),
                ("flip", flip(n)),
                ("baseline", baseline(n)),
                ("reverse-baseline", reverse_baseline(n)),
                ("cube", indirect_binary_cube(n)),
                ("mdm", modified_data_manipulator(n)),
            ] {
                assert!(verify_self_routing(&net), "{name} n={n}");
            }
        }
    }

    #[test]
    fn omega_tags_are_the_destination_bits_reversed() {
        let net = omega(4);
        let table = destination_tags(&net).unwrap();
        for dst in 0..8u64 {
            let tag = u64::from(table.tag_of_destination[dst as usize]);
            // Destination bit j is consumed at connection (n-2-j): reversing
            // the 3 bits of dst gives the tag.
            let mut reversed = 0u64;
            for k in 0..3 {
                reversed |= ((dst >> k) & 1) << (2 - k);
            }
            assert_eq!(tag, reversed);
        }
    }

    #[test]
    fn cube_tags_equal_the_destination_address() {
        // The indirect binary cube consumes destination bit s at stage s, so
        // the tag *is* the destination.
        let net = indirect_binary_cube(4);
        let table = destination_tags(&net).unwrap();
        for dst in 0..8u32 {
            assert_eq!(table.tag_of_destination[dst as usize], dst);
        }
    }

    #[test]
    fn table_tags_route_any_source_to_their_destination() {
        let net = baseline(4);
        let table = destination_tags(&net).unwrap();
        for dst in 0..8u64 {
            let tag = u64::from(table.tag_of_destination[dst as usize]);
            assert_eq!(route_by_tag(&net, 3, tag), dst);
            assert_eq!(route_by_tag(&net, 6, tag), dst);
        }
    }

    #[test]
    fn non_delta_networks_have_no_table() {
        // A network with a non-affine stage is not destination-tag routable.
        let table: [u64; 4] = [0, 1, 3, 2];
        let weird = min_core::Connection::from_fn(
            2,
            move |x| table[x as usize],
            move |x| table[x as usize] ^ 2,
        );
        let second = min_core::Connection::from_fn(2, |x| x >> 1, |x| (x >> 1) | 2);
        let net = min_core::ConnectionNetwork::new(2, vec![weird, second]);
        assert!(destination_tags(&net).is_none());
        assert!(!verify_self_routing(&net));
    }

    #[test]
    fn routing_table_is_a_bijection() {
        let net = flip(5);
        let table = destination_tags(&net).unwrap();
        assert_eq!(table.len(), 16);
        assert!(!table.is_empty());
        let mut dests = table.destination_of_tag.clone();
        dests.sort_unstable();
        assert_eq!(dests, (0..16u32).collect::<Vec<_>>());
    }
}
