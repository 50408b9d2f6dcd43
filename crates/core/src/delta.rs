//! Delta and bidelta properties (Kruskal & Snir).
//!
//! The paper's introduction contrasts its graph characterization with
//! Kruskal & Snir's *bidelta* condition \[11\], a sufficient condition for
//! isomorphism phrased in terms of digit-controlled routing. For 2×2 cells
//! the operational content is:
//!
//! * a network (with a fixed `(f, g)` port decomposition) is a **delta**
//!   network when the last-stage cell reached from a first-stage cell by
//!   applying the port choices `t_{n-2}, …, t_0` (one bit per connection)
//!   depends only on the tag `t`, never on the starting cell;
//! * it is **bidelta** when both the network and its reverse are delta.
//!
//! The routing-tag machinery itself (computing the tag that reaches a given
//! destination, permutation admissibility, …) lives in `min-routing`; this
//! module only hosts the topological predicates so that experiment E11 can
//! compare the paper's characterization with the bidelta condition.

use crate::network::ConnectionNetwork;
use min_labels::Label;

/// Outcome of a delta-property check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaReport {
    /// `true` when the property holds.
    pub holds: bool,
    /// When the property holds, `destination[t]` is the last-stage cell
    /// reached by tag `t` (a bijection for Banyan delta networks).
    pub destination: Option<Vec<u32>>,
    /// When the property fails, a witness `(tag, source_a, source_b)` such
    /// that the two sources reach different cells under the same tag.
    pub witness: Option<(Label, Label, Label)>,
}

/// Applies the port choices of `tag` (bit `k` of the tag is consumed at
/// connection `k`, 0 = `f`, 1 = `g`) starting from `source`.
pub fn route_by_tag(net: &ConnectionNetwork, source: Label, tag: Label) -> Label {
    let mut cur = source;
    for (k, conn) in net.connections().iter().enumerate() {
        cur = if (tag >> k) & 1 == 0 {
            conn.f(cur)
        } else {
            conn.g(cur)
        };
    }
    cur
}

/// Checks the delta property with respect to the network's own `(f, g)`
/// decomposition.
pub fn delta_report(net: &ConnectionNetwork) -> DeltaReport {
    let cells = net.cells_per_stage() as u64;
    let tags = 1u64 << net.connections().len();
    let mut destination = Vec::with_capacity(tags as usize);
    for tag in 0..tags {
        let expected = route_by_tag(net, 0, tag);
        for source in 1..cells {
            let got = route_by_tag(net, source, tag);
            if got != expected {
                return DeltaReport {
                    holds: false,
                    destination: None,
                    witness: Some((tag, 0, source)),
                };
            }
        }
        destination.push(expected as u32);
    }
    DeltaReport {
        holds: true,
        destination: Some(destination),
        witness: None,
    }
}

/// `true` when the network is a delta network (destination-tag routable).
pub fn is_delta(net: &ConnectionNetwork) -> bool {
    delta_report(net).holds
}

/// `true` when both the network and its reverse are delta networks.
///
/// The reverse decomposition is obtained by Proposition 1 when every stage
/// is a proper independent connection, and by
/// [`ConnectionNetwork::reverse`] (each cell's parents in arc order)
/// otherwise.
pub fn is_bidelta(net: &ConnectionNetwork) -> bool {
    if !is_delta(net) {
        return false;
    }
    let reverse = net
        .reverse_via_proposition1()
        .ok()
        .or_else(|| net.reverse());
    match reverse {
        Some(rev) => is_delta(&rev),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::Connection;
    use min_labels::{IndexPermutation, Permutation};

    fn omega_net(n: usize) -> ConnectionNetwork {
        let sigma = IndexPermutation::perfect_shuffle(n);
        let conn = Connection::from_link_permutation(&Permutation::from_index_perm(&sigma));
        ConnectionNetwork::new(n - 1, vec![conn; n - 1])
    }

    fn baseline_net(n: usize) -> ConnectionNetwork {
        ConnectionNetwork::from_digraph(&crate::baseline_iso::baseline_digraph(n)).unwrap()
    }

    #[test]
    fn omega_is_delta_and_bidelta() {
        for n in 2..=6 {
            let net = omega_net(n);
            let report = delta_report(&net);
            assert!(report.holds, "omega n={n} is a delta network");
            // The tag -> destination map must be a bijection.
            let mut dests = report.destination.unwrap();
            dests.sort_unstable();
            let expected: Vec<u32> = (0..net.cells_per_stage() as u32).collect();
            assert_eq!(dests, expected);
            assert!(is_bidelta(&net), "omega n={n} is bidelta");
        }
    }

    #[test]
    fn baseline_is_delta_and_bidelta() {
        for n in 2..=6 {
            let net = baseline_net(n);
            assert!(is_delta(&net), "baseline n={n}");
            assert!(is_bidelta(&net), "baseline n={n}");
        }
    }

    #[test]
    fn omega_destinations_follow_the_tag_bits() {
        // In the Omega network the destination is the tag read with the
        // first consumed bit as most significant digit.
        let net = omega_net(4);
        let report = delta_report(&net);
        let dests = report.destination.unwrap();
        for tag in 0..8u64 {
            let mut expected = 0u64;
            for k in 0..3 {
                expected = (expected << 1) | ((tag >> k) & 1);
            }
            assert_eq!(u64::from(dests[tag as usize]), expected);
        }
    }

    #[test]
    fn random_wiring_is_not_delta() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(127);
        let mut not_delta = 0;
        for _ in 0..10 {
            let connections: Vec<Connection> = (0..3)
                .map(|_| {
                    let p = Permutation::random(4, &mut rng);
                    Connection::from_link_permutation(&p)
                })
                .collect();
            let net = ConnectionNetwork::new(3, connections);
            if !is_delta(&net) {
                not_delta += 1;
            }
        }
        assert!(not_delta >= 8, "random stages are essentially never delta");
    }

    #[test]
    fn delta_witness_is_a_real_counterexample() {
        // A single non-affine stage breaks the delta property and the
        // witness must demonstrate it.
        let table: [u64; 4] = [0, 1, 3, 2];
        let conn = Connection::from_fn(
            2,
            move |x| table[x as usize],
            move |x| table[x as usize] ^ 2,
        );
        let id_stage = Connection::from_fn(2, |x| x >> 1, |x| (x >> 1) | 2);
        let net = ConnectionNetwork::new(2, vec![conn, id_stage]);
        let report = delta_report(&net);
        if let Some((tag, a, b)) = report.witness {
            assert_ne!(route_by_tag(&net, a, tag), route_by_tag(&net, b, tag));
            assert!(!report.holds);
        } else {
            // If this particular wiring happens to be delta, the report must
            // say so coherently.
            assert!(report.holds);
        }
    }

    #[test]
    fn route_by_tag_consumes_one_bit_per_connection() {
        let net = omega_net(3);
        // tag 0 routes through f at both stages: f(f(src)).
        for src in 0..4u64 {
            let expected = net.connection(1).f(net.connection(0).f(src));
            assert_eq!(route_by_tag(&net, src, 0), expected);
        }
        // tag 0b10 routes f then g.
        for src in 0..4u64 {
            let expected = net.connection(1).g(net.connection(0).f(src));
            assert_eq!(route_by_tag(&net, src, 0b10), expected);
        }
    }
}
