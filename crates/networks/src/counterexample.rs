//! Networks that delimit the theory.
//!
//! The paper is careful about what its characterization does *not* say:
//!
//! * a PIPID stage with critical digit `k = θ⁻¹(0) = 0` produces parallel
//!   links and destroys the Banyan property (Fig. 5) — [`fig5_network`];
//! * the Banyan property alone does not imply Baseline equivalence —
//!   [`find_banyan_not_equivalent`] searches for (and
//!   [`banyan_not_baseline_equivalent`] deterministically produces) Banyan
//!   networks that fail `P(1,*)`/`P(*,n)`;
//! * Agrawal's buddy property, even together with the Banyan property, does
//!   not imply Baseline equivalence (the point of reference \[10\]) —
//!   [`find_buddy_not_equivalent`] / [`buddy_not_baseline_equivalent`].

use crate::random::{random_buddy_network, random_link_permutation_network};
use min_core::buddy::{buddy_property, reverse_buddy_property};
use min_core::pipid::connection_from_pipid;
use min_core::properties::satisfies_characterization;
use min_core::ConnectionNetwork;
use min_graph::paths::is_banyan;
use min_labels::IndexPermutation;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// An `n`-stage network whose **last** stage is a degenerate PIPID stage
/// (θ fixes digit 0, so each cell sends both links to the same child): the
/// situation of Fig. 5. The earlier stages are ordinary Omega stages.
///
/// The resulting digraph is 2-in/2-out regular yet not Banyan.
pub fn fig5_network(n: usize) -> ConnectionNetwork {
    assert!(n >= 2);
    let shuffle = IndexPermutation::perfect_shuffle(n);
    let mut degenerate_theta = IndexPermutation::identity(n);
    if n >= 3 {
        degenerate_theta = IndexPermutation::transposition(n, 1, n - 1);
    }
    debug_assert_eq!(degenerate_theta.theta_inv(0), 0);
    let mut connections = Vec::with_capacity(n - 1);
    for _ in 0..n - 2 {
        connections.push(connection_from_pipid(&shuffle).connection);
    }
    connections.push(connection_from_pipid(&degenerate_theta).connection);
    ConnectionNetwork::new(n - 1, connections)
}

/// Searches for an `n`-stage network that is Banyan but **not**
/// Baseline-equivalent, by sampling networks whose stages are arbitrary link
/// permutations. Returns `None` if no instance is found within
/// `max_attempts`.
pub fn find_banyan_not_equivalent<R: Rng>(
    n: usize,
    max_attempts: usize,
    rng: &mut R,
) -> Option<ConnectionNetwork> {
    for _ in 0..max_attempts {
        let net = random_link_permutation_network(n, rng);
        if is_banyan(&net) && !satisfies_characterization(&net) {
            return Some(net);
        }
    }
    None
}

/// Searches for an `n`-stage network that is Banyan, satisfies Agrawal's
/// buddy property in both directions, and is **not** Baseline-equivalent
/// (the class of counterexamples exhibited by reference \[10\]).
pub fn find_buddy_not_equivalent<R: Rng>(
    n: usize,
    max_attempts: usize,
    rng: &mut R,
) -> Option<ConnectionNetwork> {
    for _ in 0..max_attempts {
        let net = random_buddy_network(n, rng);
        if !is_banyan(&net) {
            continue;
        }
        debug_assert!(buddy_property(&net).holds && reverse_buddy_property(&net).holds);
        if !satisfies_characterization(&net) {
            return Some(net);
        }
    }
    None
}

/// A deterministic 3-stage (N = 8) Banyan network that is **not**
/// Baseline-equivalent.
///
/// Construction: the first stage chains the four cells into a single
/// 8-cycle (`x → {x, x+1 mod 4}`), so the prefix `(G)_{1,2}` has one
/// connected component instead of the two demanded by `P(1,2)`; the second
/// stage (`x → {2(x mod 2), 2(x mod 2)+1}`) is chosen so that the two
/// children of every first-stage cell still reach complementary halves of
/// the outputs, which keeps the unique-path (Banyan) property intact.
pub fn banyan_not_baseline_equivalent() -> ConnectionNetwork {
    let c0 = min_core::Connection::from_fn(2, |x| x, |x| (x + 1) & 0b11);
    let c1 = min_core::Connection::from_fn(2, |x| 2 * (x & 1), |x| 2 * (x & 1) + 1);
    ConnectionNetwork::new(2, vec![c0, c1])
}

/// A deterministic 4-stage (N = 16) network that is Banyan, satisfies the
/// buddy property in both directions, and is not Baseline-equivalent —
/// demonstrating, as reference \[10\] did, that Agrawal's buddy
/// characterization is insufficient.
pub fn buddy_not_baseline_equivalent() -> ConnectionNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0A67_A3A1);
    find_buddy_not_equivalent(4, 20_000, &mut rng)
        .expect("the seeded search is deterministic and known to succeed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use iso_search::{find_isomorphism, IsoSearchOutcome};
    use min_core::baseline_iso::{baseline_digraph, baseline_isomorphism};

    #[test]
    fn fig5_networks_have_parallel_links_and_are_not_banyan() {
        for n in 2..=5 {
            let net = fig5_network(n);
            assert!(net.is_proper(), "degrees are still regular");
            assert!(net.has_parallel_links());
            assert!(!is_banyan(&net.to_digraph()), "n={n}");
            assert!(!satisfies_characterization(&net.to_digraph()));
        }
    }

    #[test]
    fn banyan_counterexample_is_banyan_but_not_equivalent() {
        let net = banyan_not_baseline_equivalent();
        let g = net.to_digraph();
        assert!(is_banyan(&g));
        assert!(!satisfies_characterization(&g));
        assert!(baseline_isomorphism(&g).is_err());
    }

    #[test]
    fn banyan_counterexample_is_confirmed_by_exhaustive_search() {
        // The constructive algorithm's rejection is corroborated by the
        // exact (backtracking) isomorphism search against the Baseline.
        let net = banyan_not_baseline_equivalent();
        let g = net.to_digraph();
        let outcome = find_isomorphism(&g, &baseline_digraph(3), 50_000_000);
        assert_eq!(outcome, IsoSearchOutcome::NotIsomorphic);
    }

    #[test]
    fn buddy_counterexample_defeats_agrawals_characterization() {
        let net = buddy_not_baseline_equivalent();
        let g = net.to_digraph();
        assert!(is_banyan(&g));
        assert!(buddy_property(&net).holds);
        assert!(reverse_buddy_property(&net).holds);
        assert!(!satisfies_characterization(&g));
        assert!(baseline_isomorphism(&g).is_err());
    }

    #[test]
    fn searches_do_not_return_false_positives() {
        let mut rng = ChaCha8Rng::seed_from_u64(7919);
        if let Some(net) = find_banyan_not_equivalent(3, 300, &mut rng) {
            let g = net.to_digraph();
            assert!(is_banyan(&g));
            assert!(!satisfies_characterization(&g));
        }
        if let Some(net) = find_buddy_not_equivalent(4, 2_000, &mut rng) {
            let g = net.to_digraph();
            assert!(is_banyan(&g));
            assert!(buddy_property(&net).holds);
            assert!(!satisfies_characterization(&g));
        }
    }
}
