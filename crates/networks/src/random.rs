//! Random network generators.
//!
//! Three families, matching the three roles random instances play in the
//! test suite and the benchmarks:
//!
//! * [`random_pipid_network`] — every stage is a uniformly random
//!   *non-degenerate* PIPID: these are the networks covered by the paper's
//!   main corollary, and (once Banyan) must all be Baseline-equivalent;
//! * [`random_independent_banyan`] — every stage is a random *proper
//!   independent connection* (the wider class of Theorem 3), with rejection
//!   sampling until the assembled network is Banyan;
//! * [`random_link_permutation_network`] — every stage is an arbitrary link
//!   permutation: the negative control, essentially never
//!   Baseline-equivalent.

use min_core::affine_form::random_proper_independent_connection;
use min_core::pipid::connection_from_pipid;
use min_core::{Connection, ConnectionNetwork};
use min_graph::paths::is_banyan;
use min_labels::{IndexPermutation, Permutation};
use rand::Rng;

/// Samples a random non-degenerate PIPID digit permutation on `n` link
/// digits (i.e. θ with θ(0) ≠ 0, so the induced stage has no parallel
/// links).
pub fn random_nondegenerate_theta<R: Rng>(n: usize, rng: &mut R) -> IndexPermutation {
    assert!(n >= 2, "need at least two link digits");
    loop {
        let theta = IndexPermutation::random(n, rng);
        if theta.theta_inv(0) != 0 {
            return theta;
        }
    }
}

/// A random `n`-stage network whose every stage is a non-degenerate PIPID.
pub fn random_pipid_network<R: Rng>(n: usize, rng: &mut R) -> ConnectionNetwork {
    assert!(n >= 2);
    let connections = (0..n - 1)
        .map(|_| connection_from_pipid(&random_nondegenerate_theta(n, rng)).connection)
        .collect();
    ConnectionNetwork::new(n - 1, connections)
}

/// A random `n`-stage network whose every stage is a proper independent
/// connection, resampled until the network is Banyan (up to `max_attempts`
/// attempts; `None` if the budget is exhausted).
pub fn random_independent_banyan<R: Rng>(
    n: usize,
    max_attempts: usize,
    rng: &mut R,
) -> Option<ConnectionNetwork> {
    assert!(n >= 2);
    let width = n - 1;
    for _ in 0..max_attempts {
        let connections: Vec<Connection> = (0..n - 1)
            .map(|_| random_proper_independent_connection(width, rng.gen(), rng))
            .collect();
        let net = ConnectionNetwork::new(width, connections);
        if is_banyan(&net) {
            return Some(net);
        }
    }
    None
}

/// A random `n`-stage network whose every stage is an arbitrary (uniform)
/// permutation of the link labels.
pub fn random_link_permutation_network<R: Rng>(n: usize, rng: &mut R) -> ConnectionNetwork {
    assert!(n >= 2);
    let connections = (0..n - 1)
        .map(|_| Connection::from_link_permutation(&Permutation::random(n, rng)))
        .collect();
    ConnectionNetwork::new(n - 1, connections)
}

/// A random `n`-stage "paired" network: every stage pairs the source cells
/// two by two and sends each pair onto a target pair (both sources to both
/// targets).
///
/// Such stages automatically satisfy Agrawal's buddy property in both
/// directions; they are the search space in which the buddy-but-not-
/// equivalent counterexamples of reference \[10\] live (see
/// [`crate::counterexample`]).
pub fn random_buddy_network<R: Rng>(n: usize, rng: &mut R) -> ConnectionNetwork {
    assert!(n >= 2);
    let width = n - 1;
    let cells = 1usize << width;
    assert!(cells >= 2);
    let connections = (0..n - 1)
        .map(|_| {
            // Random pairing of sources and of targets, plus a random
            // bijection between source-pairs and target-pairs.
            let mut sources: Vec<u32> = (0..cells as u32).collect();
            let mut targets: Vec<u32> = (0..cells as u32).collect();
            shuffle(&mut sources, rng);
            shuffle(&mut targets, rng);
            let mut f = vec![0u32; cells];
            let mut g = vec![0u32; cells];
            for pair in 0..cells / 2 {
                let (s0, s1) = (sources[2 * pair], sources[2 * pair + 1]);
                let (t0, t1) = (targets[2 * pair], targets[2 * pair + 1]);
                f[s0 as usize] = t0;
                g[s0 as usize] = t1;
                f[s1 as usize] = t0;
                g[s1 as usize] = t1;
            }
            Connection::from_tables(width, f, g)
        })
        .collect();
    ConnectionNetwork::new(width, connections)
}

fn shuffle<R: Rng>(v: &mut [u32], rng: &mut R) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use min_core::buddy::{buddy_property, reverse_buddy_property};
    use min_core::independence::is_independent;
    use min_core::properties::satisfies_characterization;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn random_pipid_networks_are_proper_and_independent() {
        let mut rng = ChaCha8Rng::seed_from_u64(149);
        for _ in 0..10 {
            let net = random_pipid_network(4, &mut rng);
            assert!(net.is_proper());
            assert!(!net.has_parallel_links());
            for conn in net.connections() {
                assert!(is_independent(conn));
            }
        }
    }

    #[test]
    fn banyan_pipid_networks_satisfy_the_characterization() {
        // The paper's main corollary, on random instances: any *Banyan*
        // network built from non-degenerate PIPIDs is Baseline-equivalent.
        let mut rng = ChaCha8Rng::seed_from_u64(151);
        let mut banyan_count = 0;
        for _ in 0..40 {
            let net = random_pipid_network(4, &mut rng);
            let g = net.to_digraph();
            if is_banyan(&g) {
                banyan_count += 1;
                assert!(satisfies_characterization(&g));
            }
        }
        assert!(banyan_count >= 1, "expected at least one Banyan sample");
    }

    #[test]
    fn random_independent_banyan_networks_are_banyan() {
        let mut rng = ChaCha8Rng::seed_from_u64(157);
        let net = random_independent_banyan(4, 200, &mut rng).expect("found within budget");
        assert!(is_banyan(&net.to_digraph()));
        for conn in net.connections() {
            assert!(is_independent(conn));
        }
        // ... and therefore Baseline-equivalent (Theorem 3).
        assert!(satisfies_characterization(&net.to_digraph()));
    }

    #[test]
    fn random_link_permutation_networks_are_proper_but_rarely_equivalent() {
        let mut rng = ChaCha8Rng::seed_from_u64(163);
        let mut equivalent = 0;
        for _ in 0..15 {
            let net = random_link_permutation_network(4, &mut rng);
            assert!(net.is_proper());
            if satisfies_characterization(&net.to_digraph()) {
                equivalent += 1;
            }
        }
        assert!(equivalent <= 2);
    }

    #[test]
    fn random_buddy_networks_satisfy_both_buddy_properties() {
        let mut rng = ChaCha8Rng::seed_from_u64(167);
        for _ in 0..10 {
            let net = random_buddy_network(4, &mut rng);
            assert!(net.is_proper());
            assert!(buddy_property(&net).holds);
            assert!(reverse_buddy_property(&net).holds);
        }
    }

    #[test]
    fn nondegenerate_theta_sampler_respects_the_constraint() {
        let mut rng = ChaCha8Rng::seed_from_u64(173);
        for _ in 0..50 {
            let theta = random_nondegenerate_theta(5, &mut rng);
            assert_ne!(theta.theta_inv(0), 0);
        }
    }
}
