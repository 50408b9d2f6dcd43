//! Experiment E6 — the Section 2 characterization theorem, end to end.
//!
//! Banyan + P(1,*) + P(*,n) ⇒ isomorphic to the Baseline MI-digraph, and the
//! isomorphism produced by the constructive algorithm is verified arc by arc.

use baseline_equivalence::prelude::*;
use iso_search::digraph::{relabel, reverse};
use min_core::properties::{characterization_report, p_one_star, p_property, p_star_n};
use min_graph::components::component_count_range;
use min_graph::paths::is_banyan;

#[test]
fn p_counts_match_the_papers_formula_on_the_baseline() {
    // P(i,j): (G)_{i,j} has exactly 2^{n-1-(j-i)} components.
    for n in 2..=8 {
        let g = baseline_digraph(n);
        for i in 0..n {
            for j in i..n {
                let expected = 1usize << (n - 1 - (j - i));
                assert_eq!(
                    component_count_range(&g, i, j),
                    expected,
                    "P({},{}) at n={n}",
                    i + 1,
                    j + 1
                );
                assert!(p_property(&g, i, j));
            }
        }
    }
}

#[test]
fn the_characterization_holds_for_every_catalog_network() {
    for n in 2..=7 {
        for kind in ClassicalNetwork::ALL {
            let g = kind.build(n).to_digraph();
            let report = characterization_report(&g);
            assert!(report.proper_shape, "{kind} n={n}");
            assert!(report.banyan, "{kind} n={n}");
            assert!(report.p_one_star(), "{kind} n={n}");
            assert!(report.p_star_n(), "{kind} n={n}");
            let cert = baseline_isomorphism(&g).unwrap_or_else(|e| panic!("{kind} n={n}: {e}"));
            assert!(cert.verify(&g), "{kind} n={n}");
        }
    }
}

#[test]
fn the_three_hypotheses_are_independent_of_each_other() {
    // (a) Banyan fails, P-properties may hold: the Fig. 5 network.
    let fig5 = min_networks::counterexample::fig5_network(4).to_digraph();
    assert!(!is_banyan(&fig5));

    // (b) Banyan holds, P(1,*) fails: the deterministic counterexample.
    let ce = min_networks::counterexample::banyan_not_baseline_equivalent().to_digraph();
    assert!(is_banyan(&ce));
    assert!(!p_one_star(&ce));

    // (c) Its reverse is Banyan with P(*,n) failing instead.
    let rev = reverse(&ce);
    assert!(is_banyan(&rev));
    assert!(!p_star_n(&rev));
    assert!(baseline_isomorphism(&rev).is_err());
}

#[test]
fn certificates_survive_arbitrary_relabelling() {
    // Relabelling the nodes of an equivalent network (an isomorphic copy)
    // cannot change the verdict, and the new certificate must still verify.
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5EED);
    for n in 2..=6 {
        let g = networks::omega(n).to_digraph();
        let mapping: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let mut m: Vec<u32> = (0..g.width() as u32).collect();
                m.shuffle(&mut rng);
                m
            })
            .collect();
        let h = relabel(&g, &mapping);
        assert!(satisfies_characterization(&h), "n={n}");
        let cert = baseline_isomorphism(&h).expect("still equivalent");
        assert!(cert.verify(&h), "n={n}");
    }
}

#[test]
fn scaling_sanity_the_constructive_algorithm_handles_large_networks() {
    // n = 12 means 2^11 = 2048 cells per stage and 45 056 arcs; the
    // near-linear algorithm should handle it comfortably inside a unit test.
    let n = 12;
    let g = networks::omega(n).to_digraph();
    let cert = baseline_isomorphism(&g).expect("omega is equivalent at any size");
    assert_eq!(cert.mapping.len(), n);
    assert!(cert.verify(&g));
}
