//! Experiment E10 — what the weaker properties fail to capture.

use baseline_equivalence::prelude::*;
use iso_search::{find_isomorphism, IsoSearchOutcome};
use min_core::buddy::{buddy_property, reverse_buddy_property};
use min_core::error::EquivalenceError;
use min_core::properties::characterization_report;
use min_graph::paths::is_banyan;
use min_networks::counterexample::{
    banyan_not_baseline_equivalent, buddy_not_baseline_equivalent, fig5_network,
};

#[test]
fn banyan_alone_does_not_imply_equivalence() {
    let net = banyan_not_baseline_equivalent();
    let g = net.to_digraph();
    assert!(net.is_proper());
    assert!(is_banyan(&g));
    // The constructive algorithm refuses with a precise P-property diagnosis…
    match baseline_isomorphism(&g) {
        Err(EquivalenceError::PrefixComponentCount {
            stage,
            expected,
            actual,
        }) => {
            assert_eq!(stage, 1);
            assert_eq!(expected, 2);
            assert_eq!(actual, 1);
        }
        other => panic!("expected a prefix component diagnosis, got {other:?}"),
    }
    // …and the exhaustive search confirms there is no isomorphism at all.
    assert_eq!(
        find_isomorphism(&g, &baseline_digraph(g.stages()), 100_000_000),
        IsoSearchOutcome::NotIsomorphic
    );
}

#[test]
fn buddy_plus_banyan_does_not_imply_equivalence() {
    // The gap in Agrawal's characterization pointed out by reference [10].
    let net = buddy_not_baseline_equivalent();
    let g = net.to_digraph();
    assert!(is_banyan(&g));
    assert!(buddy_property(&net).holds);
    assert!(reverse_buddy_property(&net).holds);
    assert!(baseline_isomorphism(&g).is_err());
    let report = characterization_report(&g);
    assert!(!report.p_one_star() || !report.p_star_n());
}

#[test]
fn all_classical_networks_nevertheless_satisfy_the_buddy_property() {
    // Buddy is necessary, just not sufficient.
    for n in 2..=6 {
        for kind in ClassicalNetwork::ALL {
            let net = kind.build(n);
            assert!(buddy_property(&net).holds, "{kind} n={n}");
            assert!(reverse_buddy_property(&net).holds, "{kind} n={n}");
        }
    }
}

#[test]
fn the_fig5_degeneracy_is_detected_at_every_size() {
    for n in 2..=6 {
        let net = fig5_network(n);
        let g = net.to_digraph();
        assert!(net.has_parallel_links(), "n={n}");
        assert!(!is_banyan(&g), "n={n}");
        assert!(baseline_isomorphism(&g).is_err(), "n={n}");
    }
}

#[test]
fn counterexamples_are_not_equivalent_to_each_other_either() {
    // A labelled sanity check: being "not Baseline-equivalent" is not a
    // single equivalence class — the two counterexamples have different
    // sizes and are trivially non-equivalent, and comparing them reports a
    // shape mismatch rather than a crash.
    let a = banyan_not_baseline_equivalent().to_digraph();
    let b = buddy_not_baseline_equivalent().to_digraph();
    assert_eq!(
        equivalence_mapping(&a, &b),
        Err(EquivalenceError::ShapeMismatch)
    );
}
