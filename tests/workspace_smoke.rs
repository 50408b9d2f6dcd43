//! Workspace smoke test: the facade prelude round-trip promised by the
//! `src/lib.rs` doc example, swept across the whole classical catalog.
//!
//! This is the one test a fresh checkout should reach for first: it exercises
//! every workspace layer (labels → graph → core → networks → routing) through
//! the `baseline_equivalence::prelude` alone, exactly the way an application
//! would.

use baseline_equivalence::prelude::*;

/// The doc example from `src/lib.rs`, kept verbatim so the facade's front
/// door never silently drifts from what the documentation shows.
#[test]
fn the_quickstart_example_works_as_documented() {
    let omega = networks::omega(4);
    let cert = core::baseline_isomorphism(&omega).unwrap();
    assert!(cert.verify(&omega));
    assert!(omega.connections().iter().all(core::is_independent));
    assert!(core::is_delta(&omega));
}

/// Every classical network at n = 3..=5: built through the prelude, certified
/// Baseline-equivalent, and delta exactly when the characterization holds.
#[test]
fn catalog_round_trip_through_the_prelude() {
    for n in 3..=5 {
        for kind in ClassicalNetwork::ALL {
            let net = kind.build(n);
            let g: MiDigraph = net.to_digraph();

            // §2: the characterization theorem holds for the whole catalog…
            assert!(
                satisfies_characterization(&g),
                "{kind} n={n} fails the characterization"
            );

            // …§3: with a constructive, verified isomorphism certificate…
            let cert = baseline_isomorphism(&g)
                .unwrap_or_else(|e| panic!("{kind} n={n}: no certificate: {e}"));
            assert!(cert.verify(&g), "{kind} n={n}: certificate fails to verify");

            // …§3: every stage an independent connection…
            assert!(
                net.connections().iter().all(is_independent),
                "{kind} n={n} has a dependent stage"
            );

            // …§4: and destination-tag routability agrees with the
            // characterization (every PIPID-built network is delta).
            assert_eq!(
                core::is_delta(&net),
                satisfies_characterization(&g),
                "{kind} n={n}: is_delta disagrees with satisfies_characterization"
            );
        }
    }
}

/// The prelude exposes the label algebra too; `equivalence_mapping` composes
/// certificates into an explicit network-to-network mapping.
#[test]
fn prelude_exposes_labels_and_equivalence_mapping() {
    let theta = IndexPermutation::perfect_shuffle(4);
    assert_eq!(theta.width(), 4);

    let a = networks::omega(3).to_digraph();
    let b = networks::flip(3).to_digraph();
    let mapping = equivalence_mapping(&a, &b).expect("catalog networks are equivalent");
    assert!(graph::verify_stage_mapping(&a, &b, &mapping));
}
