//! Experiment E9 — the six classical networks are pairwise equivalent
//! (the paper's headline corollary), with explicit verified mappings, and
//! cross-validated against the exhaustive isomorphism search at small sizes.

use baseline_equivalence::prelude::*;
use iso_search::iso::compose_mappings;
use iso_search::{find_isomorphism, IsoSearchOutcome};
use min_graph::iso::verify_stage_mapping;

#[test]
fn all_pairs_are_equivalent_with_verified_mappings() {
    for n in 2..=6 {
        let digraphs: Vec<_> = ClassicalNetwork::ALL
            .iter()
            .map(|k| (k, k.build(n).to_digraph()))
            .collect();
        for (ka, ga) in &digraphs {
            for (kb, gb) in &digraphs {
                let mapping = equivalence_mapping(ga, gb)
                    .unwrap_or_else(|e| panic!("{ka} vs {kb} at n={n}: {e}"));
                assert!(
                    verify_stage_mapping(ga, gb, &mapping),
                    "{ka} vs {kb} at n={n}"
                );
            }
        }
    }
}

#[test]
fn constructive_equivalence_agrees_with_exhaustive_search_at_n3() {
    let n = 3;
    let digraphs: Vec<_> = ClassicalNetwork::ALL
        .iter()
        .map(|k| k.build(n).to_digraph())
        .collect();
    for a in &digraphs {
        for b in &digraphs {
            let outcome = find_isomorphism(a, b, 10_000_000);
            assert!(matches!(outcome, IsoSearchOutcome::Found(_)));
        }
    }
}

#[test]
fn every_catalog_network_is_built_from_nondegenerate_pipids() {
    // §4: the corollary applies because each network is designed from PIPID
    // permutations whose critical digit is non-zero.
    for n in 2..=6 {
        for kind in ClassicalNetwork::ALL {
            for theta in kind.thetas(n) {
                assert_ne!(
                    theta.theta_inv(0),
                    0,
                    "{kind} n={n} uses a degenerate PIPID stage"
                );
            }
        }
    }
}

#[test]
fn equivalence_certificates_compose_transitively() {
    // (Omega -> Baseline) ∘ (Baseline -> Flip) must equal a valid
    // Omega -> Flip mapping (not necessarily the same one the direct call
    // produces, but a verified one).
    let n = 5;
    let omega = networks::omega(n).to_digraph();
    let baseline = networks::baseline(n).to_digraph();
    let flip = networks::flip(n).to_digraph();
    let a = equivalence_mapping(&omega, &baseline).unwrap();
    let b = equivalence_mapping(&baseline, &flip).unwrap();
    let composed = compose_mappings(&a, &b);
    assert!(verify_stage_mapping(&omega, &flip, &composed));
}

#[test]
fn wu_and_feng_style_mapping_is_stage_respecting_and_bijective() {
    let n = 6;
    let omega = networks::omega(n).to_digraph();
    let baseline = baseline_digraph(n);
    let mapping = equivalence_mapping(&omega, &baseline).unwrap();
    assert_eq!(mapping.len(), n);
    for stage_map in &mapping {
        let mut seen = vec![false; stage_map.len()];
        for &img in stage_map {
            assert!(!seen[img as usize]);
            seen[img as usize] = true;
        }
    }
}
