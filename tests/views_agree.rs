//! The characterization reads a network through `MiView`: the same
//! algorithm runs on a `ConnectionNetwork`'s own `f`/`g` tables, on its
//! materialized `MiDigraph`, and against the closed-form `BaselineView`.
//! These tests pin that the views agree: the same certificate or the same
//! error from either input, the same verification verdicts, and the same
//! Baseline arcs from the formula as from the digraph built out of it.

use baseline_equivalence::prelude::*;
use min_core::baseline_iso::BaselineView;
use min_core::compose_baseline_certificates;
use min_graph::iso::verify_stage_mapping;
use min_graph::MiView;
use min_networks::counterexample::{
    banyan_not_baseline_equivalent, buddy_not_baseline_equivalent, fig5_network,
};

/// Every network the agreement is checked on, by name.
fn corpus() -> Vec<(String, ConnectionNetwork)> {
    let mut out = Vec::new();
    for family in ClassicalNetwork::ALL {
        for n in 2..=10 {
            out.push((format!("{}/n={n}", family.name()), family.build(n)));
        }
    }
    for family in RandomFamily::ALL {
        for n in 3..=7 {
            for seed in [0, 1, 0x1988, u64::MAX] {
                out.push((format!("{family}/n={n}/{seed}"), family.build(n, seed)));
            }
        }
    }
    for n in 2..=4 {
        out.push((format!("benes/n={n}"), benes(n)));
        out.push((format!("benes-variant/n={n}"), benes_variant(n)));
    }
    for family in ClassicalNetwork::ALL {
        for rewrite in Rewrite::ALL {
            let spec = NetworkSpec::rewritten(family, 4, rewrite);
            out.push((spec.name(), spec.build()));
        }
    }
    for n in 2..=5 {
        out.push((format!("fig5/n={n}"), fig5_network(n)));
    }
    out.push((
        "banyan-not-equivalent".into(),
        banyan_not_baseline_equivalent(),
    ));
    out.push((
        "buddy-not-equivalent".into(),
        buddy_not_baseline_equivalent(),
    ));
    out
}

#[test]
fn tables_and_digraph_give_the_same_certificate_or_error() {
    let (mut certified, mut refused) = (0, 0);
    for (name, net) in corpus() {
        let g = net.to_digraph();
        assert_eq!(net.stage_count(), g.stage_count(), "{name}");
        assert_eq!(net.nodes_per_stage(), g.nodes_per_stage(), "{name}");
        assert_eq!(MiView::is_proper(&net), MiView::is_proper(&g), "{name}");
        let from_tables = baseline_isomorphism(&net);
        assert_eq!(from_tables, baseline_isomorphism(&g), "{name}");
        match from_tables {
            Ok(cert) => {
                assert!(cert.verify(&net) && cert.verify(&g), "{name}");
                certified += 1;
            }
            Err(_) => refused += 1,
        }
    }
    // The corpus exercises both outcomes.
    assert!(certified > 100 && refused > 20, "{certified} / {refused}");
}

#[test]
fn tables_and_digraph_verify_the_same_mappings() {
    let corpus = corpus();
    let equivalent: Vec<&ConnectionNetwork> = corpus
        .iter()
        .map(|(_, net)| net)
        .filter(|net| net.stages() == 5 && baseline_isomorphism(*net).is_ok())
        .collect();
    assert!(equivalent.len() >= 6);
    let rep = equivalent[0];
    let rep_cert = baseline_isomorphism(rep).unwrap();
    for member in &equivalent[1..] {
        let cert = baseline_isomorphism(*member).unwrap();
        let mut mapping = compose_baseline_certificates(&cert, &rep_cert).unwrap();
        let (g, h) = (member.to_digraph(), rep.to_digraph());
        assert!(verify_stage_mapping(*member, rep, &mapping));
        assert!(verify_stage_mapping(&g, &h, &mapping));
        assert!(verify_stage_mapping(*member, &h, &mapping));
        // Swapping two images of the middle stage keeps a bijection but
        // breaks arcs: every view pairing must refuse it.
        mapping[2].swap(0, 1);
        assert!(!verify_stage_mapping(*member, rep, &mapping));
        assert!(!verify_stage_mapping(&g, &h, &mapping));
        assert!(!verify_stage_mapping(&g, rep, &mapping));
    }
}

#[test]
fn the_closed_form_baseline_is_the_materialized_baseline() {
    for n in 1..=12 {
        let view = BaselineView::new(n);
        let g = baseline_digraph(n);
        assert_eq!(view.stage_count(), g.stages());
        assert_eq!(view.nodes_per_stage(), g.width());
        assert!(MiView::is_proper(&view));
        for s in 0..n - 1 {
            for v in 0..g.width() as u32 {
                assert_eq!(view.children_of(s, v).as_ref(), g.children(s, v), "n={n}");
            }
        }
    }
}

#[test]
fn the_closed_form_baseline_certifies_onto_itself_with_the_identity() {
    for n in 1..=10 {
        let cert = baseline_isomorphism(&BaselineView::new(n)).unwrap();
        for stage_map in &cert.mapping {
            assert!(stage_map.iter().enumerate().all(|(v, &x)| x as usize == v));
        }
    }
}
