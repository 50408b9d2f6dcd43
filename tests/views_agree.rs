//! The characterization reads a network through `MiView`: the same
//! algorithm runs on a `ConnectionNetwork`'s own `f`/`g` tables, on its
//! materialized `MiDigraph`, and against the closed-form `BaselineView`.
//! These tests pin that the views agree: the same certificate or the same
//! error from either input, the same §2 answers (path counts, Banyan
//! witnesses, unique paths, components, `P(i,j)` and the characterization
//! report), the same verification verdicts, and the same Baseline arcs
//! from the formula as from the digraph built out of it. The reverse
//! network and both buddy checks, which read the tables' in-arcs, are
//! pinned against the reversed digraph and the digraph buddy check.

use baseline_equivalence::prelude::*;
use iso_search::digraph::{reverse, same_arcs};
use min_core::baseline_iso::BaselineView;
use min_core::buddy::{buddy_property, reverse_buddy_property, BuddyReport};
use min_core::compose_baseline_certificates;
use min_core::properties::{characterization_report, p_one_star, p_property, p_star_n};
use min_graph::components::{component_count_range, component_ids_range};
use min_graph::iso::verify_stage_mapping;
use min_graph::paths::{
    banyan_violation, is_banyan, path_counts_from, reachable_per_stage, unique_path,
};
use min_graph::MiView;
use min_networks::counterexample::{
    banyan_not_baseline_equivalent, buddy_not_baseline_equivalent, fig5_network,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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
    // Stages that are not 2-regular, which no family above builds: random
    // tables (in-degree 0 or 3 and parallel links anywhere), and classical
    // networks with one arc moved in one stage, regular up to that stage.
    let mut rng = ChaCha8Rng::seed_from_u64(0x1988);
    for n in 2..=6 {
        let (width, cells) = (n - 1, 1u32 << (n - 1));
        for k in 0..4 {
            let mut table = || (0..cells).map(|_| rng.gen_range(0..cells)).collect();
            let connections = (0..n - 1)
                .map(|_| Connection::from_tables(width, table(), table()))
                .collect();
            out.push((
                format!("random-tables/n={n}/{k}"),
                ConnectionNetwork::new(width, connections),
            ));
        }
        for family in ClassicalNetwork::ALL {
            let mut connections = family.build(n).connections().to_vec();
            let s = rng.gen_range(0..n - 1);
            let mut g = connections[s].g_table().to_vec();
            g[rng.gen_range(0..cells) as usize] = rng.gen_range(0..cells);
            connections[s] = Connection::from_tables(width, connections[s].f_table().to_vec(), g);
            out.push((
                format!("{}/n={n}/moved-arc", family.name()),
                ConnectionNetwork::new(width, connections),
            ));
        }
    }
    out
}

/// Agrawal's buddy check on a digraph's parent lists: the two children of
/// every cell are distinct and have the same two parents. The oracle for
/// `buddy_property`, and, on the reversed digraph, for
/// `reverse_buddy_property`.
fn digraph_buddy(g: &MiDigraph) -> BuddyReport {
    for s in 0..g.stages().saturating_sub(1) {
        for v in 0..g.width() as u32 {
            let kids = g.children(s, v);
            let holds = kids.len() == 2 && kids[0] != kids[1] && {
                let mut pa = g.parents(s + 1, kids[0]).to_vec();
                let mut pb = g.parents(s + 1, kids[1]).to_vec();
                pa.sort_unstable();
                pb.sort_unstable();
                pa == pb && pa.len() == 2
            };
            if !holds {
                return BuddyReport {
                    holds: false,
                    violation: Some((s, v)),
                };
            }
        }
    }
    BuddyReport {
        holds: true,
        violation: None,
    }
}

#[test]
fn tables_reverse_and_check_buddies_as_the_digraph_does() {
    let (mut irreversible, mut holds, mut late) = (0, 0, 0);
    for (name, net) in corpus() {
        let g = net.to_digraph();
        let reversed = reverse(&g);
        let rev = net.reverse();
        assert_eq!(rev, ConnectionNetwork::from_digraph(&reversed), "{name}");
        assert_eq!(rev.is_some(), net.is_proper(), "{name}");
        if let Ok(prop1) = net.reverse_via_proposition1() {
            assert!(same_arcs(&prop1.to_digraph(), &reversed), "{name}");
        }
        let reports = [buddy_property(&net), reverse_buddy_property(&net)];
        assert_eq!(reports[0], digraph_buddy(&g), "{name}");
        assert_eq!(reports[1], digraph_buddy(&reversed), "{name}");
        irreversible += usize::from(rev.is_none());
        for report in reports {
            match report.violation {
                None => holds += 1,
                Some((stage, _)) => late += usize::from(stage > 0),
            }
        }
    }
    // The corpus reaches the missing reverse, clean checks, and violations
    // past the first stage.
    assert!(
        irreversible > 20 && holds > 100 && late > 20,
        "{irreversible} / {holds} / {late}"
    );
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
fn tables_and_digraph_answer_section_2_alike() {
    let (mut banyan, mut not_banyan) = (0, 0);
    for (name, net) in corpus() {
        let g = net.to_digraph();
        let (stages, width) = (net.stages(), net.cells_per_stage() as u32);
        let violation = banyan_violation(&net);
        assert_eq!(violation, banyan_violation(&g), "{name}");
        if violation.is_none() {
            banyan += 1;
        } else {
            not_banyan += 1;
        }
        // Every source up to 64 cells per stage, the two extreme ones above.
        let sources: Vec<u32> = if width <= 64 {
            (0..width).collect()
        } else {
            vec![0, width - 1]
        };
        for &src in &sources {
            assert_eq!(
                path_counts_from(&net, src),
                path_counts_from(&g, src),
                "{name}"
            );
            assert_eq!(
                reachable_per_stage(&net, src),
                reachable_per_stage(&g, src),
                "{name}"
            );
        }
        // The thin wrappers over the Banyan test cost a full pass each;
        // n = 9 and 10 check only the test itself and the report.
        if stages <= 8 {
            assert_eq!(is_banyan(&net), violation.is_none(), "{name}");
            assert_eq!(is_banyan(&g), violation.is_none(), "{name}");
            assert_eq!(
                satisfies_characterization(&net),
                satisfies_characterization(&g),
                "{name}"
            );
        }
        if stages <= 5 {
            for src in 0..width {
                for dst in 0..width {
                    let path = unique_path(&net, src, dst);
                    assert_eq!(path, unique_path(&g, src, dst), "{name}: {src} -> {dst}");
                }
            }
        }
        for lo in 0..stages {
            for hi in lo..stages {
                let (from_tables, from_digraph) = (
                    component_ids_range(&net, lo, hi),
                    component_ids_range(&g, lo, hi),
                );
                assert_eq!(from_tables.count, from_digraph.count, "{name}");
                assert_eq!(from_tables.ids, from_digraph.ids, "{name}");
                assert_eq!(
                    component_count_range(&net, lo, hi),
                    component_count_range(&g, lo, hi),
                    "{name}"
                );
                assert_eq!(p_property(&net, lo, hi), p_property(&g, lo, hi), "{name}");
            }
        }
        assert_eq!(p_one_star(&net), p_one_star(&g), "{name}");
        assert_eq!(p_star_n(&net), p_star_n(&g), "{name}");
        let report = characterization_report(&net);
        assert_eq!(report, characterization_report(&g), "{name}");
        assert_eq!(report.banyan, violation.is_none(), "{name}");
    }
    // The corpus exercises both answers.
    assert!(banyan > 100 && not_banyan > 10, "{banyan} / {not_banyan}");
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
