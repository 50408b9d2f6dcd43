//! Experiments E1–E3 — structural regeneration of the paper's Figures 1–3.

use baseline_equivalence::prelude::*;
use iso_search::digraph::slice;
use min_graph::components::component_ids_range;
use min_graph::dot::{to_dot, DotOptions};
use min_labels::gf2::format_tuple;

#[test]
fn figure1_the_four_stage_baseline_has_the_drawn_structure() {
    // Fig. 1 shows the N = 16 (4-stage) Baseline network: 8 cells per stage,
    // 4 stages, left-recursive halving after the first stage.
    let g = networks::baseline(4).to_digraph();
    assert_eq!(g.stages(), 4);
    assert_eq!(g.width(), 8);
    assert_eq!(g.arc_count(), 3 * 16);
    // Stage-1 cells 2i and 2i+1 connect to cell i of the two subnetworks.
    for i in 0..4u32 {
        for &v in &[2 * i, 2 * i + 1] {
            let mut kids = g.children(0, v).to_vec();
            kids.sort_unstable();
            assert_eq!(kids, vec![i, i + 4]);
        }
    }
    // The two subnetworks between stages 2 and 4 are disjoint 3-stage
    // Baseline networks.
    let rc = component_ids_range(&g, 1, 3);
    assert_eq!(rc.count, 2);
    let top = slice(&g, 1, 3);
    assert!(min_core::satisfies_characterization(&top) || top.stages() == 3);
}

#[test]
fn figure1_dot_rendering_contains_every_cell() {
    let g = networks::baseline(4).to_digraph();
    let dot = to_dot(
        &g,
        &DotOptions {
            name: "Fig1".into(),
            binary_labels: None,
            undirected_style: true,
        },
    );
    for s in 0..4 {
        for v in 0..8 {
            assert!(dot.contains(&format!("s{s}_n{v} ")), "missing node {s}/{v}");
        }
    }
    assert_eq!(dot.matches(" -> ").count(), 48);
}

#[test]
fn figure2_labels_are_the_papers_tuples() {
    // Fig. 2 labels each cell of a 4-stage MI-digraph with a 3-tuple.
    let width = 3;
    assert_eq!(format_tuple(0, width), "(0,0,0)");
    assert_eq!(format_tuple(0b001, width), "(0,0,1)");
    assert_eq!(format_tuple(0b110, width), "(1,1,0)");
    assert_eq!(format_tuple(0b111, width), "(1,1,1)");
    let g = networks::baseline(4).to_digraph();
    let dot = to_dot(
        &g,
        &DotOptions {
            name: "Fig2".into(),
            binary_labels: Some(width),
            undirected_style: true,
        },
    );
    assert!(dot.contains("(0,0,0)"));
    assert!(dot.contains("(1,1,1)"));
}

#[test]
fn figure3_component_construction_matches_lemma2() {
    // Fig. 3 illustrates the induction of Lemma 2: a component of (G)_{j,n}
    // meets every stage i ≥ j in 2^{n-1-j} nodes (0-based j), and the buddy
    // set B_j is a translated set of A_j.
    let n = 5;
    let g = networks::omega(n).to_digraph();
    for j in 0..n {
        let rc = component_ids_range(&g, j, n - 1);
        assert_eq!(rc.count, 1 << j);
        for i in j..n {
            let sizes = rc.stage_intersection_sizes(i);
            assert!(sizes.iter().all(|&s| s == g.width() >> j));
        }
    }
    // Translated-set structure of the first split: the two components of
    // (G)_{2,n} restricted to stage 2 are cosets of each other.
    let rc = component_ids_range(&g, 1, n - 1);
    let members = rc.members();
    let stage1_a: Vec<u64> = members[0]
        .iter()
        .filter(|(s, _)| *s == 1)
        .map(|&(_, v)| u64::from(v))
        .collect();
    let stage1_b: Vec<u64> = members[1]
        .iter()
        .filter(|(s, _)| *s == 1)
        .map(|&(_, v)| u64::from(v))
        .collect();
    assert!(min_labels::gf2::is_translate_of(&stage1_a, &stage1_b));
}
