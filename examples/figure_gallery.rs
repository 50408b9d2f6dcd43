//! Experiments E1–E5 — regenerate the paper's figures.
//!
//! Writes DOT renderings of Figures 1, 2, 4 and 5 into `target/figures/` and
//! prints the structural facts each figure illustrates (Fig. 3 is the
//! component structure used in Lemma 2, reported textually).
//!
//! ```text
//! cargo run --example figure_gallery
//! ```

use baseline_equivalence::prelude::*;
use min_core::pipid::connection_from_pipid;
use min_graph::components::component_ids_range;
use min_graph::dot::{to_dot, DotOptions};
use min_networks::counterexample::fig5_network;
use std::fs;
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let out_dir = PathBuf::from("target/figures");
    fs::create_dir_all(&out_dir)?;

    // ----- Figure 1: the 4-stage Baseline network and its MI-digraph -----
    let n = 4;
    let baseline = networks::baseline(n);
    let g = baseline.to_digraph();
    let dot = to_dot(
        &g,
        &DotOptions {
            name: "Fig1_Baseline".into(),
            binary_labels: None,
            undirected_style: true,
        },
    );
    fs::write(out_dir.join("fig1_baseline.dot"), &dot)?;
    println!(
        "Fig. 1  Baseline n={n}: {} cells/stage, {} arcs  -> {}",
        g.width(),
        g.arc_count(),
        out_dir.join("fig1_baseline.dot").display()
    );

    // ----- Figure 2: binary labelling of the cells ------------------------
    let dot = to_dot(
        &g,
        &DotOptions {
            name: "Fig2_Labels".into(),
            binary_labels: Some(n - 1),
            undirected_style: true,
        },
    );
    fs::write(out_dir.join("fig2_labels.dot"), &dot)?;
    println!(
        "Fig. 2  cell labels are (n-1)-tuples, e.g. cell 5 = {}",
        labels::gf2::format_tuple(5, n - 1)
    );

    // ----- Figure 3: the component structure of Lemma 2 -------------------
    println!("Fig. 3  components of (G)_(j,n) for the Baseline, n={n}:");
    for j in 0..n {
        let rc = component_ids_range(&baseline, j, n - 1);
        let sizes = rc.stage_intersection_sizes(j);
        println!(
            "        j={}  components={}  each meets stage {} in {:?} nodes",
            j + 1,
            rc.count,
            j + 1,
            sizes
        );
    }

    // ----- Figure 4: link labels and a PIPID permutation ------------------
    let theta = IndexPermutation::perfect_shuffle(n);
    let stage = connection_from_pipid(&theta);
    println!(
        "Fig. 4  perfect shuffle θ = {theta}, critical digit k = θ⁻¹(0) = {}",
        stage.critical_digit
    );
    let omega = networks::omega(n);
    let dot = to_dot(
        &omega.to_digraph(),
        &DotOptions {
            name: "Fig4_Omega_stage".into(),
            binary_labels: Some(n - 1),
            undirected_style: true,
        },
    );
    fs::write(out_dir.join("fig4_omega.dot"), &dot)?;

    // ----- Figure 5: the degenerate stage θ⁻¹(0) = 0 ----------------------
    let fig5 = fig5_network(n);
    let g5 = fig5.to_digraph();
    let dot = to_dot(
        &g5,
        &DotOptions {
            name: "Fig5_Degenerate".into(),
            binary_labels: None,
            undirected_style: true,
        },
    );
    fs::write(out_dir.join("fig5_degenerate.dot"), &dot)?;
    println!(
        "Fig. 5  degenerate last stage: parallel links = {}, Banyan = {}",
        fig5.has_parallel_links(),
        min_graph::paths::is_banyan(&fig5)
    );

    println!("\nDOT files written to {}", out_dir.display());
    Ok(())
}
