//! Experiment E9 — the paper's headline corollary.
//!
//! Builds the six classical networks at a given size, computes the full
//! pairwise equivalence matrix with explicit certificates, and prints one
//! sample mapping. Also includes the negative controls: the Fig. 5
//! degenerate network and the Banyan-but-not-equivalent counterexample.
//!
//! ```text
//! cargo run --release --example equivalence_catalog [-- <stages>]
//! ```

use baseline_equivalence::prelude::*;
use min_core::properties::characterization_report;
use min_graph::iso::verify_stage_mapping;
use min_networks::counterexample;
use std::thread;

fn main() {
    let stages: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);
    println!(
        "== Pairwise equivalence of the six classical networks, n = {stages} (N = {}) ==\n",
        1usize << stages
    );

    let kinds = ClassicalNetwork::ALL;
    let nets: Vec<_> = kinds.iter().map(|k| k.build(stages)).collect();

    // Header
    print!("{:<28}", "");
    for k in &kinds {
        print!("{:<10}", shorten(k.name()));
    }
    println!();

    // The 36 cells of the matrix are independent; compute them with one
    // scoped thread per row and print row by row.
    let matrix: Vec<Vec<&'static str>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..kinds.len())
            .map(|i| {
                let nets = &nets;
                scope.spawn(move || {
                    (0..kinds.len())
                        .map(|j| match equivalence_mapping(&nets[i], &nets[j]) {
                            Ok(mapping) => {
                                assert!(verify_stage_mapping(&nets[i], &nets[j], &mapping));
                                "  ≅     "
                            }
                            Err(_) => "  ✗     ",
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, a) in kinds.iter().enumerate() {
        print!("{:<28}", a.name());
        for mark in &matrix[i] {
            print!("{mark:<10}");
        }
        println!();
    }

    // One explicit mapping, spelled out.
    let omega = &nets[2];
    let baseline = &nets[0];
    let mapping = equivalence_mapping(omega, baseline).expect("equivalent");
    println!("\nExplicit Omega → Baseline node mapping (first stage, first 8 cells):");
    let row: Vec<String> = mapping[0]
        .iter()
        .enumerate()
        .take(8)
        .map(|(v, img)| format!("{v}→{img}"))
        .collect();
    println!("  {}", row.join("  "));

    // Negative controls.
    println!("\nNegative controls:");
    let fig5 = counterexample::fig5_network(stages);
    let report = characterization_report(&fig5);
    println!(
        "  Fig. 5 degenerate network : Banyan = {}, equivalent = {}",
        report.banyan,
        report.satisfied()
    );
    let banyan_ce = counterexample::banyan_not_baseline_equivalent();
    let report = characterization_report(&banyan_ce);
    println!(
        "  Banyan counterexample     : Banyan = {}, P(1,*) = {}, equivalent = {}",
        report.banyan,
        report.p_one_star(),
        report.satisfied()
    );
    let buddy_ce = counterexample::buddy_not_baseline_equivalent();
    let report = characterization_report(&buddy_ce);
    println!(
        "  Buddy counterexample      : Banyan = {}, buddy = {}, equivalent = {}",
        report.banyan,
        min_core::buddy::buddy_property(&buddy_ce).holds,
        report.satisfied()
    );
}

fn shorten(name: &str) -> String {
    let mut s: String = name
        .split_whitespace()
        .map(|w| w.chars().next().unwrap())
        .collect();
    if s.len() == 1 {
        s = name.chars().take(4).collect();
    }
    s
}
