//! Experiment E10 — the limits of weaker characterizations.
//!
//! Searches for networks that are Banyan but not Baseline-equivalent, and
//! for networks that additionally satisfy Agrawal's buddy property in both
//! directions yet are still not Baseline-equivalent (the point made by
//! reference [10] of the paper). Prints each find with its diagnosis.
//!
//! ```text
//! cargo run --release --example counterexample_hunt [-- <stages> <attempts>]
//! ```

use baseline_equivalence::prelude::*;
use min_core::buddy::{buddy_property, reverse_buddy_property};
use min_core::properties::characterization_report;
use min_graph::serialize::to_text;
use min_networks::counterexample::{find_banyan_not_equivalent, find_buddy_not_equivalent};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut args = std::env::args().skip(1);
    let stages: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let attempts: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(50_000);
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);

    println!("== Hunting for counterexamples at n = {stages} ({attempts} attempts each) ==\n");

    println!("-- The deterministic textbook counterexample (N = 8) --");
    describe(&min_networks::counterexample::banyan_not_baseline_equivalent());

    println!("\n-- Random Banyan-but-not-equivalent instance --");
    match find_banyan_not_equivalent(stages, attempts, &mut rng) {
        Some(net) => {
            describe(&net);
            println!("{}", to_text(&net.to_digraph()));
        }
        None => {
            println!("none found within {attempts} attempts (Banyan wiring is rare at this size)")
        }
    }

    println!("-- Random buddy-but-not-equivalent instance (Agrawal's gap) --");
    match find_buddy_not_equivalent(stages, attempts, &mut rng) {
        Some(net) => {
            describe(&net);
            println!(
                "  buddy property: forward = {}, reverse = {}",
                buddy_property(&net).holds,
                reverse_buddy_property(&net).holds
            );
            println!("{}", to_text(&net.to_digraph()));
        }
        None => println!("none found within {attempts} attempts"),
    }
}

fn describe(net: &ConnectionNetwork) {
    let report = characterization_report(net);
    println!(
        "  Banyan = {}, P(1,*) = {}, P(*,n) = {}, Baseline-equivalent = {}",
        report.banyan,
        report.p_one_star(),
        report.p_star_n(),
        report.satisfied()
    );
    if let Err(e) = baseline_isomorphism(net) {
        println!("  certificate refused: {e}");
    }
}
