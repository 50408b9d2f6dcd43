//! Quickstart: build a network, check every hypothesis of the paper, and
//! print the explicit isomorphism onto the Baseline network.
//!
//! ```text
//! cargo run --example quickstart [-- <stages>]
//! ```

use baseline_equivalence::prelude::*;
use min_core::affine_form::affine_form;
use min_core::properties::characterization_report;

fn main() {
    let stages: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let n_terminals = 1usize << stages;
    println!("== Omega network with {stages} stages ({n_terminals} terminals) ==\n");

    let omega = networks::omega(stages);
    let digraph = omega.to_digraph();

    // --- Section 3: every stage is an independent connection -------------
    println!("Section 3 — independent connections:");
    for (i, conn) in omega.connections().iter().enumerate() {
        match affine_form(conn) {
            Some(form) => println!(
                "  stage {i}: independent, f(x) = Mx ⊕ {:#b}, g = f ⊕ {:#b} \
                 (β for basis digits = columns of M = {:?})",
                form.f.offset(),
                form.difference,
                form.f.linear().columns()
            ),
            None => println!("  stage {i}: NOT independent (f is not affine or g ⊕ f varies)"),
        }
    }

    // --- Section 2: the graph characterization ---------------------------
    let report = characterization_report(&digraph);
    println!("\nSection 2 — characterization hypotheses:");
    println!("  proper 2x2 MI-digraph : {}", report.proper_shape);
    println!("  Banyan property       : {}", report.banyan);
    println!("  P(1,*)                : {}", report.p_one_star());
    println!("  P(*,n)                : {}", report.p_star_n());

    // --- Theorem 3: explicit certified isomorphism onto the Baseline -----
    let cert = baseline_isomorphism(&digraph).expect("omega is Baseline-equivalent");
    assert!(cert.verify(&digraph));
    println!("\nTheorem 3 — certified isomorphism onto the Baseline network:");
    let show = stages.min(3);
    for s in 0..show {
        let row: Vec<String> = cert.mapping[s]
            .iter()
            .enumerate()
            .take(8)
            .map(|(v, img)| format!("{v}→{img}"))
            .collect();
        println!(
            "  stage {s}: {}{}",
            row.join(" "),
            if cert.mapping[s].len() > 8 {
                " …"
            } else {
                ""
            }
        );
    }
    if stages > show {
        println!("  … ({} more stages)", stages - show);
    }

    // --- Section 4: bit-directed routing ----------------------------------
    println!("\nSection 4 — destination-tag routing:");
    println!("  delta network        : {}", core::is_delta(&omega));
    println!("  bidelta network      : {}", core::is_bidelta(&omega));
    let table = routing::tag::destination_tags(&omega).expect("delta");
    println!(
        "  tag for destination 0..4: {:?}",
        &table.tag_of_destination[..4.min(table.tag_of_destination.len())]
    );

    println!("\nAll of the paper's hypotheses verified for the Omega network.");
}
