//! Golden Baseline-isomorphism results for a fixed corpus.
//!
//! `classification.json` records one outcome per forward network, and none
//! of them reaches the prefix-trie error of `baseline_isomorphism`. This
//! test pins the outcome (`ok <checksum>` or `err <Display>`) of the catalog at
//! n = 2..=8, fixed-seed random PIPID, link-permutation and buddy networks,
//! the counterexample networks, and the `reverse()` of every one of them to
//! `golden/certificates.json`, together with one hand-built digraph that
//! reaches the prefix-trie error. Reversal swaps prefixes and suffixes, so
//! the prefix trie of every network is also built as the suffix trie of its
//! reverse.

use min_core::baseline_isomorphism;
use min_graph::MiDigraph;
use min_networks::counterexample::{
    banyan_not_baseline_equivalent, buddy_not_baseline_equivalent, fig5_network,
};
use min_networks::random::{
    random_buddy_network, random_link_permutation_network, random_pipid_network,
};
use min_networks::ClassicalNetwork;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A proper 3-stage digraph with every component count right whose prefix
/// trie is not binary: stage-0 cell 0 sends both arcs to stage-1 cell 0, so
/// one component of `(G)_{1,2}` holds one component of `(G)_{1,1}` and the
/// other holds three. No random network in the corpus gets this far.
fn unbalanced_prefix_trie() -> MiDigraph {
    let mut g = MiDigraph::new(3, 4);
    for (v, kids) in [[0, 0], [1, 2], [2, 3], [3, 1]].into_iter().enumerate() {
        for c in kids {
            g.add_arc(0, v as u32, c);
        }
    }
    for v in 0..4u32 {
        g.add_arc(1, v, v & 2);
        g.add_arc(1, v, (v & 2) | 1);
    }
    g
}

/// The forward corpus, by name.
fn corpus() -> Vec<(String, MiDigraph)> {
    let mut out = Vec::new();
    for net in ClassicalNetwork::ALL {
        for n in 2..=8 {
            out.push((format!("{}/n={n}", net.name()), net.build(n).to_digraph()));
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0x1988);
    for n in 3..=6 {
        for k in 0..4 {
            let pipid = random_pipid_network(n, &mut rng);
            let links = random_link_permutation_network(n, &mut rng);
            let buddy = random_buddy_network(n, &mut rng);
            out.push((format!("pipid/n={n}/{k}"), pipid.to_digraph()));
            out.push((format!("links/n={n}/{k}"), links.to_digraph()));
            out.push((format!("buddy/n={n}/{k}"), buddy.to_digraph()));
        }
    }
    for n in 2..=5 {
        out.push((format!("fig5/n={n}"), fig5_network(n).to_digraph()));
    }
    out.push((
        "banyan-not-equivalent".into(),
        banyan_not_baseline_equivalent().to_digraph(),
    ));
    out.push((
        "buddy-not-equivalent".into(),
        buddy_not_baseline_equivalent().to_digraph(),
    ));
    out.push(("unbalanced-prefix-trie".into(), unbalanced_prefix_trie()));
    out
}

fn outcome(g: &MiDigraph) -> String {
    match baseline_isomorphism(g) {
        Ok(cert) => format!("ok {:016x}", cert.checksum()),
        Err(err) => format!("err {err}"),
    }
}

#[test]
fn baseline_isomorphism_reproduces_its_golden_corpus() {
    let golden: Vec<(String, String)> =
        serde_json::from_str(include_str!("golden/certificates.json")).expect("golden parses");
    let mut actual = Vec::new();
    for (name, g) in corpus() {
        actual.push((name.clone(), outcome(&g)));
        actual.push((format!("reverse/{name}"), outcome(&g.reverse())));
    }
    assert_eq!(actual.len(), golden.len(), "corpus size");
    for (got, want) in actual.iter().zip(&golden) {
        assert_eq!(got, want);
    }
    // The corpus reaches both tries' error paths.
    for trie in ["suffix", "prefix"] {
        let needle = format!("the {trie} component trie");
        assert!(
            golden.iter().any(|(_, r)| r.contains(&needle)),
            "no {trie}-trie error in the corpus"
        );
    }
}
