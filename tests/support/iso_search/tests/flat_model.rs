//! Model test for the derived digraphs of `iso_search::digraph`.
//!
//! The model of a digraph is its arc sequence. Random sequences repeat
//! arcs, so parallel arcs occur, and reach any degree. Reversing, slicing
//! and relabelling map the sequence arc by arc, in the order
//! `MiDigraph::arcs` lists it; sorting it normalizes. Each derived digraph
//! must equal (`==`, which compares every adjacency list in order) the
//! digraph built from the model's sequence.

use iso_search::digraph::{normalized, relabel, reverse, same_arcs, slice};
use min_graph::MiDigraph;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

type Arc = (usize, u32, u32);

fn build(stages: usize, width: usize, arcs: &[Arc]) -> MiDigraph {
    let mut g = MiDigraph::new(stages, width);
    for &(s, from, to) in arcs {
        g.add_arc(s, from, to);
    }
    g
}

/// A random arc sequence; a quarter of the draws repeat the previous arc.
fn random_arcs(rng: &mut ChaCha8Rng, stages: usize, width: usize) -> Vec<Arc> {
    let mut arcs: Vec<Arc> = Vec::new();
    if stages < 2 {
        return arcs;
    }
    for _ in 0..rng.gen_range(0..=3 * stages * width) {
        let arc = match arcs.last() {
            Some(&last) if rng.gen_range(0..4) == 0 => last,
            _ => (
                rng.gen_range(0..stages - 1),
                rng.gen_range(0..width as u32),
                rng.gen_range(0..width as u32),
            ),
        };
        arcs.push(arc);
    }
    arcs
}

/// The sequence in `MiDigraph::arcs` order: by stage and source, each
/// source's arcs in insertion order.
fn listed(arcs: &[Arc]) -> Vec<Arc> {
    let mut listed = arcs.to_vec();
    listed.sort_by_key(|&(s, from, _)| (s, from));
    listed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `reverse`, `slice` and `relabel` build the model's graphs.
    #[test]
    fn derived_graphs_agree(stages in 1usize..=5, width in 1usize..=6, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let arcs = random_arcs(&mut rng, stages, width);
        let g = build(stages, width, &arcs);
        let listed = listed(&arcs);
        if stages > 1 {
            let flipped: Vec<Arc> =
                listed.iter().map(|&(s, from, to)| (stages - 2 - s, to, from)).collect();
            prop_assert_eq!(reverse(&g), build(stages, width, &flipped));
        }
        let lo = rng.gen_range(0..stages);
        let hi = rng.gen_range(lo..stages);
        let inside: Vec<Arc> = listed
            .iter()
            .filter(|&&(s, _, _)| (lo..hi).contains(&s))
            .map(|&(s, from, to)| (s - lo, from, to))
            .collect();
        prop_assert_eq!(slice(&g, lo, hi), build(hi - lo + 1, width, &inside));
        let mapping: Vec<Vec<u32>> = (0..stages)
            .map(|_| {
                let mut perm: Vec<u32> = (0..width as u32).collect();
                perm.shuffle(&mut rng);
                perm
            })
            .collect();
        let mapped: Vec<Arc> = listed
            .iter()
            .map(|&(s, from, to)| (s, mapping[s][from as usize], mapping[s + 1][to as usize]))
            .collect();
        prop_assert_eq!(relabel(&g, &mapping), build(stages, width, &mapped));
    }

    /// `normalized` and `same_arcs` against the sorted sequence.
    #[test]
    fn equality_agrees(stages in 2usize..=5, width in 1usize..=6, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let arcs = random_arcs(&mut rng, stages, width);
        let g = build(stages, width, &arcs);
        let mut sorted = arcs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(normalized(&g), build(stages, width, &sorted));
        // The same arcs in another order; then one arc dropped.
        let mut shuffled = arcs.clone();
        shuffled.shuffle(&mut rng);
        let h = build(stages, width, &shuffled);
        prop_assert!(same_arcs(&g, &h));
        prop_assert_eq!(normalized(&h), normalized(&g));
        let fewer = build(stages, width, &shuffled[shuffled.len().min(1)..]);
        prop_assert_eq!(same_arcs(&g, &fewer), arcs.is_empty());
        prop_assert!(!same_arcs(&g, &build(stages + 1, width, &arcs)));
    }
}
