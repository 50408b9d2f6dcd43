//! Model test for `verify_stage_mapping`.
//!
//! Its verdict must equal the per-child multiplicity scan it uses for every
//! node that does not have exactly two arcs on both sides, kept below as the
//! oracle for all degrees. The generated pairs have parallel arcs `[a, a]`
//! and nodes of out-degree 1 and 3 next to out-degree 2, and the mappings
//! are isomorphisms, isomorphisms with one swapped entry, non-bijections, or
//! mappings onto a digraph with one arc moved.

use min_graph::iso::{verify_stage_mapping, StageMapping};
use min_graph::MiDigraph;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The per-child multiplicity algorithm: shape, per-stage bijectivity, the
/// multiplicity of every child of every node, and per-stage arc counts.
fn oracle(g: &MiDigraph, h: &MiDigraph, mapping: &StageMapping) -> bool {
    let (stages, w) = (g.stages(), g.width());
    if stages != h.stages() || w != h.width() || mapping.len() != stages {
        return false;
    }
    for stage_map in mapping {
        let mut sorted = stage_map.clone();
        sorted.sort_unstable();
        if sorted != (0..w as u32).collect::<Vec<_>>() {
            return false;
        }
    }
    let multiplicity = |kids: &[u32], b: u32| kids.iter().filter(|&&c| c == b).count();
    for s in 0..stages - 1 {
        let (mut g_arcs, mut h_arcs) = (0, 0);
        for v in 0..w as u32 {
            let kids = g.children(s, v);
            let image = h.children(s, mapping[s][v as usize]);
            for &c in kids {
                if multiplicity(kids, c) != multiplicity(image, mapping[s + 1][c as usize]) {
                    return false;
                }
            }
            g_arcs += kids.len();
            h_arcs += image.len();
        }
        if g_arcs != h_arcs {
            return false;
        }
    }
    true
}

/// A random digraph `g`, its relabelling `h` by random per-stage
/// permutations (children inserted in shuffled order), and that relabelling
/// as the mapping, then spoiled according to `variant`.
fn instance(seed: u64, variant: u8) -> (MiDigraph, MiDigraph, StageMapping) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let stages = rng.gen_range(2..=5);
    let width = rng.gen_range(1..=8usize);
    let mut arcs = Vec::new();
    for s in 0..stages - 1 {
        for v in 0..width as u32 {
            let degree = [1, 2, 2, 2, 3][rng.gen_range(0..5)];
            let mut kids = vec![rng.gen_range(0..width as u32)];
            for _ in 1..degree {
                // One arc in three repeats the first child: parallel arcs.
                let c = if rng.gen_range(0..3) == 0 {
                    kids[0]
                } else {
                    rng.gen_range(0..width as u32)
                };
                kids.push(c);
            }
            arcs.extend(kids.into_iter().map(|c| (s, v, c)));
        }
    }
    let mut mapping: StageMapping = (0..stages)
        .map(|_| {
            let mut perm: Vec<u32> = (0..width as u32).collect();
            perm.shuffle(&mut rng);
            perm
        })
        .collect();
    let mut g = MiDigraph::new(stages, width);
    for &(s, v, c) in &arcs {
        g.add_arc(s, v, c);
    }
    let mut image: Vec<_> = arcs
        .iter()
        .map(|&(s, v, c)| (s, mapping[s][v as usize], mapping[s + 1][c as usize]))
        .collect();
    image.shuffle(&mut rng);
    let (s, a, b) = (
        rng.gen_range(0..stages),
        rng.gen_range(0..width),
        rng.gen_range(0..width),
    );
    match variant {
        1 => mapping[s].swap(a, b),
        2 => mapping[s][a] = mapping[s][b],
        3 => {
            let k = rng.gen_range(0..image.len());
            image[k].2 = rng.gen_range(0..width as u32);
        }
        _ => {}
    }
    let mut h = MiDigraph::new(stages, width);
    for (s, v, c) in image {
        h.add_arc(s, v, c);
    }
    (g, h, mapping)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn verify_stage_mapping_agrees_with_the_multiplicity_scan(
        seed in any::<u64>(),
        variant in 0..4u8,
    ) {
        let (g, h, mapping) = instance(seed, variant);
        prop_assert_eq!(verify_stage_mapping(&g, &h, &mapping), oracle(&g, &h, &mapping));
    }
}

#[test]
fn the_model_instances_reach_both_verdicts() {
    let mut verdicts = [0usize; 2];
    for seed in 0..400 {
        let (g, h, mapping) = instance(seed, (seed % 4) as u8);
        let verdict = verify_stage_mapping(&g, &h, &mapping);
        assert_eq!(verdict, oracle(&g, &h, &mapping), "seed {seed}");
        verdicts[usize::from(verdict)] += 1;
    }
    assert!(verdicts.iter().all(|&n| n >= 50), "{verdicts:?}");
}
