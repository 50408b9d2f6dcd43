//! Model test for `MiDigraph`.
//!
//! Random `add_arc` sequences are applied both to `MiDigraph` and to the
//! nested-`Vec` reference model below (one heap list per node and
//! direction). The sequences repeat arcs, so parallel arcs occur, and push
//! degrees up to 5, past the paper's degree of 2. Every query and the JSON
//! round trip must agree with the model.

use min_graph::MiDigraph;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Highest in- or out-degree a generated sequence reaches.
const MAX_DEGREE: usize = 5;

/// The reference: `fwd[s][v]` children and `bwd[s][v]` parents, in
/// insertion order.
#[derive(Debug, Clone, PartialEq)]
struct Model {
    stages: usize,
    width: usize,
    fwd: Vec<Vec<Vec<u32>>>,
    bwd: Vec<Vec<Vec<u32>>>,
}

impl Model {
    fn new(stages: usize, width: usize) -> Self {
        Model {
            stages,
            width,
            fwd: vec![vec![Vec::new(); width]; stages - 1],
            bwd: vec![vec![Vec::new(); width]; stages],
        }
    }

    fn add_arc(&mut self, stage: usize, from: u32, to: u32) {
        self.fwd[stage][from as usize].push(to);
        self.bwd[stage + 1][to as usize].push(from);
    }

    fn arcs(&self) -> Vec<(usize, u32, u32)> {
        let mut arcs = Vec::new();
        for (s, stage) in self.fwd.iter().enumerate() {
            for (v, kids) in stage.iter().enumerate() {
                arcs.extend(kids.iter().map(|&c| (s, v as u32, c)));
            }
        }
        arcs
    }

    fn arc_count(&self) -> usize {
        self.arcs().len()
    }

    fn is_proper(&self) -> bool {
        self.fwd.iter().flatten().all(|kids| kids.len() == 2)
            && self.bwd[1..]
                .iter()
                .flatten()
                .all(|parents| parents.len() == 2)
    }
}

/// Builds the digraph and the model from one arc sequence.
fn build(stages: usize, width: usize, arcs: &[(usize, u32, u32)]) -> (MiDigraph, Model) {
    let mut g = MiDigraph::new(stages, width);
    let mut m = Model::new(stages, width);
    for &(s, from, to) in arcs {
        g.add_arc(s, from, to);
        m.add_arc(s, from, to);
    }
    (g, m)
}

/// A random arc sequence: a quarter of the draws repeat the previous arc
/// (parallel arcs), and no node's in- or out-degree passes `MAX_DEGREE`.
fn random_arcs(rng: &mut ChaCha8Rng, stages: usize, width: usize) -> Vec<(usize, u32, u32)> {
    let mut arcs: Vec<(usize, u32, u32)> = Vec::new();
    if stages < 2 {
        return arcs;
    }
    let mut out_deg = vec![vec![0usize; width]; stages];
    let mut in_deg = vec![vec![0usize; width]; stages];
    for _ in 0..rng.gen_range(0..=3 * stages * width) {
        let arc = match arcs.last() {
            Some(&last) if rng.gen_range(0..4) == 0 => last,
            _ => (
                rng.gen_range(0..stages - 1),
                rng.gen_range(0..width as u32),
                rng.gen_range(0..width as u32),
            ),
        };
        let (s, from, to) = arc;
        if out_deg[s][from as usize] < MAX_DEGREE && in_deg[s + 1][to as usize] < MAX_DEGREE {
            out_deg[s][from as usize] += 1;
            in_deg[s + 1][to as usize] += 1;
            arcs.push(arc);
        }
    }
    arcs
}

/// `Err` naming the first query on which the digraph and the model differ.
fn agree(g: &MiDigraph, m: &Model) -> Result<(), String> {
    prop_assert_eq!(g.stages(), m.stages);
    prop_assert_eq!(g.width(), m.width);
    prop_assert_eq!(g.arc_count(), m.arc_count());
    prop_assert_eq!(g.is_proper(), m.is_proper());
    prop_assert_eq!(g.arcs().collect::<Vec<_>>(), m.arcs());
    for s in 0..m.stages {
        for v in 0..m.width {
            let kids: &[u32] = if s + 1 < m.stages { &m.fwd[s][v] } else { &[] };
            prop_assert_eq!(g.children(s, v as u32), kids);
            prop_assert_eq!(g.parents(s, v as u32), &m.bwd[s][v][..]);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Adjacency, counts and the degree predicates.
    #[test]
    fn queries_agree(stages in 1usize..=5, width in 1usize..=6, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let arcs = random_arcs(&mut rng, stages, width);
        let (g, m) = build(stages, width, &arcs);
        agree(&g, &m)?;
    }

    /// JSON round trips keep every list and its order.
    #[test]
    fn serde_round_trip_agrees(stages in 1usize..=5, width in 1usize..=6, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let arcs = random_arcs(&mut rng, stages, width);
        let (g, m) = build(stages, width, &arcs);
        let json = serde_json::to_string(&g).map_err(|e| e.to_string())?;
        let back: MiDigraph = serde_json::from_str(&json).map_err(|e| e.to_string())?;
        prop_assert!(back == g);
        agree(&back, &m)?;
    }
}
