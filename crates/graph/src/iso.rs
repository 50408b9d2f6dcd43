//! Stage-respecting isomorphism of MI-digraphs.
//!
//! *"Two digraphs are isomorphic if and only if there exists a bijection
//! from the nodes of the first digraph into the nodes of the second digraph,
//! which preserves the adjacency relationship"* (paper, §2). Because an
//! MI-digraph's stage of a node is determined by the digraph structure
//! itself (distance from the sources/sinks), any isomorphism of proper
//! MI-digraphs maps stage `i` onto stage `i`; we therefore represent
//! isomorphisms as **per-stage bijections** ([`StageMapping`]).
//!
//! [`verify_stage_mapping`] checks that a given mapping is a genuine
//! isomorphism; it validates the certificates produced by
//! `min-core::baseline_iso` and their compositions. The library never
//! *searches* for an isomorphism: Baseline equivalence is decided by the
//! paper's characterization, which yields a certificate or a diagnosis. A
//! general backtracking search lives with the tests, as the independent
//! oracle that corroborates both outcomes on small networks.

use crate::view::MiView;

/// A stage-respecting node bijection: `mapping[stage][v]` is the image in
/// the second digraph of node `v` of `stage` in the first digraph.
pub type StageMapping = Vec<Vec<u32>>;

/// Number of arcs into `b` among a node's `children` (parallel arcs count).
fn multiplicity(children: &[u32], b: u32) -> usize {
    children.iter().filter(|&&c| c == b).count()
}

/// `true` when `map` is a bijection of `0..width` onto itself.
pub fn is_stage_bijection(map: &[u32], width: usize) -> bool {
    if map.len() != width {
        return false;
    }
    let mut seen = vec![false; width];
    map.iter()
        .all(|&t| (t as usize) < width && !std::mem::replace(&mut seen[t as usize], true))
}

/// Verifies that `mapping` is a stage-respecting isomorphism `g -> h`.
///
/// Checks shape, per-stage bijectivity, exact arc multiplicities and equal
/// per-stage arc counts. Either side may be any [`MiView`]: a digraph, a
/// network's connection tables or a closed-form formula.
pub fn verify_stage_mapping<G: MiView, H: MiView>(g: &G, h: &H, mapping: &StageMapping) -> bool {
    let (stages, w) = (g.stage_count(), g.nodes_per_stage());
    if stages != h.stage_count()
        || w != h.nodes_per_stage()
        || mapping.len() != stages
        || !mapping
            .iter()
            .all(|stage_map| is_stage_bijection(stage_map, w))
    {
        return false;
    }
    // Arc multiplicities must be preserved exactly. The stage map is a
    // bijection, so the images of the stage's nodes are all of `h`'s nodes
    // and summing their out-degrees counts `h`'s arcs of the stage: equal
    // counts mean `h` has no arc that no arc of `g` maps onto.
    for s in 0..stages.saturating_sub(1) {
        let (map, next) = (&mapping[s], &mapping[s + 1]);
        let (mut g_arcs, mut h_arcs) = (0, 0);
        for v in 0..w as u32 {
            let kids = g.children_of(s, v);
            let kids = kids.as_ref();
            let image_kids = h.children_of(s, map[v as usize]);
            let image_kids = image_kids.as_ref();
            let preserved = match (kids, image_kids) {
                // Two arcs each: the multiplicities agree exactly when the
                // images are the image node's children as a multiset.
                (&[a, b], &[p, q]) => {
                    let (ma, mb) = (next[a as usize], next[b as usize]);
                    (ma == p && mb == q) || (ma == q && mb == p)
                }
                _ => kids
                    .iter()
                    .all(|&c| multiplicity(kids, c) == multiplicity(image_kids, next[c as usize])),
            };
            if !preserved {
                return false;
            }
            g_arcs += kids.len();
            h_arcs += image_kids.len();
        }
        if g_arcs != h_arcs {
            return false;
        }
    }
    true
}

/// Inverts a stage mapping.
pub fn invert_mapping(mapping: &StageMapping) -> StageMapping {
    mapping
        .iter()
        .map(|m| {
            let mut inv = vec![0u32; m.len()];
            for (v, &t) in m.iter().enumerate() {
                inv[t as usize] = v as u32;
            }
            inv
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MiDigraph;

    fn baseline8() -> MiDigraph {
        let mut g = MiDigraph::new(3, 4);
        for v in 0..4u32 {
            g.add_arc(0, v, v >> 1);
            g.add_arc(0, v, (v >> 1) | 2);
        }
        for v in 0..4u32 {
            let high = v & 2;
            g.add_arc(1, v, high);
            g.add_arc(1, v, high | 1);
        }
        g
    }

    #[test]
    fn identity_mapping_verifies_on_equal_graphs() {
        let g = baseline8();
        let id: StageMapping = (0..3).map(|_| (0..4u32).collect()).collect();
        assert!(verify_stage_mapping(&g, &g, &id));
    }

    #[test]
    fn wrong_shape_mappings_are_rejected() {
        let g = baseline8();
        let h = baseline8();
        assert!(!verify_stage_mapping(&g, &h, &vec![vec![0, 1, 2, 3]; 2]));
        assert!(!verify_stage_mapping(&g, &h, &vec![vec![0, 1, 2]; 3]));
        assert!(!verify_stage_mapping(&g, &h, &vec![vec![0, 0, 2, 3]; 3]));
    }
}
