//! Topological equivalence between arbitrary MI-digraphs.
//!
//! Two Baseline-equivalent networks are equivalent to each other; composing
//! their certificates ([`crate::baseline_iso`]) yields the explicit
//! network-to-network node bijection — the analogue of the one-to-one
//! mappings Wu & Feng exhibited by hand for the six classical networks.

use crate::baseline_iso::{baseline_isomorphism, BaselineIsomorphism};
use crate::error::EquivalenceError;
use min_graph::iso::{invert_mapping, is_stage_bijection, verify_stage_mapping, StageMapping};
use min_graph::MiView;

/// Composes two Baseline certificates into the explicit `g → h` mapping
/// without recomputing either isomorphism: `g --cg--> Baseline --ch⁻¹--> h`.
///
/// The per-pair cost is two mapping passes rather than two fresh sweeps.
/// Classification campaigns, which compose every member of an equivalence
/// class with one representative, check and invert the representative's
/// certificate once per class instead. The returned mapping is *not*
/// verified here — callers that need an unconditional certificate pass it
/// through [`min_graph::iso::verify_stage_mapping`] (as
/// [`equivalence_mapping`] does).
///
/// A certificate's fields are public, so neither is trusted: unless both
/// have one stage map per stage and every map is a bijection of the same
/// `0..width`, the result is [`EquivalenceError::ShapeMismatch`].
pub fn compose_baseline_certificates(
    cg: &BaselineIsomorphism,
    ch: &BaselineIsomorphism,
) -> Result<StageMapping, EquivalenceError> {
    let mut mapping = cg.clone();
    BaselineInverse::new(ch)?.compose(&mut mapping)?;
    Ok(mapping.mapping)
}

/// The inverse `Baseline → h` of a certificate `h → Baseline`, checked and
/// inverted once so that many certificates can be composed with it.
pub(crate) struct BaselineInverse {
    /// One bijection of `0..width` per stage.
    mapping: StageMapping,
}

impl BaselineInverse {
    /// Inverts `ch`, or [`EquivalenceError::ShapeMismatch`] unless it has
    /// one stage map per stage, each a bijection of one `0..width`.
    pub(crate) fn new(ch: &BaselineIsomorphism) -> Result<Self, EquivalenceError> {
        let width = ch.mapping.first().map_or(0, Vec::len);
        if !has_shape(ch, ch.stages, width) {
            return Err(EquivalenceError::ShapeMismatch);
        }
        Ok(BaselineInverse {
            mapping: invert_mapping(&ch.mapping),
        })
    }

    /// The mapping `g → h` from `cg`, written over `cg`'s own tables, or
    /// [`EquivalenceError::ShapeMismatch`] unless `cg` has this inverse's
    /// stage count and width.
    pub(crate) fn compose(&self, cg: &mut BaselineIsomorphism) -> Result<(), EquivalenceError> {
        let width = self.mapping.first().map_or(0, Vec::len);
        if !has_shape(cg, self.mapping.len(), width) {
            return Err(EquivalenceError::ShapeMismatch);
        }
        for (stage, inverse) in cg.mapping.iter_mut().zip(&self.mapping) {
            for image in stage.iter_mut() {
                *image = inverse[*image as usize];
            }
        }
        Ok(())
    }
}

/// `true` when `c` has `stages` stage maps, each a bijection of `0..width`.
fn has_shape(c: &BaselineIsomorphism, stages: usize, width: usize) -> bool {
    c.stages == stages
        && c.mapping.len() == stages
        && c.mapping.iter().all(|m| is_stage_bijection(m, width))
}

/// Computes an explicit stage-respecting isomorphism `g → h` by composing
/// the Baseline certificates of both networks, each read through its
/// [`MiView`] (a digraph or a connection network).
///
/// Fails with the diagnosis of whichever network is not Baseline-equivalent
/// (or with [`EquivalenceError::ShapeMismatch`] when the sizes differ). The
/// returned mapping is verified before being returned.
pub fn equivalence_mapping<G: MiView, H: MiView>(
    g: &G,
    h: &H,
) -> Result<StageMapping, EquivalenceError> {
    if g.stage_count() != h.stage_count() || g.nodes_per_stage() != h.nodes_per_stage() {
        return Err(EquivalenceError::ShapeMismatch);
    }
    let cg = baseline_isomorphism(g)?;
    let ch = baseline_isomorphism(h)?;
    let mapping = compose_baseline_certificates(&cg, &ch)?;
    if !verify_stage_mapping(g, h, &mapping) {
        return Err(EquivalenceError::VerificationFailed);
    }
    Ok(mapping)
}

/// `true` when the two networks are topologically equivalent (both are
/// Baseline-equivalent and of the same size).
///
/// Note: this is *not* a general isomorphism test — two non-Baseline
/// digraphs may be isomorphic to each other. The library has no general
/// (exponential) search; the tests keep one as an independent oracle.
pub fn are_equivalent<G: MiView, H: MiView>(g: &G, h: &H) -> bool {
    equivalence_mapping(g, h).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline_iso::baseline_digraph;
    use crate::connection::Connection;
    use crate::network::ConnectionNetwork;
    use min_graph::MiDigraph;
    use min_labels::{IndexPermutation, Permutation};

    fn omega(n: usize) -> MiDigraph {
        let sigma = IndexPermutation::perfect_shuffle(n);
        let conn = Connection::from_link_permutation(&Permutation::from_index_perm(&sigma));
        ConnectionNetwork::new(n - 1, vec![conn; n - 1]).to_digraph()
    }

    fn flip(n: usize) -> MiDigraph {
        let sigma = IndexPermutation::inverse_shuffle(n);
        let conn = Connection::from_link_permutation(&Permutation::from_index_perm(&sigma));
        ConnectionNetwork::new(n - 1, vec![conn; n - 1]).to_digraph()
    }

    #[test]
    fn omega_is_equivalent_to_baseline_with_an_explicit_mapping() {
        for n in 2..=6 {
            let g = omega(n);
            let b = baseline_digraph(n);
            let m = equivalence_mapping(&g, &b).expect("equivalent");
            assert!(verify_stage_mapping(&g, &b, &m));
            assert!(are_equivalent(&g, &b));
        }
    }

    #[test]
    fn omega_and_flip_are_equivalent_to_each_other() {
        for n in 2..=6 {
            let g = omega(n);
            let h = flip(n);
            let m = equivalence_mapping(&g, &h).expect("equivalent");
            assert!(verify_stage_mapping(&g, &h, &m));
        }
    }

    #[test]
    fn equivalence_is_reflexive_and_symmetric_on_the_catalog() {
        let g = omega(4);
        let h = flip(4);
        assert!(are_equivalent(&g, &g));
        assert!(are_equivalent(&g, &h));
        assert!(are_equivalent(&h, &g));
    }

    #[test]
    fn malformed_certificates_do_not_compose() {
        let good = baseline_isomorphism(&omega(3)).unwrap();
        assert!(compose_baseline_certificates(&good, &good).is_ok());
        let mut out_of_range = good.clone();
        out_of_range.mapping[1] = vec![7, 1, 2, 3];
        let mut repeated = good.clone();
        repeated.mapping[0] = vec![0, 0, 2, 3];
        let mut short = good.clone();
        short.mapping[2].pop();
        let mut missing_stage = good.clone();
        missing_stage.mapping.pop();
        for bad in [out_of_range, repeated, short, missing_stage] {
            for (cg, ch) in [(&bad, &good), (&good, &bad)] {
                assert_eq!(
                    compose_baseline_certificates(cg, ch),
                    Err(EquivalenceError::ShapeMismatch),
                    "{bad:?}"
                );
            }
        }
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let g = omega(3);
        let h = omega(4);
        assert_eq!(
            equivalence_mapping(&g, &h),
            Err(EquivalenceError::ShapeMismatch)
        );
        assert!(!are_equivalent(&g, &h));
    }

    #[test]
    fn non_equivalent_networks_are_reported_with_their_diagnosis() {
        let g = omega(3);
        // Replace the last stage with the degenerate parallel-link stage.
        let sigma = IndexPermutation::perfect_shuffle(3);
        let conn = Connection::from_link_permutation(&Permutation::from_index_perm(&sigma));
        let degenerate = Connection::from_fn(2, |x| x, |x| x);
        let h = ConnectionNetwork::new(2, vec![conn, degenerate]).to_digraph();
        let err = equivalence_mapping(&g, &h).unwrap_err();
        assert_ne!(err, EquivalenceError::ShapeMismatch);
        assert!(!are_equivalent(&g, &h));
    }
}
