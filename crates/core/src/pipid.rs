//! PIPID permutations and the connections they induce (paper, §4).
//!
//! Section 4 relates the classical way of drawing a MIN stage — a
//! permutation `A` of the `N = 2^n` link labels — to the `(f, g)` formalism
//! of Section 3, for the special case where `A` is a **PIPID**: a
//! Permutation Induced by a Permutation `θ` of the Index Digits.
//!
//! Writing `k = θ⁻¹(0)` (the position that receives the out-port digit), the
//! two children of cell `x = (x_{n-1}, …, x_1)` are the θ-permuted label
//! with a `0` (for `f`) or a `1` (for `g`) planted at position `k-1`:
//!
//! ```text
//! f(x) = (x_{θ(n-1)}, …, x_{θ(k+1)}, 0, x_{θ(k-1)}, …, x_{θ(1)})
//! g(x) = (x_{θ(n-1)}, …, x_{θ(k+1)}, 1, x_{θ(k-1)}, …, x_{θ(1)})
//! ```
//!
//! and the paper observes that (1) `k = 0` is degenerate — both links reach
//! the same cell (Fig. 5) and the Banyan property is lost — and (2) for
//! `k ≠ 0` the connection is *independent*, with
//! `β = (α_{θ(n-1)}, …, α_{θ(k+1)}, 0, α_{θ(k-1)}, …, α_{θ(1)})`.
//! [`connection_from_pipid`] implements the construction and
//! the tests check both observations; Theorem 3 then gives the main result
//! of the paper: Banyan networks built from PIPID stages are all equivalent
//! to the Baseline network.

use crate::connection::Connection;
use min_labels::{bit, AffineMap, IndexPermutation, Label, LinearMap};

/// A PIPID stage: the digit permutation, the induced connection, and the
/// §4 diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipidStage {
    /// The digit permutation θ on the `n` link-label digits.
    theta: IndexPermutation,
    /// Critical digit `k = θ⁻¹(0)`.
    pub critical_digit: usize,
    /// `true` when `k = 0`: the stage has parallel links (Fig. 5) and cannot
    /// appear in a Banyan network.
    pub degenerate: bool,
    /// The induced connection on cell labels (`n-1` bits).
    pub connection: Connection,
}

impl PipidStage {
    /// The digit permutation θ this stage was built from.
    pub fn theta(&self) -> &IndexPermutation {
        &self.theta
    }
}

/// The child cell of `x` on out-port `digit` under the PIPID of `theta`,
/// evaluated positionally from the paper's formula (no permutation table).
fn pipid_child(theta: &IndexPermutation, x: Label, digit: u64) -> Label {
    let n = theta.width();
    let mut z = 0u64;
    for i in 0..n {
        let src = theta.theta(i);
        let d = if src == 0 { digit } else { bit(x, src - 1) };
        z |= d << i;
    }
    // The child cell keeps the n-1 high digits of the permuted link label.
    z >> 1
}

/// Builds the connection induced by the PIPID permutation of `θ` on the
/// link labels (paper, §4).
///
/// A PIPID routes every output digit from a fixed input digit (or from the
/// out-port digit), so `f` is **linear** over GF(2) and
/// `g = f ⊕ 2^{k-1}` for `k = θ⁻¹(0) ≥ 1` (`g = f` in the degenerate
/// `k = 0` case of Fig. 5). The connection is therefore assembled directly
/// from its packed affine certificate — `n-1` basis evaluations plus one
/// doubling table pass — instead of materializing and translating the
/// `2^n`-entry link permutation.
pub fn connection_from_pipid(theta: &IndexPermutation) -> PipidStage {
    assert!(theta.width() >= 1, "link labels need at least one digit");
    let width = theta.width() - 1;
    let critical_digit = theta.theta_inv(0);
    let columns: Vec<Label> = (0..width).map(|j| pipid_child(theta, 1 << j, 0)).collect();
    let linear = LinearMap::from_columns(width, width, columns);
    debug_assert_eq!(pipid_child(theta, 0, 0), 0, "a PIPID fixes the zero label");
    let difference = if critical_digit == 0 {
        0
    } else {
        1u64 << (critical_digit - 1)
    };
    let connection = Connection::from_affine(&AffineMap::new(linear, 0), difference);
    PipidStage {
        theta: theta.clone(),
        critical_digit,
        degenerate: critical_digit == 0,
        connection,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine_form::affine_form;
    use crate::independence::is_independent;
    use crate::network::ConnectionNetwork;
    use min_graph::paths::is_banyan;
    use min_labels::{bit, Label};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Direct implementation of the paper's formula for the children of a
    /// cell under a PIPID stage, used to cross-check the link-permutation
    /// derivation.
    fn paper_formula(theta: &IndexPermutation, x: Label, port: u64) -> Label {
        let n = theta.width();
        let k = theta.theta_inv(0);
        // Link label of cell x, port b: (x_{n-1},…,x_1,b) = 2x + b.
        // z = A(link); the child cell is the n-1 high digits of z, i.e. we
        // drop digit 0 of z. The paper writes the same thing positionally.
        let mut z = 0u64;
        for i in 0..n {
            let src = theta.theta(i);
            let digit = if src == 0 { port } else { bit(x, src - 1) };
            z |= digit << i;
        }
        let _ = k;
        z >> 1
    }

    #[test]
    fn pipid_connection_matches_the_paper_formula() {
        let mut rng = ChaCha8Rng::seed_from_u64(131);
        for _ in 0..20 {
            let theta = IndexPermutation::random(5, &mut rng);
            let stage = connection_from_pipid(&theta);
            for x in 0..16u64 {
                assert_eq!(stage.connection.f(x), paper_formula(&theta, x, 0));
                assert_eq!(stage.connection.g(x), paper_formula(&theta, x, 1));
            }
        }
    }

    #[test]
    fn affine_construction_matches_the_link_permutation_derivation() {
        // The packed construction (affine certificate + doubling table)
        // must reproduce the historical derivation through the explicit
        // 2^n-entry link permutation, bit for bit.
        let mut rng = ChaCha8Rng::seed_from_u64(127);
        for n in 1..=6 {
            for _ in 0..10 {
                let theta = min_labels::IndexPermutation::random(n, &mut rng);
                let stage = connection_from_pipid(&theta);
                let perm = min_labels::Permutation::from_index_perm(&theta);
                let reference = Connection::from_link_permutation(&perm);
                assert_eq!(stage.connection, reference, "theta = {theta:?}");
            }
        }
    }

    #[test]
    fn pipid_connections_are_independent() {
        // §4: "So, we can associate independent connections to the PIPID
        // permutations used to build Banyan networks."
        let mut rng = ChaCha8Rng::seed_from_u64(137);
        for _ in 0..30 {
            let theta = IndexPermutation::random(5, &mut rng);
            let stage = connection_from_pipid(&theta);
            assert!(is_independent(&stage.connection));
            // ... and in fact linear (offset 0), since PIPIDs fix the zero label.
            let form = affine_form(&stage.connection).unwrap();
            assert_eq!(form.f.offset(), 0);
        }
    }

    #[test]
    fn critical_digit_zero_is_degenerate() {
        // Any θ with θ(0) = 0 keeps the port digit in place; dropping it
        // makes both children equal: Fig. 5.
        let theta = IndexPermutation::transposition(4, 1, 3);
        let stage = connection_from_pipid(&theta);
        assert_eq!(stage.critical_digit, 0);
        assert!(stage.degenerate);
        assert!(stage.connection.has_parallel_links());
        // A network containing such a stage cannot be Banyan.
        let other = connection_from_pipid(&IndexPermutation::perfect_shuffle(4));
        let net = ConnectionNetwork::new(3, vec![other.connection, stage.connection]);
        assert!(!is_banyan(&net.to_digraph()));
    }

    #[test]
    fn non_degenerate_pipid_stages_are_two_regular() {
        let mut rng = ChaCha8Rng::seed_from_u64(139);
        for _ in 0..30 {
            let theta = IndexPermutation::random(4, &mut rng);
            let stage = connection_from_pipid(&theta);
            assert!(stage.connection.is_two_regular());
            assert_eq!(stage.degenerate, stage.connection.has_parallel_links());
        }
    }

    #[test]
    fn shuffle_stage_critical_digit_is_one() {
        let stage = connection_from_pipid(&IndexPermutation::perfect_shuffle(4));
        assert_eq!(stage.critical_digit, 1);
        assert!(!stage.degenerate);
        assert_eq!(stage.theta(), &IndexPermutation::perfect_shuffle(4));
    }
}
