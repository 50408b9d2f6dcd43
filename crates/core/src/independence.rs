//! Independent connections (paper, §3).
//!
//! > **Definition.** A connection `(f, g)` is *independent* if and only if
//! > for every `α ≠ (0,…,0)` there exists `β` such that for every `x`,
//! > `f(x ⊕ α) = β ⊕ f(x)` and `g(x ⊕ α) = β ⊕ g(x)`.
//!
//! [`is_independent`] runs the packed affine characterization
//! ([`crate::affine_form()`]): `(f, g)` is independent iff `f` is affine
//! over GF(2) and `g = f ⊕ c`. The candidate affine extension is checked
//! against the stored tables by doubling, half against half, so the
//! decision is `O(N)` — one XOR and one compare per table entry. The literal `O(N²)`
//! reading of the definition is a test oracle (`tests/theorem3.rs`).
//!
//! The certificate of an independent connection is its [`AffineForm`]: the
//! β of a translation `α` is `M α`, the linear part of `f` applied to `α`,
//! so the β-vectors of the basis directions are the columns of `M`.
//!
//! [`AffineForm`]: crate::AffineForm

use crate::connection::Connection;

/// Fast `O(N)` independence check via the packed affine characterization:
/// `true` exactly when [`crate::affine_form()`] finds a certificate.
pub fn is_independent(conn: &Connection) -> bool {
    crate::affine_form::affine_form(conn).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine_form::affine_form;
    use min_labels::{all_labels, AffineMap, IndexPermutation, LinearMap, Permutation};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn baseline_stage0(width: usize) -> Connection {
        let top = 1u64 << (width - 1);
        Connection::from_fn(width, |x| x >> 1, move |x| (x >> 1) | top)
    }

    #[test]
    fn baseline_stage_is_independent() {
        for width in 1..=6 {
            let conn = baseline_stage0(width);
            assert!(is_independent(&conn));
            let form = affine_form(&conn).unwrap();
            assert_eq!(form.to_connection(), conn);
        }
    }

    #[test]
    fn omega_stage_is_independent() {
        let sigma = IndexPermutation::perfect_shuffle(4);
        let conn = Connection::from_link_permutation(&Permutation::from_index_perm(&sigma));
        assert!(is_independent(&conn));
        let form = affine_form(&conn).unwrap();
        assert_eq!(form.to_connection(), conn);
    }

    #[test]
    fn affine_connections_are_independent() {
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        for _ in 0..20 {
            let aff = AffineMap::random(4, 4, &mut rng);
            let conn = Connection::from_affine(&aff, 0b0110);
            assert!(is_independent(&conn));
        }
    }

    #[test]
    fn degenerate_equal_pair_is_still_independent() {
        // f = g (difference 0) satisfies the definition; the *Banyan*
        // property is what rules such stages out, not independence.
        let aff = AffineMap::identity(3);
        let conn = Connection::from_affine(&aff, 0);
        assert!(conn.has_parallel_links());
        assert!(is_independent(&conn));
    }

    #[test]
    fn non_affine_connection_is_rejected_with_witness() {
        // f is a non-linear bijection (a swap of two table entries of the
        // identity), g = f ⊕ 1.
        let table: [u64; 8] = [0, 1, 2, 5, 4, 3, 6, 7];
        let conn = Connection::from_fn(
            3,
            move |x| table[x as usize],
            move |x| table[x as usize] ^ 1,
        );
        assert!(!is_independent(&conn));
        assert!(affine_form(&conn).is_none());
        // A witness of the violation: a basis direction α and a point x
        // where f(x ⊕ α) ≠ β ⊕ f(x) for the β forced at x = 0.
        let witness = (0..3).find_map(|j| {
            let alpha = 1u64 << j;
            let beta = conn.f(alpha) ^ conn.f(0);
            all_labels(3).find(|&x| conn.f(x ^ alpha) != beta ^ conn.f(x))
        });
        assert!(witness.is_some());
    }

    #[test]
    fn mismatched_difference_breaks_independence() {
        // f affine but g differs from f by a *non-constant* amount.
        let conn = Connection::from_fn(3, |x| x, |x| if x < 4 { x ^ 1 } else { x ^ 2 });
        assert!(!is_independent(&conn));
    }

    #[test]
    fn certificate_beta_composes_linearly() {
        let m = LinearMap::from_columns(4, 4, vec![0b0011, 0b0110, 0b1100, 0b1001]);
        let aff = AffineMap::new(m.clone(), 0b0101);
        let conn = Connection::from_affine(&aff, 0b1111);
        let form = affine_form(&conn).unwrap();
        for alpha in all_labels(4) {
            // β(α) must equal f(α) ⊕ f(0).
            assert_eq!(form.f.linear().apply(alpha), conn.f(alpha) ^ conn.f(0));
        }
        // The packed linear part *is* the linear part of f.
        assert_eq!(form.f.linear(), &m);
        assert_eq!(form.rank(), m.rank());
    }

    #[test]
    fn certificate_verify_rejects_foreign_connections() {
        let conn_a = baseline_stage0(3);
        let form_a = affine_form(&conn_a).unwrap();
        let sigma = IndexPermutation::perfect_shuffle(4);
        let conn_b = Connection::from_link_permutation(&Permutation::from_index_perm(&sigma));
        // Same width, different connection: the certificate rebuilds only
        // its own connection.
        assert_ne!(conn_a, conn_b);
        assert_ne!(form_a.to_connection(), conn_b);
        assert_ne!(Some(form_a), affine_form(&conn_b));
        let narrow = baseline_stage0(2);
        assert_ne!(affine_form(&conn_a), affine_form(&narrow), "width mismatch");
    }
}
