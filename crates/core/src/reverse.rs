//! Proposition 1: reversing an independent connection.
//!
//! > **Proposition 1.** Let `(f, g)` be an independent connection between
//! > `V_i` and `V_{i+1}` in an MI-digraph `G`; then we can define an
//! > independent connection `(φ, ψ)` between `V_{i+1}` and `V_i` in the
//! > reverse graph `G⁻¹`.
//!
//! The proof distinguishes two cases and this module implements both,
//! constructively:
//!
//! 1. **Every target vertex is of type `(f, g)`** (one incoming `f`-arc and
//!    one incoming `g`-arc). Then `f` and `g` are bijections and
//!    `(φ, ψ) = (f⁻¹, g⁻¹)`.
//! 2. **Half the target vertices are of type `(f, f)` and half of type
//!    `(g, g)`.** Pick `α₁ ≠ 0` with `f(x ⊕ α₁) = f(x)`, extend it to a
//!    basis `(α₁, α₂, …, α_{n-1})`, let `A` be the subspace generated by
//!    `(α₂, …, α_{n-1})` and `B = α₁ ⊕ A` its coset. Then
//!    `φ(y) = Γ⁻(y) ∩ A` and `ψ(y) = Γ⁻(y) ∩ B`.
//!
//! The paper shows a mixture of the two vertex types is impossible for an
//! independent connection; if the input is not independent the construction
//! detects the inconsistency and reports a [`ReverseError`].

use crate::connection::{Connection, InArcs};
use crate::error::ReverseError;
use min_labels::{all_labels, Label, Subspace};

/// Builds the reverse connection `(φ, ψ)` of Proposition 1.
///
/// The returned connection describes the stage `V_{i+1} → V_i` of the
/// reverse digraph `G⁻¹`: `φ(y)` and `ψ(y)` are the two parents of `y`
/// under the original `(f, g)`.
pub fn reverse_connection(conn: &Connection) -> Result<Connection, ReverseError> {
    let width = conn.width();
    let arcs = conn.in_arcs();
    if let Some((y, a)) = arcs.iter().enumerate().find(|(_, a)| a.degree != 2) {
        return Err(ReverseError::NotTwoRegular {
            node: y as u64,
            indegree: a.degree as usize,
        });
    }

    // Classify vertex types by the `g`-arcs among the two in-arcs (the low
    // bit of an in-link): one is type (f, g), none (f, f), two (g, g).
    let g_arcs = |a: &InArcs| (a.links[0] & 1) + (a.links[1] & 1);
    if arcs.iter().all(|a| g_arcs(a) == 1) {
        // Case 1: f and g are bijections; (φ, ψ) = (f⁻¹, g⁻¹), the sources
        // of each cell's in-arcs on port 0 and on port 1.
        let inverse = |port: u32| {
            // The in-link on `port` is the first one iff their ports agree.
            let on_port = |a: &InArcs| a.links[((a.links[0] ^ port) & 1) as usize];
            arcs.iter().map(|a| on_port(a) >> 1).collect()
        };
        return Ok(Connection::from_tables(width, inverse(0), inverse(1)));
    }
    if arcs.iter().any(|a| g_arcs(a) == 1) {
        return Err(ReverseError::MixedVertexTypes);
    }

    // Case 2: find α₁ ≠ 0 with f(α₁ ⊕ x₀) = f(x₀); since f is 2-to-1 onto
    // its image, any collision with x₀ = 0 provides it.
    let f0 = conn.f(0);
    let alpha1 = all_labels(width)
        .skip(1)
        .find(|&x| conn.f(x) == f0)
        .ok_or(ReverseError::MissingAlphaOne)?;

    // Extend {α₁} to a basis; A = span of the added vectors, B = α₁ ⊕ A.
    let partial = Subspace::from_generators(width, [alpha1]);
    let rest = partial.complete_basis();
    let a = Subspace::from_generators(width, rest);
    debug_assert!(!a.contains(alpha1));

    let mut phi = Vec::with_capacity(arcs.len());
    let mut psi = Vec::with_capacity(arcs.len());
    for (y, cell) in arcs.iter().enumerate() {
        let [p, q] = cell.links.map(|link| Label::from(link >> 1));
        let (in_a, in_b) = match (a.contains(p), a.contains(q)) {
            (true, false) => (p, q),
            (false, true) => (q, p),
            _ => return Err(ReverseError::UnbalancedCosets { node: y as u64 }),
        };
        phi.push(in_a as u32);
        psi.push(in_b as u32);
    }
    Ok(Connection::from_tables(width, phi, psi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine_form::{random_independent_connection, random_proper_independent_connection};
    use crate::independence::is_independent;
    use min_labels::{IndexPermutation, Permutation};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The reverse connection must describe exactly the reversed arcs:
    /// {φ(y), ψ(y)} = set of parents of y.
    fn check_is_reverse(conn: &Connection, rev: &Connection) {
        let width = conn.width();
        for y in all_labels(width) {
            let mut parents: Vec<u64> = all_labels(width)
                .filter(|&x| conn.f(x) == y || conn.g(x) == y)
                .flat_map(|x| {
                    let mut v = Vec::new();
                    if conn.f(x) == y {
                        v.push(x);
                    }
                    if conn.g(x) == y {
                        v.push(x);
                    }
                    v
                })
                .collect();
            parents.sort_unstable();
            let mut rev_children = vec![rev.f(y), rev.g(y)];
            rev_children.sort_unstable();
            assert_eq!(parents, rev_children, "parents of {y} mismatch");
        }
    }

    #[test]
    fn case1_bijective_stages_reverse_to_inverse_functions() {
        let sigma = IndexPermutation::perfect_shuffle(4);
        let omega = Connection::from_link_permutation(&Permutation::from_index_perm(&sigma));
        // Omega stage: f(x) = 2x, g(x) = 2x+1 mod 8 — wait, these are *not*
        // bijections... they are: x -> 2x mod 8 loses the top bit, so the
        // stage is actually the (f,f)/(g,g) case. Use an invertible affine
        // stage instead for case 1.
        let mut rng = ChaCha8Rng::seed_from_u64(97);
        let conn = random_proper_independent_connection(4, true, &mut rng);
        let rev = reverse_connection(&conn).expect("case 1 reverses");
        check_is_reverse(&conn, &rev);
        assert!(
            is_independent(&rev),
            "Proposition 1: the reverse is independent"
        );
        let _ = omega;
    }

    #[test]
    fn case2_ff_gg_stages_reverse_via_the_coset_construction() {
        // Baseline / Omega stages are exactly the (f,f)/(g,g) shape.
        let top = 0b100u64;
        let baseline = Connection::from_fn(3, |x| x >> 1, move |x| (x >> 1) | top);
        let rev = reverse_connection(&baseline).expect("case 2 reverses");
        check_is_reverse(&baseline, &rev);
        assert!(is_independent(&rev));

        let sigma = IndexPermutation::perfect_shuffle(4);
        let omega = Connection::from_link_permutation(&Permutation::from_index_perm(&sigma));
        let rev = reverse_connection(&omega).expect("omega stage reverses");
        check_is_reverse(&omega, &rev);
        assert!(is_independent(&rev));
    }

    #[test]
    fn proposition1_holds_for_random_proper_independent_connections() {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        for i in 0..40 {
            let bijective = i % 2 == 0;
            let conn = random_proper_independent_connection(4, bijective, &mut rng);
            let rev = reverse_connection(&conn).expect("proper independent connections reverse");
            check_is_reverse(&conn, &rev);
            assert!(
                is_independent(&rev),
                "reverse of case {bijective} not independent"
            );
            // Reversing twice returns to a connection describing the
            // original arcs (possibly with f/g swapped per cell).
            let back = reverse_connection(&rev).expect("reverse is proper too");
            check_is_reverse(&rev, &back);
        }
    }

    #[test]
    fn non_regular_connections_are_rejected() {
        let conn = Connection::from_fn(2, |_| 0, |x| x);
        match reverse_connection(&conn) {
            Err(ReverseError::NotTwoRegular { node: 0, indegree }) => assert!(indegree > 2),
            other => panic!("expected NotTwoRegular, got {other:?}"),
        }
    }

    #[test]
    fn mixed_type_non_independent_connections_are_rejected() {
        // A 2-regular but non-independent connection with mixed vertex
        // types: f = identity, g = a 3-cycle-ish permutation making some
        // vertices (f,g) and others... construct explicitly:
        // f = id, g = (0 1)(2 3) composed with a twist so that vertex types
        // stay (f,g) — instead force mixing by hand:
        // f: 0->0, 1->0, 2->2, 3->3 ; g: 0->1, 1->1, 2->3, 3->2
        // indegrees: 0:2 (f0,f1), 1:2 (g0,g1), 2:2 (f2,g3), 3:2 (f3,g2)
        // vertex 0 is (f,f), vertex 1 is (g,g), vertex 2 is (f,g): mixed.
        let conn = Connection::from_tables(2, vec![0, 0, 2, 3], vec![1, 1, 3, 2]);
        assert!(conn.is_two_regular());
        assert!(!is_independent(&conn));
        assert_eq!(
            reverse_connection(&conn),
            Err(ReverseError::MixedVertexTypes)
        );
    }

    #[test]
    fn degenerate_equal_pair_reverses_as_ff_gg() {
        // f = g = identity: every vertex is of type (f,g)?? No — each vertex
        // receives one f-arc and one g-arc from the *same* parent, so it is
        // type (f,g) and case 1 applies with φ = ψ = identity.
        let conn = Connection::from_fn(3, |x| x, |x| x);
        let rev = reverse_connection(&conn).expect("degenerate stage still reverses");
        for y in 0..8u64 {
            assert_eq!(rev.f(y), y);
            assert_eq!(rev.g(y), y);
        }
        assert!(is_independent(&rev));
    }

    #[test]
    fn random_non_proper_independent_connections_may_fail_gracefully() {
        // Independent connections that are not 2-regular cannot appear inside
        // a proper MI-digraph; the reverse construction must reject them with
        // a structured error rather than panicking.
        let mut rng = ChaCha8Rng::seed_from_u64(103);
        let mut rejected = 0;
        for _ in 0..30 {
            let conn = random_independent_connection(4, &mut rng);
            match reverse_connection(&conn) {
                Ok(rev) => check_is_reverse(&conn, &rev),
                Err(ReverseError::NotTwoRegular { .. }) => rejected += 1,
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(rejected > 0, "low-rank affine maps are not 2-regular");
    }
}
