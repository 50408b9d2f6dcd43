//! The affine characterization of independent connections.
//!
//! The paper's independence definition quantifies over all translations `α`.
//! Working out what it forces on `f` and `g` gives a crisp algebraic
//! description that the paper uses implicitly in the proofs of
//! Proposition 1 and Lemma 2 (e.g. "the difference between the labels of the
//! nodes in `A_j` and `B_j` is constant"):
//!
//! > A connection `(f, g)` is independent **iff** `f` is affine over GF(2)
//! > (`f(x) = Mx ⊕ t`) and `g = f ⊕ c` for a constant `c`.
//!
//! *Proof sketch.* (⇐) With `β = Mα` the definition holds. (⇒) Taking `x=0`
//! forces `β(α) = f(α) ⊕ f(0)`; applying the definition twice shows `β` is
//! additive, hence linear, so `f(x) = β(x) ⊕ f(0)` is affine; the same `β`
//! works for `g`, so `g(x) ⊕ f(x) = g(0) ⊕ f(0)` is constant. ∎
//!
//! [`affine_form`] extracts the `(M, t, c)` certificate (or reports that the
//! connection is not independent), and [`random_independent_connection`] /
//! [`random_proper_independent_connection`] sample random independent
//! connections for tests and benchmarks — including the two regular shapes
//! distinguished in Proposition 1 (`f, g` both bijections, or the
//! `(f,f)/(g,g)` half-and-half case).

use crate::connection::Connection;
use min_labels::{AffineMap, Label, LinearMap, Width};
use rand::Rng;

/// The `(M, t, c)` certificate of an independent connection:
/// `f(x) = M x ⊕ t` and `g(x) = f(x) ⊕ c`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineForm {
    /// The affine map equal to `f`.
    pub f: AffineMap,
    /// The constant difference `c = f(x) ⊕ g(x)`.
    pub difference: Label,
}

impl AffineForm {
    /// Rebuilds the connection tables from the certificate.
    pub fn to_connection(&self) -> Connection {
        Connection::from_affine(&self.f, self.difference)
    }

    /// `true` when both `f` and `g` are bijections (Proposition 1, case 1).
    pub fn is_bijective(&self) -> bool {
        self.f.is_invertible()
    }

    /// Rank of the shared linear part `M`.
    pub fn rank(&self) -> usize {
        self.f.linear().rank()
    }
}

/// Extracts the affine certificate of a connection, or `None` when the
/// connection is not independent.
///
/// The certificate is validated against the full tables before being
/// returned, so `Some(form)` always satisfies
/// `form.to_connection() == *conn`. Validation is one `O(N)` pass over the
/// stored tables, by doubling: the map interpolated from `f(0)` and
/// `f(e_i)` agrees with `f` on `0..2^(i+1)` exactly when it agrees on
/// `0..2^i` and `f(x | 2^i) = f(x) ⊕ M e_i` for every `x < 2^i`; the same
/// pass checks `g(x) = f(x) ⊕ c` at every point of the new half.
pub fn affine_form(conn: &Connection) -> Option<AffineForm> {
    let width = conn.width();
    let (f, g) = (conn.f_table(), conn.g_table());
    let f_aff = AffineMap::interpolate(width, width, |x| conn.f(x));
    let c = f[0] ^ g[0];
    for (i, &column) in f_aff.linear().columns().iter().enumerate() {
        let half = 1usize << i;
        let (low, high) = f[..2 * half].split_at(half);
        // Labels fit the `u32` tables, so the column does too.
        let column = column as u32;
        let mismatch = low
            .iter()
            .zip(high)
            .zip(&g[half..2 * half])
            .fold(0, |acc, ((&lo, &hi), &gh)| {
                acc | (lo ^ column ^ hi) | (hi ^ c ^ gh)
            });
        if mismatch != 0 {
            return None;
        }
    }
    Some(AffineForm {
        f: f_aff,
        difference: Label::from(c),
    })
}

/// Samples a random independent connection (not necessarily 2-regular).
pub fn random_independent_connection<R: Rng>(width: Width, rng: &mut R) -> Connection {
    let aff = AffineMap::random(width, width, rng);
    let c = rng.gen::<u64>() & min_labels::mask(width);
    Connection::from_affine(&aff, c)
}

/// Samples a random independent connection that is also **2-regular** (every
/// target cell has in-degree exactly 2), i.e. a legitimate interior stage of
/// an MI-digraph.
///
/// Two shapes exist (they are exactly the two cases of Proposition 1):
///
/// * `bijective = true` — `M` invertible and `c ≠ 0`: every target cell is of
///   type `(f, g)`;
/// * `bijective = false` — `rank(M) = width - 1` and `c ∉ Im(M)`: half the
///   target cells are of type `(f, f)`, half of type `(g, g)`.
pub fn random_proper_independent_connection<R: Rng>(
    width: Width,
    bijective: bool,
    rng: &mut R,
) -> Connection {
    assert!(width >= 1, "a proper stage needs at least 1 label bit");
    if bijective {
        let m = LinearMap::random_invertible(width, rng);
        let t = rng.gen::<u64>() & min_labels::mask(width);
        let mut c = 0u64;
        while c == 0 {
            c = rng.gen::<u64>() & min_labels::mask(width);
        }
        Connection::from_affine(&AffineMap::new(m, t), c)
    } else {
        // Build M of rank width-1 by sampling an invertible map and zeroing
        // the image of one basis direction, then pick c outside Im(M).
        loop {
            let base = LinearMap::random_invertible(width, rng);
            let kill = rng.gen_range(0..width);
            let mut cols = base.columns().to_vec();
            cols[kill] = 0;
            let m = LinearMap::from_columns(width, width, cols);
            debug_assert_eq!(m.rank(), width - 1);
            let image = m.image();
            let candidates: Vec<Label> = min_labels::all_labels(width)
                .filter(|&v| !image.contains(v))
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let c = candidates[rng.gen_range(0..candidates.len())];
            let t = rng.gen::<u64>() & min_labels::mask(width);
            let conn = Connection::from_affine(&AffineMap::new(m, t), c);
            debug_assert!(conn.is_two_regular());
            return conn;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independence::is_independent;
    use min_labels::{IndexPermutation, Permutation};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn affine_form_round_trips_on_classical_stages() {
        // Baseline first stage and Omega stage are affine with the expected
        // parameters.
        let top = 0b100u64;
        let baseline = Connection::from_fn(3, |x| x >> 1, move |x| (x >> 1) | top);
        let form = affine_form(&baseline).expect("independent");
        assert_eq!(form.difference, top);
        assert_eq!(form.to_connection(), baseline);
        assert_eq!(form.rank(), 2, "x >> 1 has a 1-dimensional kernel");
        assert!(!form.is_bijective());

        let sigma = IndexPermutation::perfect_shuffle(4);
        let omega = Connection::from_link_permutation(&Permutation::from_index_perm(&sigma));
        let form = affine_form(&omega).expect("independent");
        assert_eq!(form.difference, 1, "the two children differ in the low bit");
        assert_eq!(form.to_connection(), omega);
    }

    #[test]
    fn affine_form_agrees_with_independence_checkers() {
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        for i in 0..80 {
            let conn = if i % 2 == 0 {
                random_independent_connection(3, &mut rng)
            } else {
                let f = Permutation::random(3, &mut rng);
                let g = Permutation::random(3, &mut rng);
                Connection::from_fn(3, |x| f.apply(x), |x| g.apply(x))
            };
            assert_eq!(
                affine_form(&conn).is_some(),
                is_independent(&conn),
                "affine characterization must coincide with the definition (case {i})"
            );
        }
    }

    #[test]
    fn a_single_wrong_point_of_f_or_g_is_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(97);
        let conn = random_independent_connection(5, &mut rng);
        assert!(affine_form(&conn).is_some());
        for x in 0..conn.cells() {
            for flip_g in [false, true] {
                let (mut f, mut g) = (conn.f_table().to_vec(), conn.g_table().to_vec());
                let table = if flip_g { &mut g } else { &mut f };
                table[x] ^= 1 << (x % 5);
                let broken = Connection::from_tables(5, f, g);
                assert!(affine_form(&broken).is_none(), "x = {x}, g: {flip_g}");
            }
        }
    }

    #[test]
    fn proper_bijective_connections_are_two_regular_and_independent() {
        let mut rng = ChaCha8Rng::seed_from_u64(73);
        for _ in 0..20 {
            let conn = random_proper_independent_connection(4, true, &mut rng);
            assert!(conn.is_two_regular());
            assert!(is_independent(&conn));
            assert!(!conn.has_parallel_links());
            let form = affine_form(&conn).unwrap();
            assert!(form.is_bijective());
        }
    }

    #[test]
    fn proper_non_bijective_connections_have_the_ff_gg_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(79);
        for _ in 0..20 {
            let conn = random_proper_independent_connection(4, false, &mut rng);
            assert!(conn.is_two_regular());
            assert!(is_independent(&conn));
            let form = affine_form(&conn).unwrap();
            assert!(!form.is_bijective());
            assert_eq!(form.rank(), 3);
            // Every target cell must be hit twice by f or twice by g, never
            // once by each (Proposition 1, case 2).
            let cells = conn.cells();
            let mut f_hits = vec![0usize; cells];
            let mut g_hits = vec![0usize; cells];
            for x in 0..cells as u64 {
                f_hits[conn.f(x) as usize] += 1;
                g_hits[conn.g(x) as usize] += 1;
            }
            for y in 0..cells {
                let pair = (f_hits[y], g_hits[y]);
                assert!(
                    pair == (2, 0) || pair == (0, 2),
                    "cell {y} has hit pattern {pair:?}"
                );
            }
        }
    }

    #[test]
    fn random_independent_connections_are_independent() {
        let mut rng = ChaCha8Rng::seed_from_u64(83);
        for _ in 0..30 {
            let conn = random_independent_connection(5, &mut rng);
            assert!(is_independent(&conn));
        }
    }

    #[test]
    fn width_one_proper_connection_is_the_unique_crossbar() {
        let mut rng = ChaCha8Rng::seed_from_u64(89);
        let conn = random_proper_independent_connection(1, true, &mut rng);
        assert!(conn.is_two_regular());
        // On one bit, the only proper bijective shape is {f, g} = {id, not}.
        assert_ne!(conn.f(0), conn.g(0));
    }
}
