//! The six classical networks of Wu & Feng, as PIPID stage sequences.
//!
//! Every constructor returns both the network and is accompanied by a
//! `*_thetas` function exposing the digit permutations used, so that tests
//! and documentation can point at the exact PIPID sequence. The stage
//! conventions follow the standard drawings:
//!
//! | network | inter-stage permutation `s → s+1` (0-based `s`) | reference |
//! |---------|--------------------------------------------------|-----------|
//! | Omega | perfect shuffle σ on all `n` digits | Lawrie 1975 |
//! | Flip | inverse shuffle σ⁻¹ on all `n` digits | Batcher 1976 |
//! | Baseline | inverse shuffle on the `n-s` low digits | Wu & Feng 1980 |
//! | Reverse Baseline | shuffle on the `s+2` low digits | Wu & Feng 1980 |
//! | Indirect binary n-cube | butterfly β_{s+1} | Pease 1977 |
//! | Modified data manipulator | butterfly β_{n-1-s} | Feng 1974 |
//!
//! All six are Banyan networks built from non-degenerate PIPID stages, so by
//! the paper's Theorem 3 they are pairwise topologically equivalent — the
//! integration tests and `examples/equivalence_catalog.rs` verify this with
//! explicit certificates.

use min_core::pipid::connection_from_pipid;
use min_core::ConnectionNetwork;
use min_labels::IndexPermutation;

/// Builds a network from one digit permutation per inter-stage link.
fn from_thetas(n: usize, thetas: &[IndexPermutation]) -> ConnectionNetwork {
    assert!(n >= 2, "a multistage network needs at least two stages");
    assert_eq!(
        thetas.len(),
        n - 1,
        "an n-stage network has n-1 connections"
    );
    let connections = thetas
        .iter()
        .map(|t| {
            assert_eq!(t.width(), n, "link labels have n digits");
            connection_from_pipid(t).connection
        })
        .collect();
    ConnectionNetwork::new(n - 1, connections)
}

/// Digit permutations of the `n`-stage Omega network: `n-1` perfect shuffles.
pub fn omega_thetas(n: usize) -> Vec<IndexPermutation> {
    vec![IndexPermutation::perfect_shuffle(n); n - 1]
}

/// The Omega network (Lawrie): every inter-stage connection is the perfect
/// shuffle.
pub fn omega(n: usize) -> ConnectionNetwork {
    from_thetas(n, &omega_thetas(n))
}

/// Digit permutations of the Flip network: `n-1` inverse shuffles.
pub fn flip_thetas(n: usize) -> Vec<IndexPermutation> {
    vec![IndexPermutation::inverse_shuffle(n); n - 1]
}

/// The Flip network (Batcher's STARAN flip): every inter-stage connection is
/// the inverse perfect shuffle.
pub fn flip(n: usize) -> ConnectionNetwork {
    from_thetas(n, &flip_thetas(n))
}

/// Digit permutations of the Baseline network: stage `s` uses the inverse
/// shuffle restricted to the `n-s` low-order digits.
pub fn baseline_thetas(n: usize) -> Vec<IndexPermutation> {
    (0..n - 1)
        .map(|s| IndexPermutation::sub_inverse_shuffle(n, n - s))
        .collect()
}

/// The Baseline network (Wu & Feng), built from its PIPID stages.
///
/// The result coincides (as a digraph, node for node) with the canonical
/// left-recursive construction [`min_core::baseline_digraph`]; the test
/// suite asserts the two agree exactly.
pub fn baseline(n: usize) -> ConnectionNetwork {
    from_thetas(n, &baseline_thetas(n))
}

/// Digit permutations of the Reverse Baseline network: stage `s` uses the
/// perfect shuffle restricted to the `s+2` low-order digits.
pub fn reverse_baseline_thetas(n: usize) -> Vec<IndexPermutation> {
    (0..n - 1)
        .map(|s| IndexPermutation::sub_shuffle(n, s + 2))
        .collect()
}

/// The Reverse Baseline network: the Baseline drawn right-to-left.
///
/// Its digraph equals the reverse digraph of [`baseline`]; the test suite
/// asserts this.
pub fn reverse_baseline(n: usize) -> ConnectionNetwork {
    from_thetas(n, &reverse_baseline_thetas(n))
}

/// Digit permutations of the Indirect Binary n-Cube: stage `s` uses the
/// butterfly β_{s+1} (exchange link digits `s+1` and `0`).
pub fn indirect_binary_cube_thetas(n: usize) -> Vec<IndexPermutation> {
    (0..n - 1)
        .map(|s| IndexPermutation::butterfly(n, s + 1))
        .collect()
}

/// The Indirect Binary n-Cube (Pease): stage `s` lets a cell choose the
/// value of destination bit `s`.
pub fn indirect_binary_cube(n: usize) -> ConnectionNetwork {
    from_thetas(n, &indirect_binary_cube_thetas(n))
}

/// Digit permutations of the Modified Data Manipulator: stage `s` uses the
/// butterfly β_{n-1-s} (the cube stages in the reverse order).
pub fn modified_data_manipulator_thetas(n: usize) -> Vec<IndexPermutation> {
    (0..n - 1)
        .map(|s| IndexPermutation::butterfly(n, n - 1 - s))
        .collect()
}

/// The Modified Data Manipulator (Feng's data-manipulator family member used
/// by Wu & Feng): destination bits are resolved from the most significant
/// down.
pub fn modified_data_manipulator(n: usize) -> ConnectionNetwork {
    from_thetas(n, &modified_data_manipulator_thetas(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iso_search::digraph::{reverse, same_arcs};
    use min_core::baseline_iso::baseline_digraph;
    use min_core::independence::is_independent;
    use min_core::properties::satisfies_characterization;
    use min_graph::paths::is_banyan;

    const SIZES: std::ops::RangeInclusive<usize> = 2..=6;

    #[test]
    fn all_six_networks_have_the_right_shape() {
        for n in SIZES {
            for net in [
                omega(n),
                flip(n),
                baseline(n),
                reverse_baseline(n),
                indirect_binary_cube(n),
                modified_data_manipulator(n),
            ] {
                assert_eq!(net.stages(), n);
                assert_eq!(net.cells_per_stage(), 1 << (n - 1));
                assert!(net.is_proper());
                assert!(!net.has_parallel_links());
            }
        }
    }

    #[test]
    fn all_six_networks_are_banyan() {
        for n in SIZES {
            assert!(is_banyan(&omega(n).to_digraph()), "omega {n}");
            assert!(is_banyan(&flip(n).to_digraph()), "flip {n}");
            assert!(is_banyan(&baseline(n).to_digraph()), "baseline {n}");
            assert!(
                is_banyan(&reverse_baseline(n).to_digraph()),
                "reverse baseline {n}"
            );
            assert!(is_banyan(&indirect_binary_cube(n).to_digraph()), "cube {n}");
            assert!(
                is_banyan(&modified_data_manipulator(n).to_digraph()),
                "mdm {n}"
            );
        }
    }

    #[test]
    fn all_stages_of_all_networks_are_independent_connections() {
        for n in SIZES {
            for (name, net) in [
                ("omega", omega(n)),
                ("flip", flip(n)),
                ("baseline", baseline(n)),
                ("reverse-baseline", reverse_baseline(n)),
                ("cube", indirect_binary_cube(n)),
                ("mdm", modified_data_manipulator(n)),
            ] {
                for (i, conn) in net.connections().iter().enumerate() {
                    assert!(is_independent(conn), "{name} n={n} stage {i}");
                }
            }
        }
    }

    #[test]
    fn pipid_baseline_matches_the_left_recursive_construction() {
        for n in SIZES {
            let via_pipid = baseline(n).to_digraph();
            let canonical = baseline_digraph(n);
            assert!(
                same_arcs(&via_pipid, &canonical),
                "PIPID baseline differs from the recursive definition at n={n}"
            );
        }
    }

    #[test]
    fn reverse_baseline_is_the_reverse_of_the_baseline() {
        for n in SIZES {
            let rb = reverse_baseline(n).to_digraph();
            let reversed = reverse(&baseline(n).to_digraph());
            assert!(same_arcs(&rb, &reversed), "n={n}");
        }
    }

    #[test]
    fn all_six_satisfy_the_characterization() {
        for n in SIZES {
            assert!(satisfies_characterization(&omega(n).to_digraph()));
            assert!(satisfies_characterization(&flip(n).to_digraph()));
            assert!(satisfies_characterization(&baseline(n).to_digraph()));
            assert!(satisfies_characterization(
                &reverse_baseline(n).to_digraph()
            ));
            assert!(satisfies_characterization(
                &indirect_binary_cube(n).to_digraph()
            ));
            assert!(satisfies_characterization(
                &modified_data_manipulator(n).to_digraph()
            ));
        }
    }

    #[test]
    fn cube_stage_s_toggles_destination_bit_s() {
        let n = 4;
        let net = indirect_binary_cube(n);
        for (s, conn) in net.connections().iter().enumerate() {
            for x in 0..8u64 {
                assert_eq!(conn.f(x), x & !(1 << s));
                assert_eq!(conn.g(x), x | (1 << s));
            }
        }
    }

    #[test]
    fn omega_stage_is_the_textbook_shuffle_exchange() {
        let n = 4;
        let net = omega(n);
        let cells = net.cells_per_stage() as u64;
        for conn in net.connections() {
            for x in 0..cells {
                assert_eq!(conn.f(x), (2 * x) % cells);
                assert_eq!(conn.g(x), (2 * x + 1) % cells);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two stages")]
    fn single_stage_networks_are_rejected() {
        let _ = omega(1);
    }
}
