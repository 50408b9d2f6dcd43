//! Experiments E3, E7, E8 — Lemma 2, Proposition 1 and Theorem 3 on random
//! instances (property-based).
//!
//! This file is also the home of the definitional independence check
//! ([`is_independent_naive`]), the oracle the packed affine check is pinned
//! against, and of the oracle test of Theorem 3's construction: on every
//! independent network, [`affine_baseline_isomorphism`] gives the sweep's
//! certificate or declines exactly when the sweep fails, and its closed
//! form ([`affine_certificate`]) re-expands to those same tables.

use baseline_equivalence::prelude::*;
use min_core::affine_form::{
    affine_form, random_independent_connection, random_proper_independent_connection,
};
use min_core::independence::is_independent;
use min_core::pipid::connection_from_pipid;
use min_core::reverse::reverse_connection;
use min_core::{affine_baseline_isomorphism, affine_certificate, AffineForm, BaselineIsomorphism};
use min_graph::components::component_ids_range;
use min_graph::paths::is_banyan;
use min_labels::{all_labels, AffineMap, Permutation};
use min_networks::random::{random_independent_banyan, random_pipid_network};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The paper's definition of independence, verbatim: for every `α ≠ 0`
/// some `β` has `f(x ⊕ α) = β ⊕ f(x)` and `g(x ⊕ α) = β ⊕ g(x)` for every
/// `x`. `O(N²)`.
fn is_independent_naive(conn: &Connection) -> bool {
    let width = conn.width();
    all_labels(width).skip(1).all(|alpha| {
        // If any β works, the one forced by x = 0 works: β = f(α) ⊕ f(0).
        let beta = conn.f(alpha) ^ conn.f(0);
        all_labels(width)
            .all(|x| conn.f(x ^ alpha) == beta ^ conn.f(x) && conn.g(x ^ alpha) == beta ^ conn.g(x))
    })
}

/// An `n`-stage network (`n ≤ 10`) whose every stage is independent:
/// random stages of both Proposition 1 shapes (Banyan or not), an
/// independent Banyan network, a random PIPID network, stages that are not
/// 2-regular, proper stages with one parallel-link stage, or a catalog
/// network with every stage relabelled by a random affine bijection (always
/// equivalent, at every size).
fn independent_network() -> impl Strategy<Value = ConnectionNetwork> {
    (0..6u8, 2..=10usize, any::<u64>()).prop_map(|(family, n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let width = n - 1;
        let proper = |rng: &mut ChaCha8Rng| {
            let connections = (0..width)
                .map(|_| random_proper_independent_connection(width, rng.gen(), rng))
                .collect();
            ConnectionNetwork::new(width, connections)
        };
        match family {
            0 => proper(&mut rng),
            // Banyan rejection sampling costs a path count per attempt.
            1 => random_independent_banyan(n.min(8), 20, &mut rng)
                .unwrap_or_else(|| random_pipid_network(n, &mut rng)),
            2 => random_pipid_network(n, &mut rng),
            3 => {
                let connections = (0..width)
                    .map(|_| random_independent_connection(width, &mut rng))
                    .collect();
                ConnectionNetwork::new(width, connections)
            }
            4 => {
                let mut connections = proper(&mut rng).connections().to_vec();
                let parallel = AffineMap::random_invertible(width, &mut rng);
                connections[rng.gen_range(0..width)] = Connection::from_affine(&parallel, 0);
                ConnectionNetwork::new(width, connections)
            }
            _ => {
                let kind = ClassicalNetwork::ALL[rng.gen_range(0..ClassicalNetwork::ALL.len())];
                let relabel: Vec<AffineMap> = (0..n)
                    .map(|_| AffineMap::random_invertible(width, &mut rng))
                    .collect();
                let catalog = kind.build(n);
                let connections = catalog
                    .connections()
                    .iter()
                    .enumerate()
                    .map(|(j, conn)| {
                        let form = affine_form(conn).expect("catalog stages are independent");
                        let back = relabel[j].inverse().expect("invertible");
                        let f = relabel[j + 1].compose(&form.f).compose(&back);
                        let c = relabel[j + 1].linear().apply(form.difference);
                        Connection::from_affine(&f, c)
                    })
                    .collect();
                ConnectionNetwork::new(width, connections)
            }
        }
    })
}

/// Strategy: a proper independent connection on `width` bits, described by a
/// seed so shrinking stays meaningful.
fn proper_connection(width: usize) -> impl Strategy<Value = Connection> {
    (any::<u64>(), any::<bool>()).prop_map(move |(seed, bijective)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        random_proper_independent_connection(width, bijective, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fast (basis) independence check agrees with the definitional one,
    /// and independence is equivalent to the affine form existing.
    #[test]
    fn independence_checkers_agree(conn in proper_connection(4)) {
        prop_assert!(is_independent_naive(&conn));
        prop_assert!(is_independent(&conn));
        prop_assert!(affine_form(&conn).is_some());
    }

    /// Proposition 1: the reverse of a proper independent connection is an
    /// independent connection describing exactly the reversed arcs.
    #[test]
    fn proposition1_reverse_is_independent(conn in proper_connection(4)) {
        let rev = reverse_connection(&conn).expect("proper independent connections reverse");
        prop_assert!(is_independent(&rev));
        // The reverse's reverse describes the original arcs again.
        let back = reverse_connection(&rev).expect("the reverse is proper too");
        for x in 0..conn.cells() as u64 {
            let mut kids: Vec<u64> = vec![conn.f(x), conn.g(x)];
            kids.sort_unstable();
            let mut parents_of_x: Vec<u64> = vec![back.f(x), back.g(x)];
            parents_of_x.sort_unstable();
            prop_assert_eq!(kids.len(), 2);
            prop_assert_eq!(parents_of_x.len(), 2);
        }
    }

    /// Composing independent stages and keeping only the Banyan outcomes
    /// always yields a Baseline-equivalent network (Theorem 3), with a
    /// verified certificate.
    #[test]
    fn theorem3_banyan_plus_independent_implies_equivalent(
        seeds in proptest::collection::vec(any::<u64>(), 3),
        flags in proptest::collection::vec(any::<bool>(), 3),
    ) {
        let width = 3usize;
        let connections: Vec<Connection> = seeds
            .iter()
            .zip(flags.iter())
            .map(|(&s, &b)| {
                let mut rng = ChaCha8Rng::seed_from_u64(s);
                random_proper_independent_connection(width, b, &mut rng)
            })
            .collect();
        let net = ConnectionNetwork::new(width, connections);
        let g = net.to_digraph();
        if is_banyan(&g) {
            let cert = baseline_isomorphism(&g).expect("Theorem 3");
            prop_assert!(cert.verify(&g));
        } else {
            // Not covered by Theorem 3; nothing to assert beyond sanity.
            prop_assert!(net.is_proper());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Theorem 3's construction gives the sweep's certificate bit for bit,
    /// or declines exactly when the sweep fails; a campaign then records
    /// the sweep's own diagnosis.
    #[test]
    fn theorem3_path_agrees_with_the_sweep(net in independent_network()) {
        let forms: Vec<AffineForm> = net
            .connections()
            .iter()
            .map(|conn| affine_form(conn).expect("every stage is independent"))
            .collect();
        let sweep = baseline_isomorphism(&net);
        match affine_baseline_isomorphism(&net, &forms) {
            Some(certificate) => prop_assert_eq!(Ok(certificate), sweep.clone()),
            None => prop_assert!(sweep.is_err(), "declined an equivalent network"),
        }
        let stages = net.stages();
        let subject = Subject::new("independent", stages, 0, 0, move || net.clone());
        let report = classify_subjects(&[subject], 1).unwrap();
        match (&report.subjects[0].witness, &sweep) {
            (Witness::IndependentConnections { mapping_checksum, .. }, Ok(certificate)) => {
                prop_assert_eq!(*mapping_checksum, certificate.checksum())
            }
            (Witness::Violation { condition }, Err(error)) => {
                prop_assert_eq!(condition, &error.to_string())
            }
            (witness, _) => prop_assert!(false, "{:?} against {:?}", witness, sweep),
        }
    }
}

/// Checks the closed form a campaign keeps between its passes against
/// Theorem 3's verified tables: the kept maps re-expand, fresh and into a
/// reused certificate, to exactly those tables, which are the sweep's, with
/// equal checksums. Returns that checksum, or `None` when the construction
/// declines.
fn closed_form_checksum(net: &ConnectionNetwork, reused: &mut BaselineIsomorphism) -> Option<u64> {
    let forms: Vec<AffineForm> = net
        .connections()
        .iter()
        .map(|conn| affine_form(conn).expect("every stage is independent"))
        .collect();
    let tables = affine_baseline_isomorphism(net, &forms)?;
    let kept = affine_certificate(net, &forms).expect("the construction behind the tables");
    assert_eq!(kept.maps().len(), net.stages());
    let expanded = kept.expand();
    assert_eq!(expanded, tables);
    assert_eq!(expanded.checksum(), tables.checksum());
    kept.expand_into(reused);
    assert_eq!(*reused, tables);
    let checksum = tables.checksum();
    assert_eq!(baseline_isomorphism(net), Ok(tables));
    Some(checksum)
}

#[test]
fn closed_form_certificates_re_expand_to_the_verified_tables() {
    // Families at n = 2..=12 in turn, so the reused certificate both grows
    // and shrinks.
    let mut reused = BaselineIsomorphism::default();
    let mut subjects = Vec::new();
    for kind in ClassicalNetwork::ALL {
        for n in 2..=12 {
            let checksum = closed_form_checksum(&kind.build(n), &mut reused)
                .unwrap_or_else(|| panic!("Theorem 3 declined {kind} n={n}"));
            subjects.push((
                Subject::new(kind.to_string(), n, 0, 0, move || kind.build(n)),
                checksum,
            ));
        }
    }
    // The campaign's witnesses fingerprint the same tables.
    let (subjects, checksums): (Vec<Subject>, Vec<u64>) = subjects.into_iter().unzip();
    let report = classify_subjects(&subjects, 2).unwrap();
    for (result, checksum) in report.subjects.iter().zip(checksums) {
        match &result.witness {
            Witness::IndependentConnections {
                mapping_checksum, ..
            } => {
                assert_eq!(*mapping_checksum, checksum, "{}", result.name())
            }
            other => panic!("{}: {other:?}", result.name()),
        }
    }
    assert!(report.classes.iter().all(|class| class.cross_verified));

    let mut rng = ChaCha8Rng::seed_from_u64(0x7e3);
    let mut certified = 0;
    for n in 2..=12 {
        for _ in 0..4 {
            let pipid = random_pipid_network(n, &mut rng);
            certified += usize::from(closed_form_checksum(&pipid, &mut reused).is_some());
            // Banyan rejection sampling costs a path count per attempt.
            if let Some(banyan) = random_independent_banyan(n.min(8), 20, &mut rng) {
                let checksum = closed_form_checksum(&banyan, &mut reused);
                assert!(
                    checksum.is_some(),
                    "Theorem 3 declined a Banyan network, n={n}"
                );
                certified += 1;
            }
        }
    }
    assert!(
        certified >= 40,
        "only {certified} random networks certified"
    );
}

#[test]
fn lemma2_component_structure_on_independent_banyan_networks() {
    // Lemma 2's induction invariant, checked directly: in a Banyan network
    // built from independent connections, every component of (G)_{j,n}
    // intersects every stage i >= j in exactly 2^{n-1-j} ... i.e. in equally
    // many nodes (and the counts match P(*, n)).
    let mut rng = ChaCha8Rng::seed_from_u64(0x1e44);
    let mut checked = 0;
    for _ in 0..30 {
        let Some(net) = min_networks::random::random_independent_banyan(4, 50, &mut rng) else {
            continue;
        };
        let g = net.to_digraph();
        let n = g.stages();
        for j in 0..n {
            let rc = component_ids_range(&g, j, n - 1);
            assert_eq!(rc.count, 1usize << j, "P({},{n}) count", j + 1);
            for i in j..n {
                let sizes = rc.stage_intersection_sizes(i);
                let expected = g.width() >> j;
                assert!(
                    sizes.iter().all(|&s| s == expected),
                    "component of (G)_{{{},{}}} meets stage {} unevenly: {sizes:?}",
                    j + 1,
                    n,
                    i + 1
                );
            }
        }
        checked += 1;
    }
    assert!(
        checked >= 5,
        "expected several Banyan samples, got {checked}"
    );
}

#[test]
fn constant_difference_observation_from_lemma2() {
    // "as the connection (f,g) is independent, f(x) ⊕ g(x) = f(y) ⊕ g(y)":
    // holds for every stage of every catalog network.
    for n in 2..=6 {
        for kind in ClassicalNetwork::ALL {
            for conn in kind.build(n).connections() {
                assert!(conn.constant_difference().is_some(), "{kind} n={n}");
            }
        }
    }
}

#[test]
fn fast_and_naive_checkers_agree_on_random_connections() {
    let mut rng = ChaCha8Rng::seed_from_u64(67);
    let mut independents = 0usize;
    for i in 0..60 {
        let conn = if i % 3 == 0 {
            // random affine pair: independent by construction
            let aff = AffineMap::random(3, 3, &mut rng);
            Connection::from_affine(&aff, rng.gen_range(0..8))
        } else {
            // random tables: essentially never independent
            let f = Permutation::random(3, &mut rng);
            let g = Permutation::random(3, &mut rng);
            Connection::from_fn(3, |x| f.apply(x), |x| g.apply(x))
        };
        let a = is_independent_naive(&conn);
        let b = is_independent(&conn);
        assert_eq!(a, b, "checkers disagree on connection {i}");
        if a {
            independents += 1;
        }
    }
    assert!(
        independents >= 10,
        "the affine third must all be independent"
    );
}

#[test]
fn the_definition_holds_on_the_paper_stages_and_their_reverses() {
    // §3 and §4: Baseline, Omega and PIPID stages are independent, and so
    // are their Proposition 1 reverses.
    let top = 0b100u64;
    let baseline = Connection::from_fn(3, |x| x >> 1, move |x| (x >> 1) | top);
    let shuffle = IndexPermutation::perfect_shuffle(4);
    let omega = Connection::from_link_permutation(&Permutation::from_index_perm(&shuffle));
    let mut rng = ChaCha8Rng::seed_from_u64(137);
    let pipids = (0..10).map(|_| connection_from_pipid(&IndexPermutation::random(5, &mut rng)));
    for conn in [baseline, omega]
        .into_iter()
        .chain(pipids.map(|s| s.connection))
    {
        assert!(is_independent_naive(&conn));
        let rev = reverse_connection(&conn).expect("proper independent stages reverse");
        assert!(is_independent_naive(&rev));
    }
    // Two-regular, but f and g do not differ by a constant.
    let mixed = Connection::from_tables(2, vec![0, 0, 2, 3], vec![1, 1, 3, 2]);
    assert!(!is_independent_naive(&mixed));
    let shifted = Connection::from_fn(3, |x| x, |x| if x < 4 { x ^ 1 } else { x ^ 2 });
    assert!(!is_independent_naive(&shifted));
}
