//! Integration tests for the equivalence-classification campaign: a tiny
//! grid over the classical catalog plus all four random families, witness
//! and partition invariants, and the headline determinism property — the
//! same grid produces a byte-identical `ClassificationReport` at one worker
//! thread and at many.

use baseline_equivalence::prelude::*;
use min_core::classify::derive_seed;
use proptest::prelude::*;

fn tiny_grid(seed: u64) -> ClassificationGrid {
    ClassificationGrid::over_catalog(2..=4)
        .with_seed(seed)
        .with_random(RandomFamily::ALL.to_vec(), 3..=4, 2)
}

#[test]
fn tiny_grid_over_the_catalog_classifies_completely() {
    let grid = tiny_grid(0xC0FFEE);
    let subjects = grid.subjects();
    // 6 families × 3 stage counts + 4 random families × 2 stage counts × 2.
    assert_eq!(subjects.len(), 18 + 16);
    let report = classify_subjects(&subjects, 3).expect("campaign runs");
    assert_eq!(report.subject_count, 34);
    assert_eq!(report.subjects.len(), 34);

    for (i, r) in report.subjects.iter().enumerate() {
        assert_eq!(r.index, i);
        assert_eq!(r.seed, derive_seed(0xC0FFEE, i));
        // Witness shape matches the verdict.
        match &r.witness {
            Witness::Violation { condition } => {
                assert!(!r.equivalent);
                assert!(!condition.is_empty());
            }
            Witness::IndependentConnections {
                differences, ranks, ..
            } => {
                assert!(r.equivalent);
                assert_eq!(differences.len(), r.stages - 1);
                assert_eq!(ranks.len(), r.stages - 1);
            }
            Witness::Characterization { .. } => assert!(r.equivalent),
        }
        // The class the subject points at contains it and matches its size.
        let class = &report.classes[r.class];
        assert!(class.members.contains(&i));
        assert_eq!(class.stages, r.stages);
        assert_eq!(class.equivalent, r.equivalent);
    }

    // The whole catalog is Baseline-equivalent: one class of six members
    // per stage count, every one cross-verified via composed certificates.
    for n in 2..=4 {
        let class = report
            .classes
            .iter()
            .find(|c| c.equivalent && c.stages == n)
            .unwrap_or_else(|| panic!("no equivalent class at n={n}"));
        assert!(class.members.len() >= 6, "all six catalog members at n={n}");
        assert!(class.cross_verified);
        assert_eq!(class.key, format!("n={n} baseline-equivalent"));
    }

    // Partition sanity: classes are disjoint, cover every subject, ids are
    // ascending, members are sorted.
    let mut seen = vec![false; report.subject_count];
    for (id, class) in report.classes.iter().enumerate() {
        assert_eq!(class.id, id);
        assert!(class.members.windows(2).all(|w| w[0] < w[1]));
        for &m in &class.members {
            assert!(!seen[m], "subject {m} appears in two classes");
            seen[m] = true;
        }
    }
    assert!(seen.iter().all(|&s| s));

    // The JSON report parses back to the same value.
    let back = ClassificationReport::from_json(&report.to_json()).expect("report JSON parses");
    assert_eq!(back, report);
}

#[test]
fn random_link_permutations_violate_and_catalog_passes() {
    let grid = ClassificationGrid::over_catalog(4..=4)
        .with_seed(7)
        .with_random(vec![RandomFamily::LinkPermutation], 4..=4, 4);
    let report = classify_subjects(&grid.subjects(), 2).unwrap();
    // The six catalog subjects are equivalent; random link permutations at
    // n=4 essentially never are.
    assert_eq!(report.equivalent_subjects, 6);
    for r in report.subjects.iter().filter(|r| r.index >= 6) {
        assert!(
            matches!(r.witness, Witness::Violation { .. }),
            "{} unexpectedly equivalent",
            r.name()
        );
    }
    // Diagnostic classes key on the violated condition.
    for class in report.classes.iter().filter(|c| !c.equivalent) {
        assert!(class.key.starts_with("n=4 "));
    }
}

/// The committed artifact passes `from_json`'s consistency checks and
/// renders back to the same bytes.
#[test]
fn the_committed_report_round_trips() {
    let text = include_str!("../classification.json");
    let report = ClassificationReport::from_json(text).expect("committed report parses");
    assert_eq!(report.to_json(), text);
    assert!(report.summary_table().contains("classes"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The same grid yields an identical report JSON at 1 thread and at N
    /// threads, for arbitrary seeds and thread counts, with the random axis
    /// (all four families) on the grid.
    #[test]
    fn same_grid_same_report_at_any_thread_count(seed in any::<u64>(), threads in 2usize..9) {
        let grid = ClassificationGrid::over_catalog(3..=3)
            .with_seed(seed)
            .with_random(RandomFamily::ALL.to_vec(), 3..=3, 1);
        let subjects = grid.subjects();
        let sequential = classify_subjects(&subjects, 1).expect("sequential run");
        let parallel = classify_subjects(&subjects, threads).expect("parallel run");
        prop_assert_eq!(&sequential, &parallel);
        prop_assert_eq!(sequential.to_json(), parallel.to_json());
    }
}
