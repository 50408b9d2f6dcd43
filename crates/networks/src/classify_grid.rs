//! Declarative grids for equivalence-classification campaigns.
//!
//! [`ClassificationGrid`] is the classification analogue of
//! `min-sim`'s `CampaignConfig`: a grid of catalog cells (network family ×
//! stage count) plus optional random-network samples, expanded into the
//! canonically ordered [`Subject`] list consumed by
//! [`min_core::classify::classify_subjects`]. Random subjects derive their
//! ChaCha8 seed from `(campaign_seed, subject index)` by the SplitMix64
//! finalizer ([`min_core::classify::derive_seed`]), so the whole expansion —
//! and with it the classification report — depends only on the grid, never
//! on thread scheduling.

use crate::catalog::catalog_grid;
use crate::random::{
    random_buddy_network, random_independent_banyan, random_link_permutation_network,
    random_pipid_network,
};
use crate::spec::NetworkSpec;
use min_core::classify::{derive_seed, Subject};
use min_core::ConnectionNetwork;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The random-network families a classification grid can sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RandomFamily {
    /// Every stage a uniformly random non-degenerate PIPID (the paper's
    /// main-corollary population; Baseline-equivalent whenever Banyan).
    Pipid,
    /// Every stage a random proper independent connection, resampled until
    /// the network is Banyan (the Theorem 3 population). Rejection sampling
    /// is budgeted; when the budget is exhausted the sample deterministically
    /// falls back to a PIPID network, which keeps the grid total.
    IndependentBanyan,
    /// Every stage an arbitrary random link permutation — the negative
    /// control, essentially never Baseline-equivalent.
    LinkPermutation,
    /// Random buddy-property networks — Agrawal's property without
    /// Baseline equivalence (the populations of reference \[10\]).
    Buddy,
}

impl RandomFamily {
    /// All four families, in the canonical grid order.
    pub const ALL: [RandomFamily; 4] = [
        RandomFamily::Pipid,
        RandomFamily::IndependentBanyan,
        RandomFamily::LinkPermutation,
        RandomFamily::Buddy,
    ];

    /// Family label used in subject names and reports.
    pub fn name(self) -> &'static str {
        match self {
            RandomFamily::Pipid => "random-pipid",
            RandomFamily::IndependentBanyan => "random-independent-banyan",
            RandomFamily::LinkPermutation => "random-link-permutation",
            RandomFamily::Buddy => "random-buddy",
        }
    }

    /// Deterministically builds the `n`-stage sample for `seed`.
    pub fn build(self, stages: usize, seed: u64) -> ConnectionNetwork {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        match self {
            RandomFamily::Pipid => random_pipid_network(stages, &mut rng),
            RandomFamily::IndependentBanyan => random_independent_banyan(stages, 1000, &mut rng)
                .unwrap_or_else(|| random_pipid_network(stages, &mut rng)),
            RandomFamily::LinkPermutation => random_link_permutation_network(stages, &mut rng),
            RandomFamily::Buddy => random_buddy_network(stages, &mut rng),
        }
    }
}

impl std::fmt::Display for RandomFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative classification campaign: catalog cells × stage counts plus
/// optional random samples.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationGrid {
    /// Master seed; every subject derives its own seed from this and its
    /// index.
    pub campaign_seed: u64,
    /// The deterministic network specs, e.g. from [`catalog_grid`] — since
    /// the `NetworkSpec` redesign these can also name Benes, its variant,
    /// and rewritten catalog members.
    pub catalog: Vec<NetworkSpec>,
    /// Random families swept after the catalog cells.
    pub random_families: Vec<RandomFamily>,
    /// Stage counts swept per random family.
    pub random_stages: Vec<usize>,
    /// Independent samples per (random family, stage count) point.
    pub random_samples: u32,
}

impl ClassificationGrid {
    /// A grid over the full classical catalog at the given stage counts,
    /// with no random axis.
    pub fn over_catalog(stages: std::ops::RangeInclusive<usize>) -> Self {
        ClassificationGrid {
            campaign_seed: 0x1988,
            catalog: catalog_grid(stages),
            random_families: Vec::new(),
            random_stages: Vec::new(),
            random_samples: 0,
        }
    }

    /// Builder-style setter for the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.campaign_seed = seed;
        self
    }

    /// Builder-style setter for the deterministic cells.
    pub fn with_catalog(mut self, catalog: Vec<NetworkSpec>) -> Self {
        self.catalog = catalog;
        self
    }

    /// Builder-style setter for the random axis: `samples` networks per
    /// (family, stage count) point.
    pub fn with_random(
        mut self,
        families: Vec<RandomFamily>,
        stages: std::ops::RangeInclusive<usize>,
        samples: u32,
    ) -> Self {
        self.random_families = families;
        self.random_stages = stages.collect();
        self.random_samples = samples;
        self
    }

    /// Number of subjects the grid expands to.
    pub fn subject_count(&self) -> usize {
        self.catalog.len()
            + self.random_families.len() * self.random_stages.len() * self.random_samples as usize
    }

    /// Expands the grid into the canonical subject list: catalog cells
    /// first (in the given order), then random subjects family-major ×
    /// stage count × sample. Every subject's seed derives from
    /// `(campaign_seed, index)`.
    ///
    /// Panics if any stage count is outside the buildable range `2..=32`.
    pub fn subjects(&self) -> Vec<Subject> {
        for spec in &self.catalog {
            let n = spec.stages();
            assert!((2..=32).contains(&n), "catalog stage count {n} unbuildable");
        }
        for &n in &self.random_stages {
            assert!((2..=32).contains(&n), "random stage count {n} unbuildable");
        }
        let mut out = Vec::with_capacity(self.subject_count());
        for &spec in &self.catalog {
            let seed = derive_seed(self.campaign_seed, out.len());
            out.push(Subject::new(
                spec.name(),
                spec.stages(),
                0,
                seed,
                move || spec.build(),
            ));
        }
        for &family in &self.random_families {
            for &stages in &self.random_stages {
                for replication in 0..self.random_samples {
                    let seed = derive_seed(self.campaign_seed, out.len());
                    out.push(Subject::new(
                        family.name(),
                        stages,
                        replication,
                        seed,
                        move || family.build(stages, seed),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ClassicalNetwork;
    use min_core::classify::classify_subjects;

    #[test]
    fn expansion_is_canonical_and_seeded_per_index() {
        let grid = ClassificationGrid::over_catalog(3..=4)
            .with_seed(0xF00D)
            .with_random(RandomFamily::ALL.to_vec(), 3..=3, 2);
        let subjects = grid.subjects();
        assert_eq!(subjects.len(), grid.subject_count());
        assert_eq!(subjects.len(), 12 + 4 * 2);
        // Catalog first, family-major (Baseline at n = 3, 4).
        assert_eq!(subjects[0].family(), "Baseline");
        assert_eq!(subjects[0].stages(), 3);
        assert_eq!(subjects[1].stages(), 4);
        // Random subjects follow, family-major with replications innermost.
        assert_eq!(subjects[12].family(), "random-pipid");
        assert_eq!(subjects[13].replication(), 1);
        assert_eq!(subjects[14].family(), "random-independent-banyan");
        // Seeds derive from (campaign seed, index) and are all distinct.
        for (i, s) in subjects.iter().enumerate() {
            assert_eq!(s.seed(), derive_seed(0xF00D, i));
        }
        let seeds: std::collections::HashSet<u64> = subjects.iter().map(|s| s.seed()).collect();
        assert_eq!(seeds.len(), subjects.len());
    }

    #[test]
    fn random_builders_are_deterministic_per_seed() {
        for family in RandomFamily::ALL {
            let a = family.build(4, 99);
            let b = family.build(4, 99);
            assert_eq!(a, b, "{family}");
            assert_eq!(a.stages(), 4);
            assert!(a.is_proper(), "{family}");
        }
        // Different seeds give different networks (overwhelmingly).
        assert_ne!(
            RandomFamily::LinkPermutation.build(5, 1),
            RandomFamily::LinkPermutation.build(5, 2)
        );
    }

    #[test]
    fn catalog_subjects_classify_into_one_class_per_stage_count() {
        let grid = ClassificationGrid::over_catalog(3..=4);
        let report = classify_subjects(&grid.subjects(), 0).unwrap();
        assert_eq!(report.subject_count, 12);
        assert_eq!(report.equivalent_subjects, 12);
        // One Baseline-equivalent class per stage count, all cross-verified.
        assert_eq!(report.class_count, 2);
        for class in &report.classes {
            assert_eq!(class.members.len(), 6);
            assert!(class.equivalent);
            assert!(class.cross_verified);
        }
    }

    #[test]
    fn banyan_random_samples_classify_as_equivalent() {
        // Theorem 3 on the random axis: every Banyan sample with
        // independent stages must land in the Baseline-equivalent class.
        let grid = ClassificationGrid::over_catalog(3..=3)
            .with_catalog(vec![NetworkSpec::catalog(ClassicalNetwork::Baseline, 3)])
            .with_random(
                vec![RandomFamily::IndependentBanyan, RandomFamily::Pipid],
                3..=4,
                3,
            );
        let subjects = grid.subjects();
        let report = classify_subjects(&subjects, 2).unwrap();
        for r in report.subjects.iter().filter(|r| r.index > 0) {
            let net = subjects[r.index].build();
            let banyan = min_graph::paths::is_banyan(&net.to_digraph());
            let independent = net
                .connections()
                .iter()
                .all(min_core::independence::is_independent);
            if banyan && independent {
                assert!(r.equivalent, "{} is Banyan + independent", r.name());
            } else {
                assert!(!r.equivalent, "{} is not Banyan", r.name());
            }
        }
    }
}
