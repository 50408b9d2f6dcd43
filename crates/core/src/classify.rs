//! Equivalence-classification campaigns: deciding Baseline equivalence for
//! whole families of networks in one deterministic, parallel sweep.
//!
//! The paper's contribution is a *decision procedure* — is this network
//! Baseline-equivalent? — and the rest of the crate answers it one network
//! at a time. This module scales the question to a **campaign**: a list of
//! [`Subject`]s (catalog cells, random samples, anything that builds a
//! [`ConnectionNetwork`]) is fanned out across scoped worker threads, every
//! network is decided with an explicit per-network witness, and the results
//! are partitioned into equivalence classes:
//!
//! * all Baseline-equivalent networks of one stage count form **one** class
//!   (they are mutually equivalent by composing their certificates —
//!   Theorem 3 / the §2 characterization), and the campaign *re-verifies*
//!   that claim by composing every member's certificate with the class
//!   representative's and checking the mapping arc by arc;
//! * networks that are **not** Baseline-equivalent are grouped by their
//!   violated condition (the specific [`crate::EquivalenceError`]
//!   diagnosis). The
//!   paper does not characterize the isomorphism classes *outside* the
//!   Baseline class, so these buckets are diagnostic — two members share the
//!   reason they fail, not necessarily an isomorphism.
//!
//! The per-network [`Witness`] is either the independent-connection
//! certificate (per-stage constant differences and linear-part ranks of the
//! packed affine forms — the §3 objects), the structural certificate alone
//! (for equivalent networks with some non-independent stage), or the
//! violated condition.
//!
//! No [`min_graph::MiDigraph`] is built anywhere in a campaign. When every
//! stage is independent, the decision takes Theorem 3's construction
//! ([`affine_certificate`]) from the stage affine forms; otherwise, or when
//! that construction declines, it runs the sweep ([`baseline_isomorphism`])
//! on the network, which is itself a [`min_graph::MiView`] of its `f`/`g`
//! tables. Both give the same certificate, and every `Violation` is the
//! sweep's diagnosis. Every certificate is expanded to its tables, checked
//! arc by arc against the closed-form Baseline
//! ([`crate::baseline_iso::BaselineView`]) and checksummed before the
//! decision pass moves on.
//!
//! Between the decision pass and the cross-verification pass, a certificate
//! from Theorem 3's construction is kept as its per-stage affine maps
//! ([`AffineCertificate`], about 2 KB at `n = 16`). Only a certificate that
//! the sweep alone found keeps its `n · 2^{n-1}`-entry tables. Each worker
//! expands certificates into one set of tables that it reuses from network
//! to network. A member's cross-verification pair expands the member's
//! certificate there and composes the mapping over it. A class
//! representative is rebuilt, and its certificate expanded and inverted,
//! by the first pair of its class; that network and inverse are dropped
//! once the class's last pair lands. Each composed mapping is checked
//! between the member's and the representative's rebuilt tables:
//! bijectivity, arc multiplicities and per-stage arc counts run for every
//! class member.
//!
//! ## Determinism
//!
//! The design mirrors `min-sim`'s scenario campaigns: subjects carry their
//! position in the canonical grid expansion, random subjects derive their
//! ChaCha8 seed from `(campaign_seed, index)` by the SplitMix64 finalizer
//! ([`derive_seed`]), workers pull indices from an atomic cursor
//! ([`run_indexed`]), and results are slotted by index — never by
//! completion order. Class identifiers are assigned in order of first
//! appearance. Cross-verification runs its (class, member) pairs through
//! the same pool and folds the verdicts in pair order. The
//! [`ClassificationReport`] and its JSON are therefore **byte-identical at
//! any worker-thread count**, which is what lets CI diff the partition
//! across runs.
//!
//! ```
//! use min_core::classify::{classify_subjects, Subject};
//! use min_core::{Connection, ConnectionNetwork};
//!
//! // The 3-stage Baseline, straight from its connection tables.
//! let baseline = || {
//!     let c0 = Connection::from_fn(2, |x| x >> 1, |x| (x >> 1) | 0b10);
//!     let c1 = Connection::from_fn(2, |x| x & 0b10, |x| (x & 0b10) | 1);
//!     ConnectionNetwork::new(2, vec![c0, c1])
//! };
//! let subjects: Vec<Subject> = (0..2)
//!     .map(|rep| Subject::new("baseline", 3, rep, 0, baseline))
//!     .collect();
//! let one = classify_subjects(&subjects, 1).unwrap();
//! let many = classify_subjects(&subjects, 4).unwrap();
//! assert_eq!(one.to_json(), many.to_json());
//! assert_eq!(one.class_count, 1);
//! assert!(one.classes[0].cross_verified);
//! ```

use crate::affine_form::affine_form;
use crate::baseline_iso::{
    affine_certificate, baseline_isomorphism, AffineCertificate, BaselineIsomorphism,
};
use crate::equivalence::BaselineInverse;
use crate::network::ConnectionNetwork;
use min_graph::iso::verify_stage_mapping;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Derives a per-subject seed from the campaign seed and the subject index.
///
/// Same SplitMix64 finalizer as the simulation campaigns
/// (`min_sim::campaign::scenario_seed`): cheap, stateless, and
/// collision-free in practice, so two random subjects never share a ChaCha8
/// stream.
pub fn derive_seed(campaign_seed: u64, index: usize) -> u64 {
    let mut z = campaign_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `job` on every index in `0..count` across `threads` scoped worker
/// threads (`0` = one per available core, never more than `count`) and
/// returns the results in index order.
///
/// Workers pull indices from a shared atomic cursor, so the output depends
/// only on `job`, never on the thread count or on scheduling. This is the
/// one worker pool behind both classification campaigns and `min-sim`'s
/// in-process simulation campaigns. A panicking job panics the caller.
pub fn run_indexed<T: Send>(
    count: usize,
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = match threads {
        0 => thread::available_parallelism().map_or(1, usize::from),
        n => n,
    };
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.clamp(1, count.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break local;
                        }
                        local.push((i, job(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, result)| result).collect()
}

/// One network to classify: descriptive metadata plus a deterministic
/// builder.
///
/// The builder is invoked lazily inside a worker thread, so a campaign over
/// the full catalog at `n = 2..=16` never holds every network in memory at
/// once. Cross-verification calls it again, from any worker: once for a
/// member of an equivalent class whose certificate composes with the
/// representative's, and once per class for the representative, when some
/// member needs it.
pub struct Subject {
    family: String,
    stages: usize,
    replication: u32,
    seed: u64,
    builder: Box<dyn Fn() -> ConnectionNetwork + Send + Sync>,
}

impl Subject {
    /// Creates a subject. The builder must be deterministic: it is called
    /// more than once and every call must produce the same network.
    pub fn new<F>(
        family: impl Into<String>,
        stages: usize,
        replication: u32,
        seed: u64,
        builder: F,
    ) -> Self
    where
        F: Fn() -> ConnectionNetwork + Send + Sync + 'static,
    {
        Subject {
            family: family.into(),
            stages,
            replication,
            seed,
            builder: Box::new(builder),
        }
    }

    /// Family label (e.g. `"Omega"` or `"random-pipid"`).
    pub fn family(&self) -> &str {
        &self.family
    }

    /// Stage count `n` (the network has `N = 2^n` terminals).
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Replication number within the family × stage-count grid point.
    pub fn replication(&self) -> u32 {
        self.replication
    }

    /// The derived seed (meaningful for random subjects; echoed for all).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builds the network.
    pub fn build(&self) -> ConnectionNetwork {
        (self.builder)()
    }

    /// Canonical display name, also used by the CI partition differ.
    pub fn name(&self) -> String {
        format!("{}/n={}#{}", self.family, self.stages, self.replication)
    }
}

impl std::fmt::Debug for Subject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subject")
            .field("family", &self.family)
            .field("stages", &self.stages)
            .field("replication", &self.replication)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// The per-network evidence recorded by a classification campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Witness {
    /// Theorem 3 seen end to end: every stage is an independent connection.
    /// `differences[i]` is the constant `c_i = f_i ⊕ g_i` and `ranks[i]` the
    /// rank of the shared linear part of stage `i` (packed affine forms);
    /// `mapping_checksum` fingerprints the verified Baseline certificate.
    IndependentConnections {
        /// Per-stage constant difference `c = f ⊕ g`.
        differences: Vec<u64>,
        /// Per-stage rank of the shared GF(2) linear part.
        ranks: Vec<usize>,
        /// [`BaselineIsomorphism::checksum`] of the verified certificate.
        mapping_checksum: u64,
    },
    /// The network is Baseline-equivalent by the §2 characterization, but
    /// some stage is not an independent connection, so only the structural
    /// certificate is available.
    Characterization {
        /// [`BaselineIsomorphism::checksum`] of the verified certificate.
        mapping_checksum: u64,
    },
    /// The network is not Baseline-equivalent; the rendered
    /// [`crate::EquivalenceError`] names the violated condition.
    Violation {
        /// Human-readable diagnosis (also the class key).
        condition: String,
    },
}

/// The outcome for one subject, in canonical grid order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubjectResult {
    /// Position in the canonical subject list.
    pub index: usize,
    /// Family label.
    pub family: String,
    /// Stage count `n`.
    pub stages: usize,
    /// Replication number within the grid point.
    pub replication: u32,
    /// Derived seed the subject was built with.
    pub seed: u64,
    /// Whether the network is Baseline-equivalent.
    pub equivalent: bool,
    /// Identifier of the equivalence class the subject landed in.
    pub class: usize,
    /// The per-network evidence.
    pub witness: Witness,
}

impl SubjectResult {
    /// Canonical display name (same scheme as [`Subject::name`]).
    pub fn name(&self) -> String {
        format!("{}/n={}#{}", self.family, self.stages, self.replication)
    }
}

/// One cell of the partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquivalenceClass {
    /// Class identifier, assigned in order of first appearance.
    pub id: usize,
    /// Stage count shared by every member.
    pub stages: usize,
    /// `true` for the Baseline-equivalent class of this stage count.
    pub equivalent: bool,
    /// Canonical key: `"n=<stages> baseline-equivalent"` or
    /// `"n=<stages> <violated condition>"`.
    pub key: String,
    /// Member subject indices, ascending.
    pub members: Vec<usize>,
    /// For an equivalent class: every member's certificate was composed
    /// with the representative's (first member) and the resulting mapping
    /// verified arc by arc. Vacuously `true` for diagnostic classes.
    pub cross_verified: bool,
}

/// The complete, canonically ordered result of a classification campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassificationReport {
    /// Number of subjects classified.
    pub subject_count: usize,
    /// Number of equivalence classes found.
    pub class_count: usize,
    /// Number of Baseline-equivalent subjects.
    pub equivalent_subjects: usize,
    /// Per-subject outcomes, indexed by [`SubjectResult::index`].
    pub subjects: Vec<SubjectResult>,
    /// The partition, class ids ascending.
    pub classes: Vec<EquivalenceClass>,
}

impl ClassificationReport {
    /// Serializes the report to JSON. The rendering is deterministic (field
    /// order is declaration order, no floats), so equal reports yield
    /// byte-identical JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("classification reports are JSON-serializable")
    }

    /// Parses a report back from its [`ClassificationReport::to_json`]
    /// rendering.
    ///
    /// The text is untrusted: a report whose counts, indices or partition
    /// contradict each other is an error, so every accepted report can be
    /// summarized and indexed without panicking.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        let report: Self = serde_json::from_str(text)?;
        report.check_consistency().map_err(serde::Error::custom)?;
        Ok(report)
    }

    /// The invariants [`classify_subjects`] establishes: subjects and
    /// classes are numbered by position, the counts match the lists, and
    /// the classes partition the subjects, each subject listed (ascending)
    /// in exactly the class it names.
    fn check_consistency(&self) -> Result<(), &'static str> {
        if self.subject_count != self.subjects.len()
            || self.subjects.iter().enumerate().any(|(i, r)| r.index != i)
        {
            return Err("subject_count or a subject index disagrees with the subject list");
        }
        if self.class_count != self.classes.len()
            || self.classes.iter().enumerate().any(|(k, c)| c.id != k)
        {
            return Err("class_count or a class id disagrees with the class list");
        }
        let mut owner: Vec<Option<usize>> = vec![None; self.subject_count];
        for class in &self.classes {
            if class.members.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err("class members are not ascending");
            }
            for &m in &class.members {
                match owner.get_mut(m) {
                    Some(slot @ None) => *slot = Some(class.id),
                    _ => return Err("a class lists an unknown or already listed subject"),
                }
            }
        }
        if self
            .subjects
            .iter()
            .any(|r| owner[r.index] != Some(r.class))
        {
            return Err("a subject is not listed in the class it names");
        }
        if self.equivalent_subjects != self.subjects.iter().filter(|r| r.equivalent).count() {
            return Err("equivalent_subjects disagrees with the subjects");
        }
        Ok(())
    }

    /// A plain-text summary, one row per class.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<5} {:>3} {:>7} {:>9} {:<52} members",
            "class", "n", "size", "verified", "key"
        );
        for class in &self.classes {
            let names: Vec<String> = class
                .members
                .iter()
                .take(4)
                .map(|&i| self.subjects[i].name())
                .collect();
            let suffix = if class.members.len() > 4 { ", …" } else { "" };
            let _ = writeln!(
                out,
                "{:<5} {:>3} {:>7} {:>9} {:<52} {}{}",
                class.id,
                class.stages,
                class.members.len(),
                if class.equivalent {
                    if class.cross_verified {
                        "yes"
                    } else {
                        "FAILED"
                    }
                } else {
                    "n/a"
                },
                class.key,
                names.join(", "),
                suffix
            );
        }
        let _ = writeln!(
            out,
            "{} subjects · {} equivalent · {} classes",
            self.subject_count, self.equivalent_subjects, self.class_count
        );
        out
    }
}

/// Why a classification campaign could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassifyError {
    /// The subject list is empty.
    NoSubjects,
}

impl std::fmt::Display for ClassifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClassifyError::NoSubjects => write!(f, "a classification campaign needs subjects"),
        }
    }
}

impl std::error::Error for ClassifyError {}

/// A verified certificate, as a campaign keeps it until its
/// cross-verification pair.
enum Certificate {
    /// Theorem 3's construction, kept as its per-stage affine maps.
    Affine(AffineCertificate),
    /// The sweep's certificate, kept as its tables.
    Tables(BaselineIsomorphism),
}

impl Certificate {
    /// Writes the certificate's tables into `tables`.
    fn expand_into(self, tables: &mut BaselineIsomorphism) {
        match self {
            Certificate::Affine(certificate) => certificate.expand_into(tables),
            Certificate::Tables(own) => *tables = own,
        }
    }
}

thread_local! {
    /// The tables a worker expands certificates into. They are reused from
    /// one subject or pair to the next, so a campaign does not hand them
    /// back to the system and fault them in again for every network.
    static TABLES: RefCell<BaselineIsomorphism> = RefCell::default();
}

/// What a worker produces for one subject.
struct Outcome {
    equivalent: bool,
    key: String,
    witness: Witness,
    certificate: Option<Certificate>,
}

/// Decides one subject: packed affine forms for every stage, then the
/// certified constructive Baseline isomorphism. When every stage is
/// independent, Theorem 3's construction gives the certificate; when it
/// declines, or some stage is not independent, the sweep gives it or names
/// the violated condition.
fn classify_one(subject: &Subject) -> Outcome {
    let net = subject.build();
    let forms: Option<Vec<_>> = net.connections().iter().map(affine_form).collect();
    // Theorem 3's certificate is verified and checksummed on its tables,
    // then kept in closed form.
    let closed_form = forms.as_deref().and_then(|forms| {
        let certificate = affine_certificate(&net, forms)?;
        TABLES.with_borrow_mut(|tables| {
            certificate.expand_into(tables);
            let checksum = tables.checksum();
            tables
                .verify(&net)
                .then_some((checksum, Certificate::Affine(certificate)))
        })
    });
    let certified = closed_form.map_or_else(
        || {
            baseline_isomorphism(&net)
                .map(|tables| (tables.checksum(), Certificate::Tables(tables)))
        },
        Ok,
    );
    match certified {
        Ok((mapping_checksum, certificate)) => {
            let witness = match forms {
                Some(forms) => Witness::IndependentConnections {
                    differences: forms.iter().map(|f| f.difference).collect(),
                    ranks: forms.iter().map(|f| f.rank()).collect(),
                    mapping_checksum,
                },
                None => Witness::Characterization { mapping_checksum },
            };
            Outcome {
                equivalent: true,
                key: format!("n={} baseline-equivalent", subject.stages),
                witness,
                certificate: Some(certificate),
            }
        }
        Err(error) => Outcome {
            equivalent: false,
            key: format!("n={} {}", subject.stages, error),
            witness: Witness::Violation {
                condition: error.to_string(),
            },
            certificate: None,
        },
    }
}

/// A class representative's rebuilt network and certificate inverse, or
/// `None` when the certificate does not invert.
type Rebuilt = Arc<Option<(ConnectionNetwork, BaselineInverse)>>;

/// A class representative as its cross-verification pairs share it.
struct Representative {
    /// Pairs of the class that have not landed yet.
    pending: usize,
    /// Built by the first pair that needs it, dropped by the last.
    rebuilt: Option<Rebuilt>,
}

/// Runs the campaign across `threads` scoped worker threads (`0` = one
/// worker per available core).
///
/// Subjects are decided in parallel by [`run_indexed`], so outcomes land in
/// index order and the report is independent of the thread count. Classes
/// are then assembled sequentially, and the cross-verification pairs run
/// through [`run_indexed`] too, their verdicts folded in pair order.
pub fn classify_subjects(
    subjects: &[Subject],
    threads: usize,
) -> Result<ClassificationReport, ClassifyError> {
    if subjects.is_empty() {
        return Err(ClassifyError::NoSubjects);
    }
    let outcomes = run_indexed(subjects.len(), threads, |i| classify_one(&subjects[i]));

    // Assemble classes in order of first appearance of their key.
    let mut classes: Vec<EquivalenceClass> = Vec::new();
    let mut results: Vec<SubjectResult> = Vec::with_capacity(subjects.len());
    for (index, (subject, outcome)) in subjects.iter().zip(&outcomes).enumerate() {
        let class = match classes.iter().position(|c| c.key == outcome.key) {
            Some(id) => {
                classes[id].members.push(index);
                id
            }
            None => {
                let id = classes.len();
                classes.push(EquivalenceClass {
                    id,
                    stages: subject.stages,
                    equivalent: outcome.equivalent,
                    key: outcome.key.clone(),
                    members: vec![index],
                    cross_verified: true,
                });
                id
            }
        };
        results.push(SubjectResult {
            index,
            family: subject.family.clone(),
            stages: subject.stages,
            replication: subject.replication,
            seed: subject.seed,
            equivalent: outcome.equivalent,
            class,
            witness: outcome.witness.clone(),
        });
    }

    // Cross-verify every equivalent class: compose each member's
    // certificate with the representative's and check the mapping arc by
    // arc on the two networks' own tables. The (class, member) pairs run in
    // parallel. Each certificate is expanded and used once more — a
    // member's by its pair, a representative's for the inverse — and is
    // dropped after that use; a representative's network and inverse go
    // with its class's last pair.
    let pairs: Vec<(usize, usize)> = classes
        .iter()
        .filter(|class| class.equivalent)
        .flat_map(|class| class.members[1..].iter().map(|&m| (class.id, m)))
        .collect();
    let certificates: Vec<Mutex<Option<Certificate>>> = outcomes
        .into_iter()
        .map(|outcome| Mutex::new(outcome.certificate))
        .collect();
    let take = |s: usize| {
        certificates[s]
            .lock()
            .expect("no thread panics while holding a certificate")
            .take()
            .expect("equivalent subjects carry a certificate, used once")
    };
    let reps: Vec<Mutex<Representative>> = classes
        .iter()
        .map(|class| {
            Mutex::new(Representative {
                pending: if class.equivalent {
                    class.members.len() - 1
                } else {
                    0
                },
                rebuilt: None,
            })
        })
        .collect();
    let lock = |class: usize| {
        reps[class]
            .lock()
            .expect("no thread panics while holding a representative")
    };
    let rebuild = |class: usize| {
        let rep = classes[class].members[0];
        let mut tables = BaselineIsomorphism::default();
        take(rep).expand_into(&mut tables);
        let inverse = BaselineInverse::new(&tables).ok();
        Arc::new(inverse.map(|inverse| (subjects[rep].build(), inverse)))
    };
    let verdicts = run_indexed(pairs.len(), threads, |i| {
        let (class, member) = pairs[i];
        let rep = Arc::clone(lock(class).rebuilt.get_or_insert_with(|| rebuild(class)));
        let verified = rep.as_ref().as_ref().is_some_and(|(rep_net, inverse)| {
            // The member's network comes before its tables: when a worker's
            // tables grow, they land above the network, and the next pair
            // rebuilds its network in the memory this one frees. Built the
            // other way round, the allocator hands that memory back and the
            // default campaign faults in about 1.7 times as many pages.
            let member_net = subjects[member].build();
            TABLES.with_borrow_mut(|mapping| {
                take(member).expand_into(mapping);
                inverse.compose(mapping).is_ok()
                    && verify_stage_mapping(&member_net, rep_net, &mapping.mapping)
            })
        });
        drop(rep);
        let mut slot = lock(class);
        slot.pending -= 1;
        if slot.pending == 0 {
            slot.rebuilt = None;
        }
        verified
    });
    for (&(class, _), verified) in pairs.iter().zip(verdicts) {
        classes[class].cross_verified &= verified;
    }

    let equivalent_subjects = results.iter().filter(|r| r.equivalent).count();
    Ok(ClassificationReport {
        subject_count: results.len(),
        class_count: classes.len(),
        equivalent_subjects,
        subjects: results,
        classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline_iso::baseline_digraph;
    use crate::connection::Connection;
    use min_labels::{IndexPermutation, Permutation};

    /// Every stage connects by the link permutation of `sigma`.
    fn uniform_network(n: usize, sigma: &IndexPermutation) -> ConnectionNetwork {
        let conn = Connection::from_link_permutation(&Permutation::from_index_perm(sigma));
        ConnectionNetwork::new(n - 1, vec![conn; n - 1])
    }

    fn omega_subject(n: usize, replication: u32) -> Subject {
        Subject::new("Omega", n, replication, 0, move || {
            uniform_network(n, &IndexPermutation::perfect_shuffle(n))
        })
    }

    fn baseline_subject(n: usize) -> Subject {
        Subject::new("Baseline", n, 0, 0, move || {
            ConnectionNetwork::from_digraph(&baseline_digraph(n)).unwrap()
        })
    }

    fn degenerate_subject(n: usize) -> Subject {
        Subject::new("degenerate", n, 0, 0, move || {
            let identity = Connection::from_fn(n - 1, |x| x, |x| x);
            ConnectionNetwork::new(n - 1, vec![identity; n - 1])
        })
    }

    #[test]
    fn equivalent_networks_of_one_size_share_one_verified_class() {
        let subjects = vec![
            baseline_subject(3),
            omega_subject(3, 0),
            baseline_subject(4),
            omega_subject(4, 0),
        ];
        let report = classify_subjects(&subjects, 2).unwrap();
        assert_eq!(report.subject_count, 4);
        assert_eq!(report.class_count, 2);
        assert_eq!(report.equivalent_subjects, 4);
        assert_eq!(report.classes[0].members, vec![0, 1]);
        assert_eq!(report.classes[1].members, vec![2, 3]);
        for class in &report.classes {
            assert!(class.equivalent);
            assert!(class.cross_verified);
        }
        // Every stage of Omega and Baseline is independent: the witnesses
        // must be the Theorem 3 certificates.
        for r in &report.subjects {
            match &r.witness {
                Witness::IndependentConnections {
                    differences, ranks, ..
                } => {
                    assert_eq!(differences.len(), r.stages - 1);
                    assert_eq!(ranks.len(), r.stages - 1);
                }
                other => panic!("expected an independence witness, got {other:?}"),
            }
        }
    }

    #[test]
    fn violations_are_bucketed_by_diagnosis() {
        let subjects = vec![
            omega_subject(3, 0),
            degenerate_subject(3),
            degenerate_subject(3),
        ];
        let report = classify_subjects(&subjects, 1).unwrap();
        assert_eq!(report.class_count, 2);
        assert!(report.subjects[0].equivalent);
        assert!(!report.subjects[1].equivalent);
        assert_eq!(report.subjects[1].class, report.subjects[2].class);
        let diagnostic = &report.classes[1];
        assert!(!diagnostic.equivalent);
        assert!(diagnostic.cross_verified, "vacuously true");
        match &report.subjects[1].witness {
            Witness::Violation { condition } => {
                assert!(diagnostic.key.contains(condition.as_str()))
            }
            other => panic!("expected a violation witness, got {other:?}"),
        }
    }

    #[test]
    fn reports_are_thread_count_independent_and_round_trip() {
        let subjects = vec![
            baseline_subject(3),
            omega_subject(3, 0),
            degenerate_subject(3),
            baseline_subject(4),
            omega_subject(4, 1),
        ];
        let one = classify_subjects(&subjects, 1).unwrap();
        let many = classify_subjects(&subjects, 5).unwrap();
        let auto = classify_subjects(&subjects, 0).unwrap();
        assert_eq!(one, many);
        assert_eq!(one.to_json(), many.to_json());
        assert_eq!(one.to_json(), auto.to_json());
        let back = ClassificationReport::from_json(&one.to_json()).unwrap();
        assert_eq!(back, one);
    }

    #[test]
    fn inconsistent_reports_are_parse_errors_not_panics() {
        // Parsed `Ok` and then panicked in `summary_table` before the
        // consistency check: the one class names a subject that is not there.
        let dangling = r#"{"subject_count":0,"class_count":1,"equivalent_subjects":0,"subjects":[],"classes":[{"id":0,"stages":3,"equivalent":true,"key":"k","members":[999],"cross_verified":true}]}"#;
        assert!(ClassificationReport::from_json(dangling).is_err());

        let subjects = vec![
            omega_subject(3, 0),
            degenerate_subject(3),
            omega_subject(3, 1),
        ];
        let good = classify_subjects(&subjects, 1).unwrap();
        assert_eq!(good.classes[0].members, vec![0, 2]);
        let back = ClassificationReport::from_json(&good.to_json()).unwrap();
        assert_eq!(back, good);
        back.summary_table();

        let corruptions: [fn(&mut ClassificationReport); 10] = [
            |r| r.subject_count += 1,
            |r| r.class_count -= 1,
            |r| r.equivalent_subjects += 1,
            |r| r.subjects[1].index = 0,
            |r| r.classes[1].id = 0,
            |r| r.classes[0].members.reverse(),
            |r| r.classes[0].members.push(3),
            |r| r.classes[1].members.push(2),
            |r| r.subjects[2].class = 1,
            |r| {
                r.classes[0].members.pop();
                r.classes[1].members.push(2);
            },
        ];
        for (k, corrupt) in corruptions.iter().enumerate() {
            let mut bad = good.clone();
            corrupt(&mut bad);
            assert!(
                ClassificationReport::from_json(&bad.to_json()).is_err(),
                "corruption {k} accepted"
            );
        }
    }

    /// Omega on the first call, Flip on every later one: the subject is
    /// decided (and certified) as Omega, but cross-verification rebuilds it
    /// as Flip, whose arcs the composed mapping does not preserve.
    fn fickle_subject() -> Subject {
        let calls = AtomicUsize::new(0);
        Subject::new("fickle", 4, 0, 0, move || {
            let sigma = if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                IndexPermutation::perfect_shuffle(4)
            } else {
                IndexPermutation::inverse_shuffle(4)
            };
            uniform_network(4, &sigma)
        })
    }

    /// Runs `campaign` at 1, 2 and 5 threads: one class of `members`, which
    /// fails cross-verification, in the same report at every count.
    fn assert_fickle_class_fails(
        campaign: impl Fn(usize) -> ClassificationReport,
        members: Vec<usize>,
    ) {
        let one = campaign(1);
        assert_eq!(one.class_count, 1);
        assert!(one.classes[0].equivalent);
        assert_eq!(one.classes[0].members, members);
        assert!(!one.classes[0].cross_verified);
        for threads in [2, 5] {
            assert_eq!(campaign(threads).to_json(), one.to_json(), "{threads}");
        }
    }

    #[test]
    fn cross_verify_catches_a_builder_that_changes_its_network() {
        assert_fickle_class_fails(
            |threads| classify_subjects(&[baseline_subject(4), fickle_subject()], threads).unwrap(),
            vec![0, 1],
        );
    }

    #[test]
    fn cross_verify_catches_a_representative_that_changes_its_network() {
        // The representative is rebuilt once, by the first of its class's
        // two pairs, and both pairs check against the rebuilt Flip.
        assert_fickle_class_fails(
            |threads| {
                let subjects = [fickle_subject(), baseline_subject(4), omega_subject(4, 0)];
                classify_subjects(&subjects, threads).unwrap()
            },
            vec![0, 1, 2],
        );
    }

    #[test]
    fn empty_campaigns_are_rejected() {
        assert_eq!(
            classify_subjects(&[], 1).unwrap_err(),
            ClassifyError::NoSubjects
        );
        assert!(!ClassifyError::NoSubjects.to_string().is_empty());
    }

    #[test]
    fn derive_seed_mixes_both_inputs() {
        assert_ne!(derive_seed(0, 0), derive_seed(0, 1));
        assert_ne!(derive_seed(0, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(7, 3), derive_seed(3, 7));
    }

    #[test]
    fn run_indexed_returns_index_order_at_any_thread_count() {
        let job = |i: usize| derive_seed(42, i);
        let expected: Vec<u64> = (0..100).map(job).collect();
        for threads in [0, 1, 2, 8] {
            assert_eq!(run_indexed(100, threads, job), expected, "{threads}");
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_oversubscribed_runs() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        // The worker count is clamped to the job count: `usize::MAX` threads
        // could never be spawned.
        assert_eq!(run_indexed(3, usize::MAX, |i| i * 10), vec![0, 10, 20]);
    }
}
