//! # `min-core` — independent connections and Baseline equivalence
//!
//! This crate is the executable form of Bermond & Fourneau, *"Independent
//! Connections: An Easy Characterization of Baseline-Equivalent Multistage
//! Interconnection Networks"* (ICPP 1988; journal version TCS 64, 1989,
//! pp. 191–201). Every definition and every result of the paper has a
//! concrete, tested counterpart here:
//!
//! | Paper | Here |
//! |-------|------|
//! | §2 MI-digraph, `P(i,j)`, `P(1,*)`, `P(*,n)`, characterization theorem | [`properties`] |
//! | §3 connection `(f,g)` between stages | [`connection::Connection`] |
//! | §3 independent connection (definition) | [`independence`] |
//! | §3 Proposition 1 (reverse of an independent connection) | [`reverse`] |
//! | §3 Lemma 2 and Theorem 3 (Banyan + independent ⇒ Baseline-equivalent) | [`properties`], [`baseline_iso`], [`equivalence`] |
//! | §4 PIPID permutations, critical digit `k = θ⁻¹(0)`, Fig. 5 degeneracy | [`pipid`] |
//! | §1 discussion of Agrawal's buddy property \[8\]/\[10\] | [`buddy`] |
//! | §1 discussion of Kruskal & Snir's bidelta property \[11\] | [`delta`] |
//!
//! Beyond the paper's text, the crate contributes two engineering pieces a
//! user of the theory needs:
//!
//! * an **affine characterization** of independent connections
//!   ([`affine_form()`]): `(f,g)` is independent iff `f` is affine over GF(2)
//!   and `g = f ⊕ c`. This yields an `O(N)` checker whose certificate is
//!   the `(M, t, c)` form itself, and a generator of random independent
//!   connections used throughout the test and benchmark suites;
//! * a **certified constructive Baseline isomorphism**
//!   ([`baseline_iso`]): the nested component structure promised by
//!   `P(1,*)`/`P(*,n)` is turned into an explicit node relabelling onto the
//!   left-recursive Baseline network, and the produced mapping is verified
//!   arc by arc before being returned. Composition of two certificates gives
//!   the explicit equivalence mapping between any two equivalent networks
//!   ([`equivalence`]);
//! * an **equivalence-classification campaign engine** ([`classify`]): whole
//!   families of networks — the classical catalog, random samples — are
//!   decided in one deterministic, parallel sweep, partitioned into
//!   equivalence classes with a per-network witness, and the resulting
//!   [`ClassificationReport`] is byte-identical at any worker-thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine_form;
pub mod baseline_iso;
pub mod buddy;
pub mod classify;
pub mod connection;
pub mod delta;
pub mod equivalence;
pub mod error;
pub mod independence;
pub mod network;
pub mod pipid;
pub mod properties;
pub mod reverse;

pub use affine_form::{affine_form, AffineForm};
pub use baseline_iso::{
    affine_baseline_isomorphism, affine_certificate, baseline_digraph, baseline_isomorphism,
    AffineCertificate, BaselineIsomorphism,
};
pub use buddy::{buddy_property, reverse_buddy_property, BuddyReport};
pub use classify::{
    classify_subjects, ClassificationReport, ClassifyError, EquivalenceClass, Subject,
    SubjectResult, Witness,
};
pub use connection::Connection;
pub use delta::{is_bidelta, is_delta, DeltaReport};
pub use equivalence::{are_equivalent, compose_baseline_certificates, equivalence_mapping};
pub use error::{EquivalenceError, ReverseError};
pub use independence::is_independent;
pub use network::ConnectionNetwork;
pub use pipid::{connection_from_pipid, PipidStage};
pub use properties::{
    characterization_report, p_one_star, p_property, p_star_n, satisfies_characterization,
    CharacterizationReport,
};
pub use reverse::reverse_connection;
