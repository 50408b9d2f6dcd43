//! # `min-serve` — distributed execution of `min-sim` campaign plans
//!
//! The campaign API of `min-sim` splits a run into three phases — `plan()`
//! expands the grid into ordered, index-addressed [`Shard`]s,
//! `execute_shard()` is a pure function from a shard to its slotted
//! results, and `assemble()` slots results back into the report. This crate
//! is the second executor of that plan (the first being the in-process
//! scoped-thread runner): a [`master::Master`] that owns the job state and
//! a results store, [`worker::run_worker`] loops that lease shards over a
//! length-prefixed JSON TCP protocol ([`protocol`]), and one-shot
//! [`client`] verbs (`submit` / `status` / `results`) plus the `min_serve`
//! CLI binary wrapping all three roles.
//!
//! ## Why the determinism invariant makes this easy
//!
//! Every scenario carries a seed derived from `(campaign_seed,
//! scenario_index)`, so executing a shard is reproducible **anywhere**:
//! any worker, any retry, any machine produces byte-identical results for
//! the same shard. Consequences the design leans on:
//!
//! * **slot-addressed results** — the master files each push under its
//!   shard and, once the last shard lands, `assemble()` slots every result
//!   by canonical scenario index; arrival order is irrelevant;
//! * **idempotent failover** — when a worker misses its heartbeat deadline
//!   its running shards are simply requeued; if the "dead" worker pushes
//!   after all, the duplicate is discarded, because a re-executed shard
//!   would have produced the same bytes anyway;
//! * **a wire-level oracle** — the finished report (and its canonical
//!   JSON) from a master with any number of workers, including runs where
//!   workers are killed mid-campaign, is byte-identical to
//!   `run_campaign(&config, 1)` in one process. The integration tests and
//!   the CI `serve-smoke` job `cmp` exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod master;
pub mod protocol;
pub mod worker;

pub use client::{results, shutdown, status, submit, wait_for_results};
pub use master::{Master, MasterConfig};
pub use protocol::{Reply, Request, StatusReport};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};

// Re-exported so protocol consumers name shard types without a direct
// `min-sim` dependency.
pub use min_sim::campaign::{CampaignConfig, CampaignReport, Shard};
