//! # `min-sim` — switch-level simulation of multistage interconnection networks
//!
//! The paper contains no measured evaluation; its claims are purely
//! topological. What a systems audience ultimately cares about, though, is
//! that *topologically equivalent networks are behaviourally
//! interchangeable*: the same traffic, pushed through any of the six
//! classical networks, produces the same throughput and latency statistics
//! (up to terminal relabelling). This crate provides the synthetic substrate
//! with which that consequence is demonstrated and benchmarked:
//!
//! * a cycle-synchronous model of a MIN built from 2×2 crossbar cells
//!   ([`fabric::Fabric`]) driven through a pluggable, arena-backed
//!   [`switch::SwitchCore`] in three flavours — **unbuffered** (Patel's
//!   delta-network model: a packet losing arbitration is dropped),
//!   **buffered** (per-cell FIFOs with backpressure) and **wormhole**
//!   (multi-lane virtual channels: packets split into flits, lanes
//!   allocated per worm and held across stages while blocked);
//! * routing owned by the fabric ([`fabric::Routing`]): the destination
//!   tags of `min-routing`'s self-routing tables on a delta network (every
//!   PIPID-built network is one), and looping circuits or link-disjoint
//!   multi-path tags on a non-delta one such as Benes;
//! * traffic generators ([`traffic`]) — Bernoulli uniform, hot-spot, fixed
//!   permutation and bit-reversal, plus the production-shaped suite:
//!   Zipf-skewed destinations (precomputed-CDF sampling), bursty
//!   Markov-modulated ON/OFF sources, and exact trace replay — all
//!   validated up front with typed errors and deterministic under the
//!   per-scenario seeding;
//! * metrics ([`metrics`]) — offered/accepted/delivered counts, normalized
//!   throughput, per-cause drop counters (arbitration loss vs. downstream
//!   backpressure), flit-level stall and lane-occupancy accounting for
//!   saturation curves, latency mean and tail (histogram-backed
//!   percentiles), plus a conservation audit (injected = delivered +
//!   dropped + in flight) used by the property tests;
//! * fault injection ([`fault`]) — deterministic [`fault::FaultPlan`]s of
//!   dead switches, dead links and degraded lanes with static or
//!   mid-simulation onset, driving disjoint-path fault-tolerant rerouting
//!   (via `min-routing`) and reliability metrics (fault drops, unroutable
//!   refusals, per-stage exposure);
//! * campaigns ([`campaign`]) — declarative simulation grids (catalog cell ×
//!   traffic × load × buffer mode × fault plan × replication) expanded by
//!   [`campaign::CampaignConfig::plan`] into ordered [`campaign::Shard`]s,
//!   executed purely by [`campaign::execute_shard`] and reassembled
//!   slot-by-index by [`campaign::assemble`]; [`run_campaign`] wraps the
//!   three phases over scoped threads, and the `min-serve` crate drives the
//!   same plan over TCP workers — per-scenario seeds derived from the
//!   campaign seed keep reports bitwise reproducible under any executor;
//! * load curves ([`curves`]) — the one home of the replication fold
//!   ([`curves::fold`], keyed by grid axis), the saturation knee
//!   ([`curves::Curve::saturation_load`]) and the two artifact layouts
//!   ([`curves::stability_json`], [`curves::saturation_json`]);
//! * batched replications ([`batch`]) — [`batch::run_replications`] is the
//!   one door into the engines for many `(seed, load)` lanes of a scenario:
//!   it builds the fabric once and runs eligible unbuffered, and healthy
//!   FIFO and wormhole, workloads on three crate-private word-packed
//!   engines, up to 64 independent replications per `u64` (occupancy,
//!   conflict, drop, queue-position and per-channel flit-counter sets as
//!   bitwise operations over replication words), and everything else on
//!   one rewound scalar [`Simulator`]; the packed-, FIFO- and
//!   wormhole-oracle tests pin them bit-identical to a fresh scalar
//!   simulator per lane.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod campaign;
pub mod config;
pub mod curves;
pub mod engine;
pub mod fabric;
pub mod fault;
mod fifo;
mod lane;
pub mod metrics;
pub mod packet;
pub mod switch;
pub mod traffic;
mod worm;

pub use batch::run_replications;
pub use campaign::{
    assemble, execute_shard, run_campaign, CampaignConfig, CampaignPlan, CampaignReport,
    MergeError, Scenario, ScenarioResult, Shard,
};
pub use config::{BufferMode, ConfigError, SimConfig, MAX_FIFO_DEPTH, MAX_WORMHOLE_LANES};
pub use engine::{simulate, SimError, Simulator};
pub use fault::{Fault, FaultError, FaultKind, FaultPlan, FaultView, LinkStatus};
pub use lane::LANE_WIDTH;
pub use metrics::Metrics;
pub use packet::Packet;
pub use switch::{FifoCore, RingArena, SwitchCore, UnbufferedCore, WormholeCore};
pub use traffic::{
    DestSampler, Offer, TraceData, TraceRecord, TrafficError, TrafficPattern, TrafficSources,
    ZipfCdf,
};
