//! Scenario campaigns: declarative simulation grids planned into shards and
//! executed by interchangeable local or distributed executors.
//!
//! A [`CampaignConfig`] describes a grid — catalog cells (network family ×
//! stage count) × traffic pattern × offered load × buffer mode × fault
//! plan × replication — plus the simulation parameters shared by every
//! cell. Campaign execution is split into three separable phases:
//!
//! 1. **[`CampaignConfig::plan_chunked`]** expands the grid into a
//!    [`CampaignPlan`]: an ordered list of [`Shard`]s, each one 64-lane
//!    word of a lane-eligible bundle — an unbuffered curve, or a FIFO or
//!    wormhole cell's curves across its traffic patterns — or
//!    `points_per_shard` other whole grid points
//!    ([`CampaignConfig::plan`]: one grid point per shard).
//! 2. **[`execute_shard`]** is pure — shard in, slotted [`ScenarioResult`]s
//!    out. It hands each bundle — the shard's scenarios that differ only in
//!    offered load and seed, and for FIFO and wormhole work in traffic
//!    pattern too — to the batch layer ([`crate::batch`]) as `(seed, load)`
//!    lanes per curve, which builds the fabric tables, switch arenas and
//!    fault machinery once per bundle and — for unbuffered, or healthy FIFO
//!    and wormhole, bundles with enough lanes on a delta fabric — runs up
//!    to 64 lanes per machine word through a bit-parallel engine, whatever
//!    their loads and patterns.
//!    A failing curve is one [`CampaignError::Scenario`]. Because every
//!    scenario carries its own derived seed, a shard produces the same
//!    bytes no matter which process, machine or retry executes it.
//! 3. **[`assemble`]** slots results back by canonical scenario index into
//!    a [`CampaignReport`], rejecting duplicate or missing slots with a
//!    typed [`MergeError`].
//!
//! [`run_campaign`] is the thin compatibility wrapper chaining the three
//! phases across scoped worker threads on one box; the `min-serve`
//! master/worker service is a second executor of the very same plan, with
//! the byte-identity of the two reports as its integration oracle.
//!
//! The buffer-mode axis is what lets one campaign sweep a topology across
//! *buffer architectures*, not just families: the same grid cell can run
//! unbuffered (Patel), FIFO-buffered, and flit-level wormhole
//! ([`BufferMode::Wormhole`]) back to back, the way the wormhole-routing and
//! saturation-stability literature evaluates MINs. The fault-plan axis
//! ([`CampaignConfig::with_fault_plans`]) multiplies the same grid by a
//! failure dimension — healthy vs. 1-fault vs. k-fault fabrics — the way
//! the Omega-stability literature measures networks under switch and link
//! failures.
//!
//! ## Determinism
//!
//! Every scenario runs with its own ChaCha8 seed derived from
//! `(campaign_seed, scenario_index)` by a SplitMix64 finalizer
//! ([`scenario_seed`]), and results are stored by scenario index, never by
//! completion order. The report — including its serialized JSON — is
//! therefore **bitwise identical at any worker-thread count**, which is what
//! lets the CI perf trajectory compare campaign outputs across machines.
//!
//! ```
//! use min_sim::campaign::{run_campaign, CampaignConfig};
//! use min_sim::{BufferMode, TrafficPattern};
//!
//! let config = CampaignConfig::over_catalog(3..=3)
//!     .with_traffic(vec![TrafficPattern::Uniform])
//!     .with_loads(vec![0.5])
//!     .with_buffer_modes(vec![
//!         BufferMode::Unbuffered,
//!         BufferMode::Wormhole { lanes: 2, lane_depth: 2, flits_per_packet: 4 },
//!     ])
//!     .with_cycles(50, 0);
//! let sequential = run_campaign(&config, 1).unwrap();
//! let parallel = run_campaign(&config, 4).unwrap();
//! assert_eq!(sequential.to_json(), parallel.to_json());
//! ```

use crate::batch::{pack_threshold, packs, run_bundle};
use crate::config::{BufferMode, ConfigError, SimConfig};
use crate::engine::SimError;
use crate::fault::{FaultError, FaultPlan};
use crate::lane::LANE_WIDTH;
use crate::metrics::Metrics;
use crate::traffic::{TrafficError, TrafficPattern};
use min_core::classify::run_indexed;
use min_networks::{catalog_grid, ClassicalNetwork, NetworkSpec};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The most scenarios one campaign may expand to: 2¹⁸, far above the
/// largest shipped grid (`saturation_curve`, 7680 scenarios). The master
/// expands a submitted grid inside its single-threaded handler, so a grid
/// with no cap could exhaust its memory with one `Submit`.
pub const MAX_SCENARIOS: usize = 1 << 18;

/// Declarative description of a simulation campaign.
///
/// The grid axes are `cells × traffic × loads × buffer_modes ×
/// fault_plans × replications`; the remaining fields are shared by every
/// scenario. Construct with [`CampaignConfig::over_catalog`] (or
/// [`Default`]) and refine with the builder-style setters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Master seed; every scenario derives its own seed from this and its
    /// index (see [`scenario_seed`]).
    pub campaign_seed: u64,
    /// The network cells of the grid, e.g. from
    /// [`min_networks::catalog_grid`]. Since the [`NetworkSpec`] redesign
    /// these can also name Benes, its shuffle variant, and rewritten
    /// catalog members; catalog cells serialize byte-for-byte like the
    /// `(ClassicalNetwork, usize)` tuples they replaced.
    pub cells: Vec<NetworkSpec>,
    /// Traffic patterns swept per cell.
    pub traffic: Vec<TrafficPattern>,
    /// Offered loads swept per (cell, traffic) pair, each in `[0, 1]`.
    pub loads: Vec<f64>,
    /// Buffer architectures swept per (cell, traffic, load) triple.
    pub buffer_modes: Vec<BufferMode>,
    /// Fault plans swept per (cell, traffic, load, buffer mode) tuple —
    /// the fault-injection axis. Defaults to the single empty plan (a
    /// healthy fabric); every plan's sites must fit every grid cell.
    pub fault_plans: Vec<FaultPlan>,
    /// Independent replications per grid point, each with its own derived
    /// seed.
    pub replications: u32,
    /// Total simulated cycles per scenario (the warm-up runs inside this
    /// budget).
    pub cycles: u64,
    /// Warm-up cycles at the start of each scenario, excluded from the
    /// latency statistics.
    pub warmup: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig::over_catalog(3..=4)
    }
}

impl CampaignConfig {
    /// A campaign over the full classical catalog at the given stage counts,
    /// with uniform traffic at a moderate load, one replication, unbuffered
    /// cells and a short measured run.
    pub fn over_catalog(stages: std::ops::RangeInclusive<usize>) -> Self {
        CampaignConfig {
            campaign_seed: 0x1988,
            cells: catalog_grid(stages),
            traffic: vec![TrafficPattern::Uniform],
            loads: vec![0.5],
            buffer_modes: vec![BufferMode::Unbuffered],
            fault_plans: vec![FaultPlan::none()],
            replications: 1,
            cycles: 400,
            warmup: 50,
        }
    }

    /// Builder-style setter for the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.campaign_seed = seed;
        self
    }

    /// Builder-style setter for the grid cells.
    pub fn with_cells(mut self, cells: Vec<NetworkSpec>) -> Self {
        self.cells = cells;
        self
    }

    /// Builder-style setter for the traffic axis.
    pub fn with_traffic(mut self, traffic: Vec<TrafficPattern>) -> Self {
        self.traffic = traffic;
        self
    }

    /// Builder-style setter for the offered-load axis.
    pub fn with_loads(mut self, loads: Vec<f64>) -> Self {
        self.loads = loads;
        self
    }

    /// Builder-style setter for the replication count.
    pub fn with_replications(mut self, replications: u32) -> Self {
        self.replications = replications;
        self
    }

    /// Builder-style setter collapsing the buffer-mode axis to one mode.
    pub fn with_buffer(mut self, mode: BufferMode) -> Self {
        self.buffer_modes = vec![mode];
        self
    }

    /// Builder-style setter for the buffer-mode axis.
    pub fn with_buffer_modes(mut self, modes: Vec<BufferMode>) -> Self {
        self.buffer_modes = modes;
        self
    }

    /// Builder-style setter for the fault-injection axis.
    pub fn with_fault_plans(mut self, plans: Vec<FaultPlan>) -> Self {
        self.fault_plans = plans;
        self
    }

    /// Builder-style setter for the cycle counts.
    pub fn with_cycles(mut self, cycles: u64, warmup: u64) -> Self {
        self.cycles = cycles;
        self.warmup = warmup;
        self
    }

    /// Number of scenarios the grid expands to, saturating at `usize::MAX`
    /// for a grid too large to address (which [`CampaignConfig::validate`]
    /// rejects).
    pub fn scenario_count(&self) -> usize {
        self.checked_scenario_count().unwrap_or(usize::MAX)
    }

    /// The product of the six axis lengths, or `None` if it overflows.
    fn checked_scenario_count(&self) -> Option<usize> {
        [
            self.traffic.len(),
            self.loads.len(),
            self.buffer_modes.len(),
            self.fault_plans.len(),
            self.replications as usize,
        ]
        .into_iter()
        .try_fold(self.cells.len(), usize::checked_mul)
    }

    /// Checks the grid for structural problems (more than
    /// [`MAX_SCENARIOS`] scenarios, empty axes, unbuildable stage counts,
    /// out-of-range loads, invalid buffer parameters, a zero-cycle run).
    pub fn validate(&self) -> Result<(), CampaignError> {
        // First, so an oversized grid is refused before any per-axis work
        // or allocation.
        if !matches!(self.checked_scenario_count(), Some(n) if n <= MAX_SCENARIOS) {
            return Err(CampaignError::TooManyScenarios);
        }
        if self.cells.is_empty() {
            return Err(CampaignError::EmptyAxis("cells"));
        }
        for spec in &self.cells {
            // A MIN needs at least two stages, and the simulator addresses
            // the terminals with a usize. For catalog cells `stages` is the
            // classical `n`; Benes cells report their full `2n - 1` depth.
            let stages = spec.stages();
            if !(2..=32).contains(&stages) {
                return Err(CampaignError::InvalidStages(stages));
            }
        }
        if self.traffic.is_empty() {
            return Err(CampaignError::EmptyAxis("traffic"));
        }
        for (pattern_index, pattern) in self.traffic.iter().enumerate() {
            // Like fault plans, every pattern must fit every grid cell
            // (hot-spot targets, permutation widths and trace geometries are
            // all cell-count-dependent), so a mismatch is a typed error here
            // instead of a panic inside a worker thread.
            for spec in &self.cells {
                pattern
                    .validate_for(spec.cells_per_stage() as u32)
                    .map_err(|error| CampaignError::InvalidTraffic {
                        pattern: pattern_index,
                        cells: spec.cells_per_stage(),
                        error,
                    })?;
            }
        }
        if self.loads.is_empty() {
            return Err(CampaignError::EmptyAxis("loads"));
        }
        if self.buffer_modes.is_empty() {
            return Err(CampaignError::EmptyAxis("buffer_modes"));
        }
        for mode in &self.buffer_modes {
            mode.validate().map_err(CampaignError::InvalidBuffer)?;
        }
        if self.fault_plans.is_empty() {
            return Err(CampaignError::EmptyAxis("fault_plans"));
        }
        for (plan_index, plan) in self.fault_plans.iter().enumerate() {
            // Every plan must fit every grid cell, checked against the
            // cell's *actual* geometry. (The pre-`NetworkSpec` code derived
            // the cell count as `1 << (stages - 1)`, which is wrong for a
            // Benes cell: its 2n-1 stages hold only 2^(n-1) cells, so an
            // out-of-range fault site would have slipped through validation
            // and panicked inside a worker thread.)
            for spec in &self.cells {
                plan.validate(spec.stages(), spec.cells_per_stage())
                    .map_err(|error| CampaignError::InvalidFaultPlan {
                        plan: plan_index,
                        stages: spec.stages(),
                        error,
                    })?;
            }
        }
        if self.replications == 0 {
            return Err(CampaignError::EmptyAxis("replications"));
        }
        if self.cycles == 0 {
            return Err(CampaignError::ZeroCycles);
        }
        if self.warmup >= self.cycles {
            // The warm-up runs inside the cycle budget; consuming all of it
            // would leave an empty measurement window and all-zero latency
            // statistics indistinguishable from a real result.
            return Err(CampaignError::WarmupTooLong {
                warmup: self.warmup,
                cycles: self.cycles,
            });
        }
        for &load in &self.loads {
            if !(0.0..=1.0).contains(&load) || load.is_nan() {
                return Err(CampaignError::InvalidLoad(load));
            }
        }
        Ok(())
    }

    /// Expands the grid into the flat scenario list, in its canonical order:
    /// cells (outermost) × traffic × loads × buffer modes × fault plans ×
    /// replications (innermost). The scenario index — and with it the
    /// derived seed — depends only on the grid, never on thread scheduling.
    pub fn scenarios(&self) -> Result<Vec<Scenario>, CampaignError> {
        self.validate()?;
        let mut out = Vec::with_capacity(self.scenario_count());
        for &network in &self.cells {
            for traffic in &self.traffic {
                for &offered_load in &self.loads {
                    for &buffer_mode in &self.buffer_modes {
                        for fault_plan in &self.fault_plans {
                            for replication in 0..self.replications {
                                let index = out.len();
                                out.push(Scenario {
                                    index,
                                    network,
                                    stages: network.stages(),
                                    traffic: traffic.clone(),
                                    offered_load,
                                    buffer_mode,
                                    fault_plan: fault_plan.clone(),
                                    replication,
                                    seed: scenario_seed(self.campaign_seed, index),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// **Phase 1 of 3** — expands the grid into a [`CampaignPlan`] with one
    /// [`Shard`] per grid point, the finest shardable granularity (every
    /// shard still hands whole replication blocks to the batch layer).
    pub fn plan(&self) -> Result<CampaignPlan, CampaignError> {
        let reps = self.replications as usize;
        let mut scenarios = self.scenarios()?.into_iter();
        let shards = (0..scenarios.len() / reps)
            .map(|id| Shard {
                id,
                scenarios: scenarios.by_ref().take(reps).collect(),
            })
            .collect();
        Ok(CampaignPlan {
            config: self.clone(),
            shards,
        })
    }

    /// The plan both executors run ([`run_campaign`] at one grid point per
    /// shard). Lanes that a word engine takes are gathered into bundles,
    /// even where their points are not contiguous, and each bundle is cut
    /// into shards of one 64-lane word each (a last remainder below the
    /// bundle's packing bound — 8 lanes for stateless unbuffered work, 16
    /// for the rest — stays in the word before it):
    ///
    /// * a FIFO or wormhole bundle is every grid point of one `(cell,
    ///   buffer mode, fault plan)` across all traffic patterns but trace
    ///   replay, in canonical index order;
    /// * an unbuffered bundle is one curve, the `loads × replications`
    ///   lanes of one `(cell, traffic, buffer mode, fault plan)`.
    ///
    /// A bundle packs when its lanes do ([`crate::batch::packed_eligible`]'s
    /// unbuffered work, unbuffered ON/OFF work of at least 16 lanes, or
    /// healthy work of at least 16 lanes: FIFO of at most 4 packets per
    /// input port, wormhole of at most eight channels per cell). Every
    /// other grid point joins a shard of `points_per_shard` such points.
    ///
    /// One pass moves each scenario into its shard, finding its bundle by
    /// index arithmetic; eligibility is decided once per bundle, and no
    /// fabric is built (a non-delta fabric takes the batch layer's scalar
    /// fallback).
    pub fn plan_chunked(&self, points_per_shard: usize) -> Result<CampaignPlan, CampaignError> {
        if points_per_shard == 0 {
            return Err(CampaignError::ZeroShardSize);
        }
        let scenarios = self.scenarios()?;
        let reps = self.replications as usize;
        let points = scenarios.len() / reps;
        let (patterns, loads) = (self.traffic.len(), self.loads.len());
        // A point's `(buffer mode, fault plan)` column, `step` columns per
        // load.
        let plans = self.fault_plans.len();
        let step = self.buffer_modes.len() * plans;
        // Each pattern's position among the patterns a buffered bundle
        // gathers (all but trace replay).
        let mut gathered = 0;
        let rank: Vec<Option<usize>> = self
            .traffic
            .iter()
            .map(|t| {
                (!t.is_trace()).then(|| {
                    gathered += 1;
                    gathered - 1
                })
            })
            .collect();
        let mut shards: Vec<Vec<Scenario>> = Vec::with_capacity(points);
        // Per bundle, once seen: the shard of its first word and its word
        // count, if it packs. Bundle `(cell · (patterns + 1) + t) · step + column` is a curve
        // for `t < patterns` and a buffered bundle for `t = patterns`.
        let mut bundles: Vec<Option<Option<(usize, usize)>>> =
            vec![None; points / (patterns * loads) * (patterns + 1) * step];
        // The shard taking unpacked grid points, and how many it holds.
        let mut open = (0, points_per_shard);
        // The current grid point's shard, or its bundle's first word, the
        // point's first lane and the bundle's word count.
        let mut place = (0, None, 1);
        for scenario in scenarios {
            if scenario.replication == 0 {
                let point = scenario.index / reps;
                let column = point % step;
                let load = point / step % loads;
                let traffic = point / (step * loads) % patterns;
                let cell = point / (step * loads * patterns);
                let (t, lanes, lane) = match rank[traffic] {
                    Some(rank) if bundles_traffic(self.buffer_modes[column / plans]) => (
                        patterns,
                        gathered * loads * reps,
                        (rank * loads + load) * reps,
                    ),
                    _ => (traffic, loads * reps, load * reps),
                };
                let bundle = (cell * (patterns + 1) + t) * step + column;
                let packed = *bundles[bundle].get_or_insert_with(|| {
                    let config = scenario.sim_config(self);
                    packs(&config, scenario.stages, lanes).then(|| {
                        // The words are full but for the last, which keeps a
                        // remainder too short to pack on its own.
                        let short = pack_threshold(&config);
                        let words = (lanes + LANE_WIDTH - short) / LANE_WIDTH;
                        let size = lanes.min(LANE_WIDTH + short - 1);
                        shards.extend((0..words).map(|_| Vec::with_capacity(size)));
                        (shards.len() - words, words)
                    })
                });
                place = match packed {
                    Some((first, words)) => (first, Some(lane), words),
                    None => {
                        if open.1 == points_per_shard {
                            shards.push(Vec::with_capacity(reps * points_per_shard.min(points)));
                            open = (shards.len() - 1, 0);
                        }
                        open.1 += 1;
                        (open.0, None, 1)
                    }
                };
            }
            let lane = place.1.map(|lane| lane + scenario.replication as usize);
            let word = lane.map_or(0, |lane| (lane / LANE_WIDTH).min(place.2 - 1));
            shards[place.0 + word].push(scenario);
        }
        Ok(CampaignPlan {
            config: self.clone(),
            shards: shards
                .into_iter()
                .enumerate()
                .map(|(id, scenarios)| Shard { id, scenarios })
                .collect(),
        })
    }
}

/// Whether a buffer mode's curves gather into one bundle per `(cell,
/// buffer mode, fault plan)` across their traffic patterns. A FIFO or
/// wormhole word costs much the same channel work whatever its width, so
/// their curves fill words together. An unbuffered word's fixed cost is
/// small, so its curves stay apart: bundling them saves little and
/// coarsens the shards a service spreads across its workers.
fn bundles_traffic(mode: BufferMode) -> bool {
    !matches!(mode, BufferMode::Unbuffered)
}

/// A block of whole grid points, or one word of a lane-eligible bundle: the
/// unit of work an executor — a scoped thread or a remote worker — claims,
/// runs through [`execute_shard`], and reports back. Shards are index-addressed, so
/// re-executing one (after a worker death, say) is idempotent: the retry
/// reproduces byte-identical results for the same slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Shard {
    /// Position of this shard in the plan's canonical order.
    pub id: usize,
    /// The scenarios of the shard, in ascending canonical index order.
    pub scenarios: Vec<Scenario>,
}

impl Shard {
    /// Number of scenarios in the shard.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the shard holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

/// The expanded form of a campaign: the configuration echo plus the ordered
/// shard list every executor works through. Serializable, so a plan (or any
/// single shard of it) can cross a process or network boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignPlan {
    /// The campaign the plan was expanded from.
    pub config: CampaignConfig,
    /// The shards; together they hold every scenario of
    /// [`CampaignConfig::scenarios`] exactly once (in canonical order for
    /// [`CampaignConfig::plan`]).
    pub shards: Vec<Shard>,
}

impl CampaignPlan {
    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of scenarios across every shard.
    pub fn scenario_count(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }
}

/// One fully specified `(network, traffic, load, buffer mode, fault plan,
/// replication)` run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Position in the canonical grid expansion.
    pub index: usize,
    /// The network being simulated.
    pub network: NetworkSpec,
    /// Stage count of the fabric (echoes [`NetworkSpec::stages`]): the
    /// classical `n` for catalog cells, `2n - 1` for Benes cells.
    pub stages: usize,
    /// Traffic pattern.
    pub traffic: TrafficPattern,
    /// Offered load.
    pub offered_load: f64,
    /// Buffer architecture of the cells.
    pub buffer_mode: BufferMode,
    /// Injected faults (the empty plan = healthy fabric).
    pub fault_plan: FaultPlan,
    /// Replication number within the grid point.
    pub replication: u32,
    /// Derived ChaCha8 seed for this scenario.
    pub seed: u64,
}

// Hand-written (de)serialization pinning the pre-`NetworkSpec` report
// layout: a catalog cell renders its `network` field as the bare family
// name (`"network":"Omega","stages":3`), exactly as the old
// `network: ClassicalNetwork` field did, so existing campaign JSON — and
// the CI byte-for-byte determinism gate — is unaffected. Non-catalog cells
// render the spec's tagged form (`"network":{"Benes":{"n":3}}`).
impl Serialize for Scenario {
    fn to_value(&self) -> serde::Value {
        let network = match self.network {
            NetworkSpec::Catalog { family, .. } => family.to_value(),
            spec => spec.to_value(),
        };
        serde::Value::Map(vec![
            (String::from("index"), self.index.to_value()),
            (String::from("network"), network),
            (String::from("stages"), self.stages.to_value()),
            (String::from("traffic"), self.traffic.to_value()),
            (String::from("offered_load"), self.offered_load.to_value()),
            (String::from("buffer_mode"), self.buffer_mode.to_value()),
            (String::from("fault_plan"), self.fault_plan.to_value()),
            (String::from("replication"), self.replication.to_value()),
            (String::from("seed"), self.seed.to_value()),
        ])
    }
}

impl Deserialize for Scenario {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("Scenario: expected a map"))?;
        let stages: usize = Deserialize::from_value(serde::map_get(entries, "stages")?)?;
        let network_value = serde::map_get(entries, "network")?;
        let network = match network_value {
            // Legacy catalog rendering: the bare family name, with the
            // stage count in the sibling `stages` field.
            serde::Value::Str(_) => {
                NetworkSpec::catalog(ClassicalNetwork::from_value(network_value)?, stages)
            }
            _ => NetworkSpec::from_value(network_value)?,
        };
        Ok(Scenario {
            index: Deserialize::from_value(serde::map_get(entries, "index")?)?,
            network,
            stages,
            traffic: Deserialize::from_value(serde::map_get(entries, "traffic")?)?,
            offered_load: Deserialize::from_value(serde::map_get(entries, "offered_load")?)?,
            buffer_mode: Deserialize::from_value(serde::map_get(entries, "buffer_mode")?)?,
            fault_plan: Deserialize::from_value(serde::map_get(entries, "fault_plan")?)?,
            replication: Deserialize::from_value(serde::map_get(entries, "replication")?)?,
            seed: Deserialize::from_value(serde::map_get(entries, "seed")?)?,
        })
    }
}

impl Scenario {
    /// The per-scenario simulator configuration.
    pub fn sim_config(&self, campaign: &CampaignConfig) -> SimConfig {
        SimConfig {
            offered_load: self.offered_load,
            buffer_mode: self.buffer_mode,
            traffic: self.traffic.clone(),
            cycles: campaign.cycles,
            warmup: campaign.warmup,
            seed: self.seed,
            fault_plan: self.fault_plan.clone(),
        }
    }
}

/// Derives the scenario seed from the campaign seed and the scenario index.
///
/// SplitMix64 finalizer over `campaign_seed ⊕ (index + 1) · φ64`: cheap,
/// stateless, and collision-free in practice for any realistic grid, so two
/// scenarios never share a ChaCha8 stream. This is the same derivation the
/// classification campaigns use — both delegate to
/// [`min_core::classify::derive_seed`], so the two subsystems can never
/// drift apart.
pub fn scenario_seed(campaign_seed: u64, index: usize) -> u64 {
    min_core::classify::derive_seed(campaign_seed, index)
}

/// The measured outcome of one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// The scenario that produced this result.
    pub scenario: Scenario,
    /// Delivered packets per terminal per cycle (in `[0, 1]`).
    pub throughput: f64,
    /// Mean delivered-packet latency, in cycles.
    pub mean_latency: f64,
    /// 99th-percentile delivered-packet latency, in cycles.
    pub p99_latency: u64,
    /// Largest single-packet latency, in cycles.
    pub max_latency: u64,
    /// Fraction of offered packets accepted into the fabric.
    pub acceptance: f64,
    /// Packets the sources wanted to inject.
    pub offered: u64,
    /// Packets accepted into the fabric.
    pub injected: u64,
    /// Packets delivered to their destination.
    pub delivered: u64,
    /// Packets dropped inside the fabric (both causes).
    pub dropped: u64,
    /// Packets dropped to an out-port arbitration loss.
    pub dropped_arbitration: u64,
    /// Packets dropped to downstream backpressure.
    pub dropped_backpressure: u64,
    /// Flits ejected at the last stage (wormhole scenarios; zero otherwise).
    pub flits_delivered: u64,
    /// Flit-cycles lost to arbitration or backpressure stalls (wormhole).
    pub flit_stalls: u64,
    /// Mean fraction of storage (queue slots or lanes) occupied.
    pub mean_occupancy: f64,
    /// Packets still in flight when the run ended.
    pub in_flight: u64,
    /// Packets (or worms) lost to an injected fault.
    pub dropped_fault: u64,
    /// Injection attempts refused because the pair was severed by faults.
    pub unroutable_drops: u64,
    /// Packets delivered while at least one fault was active.
    pub delivered_despite_fault: u64,
    /// Per-stage fault-exposure counts (empty for a fault-free scenario).
    pub fault_exposure: Vec<u64>,
    /// Disjoint-path diversity histogram of the scenario's fabric:
    /// `path_diversity[k]` pairs have exactly `k` link-disjoint paths.
    /// Computed for fault scenarios on fabrics up to 8 stages (empty
    /// otherwise — the per-pair analysis is quadratic in the cell count).
    pub path_diversity: Vec<u64>,
}

/// Whole-campaign totals and extremes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignAggregate {
    /// Sum of `offered` over all scenarios.
    pub total_offered: u64,
    /// Sum of `injected` over all scenarios.
    pub total_injected: u64,
    /// Sum of `delivered` over all scenarios.
    pub total_delivered: u64,
    /// Sum of `dropped` over all scenarios.
    pub total_dropped: u64,
    /// Sum of `dropped_arbitration` over all scenarios.
    pub total_dropped_arbitration: u64,
    /// Sum of `dropped_backpressure` over all scenarios.
    pub total_dropped_backpressure: u64,
    /// Sum of `dropped_fault` over all scenarios.
    pub total_dropped_fault: u64,
    /// Sum of `unroutable_drops` over all scenarios.
    pub total_unroutable_drops: u64,
    /// Sum of `delivered_despite_fault` over all scenarios.
    pub total_delivered_despite_fault: u64,
    /// Unweighted mean of the per-scenario throughputs.
    pub mean_throughput: f64,
    /// Largest per-scenario p99 latency.
    pub worst_p99_latency: u64,
    /// Largest per-scenario mean latency.
    pub worst_mean_latency: f64,
}

/// The complete result of a campaign: configuration echo, one result per
/// scenario (in canonical grid order), and the aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The master seed the campaign ran with.
    pub campaign_seed: u64,
    /// The buffer-mode axis of the grid.
    pub buffer_modes: Vec<BufferMode>,
    /// The fault-injection axis of the grid.
    pub fault_plans: Vec<FaultPlan>,
    /// Measured cycles per scenario.
    pub cycles: u64,
    /// Warm-up cycles per scenario.
    pub warmup: u64,
    /// Number of scenarios in the grid.
    pub scenario_count: usize,
    /// Per-scenario results, indexed by [`Scenario::index`].
    pub scenarios: Vec<ScenarioResult>,
    /// Whole-campaign totals.
    pub aggregate: CampaignAggregate,
}

impl CampaignReport {
    /// An empty partial report for `config`: no slots filled yet. The unit
    /// of [`CampaignReport::merge`] — a results store starts here and folds
    /// in per-shard partial reports as they arrive.
    pub fn empty(config: &CampaignConfig) -> Self {
        CampaignReport {
            campaign_seed: config.campaign_seed,
            buffer_modes: config.buffer_modes.clone(),
            fault_plans: config.fault_plans.clone(),
            cycles: config.cycles,
            warmup: config.warmup,
            scenario_count: 0,
            scenarios: Vec::new(),
            aggregate: aggregate(&[]),
        }
    }

    /// A partial report holding the given results, slotted by canonical
    /// scenario index. The results may arrive in any order and cover any
    /// subset of the grid; duplicate and out-of-range slots are rejected
    /// with a typed [`MergeError`].
    pub fn partial(
        config: &CampaignConfig,
        mut results: Vec<ScenarioResult>,
    ) -> Result<Self, MergeError> {
        let total = config.scenario_count();
        results.sort_by_key(|r| r.scenario.index);
        for pair in results.windows(2) {
            if pair[0].scenario.index == pair[1].scenario.index {
                return Err(MergeError::DuplicateSlot {
                    slot: pair[0].scenario.index,
                });
            }
        }
        if let Some(last) = results.last() {
            if last.scenario.index >= total {
                return Err(MergeError::SlotOutOfRange {
                    slot: last.scenario.index,
                    slots: total,
                });
            }
        }
        let mut report = CampaignReport::empty(config);
        report.scenario_count = results.len();
        report.aggregate = aggregate(&results);
        report.scenarios = results;
        Ok(report)
    }

    /// Folds another (possibly partial) report into `self`, slot by slot:
    /// the two reports' scenario sets must be disjoint by canonical index,
    /// and their campaign headers (seed, axes, cycle counts) must agree.
    /// This is the report-level promotion of [`Metrics::merge`] — where that
    /// adds counters *within* one slot, this unions *slots* — and it is what
    /// a distributed results store uses to accumulate shards from any worker
    /// topology: merging is order-independent, and once every slot is
    /// filled the report is byte-identical to the single-process run.
    pub fn merge(&mut self, other: &CampaignReport) -> Result<(), MergeError> {
        fn header(field: &'static str) -> MergeError {
            MergeError::HeaderMismatch { field }
        }
        if self.campaign_seed != other.campaign_seed {
            return Err(header("campaign_seed"));
        }
        if self.buffer_modes != other.buffer_modes {
            return Err(header("buffer_modes"));
        }
        if self.fault_plans != other.fault_plans {
            return Err(header("fault_plans"));
        }
        if self.cycles != other.cycles {
            return Err(header("cycles"));
        }
        if self.warmup != other.warmup {
            return Err(header("warmup"));
        }
        // Disjointness is checked before anything is moved, so a rejected
        // merge leaves the store untouched and retryable.
        {
            let mut left = self.scenarios.iter().map(|r| r.scenario.index).peekable();
            let mut right = other.scenarios.iter().map(|r| r.scenario.index).peekable();
            while let (Some(&a), Some(&b)) = (left.peek(), right.peek()) {
                match a.cmp(&b) {
                    std::cmp::Ordering::Equal => return Err(MergeError::DuplicateSlot { slot: a }),
                    std::cmp::Ordering::Less => {
                        left.next();
                    }
                    std::cmp::Ordering::Greater => {
                        right.next();
                    }
                }
            }
        }
        let mut merged = Vec::with_capacity(self.scenarios.len() + other.scenarios.len());
        let mut left = std::mem::take(&mut self.scenarios).into_iter().peekable();
        let mut right = other.scenarios.iter().peekable();
        loop {
            match (left.peek(), right.peek()) {
                (Some(a), Some(b)) => {
                    if a.scenario.index < b.scenario.index {
                        merged.push(left.next().expect("peeked"));
                    } else {
                        merged.push(right.next().expect("peeked").clone());
                    }
                }
                (Some(_), None) => merged.push(left.next().expect("peeked")),
                (None, Some(_)) => merged.push(right.next().expect("peeked").clone()),
                (None, None) => break,
            }
        }
        self.scenario_count = merged.len();
        self.aggregate = aggregate(&merged);
        self.scenarios = merged;
        Ok(())
    }

    /// Serializes the report to JSON. The rendering is deterministic (field
    /// order is declaration order, floats print via Rust's shortest
    /// round-trip formatting), so equal reports yield byte-identical JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("campaign reports are JSON-serializable")
    }

    /// Parses a report back from its [`CampaignReport::to_json`] rendering.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(text)
    }

    /// A plain-text summary table, one row per scenario.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>3} {:<14} {:<14} {:<16} {:>5} {:>4} {:>9} {:>9} {:>5} {:>8} {:>8}",
            "network",
            "n",
            "traffic",
            "buffers",
            "faults",
            "load",
            "rep",
            "tput",
            "mean lat",
            "p99",
            "dropped",
            "unroute"
        );
        for r in &self.scenarios {
            let _ = writeln!(
                out,
                "{:<28} {:>3} {:<14} {:<14} {:<16} {:>5.2} {:>4} {:>9.4} {:>9.2} {:>5} {:>8} {:>8}",
                r.scenario.network.name(),
                r.scenario.stages,
                r.scenario.traffic.label(),
                r.scenario.buffer_mode.label(),
                r.scenario.fault_plan.label(),
                r.scenario.offered_load,
                r.scenario.replication,
                r.throughput,
                r.mean_latency,
                r.p99_latency,
                r.dropped,
                r.unroutable_drops
            );
        }
        let a = &self.aggregate;
        let _ = writeln!(
            out,
            "{} scenarios · delivered {}/{} offered · mean tput {:.4} · worst p99 {} cycles · {} fault drops · {} unroutable",
            self.scenario_count,
            a.total_delivered,
            a.total_offered,
            a.mean_throughput,
            a.worst_p99_latency,
            a.total_dropped_fault,
            a.total_unroutable_drops
        );
        out
    }
}

/// Why a campaign could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// One of the grid axes is empty.
    EmptyAxis(&'static str),
    /// The grid expands to more than [`MAX_SCENARIOS`] scenarios (its axis
    /// lengths multiply past the cap, or past `usize`).
    TooManyScenarios,
    /// A grid cell's stage count is outside the buildable range `2..=32`.
    InvalidStages(usize),
    /// An offered load is outside `[0, 1]`.
    InvalidLoad(f64),
    /// A buffer mode on the grid axis has invalid parameters.
    InvalidBuffer(ConfigError),
    /// The measured run has zero cycles.
    ZeroCycles,
    /// A chunked plan was requested with zero grid points per shard.
    ZeroShardSize,
    /// Executed results could not be assembled into a report.
    Assemble(MergeError),
    /// The warm-up consumes the whole cycle budget, leaving no measurement
    /// window.
    WarmupTooLong {
        /// Configured warm-up cycles.
        warmup: u64,
        /// Configured total cycles.
        cycles: u64,
    },
    /// A scenario could not be simulated: the first scenario of the
    /// failing curve, and why the batch layer ([`crate::batch`]) refused
    /// it.
    Scenario {
        /// Index of the failing scenario.
        scenario: usize,
        /// The underlying simulation error.
        error: SimError,
    },
    /// A fault plan on the grid axis names a site outside one of the grid
    /// cells' fabrics.
    InvalidFaultPlan {
        /// Index of the offending plan on the `fault_plans` axis.
        plan: usize,
        /// The stage count of the grid cell the plan does not fit.
        stages: usize,
        /// The underlying site error.
        error: FaultError,
    },
    /// A traffic pattern on the grid axis is invalid or does not fit one of
    /// the grid cells (hot-spot target, permutation width, trace geometry).
    InvalidTraffic {
        /// Index of the offending pattern on the `traffic` axis.
        pattern: usize,
        /// Cells per stage of the grid cell the pattern does not fit.
        cells: usize,
        /// The underlying traffic error.
        error: TrafficError,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::EmptyAxis(axis) => write!(f, "campaign grid axis `{axis}` is empty"),
            CampaignError::TooManyScenarios => {
                write!(f, "the grid expands to more than {MAX_SCENARIOS} scenarios")
            }
            CampaignError::InvalidStages(n) => {
                write!(f, "stage count {n} is outside the buildable range 2..=32")
            }
            CampaignError::InvalidLoad(load) => {
                write!(f, "offered load {load} is not a probability")
            }
            CampaignError::InvalidBuffer(error) => {
                write!(f, "invalid buffer mode on the grid axis: {error}")
            }
            CampaignError::ZeroCycles => write!(f, "campaign runs zero measured cycles"),
            CampaignError::ZeroShardSize => {
                write!(f, "a plan needs at least one grid point per shard")
            }
            CampaignError::Assemble(error) => {
                write!(f, "executed results do not assemble into a report: {error}")
            }
            CampaignError::WarmupTooLong { warmup, cycles } => write!(
                f,
                "warm-up of {warmup} cycles consumes the whole {cycles}-cycle budget"
            ),
            CampaignError::Scenario { scenario, error } => {
                write!(f, "scenario {scenario} cannot be simulated: {error}")
            }
            CampaignError::InvalidFaultPlan {
                plan,
                stages,
                error,
            } => {
                write!(
                    f,
                    "fault plan {plan} does not fit the {stages}-stage grid cells: {error}"
                )
            }
            CampaignError::InvalidTraffic {
                pattern,
                cells,
                error,
            } => {
                write!(
                    f,
                    "traffic pattern {pattern} does not fit the {cells}-cell grid cells: {error}"
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<MergeError> for CampaignError {
    fn from(error: MergeError) -> Self {
        CampaignError::Assemble(error)
    }
}

/// Why results could not be slotted into (or merged between) reports.
///
/// Slots are canonical scenario indices, so these errors are the typed form
/// of every way a distributed results store can be handed inconsistent
/// data: the same slot twice, a slot outside the grid, a hole where a shard
/// never reported, or partial reports from two different campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// Two results claim the same canonical scenario index.
    DuplicateSlot {
        /// The contested scenario index.
        slot: usize,
    },
    /// A result's scenario index lies outside the campaign grid.
    SlotOutOfRange {
        /// The offending scenario index.
        slot: usize,
        /// Number of slots in the grid.
        slots: usize,
    },
    /// Assembly found no result for a slot.
    MissingSlot {
        /// The first unfilled scenario index.
        slot: usize,
    },
    /// Two reports describe different campaigns and cannot be merged.
    HeaderMismatch {
        /// The first header field that disagrees.
        field: &'static str,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::DuplicateSlot { slot } => {
                write!(f, "two results claim scenario slot {slot}")
            }
            MergeError::SlotOutOfRange { slot, slots } => {
                write!(f, "scenario slot {slot} is outside the {slots}-slot grid")
            }
            MergeError::MissingSlot { slot } => {
                write!(f, "no result for scenario slot {slot}")
            }
            MergeError::HeaderMismatch { field } => {
                write!(f, "reports disagree on campaign header field `{field}`")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Disjoint-path diversity histograms of the given grid cells, each
/// computed once (the histogram depends only on the topology, not on the
/// traffic/load/mode/plan axes). Cells above 8 stages are skipped — the
/// per-pair analysis is quadratic in the cell count.
type DiversityMap = std::collections::HashMap<NetworkSpec, Vec<u64>>;

fn diversity_map<'a>(cells: impl IntoIterator<Item = &'a NetworkSpec>) -> DiversityMap {
    let mut map = DiversityMap::new();
    for &spec in cells {
        if spec.stages() <= 8 {
            map.entry(spec)
                .or_insert_with(|| min_routing::disjoint::path_diversity_histogram(&spec.build()));
        }
    }
    map
}

fn scenario_result(
    scenario: &Scenario,
    metrics: &Metrics,
    path_diversity: Vec<u64>,
) -> ScenarioResult {
    let terminals = scenario.network.terminals();
    ScenarioResult {
        scenario: scenario.clone(),
        throughput: metrics.normalized_throughput(terminals),
        mean_latency: metrics.mean_latency(),
        p99_latency: metrics.p99_latency(),
        max_latency: metrics.max_latency,
        acceptance: metrics.acceptance_rate(),
        offered: metrics.offered,
        injected: metrics.injected,
        delivered: metrics.delivered,
        dropped: metrics.dropped(),
        dropped_arbitration: metrics.dropped_arbitration,
        dropped_backpressure: metrics.dropped_backpressure,
        flits_delivered: metrics.flits_delivered,
        flit_stalls: metrics.flit_stalls,
        mean_occupancy: metrics.mean_lane_occupancy(),
        in_flight: metrics.in_flight_at_end,
        dropped_fault: metrics.dropped_fault,
        unroutable_drops: metrics.unroutable_drops,
        delivered_despite_fault: metrics.delivered_despite_fault,
        fault_exposure: metrics.fault_exposure.clone(),
        path_diversity,
    }
}

/// Whether two scenarios run in one bundle: the same `(cell, buffer mode,
/// fault plan)`, and the same traffic unless the mode gathers its patterns
/// ([`bundles_traffic`]) and neither replays a trace.
fn same_bundle(a: &Scenario, b: &Scenario) -> bool {
    let gathered = |s: &Scenario| bundles_traffic(s.buffer_mode) && !s.traffic.is_trace();
    a.network == b.network
        && a.buffer_mode == b.buffer_mode
        && a.fault_plan == b.fault_plan
        && (a.traffic == b.traffic || gathered(a) && gathered(b))
}

/// Runs a set of scenarios — whole grid points or parts of them, in any
/// order — and returns their results in the same order.
///
/// Scenarios are grouped into bundles ([`same_bundle`]) and each bundle's
/// into curves by traffic; every bundle's `(seed, offered load)` lanes go
/// to [`run_bundle`] together. So the fabric, arenas and fault machinery
/// are built once per bundle, and a packing bundle fills 64 lanes per word
/// across its loads, and for FIFO and wormhole work across its traffic
/// patterns too, instead of leaving each grid point's words part-filled.
fn run_points(
    campaign: &CampaignConfig,
    scenarios: &[Scenario],
    diversity: &DiversityMap,
) -> Result<Vec<ScenarioResult>, CampaignError> {
    // Each bundle lists its curves, each curve its scenarios' positions,
    // in order of first appearance.
    let mut bundles: Vec<Vec<Vec<usize>>> = Vec::new();
    for (i, scenario) in scenarios.iter().enumerate() {
        let bundle = bundles
            .iter_mut()
            .find(|bundle| same_bundle(&scenarios[bundle[0][0]], scenario));
        let Some(bundle) = bundle else {
            bundles.push(vec![vec![i]]);
            continue;
        };
        match bundle
            .iter_mut()
            .find(|curve| scenarios[curve[0]].traffic == scenario.traffic)
        {
            Some(curve) => curve.push(i),
            None => bundle.push(vec![i]),
        }
    }
    let mut out: Vec<Option<ScenarioResult>> = vec![None; scenarios.len()];
    for bundle in &bundles {
        let first = &scenarios[bundle[0][0]];
        let net = first.network.build();
        let path_diversity = if first.fault_plan.is_empty() {
            Vec::new()
        } else {
            diversity.get(&first.network).cloned().unwrap_or_default()
        };
        let lanes: Vec<Vec<(u64, f64)>> = bundle
            .iter()
            .map(|curve| {
                let lane = |&i: &usize| (scenarios[i].seed, scenarios[i].offered_load);
                curve.iter().map(lane).collect()
            })
            .collect();
        let curves: Vec<(&TrafficPattern, &[(u64, f64)])> = bundle
            .iter()
            .zip(&lanes)
            .map(|(curve, lanes)| (&scenarios[curve[0]].traffic, lanes.as_slice()))
            .collect();
        let metrics =
            run_bundle(&net, &first.sim_config(campaign), &curves).map_err(|(curve, error)| {
                CampaignError::Scenario {
                    scenario: scenarios[bundle[curve][0]].index,
                    error,
                }
            })?;
        for (&i, m) in bundle.iter().flatten().zip(&metrics) {
            out[i] = Some(scenario_result(&scenarios[i], m, path_diversity.clone()));
        }
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every bundle ran"))
        .collect())
}

/// **Phase 2 of 3** — executes one [`Shard`], returning its slotted
/// [`ScenarioResult`]s in the shard's scenario order.
///
/// Pure in the sense that matters for distribution: the output depends only
/// on `(config, shard)` — every scenario carries its own derived seed, so
/// the same shard produces byte-identical results on any thread, process,
/// machine or retry. Scenarios of one bundle — differing only in offered
/// load and seed, and for FIFO and wormhole work in traffic pattern too —
/// are run together by the batch layer ([`crate::batch`]) (and, when the
/// bundle's lanes are eligible, the bit-parallel engines), so hand-built
/// shards need no particular order or alignment to stay fast.
pub fn execute_shard(
    config: &CampaignConfig,
    shard: &Shard,
) -> Result<Vec<ScenarioResult>, CampaignError> {
    let faulty = shard.scenarios.iter().filter(|s| !s.fault_plan.is_empty());
    let diversity = diversity_map(faulty.map(|s| &s.network));
    run_points(config, &shard.scenarios, &diversity)
}

/// **Phase 3 of 3** — slots executed results by canonical scenario index
/// into the complete [`CampaignReport`].
///
/// Accepts the results in **any** order (they may arrive interleaved from
/// many executors); rejects duplicate slots, out-of-range slots and missing
/// slots with a typed [`MergeError`]. The assembled report — including its
/// JSON — is byte-identical to the single-threaded in-process run, which is
/// the integration oracle every executor topology is held to.
pub fn assemble(
    config: &CampaignConfig,
    results: Vec<ScenarioResult>,
) -> Result<CampaignReport, MergeError> {
    let report = CampaignReport::partial(config, results)?;
    let expected = config.scenario_count();
    if report.scenario_count != expected {
        // `partial` sorted and deduplicated the slots, so the first index
        // that does not match its position is the first hole.
        let missing = report
            .scenarios
            .iter()
            .enumerate()
            .find(|(slot, r)| r.scenario.index != *slot)
            .map_or(report.scenario_count, |(slot, _)| slot);
        return Err(MergeError::MissingSlot { slot: missing });
    }
    Ok(report)
}

/// The in-process executor: the thin compatibility wrapper chaining
/// [`CampaignConfig::plan_chunked`]`(1)` → execution → [`assemble`] across
/// `threads` scoped worker threads (`0` = one worker per available core).
///
/// Every lane-eligible bundle arrives as one shard per word, so its
/// `(seed, load)` lanes fill whole words of the bit-parallel engines
/// across the load axis, and for FIFO and wormhole work across the traffic
/// patterns too; every other grid point is its own shard. Workers of
/// [`run_indexed`] pull shards from a shared atomic cursor. Results are
/// slotted by canonical index regardless of which worker ran them, keeping
/// the report independent of the thread count — and byte-identical to any
/// other executor of the same plan, including the `min-serve`
/// master/worker service.
pub fn run_campaign(
    config: &CampaignConfig,
    threads: usize,
) -> Result<CampaignReport, CampaignError> {
    let plan = config.plan_chunked(1)?;
    // Only faulty scenarios report path diversity.
    let cells: &[NetworkSpec] = if config.fault_plans.iter().all(FaultPlan::is_empty) {
        &[]
    } else {
        &config.cells
    };
    let diversity = diversity_map(cells);
    run_plan(config, &plan, threads, |shard| {
        run_points(config, &shard.scenarios, &diversity)
    })
}

/// Runs `execute` on every shard of `plan` across `threads` workers and
/// assembles the report. Workers claim the shards with the most simulated
/// cells first (scenarios × stages × cells per stage), so a long word is not
/// the last one left running while the other workers idle. Errors surface
/// in shard order, so a failing campaign reports the same (lowest-index)
/// shard at any thread count.
fn run_plan(
    config: &CampaignConfig,
    plan: &CampaignPlan,
    threads: usize,
    execute: impl Fn(&Shard) -> Result<Vec<ScenarioResult>, CampaignError> + Sync,
) -> Result<CampaignReport, CampaignError> {
    let work =
        |shard: &Shard| -> usize { shard.scenarios.iter().map(|s| s.stages << s.stages).sum() };
    let mut order: Vec<usize> = (0..plan.shards.len()).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(work(&plan.shards[g])));
    let mut done = run_indexed(order.len(), threads, |i| {
        (order[i], execute(&plan.shards[order[i]]))
    });
    done.sort_unstable_by_key(|&(g, _)| g);
    let mut results = Vec::with_capacity(plan.scenario_count());
    for (_, shard_results) in done {
        results.extend(shard_results?);
    }
    Ok(assemble(config, results)?)
}

fn aggregate(results: &[ScenarioResult]) -> CampaignAggregate {
    let mut a = CampaignAggregate {
        total_offered: 0,
        total_injected: 0,
        total_delivered: 0,
        total_dropped: 0,
        total_dropped_arbitration: 0,
        total_dropped_backpressure: 0,
        total_dropped_fault: 0,
        total_unroutable_drops: 0,
        total_delivered_despite_fault: 0,
        mean_throughput: 0.0,
        worst_p99_latency: 0,
        worst_mean_latency: 0.0,
    };
    for r in results {
        a.total_offered += r.offered;
        a.total_injected += r.injected;
        a.total_delivered += r.delivered;
        a.total_dropped += r.dropped;
        a.total_dropped_arbitration += r.dropped_arbitration;
        a.total_dropped_backpressure += r.dropped_backpressure;
        a.total_dropped_fault += r.dropped_fault;
        a.total_unroutable_drops += r.unroutable_drops;
        a.total_delivered_despite_fault += r.delivered_despite_fault;
        a.mean_throughput += r.throughput;
        a.worst_p99_latency = a.worst_p99_latency.max(r.p99_latency);
        a.worst_mean_latency = a.worst_mean_latency.max(r.mean_latency);
    }
    if !results.is_empty() {
        a.mean_throughput /= results.len() as f64;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::LANE_THRESHOLD;
    use crate::fabric::FabricError;
    use crate::fifo::FIFO_THRESHOLD;
    use crate::lane::ON_OFF_THRESHOLD;
    use crate::worm::WORM_THRESHOLD;

    fn tiny() -> CampaignConfig {
        CampaignConfig::over_catalog(3..=3)
            .with_traffic(vec![TrafficPattern::Uniform, TrafficPattern::BitReversal])
            .with_loads(vec![0.3, 0.9])
            .with_cycles(60, 0)
    }

    fn worm() -> BufferMode {
        BufferMode::Wormhole {
            lanes: 2,
            lane_depth: 2,
            flits_per_packet: 3,
        }
    }

    #[test]
    fn expansion_is_canonical_and_seeded_per_index() {
        let cfg = tiny().with_replications(2);
        let scenarios = cfg.scenarios().unwrap();
        assert_eq!(scenarios.len(), cfg.scenario_count());
        assert_eq!(scenarios.len(), 6 * 2 * 2 * 2);
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.seed, scenario_seed(cfg.campaign_seed, i));
        }
        // Innermost axis is the replication; loads change next (one buffer
        // mode collapses that axis).
        assert_eq!(scenarios[0].replication, 0);
        assert_eq!(scenarios[1].replication, 1);
        assert_eq!(scenarios[0].offered_load, scenarios[1].offered_load);
        assert_ne!(scenarios[0].offered_load, scenarios[2].offered_load);
        // All derived seeds are distinct.
        let seeds: std::collections::HashSet<u64> = scenarios.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), scenarios.len());
    }

    #[test]
    fn buffer_modes_are_a_grid_axis_between_loads_and_replications() {
        let cfg = tiny()
            .with_buffer_modes(vec![BufferMode::Unbuffered, BufferMode::Fifo(4), worm()])
            .with_replications(2);
        let scenarios = cfg.scenarios().unwrap();
        assert_eq!(scenarios.len(), 6 * 2 * 2 * 3 * 2);
        assert_eq!(scenarios.len(), cfg.scenario_count());
        // Replication is innermost, buffer mode next.
        assert_eq!(scenarios[0].buffer_mode, BufferMode::Unbuffered);
        assert_eq!(scenarios[1].buffer_mode, BufferMode::Unbuffered);
        assert_eq!(scenarios[2].buffer_mode, BufferMode::Fifo(4));
        assert_eq!(scenarios[4].buffer_mode, worm());
        assert_eq!(scenarios[5].replication, 1);
        // The load changes only after the whole buffer × replication block.
        assert_eq!(scenarios[0].offered_load, scenarios[5].offered_load);
        assert_ne!(scenarios[0].offered_load, scenarios[6].offered_load);
    }

    #[test]
    fn fault_plans_are_a_grid_axis_between_buffer_modes_and_replications() {
        let one_link = FaultPlan::none().with_dead_link(0, 1, 1, 0);
        let cfg = tiny()
            .with_buffer_modes(vec![BufferMode::Unbuffered, worm()])
            .with_fault_plans(vec![FaultPlan::none(), one_link.clone()])
            .with_replications(2);
        let scenarios = cfg.scenarios().unwrap();
        assert_eq!(scenarios.len(), 6 * 2 * 2 * 2 * 2 * 2);
        assert_eq!(scenarios.len(), cfg.scenario_count());
        // Replication innermost, then the fault plan, then the buffer mode.
        assert_eq!(scenarios[0].fault_plan, FaultPlan::none());
        assert_eq!(scenarios[1].fault_plan, FaultPlan::none());
        assert_eq!(scenarios[2].fault_plan, one_link);
        assert_eq!(scenarios[3].replication, 1);
        assert_eq!(scenarios[0].buffer_mode, scenarios[3].buffer_mode);
        assert_ne!(scenarios[0].buffer_mode, scenarios[4].buffer_mode);
    }

    #[test]
    fn an_explicit_fault_free_axis_is_byte_identical_to_the_default() {
        let cfg = tiny();
        let explicit = tiny().with_fault_plans(vec![FaultPlan::none()]);
        let a = run_campaign(&cfg, 2).unwrap();
        let b = run_campaign(&explicit, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn fault_campaigns_report_reliability_and_stay_thread_invariant() {
        let cfg = tiny().with_loads(vec![0.8]).with_fault_plans(vec![
            FaultPlan::none(),
            FaultPlan::none().with_dead_link(1, 0, 1, 0),
        ]);
        let one = run_campaign(&cfg, 1).unwrap();
        let many = run_campaign(&cfg, 5).unwrap();
        assert_eq!(one.to_json(), many.to_json());
        assert_eq!(one.fault_plans, cfg.fault_plans);
        assert!(one.aggregate.total_unroutable_drops > 0);
        assert!(one.aggregate.total_delivered_despite_fault > 0);
        for r in &one.scenarios {
            assert_eq!(r.injected, r.delivered + r.dropped + r.in_flight);
            if r.scenario.fault_plan.is_empty() {
                assert_eq!(r.unroutable_drops, 0);
                assert!(r.path_diversity.is_empty());
            } else {
                // Banyan fabrics: every pair has exactly one disjoint path.
                let cells = 1u64 << (r.scenario.stages - 1);
                assert_eq!(r.path_diversity, vec![0, cells * cells]);
            }
        }
    }

    #[test]
    fn fault_plans_that_do_not_fit_a_grid_cell_are_rejected() {
        // Stage 3 links exist at n=4 but not in the n=3 cells of the grid.
        let cfg = tiny().with_fault_plans(vec![FaultPlan::none().with_dead_link(3, 0, 0, 0)]);
        assert_eq!(
            cfg.scenarios().unwrap_err(),
            CampaignError::InvalidFaultPlan {
                plan: 0,
                stages: 3,
                error: crate::fault::FaultError::LinkStageOutOfRange {
                    stage: 3,
                    connections: 2
                }
            }
        );
        assert_eq!(
            tiny().with_fault_plans(vec![]).scenarios().unwrap_err(),
            CampaignError::EmptyAxis("fault_plans")
        );
    }

    #[test]
    fn traffic_that_does_not_fit_a_grid_cell_is_rejected() {
        use crate::traffic::TrafficError;
        // The n=3 grid cells have 4 cells per stage; a 3-entry permutation
        // and a NaN hot-spot fraction must both fail validation up front.
        let cfg = tiny().with_traffic(vec![
            TrafficPattern::Uniform,
            TrafficPattern::Permutation(vec![0, 1, 2]),
        ]);
        assert_eq!(
            cfg.scenarios().unwrap_err(),
            CampaignError::InvalidTraffic {
                pattern: 1,
                cells: 4,
                error: TrafficError::PermutationLength { len: 3, cells: 4 }
            }
        );
        let cfg = tiny().with_traffic(vec![TrafficPattern::Hotspot {
            fraction: f64::NAN,
            target: 0,
        }]);
        assert!(matches!(
            cfg.scenarios().unwrap_err(),
            CampaignError::InvalidTraffic {
                pattern: 0,
                error: TrafficError::NonFinite { .. },
                ..
            }
        ));
    }

    #[test]
    fn invalid_grids_are_rejected() {
        assert_eq!(
            tiny().with_loads(vec![]).scenarios().unwrap_err(),
            CampaignError::EmptyAxis("loads")
        );
        assert_eq!(
            tiny()
                .with_cells(Vec::<NetworkSpec>::new())
                .scenarios()
                .unwrap_err(),
            CampaignError::EmptyAxis("cells")
        );
        assert_eq!(
            tiny().with_traffic(vec![]).scenarios().unwrap_err(),
            CampaignError::EmptyAxis("traffic")
        );
        assert_eq!(
            tiny().with_buffer_modes(vec![]).scenarios().unwrap_err(),
            CampaignError::EmptyAxis("buffer_modes")
        );
        assert_eq!(
            tiny()
                .with_buffer(BufferMode::Fifo(0))
                .scenarios()
                .unwrap_err(),
            CampaignError::InvalidBuffer(ConfigError::ZeroParameter("fifo depth"))
        );
        assert_eq!(
            tiny().with_replications(0).scenarios().unwrap_err(),
            CampaignError::EmptyAxis("replications")
        );
        assert_eq!(
            tiny().with_loads(vec![1.5]).scenarios().unwrap_err(),
            CampaignError::InvalidLoad(1.5)
        );
        assert_eq!(
            tiny().with_cycles(0, 0).scenarios().unwrap_err(),
            CampaignError::ZeroCycles
        );
        assert_eq!(
            tiny().with_cycles(50, 100).scenarios().unwrap_err(),
            CampaignError::WarmupTooLong {
                warmup: 100,
                cycles: 50
            }
        );
        // Unbuildable stage counts are rejected up front rather than
        // panicking inside a worker thread.
        assert_eq!(
            tiny()
                .with_cells(vec![NetworkSpec::catalog(ClassicalNetwork::Omega, 1)])
                .scenarios()
                .unwrap_err(),
            CampaignError::InvalidStages(1)
        );
        assert_eq!(
            tiny()
                .with_cells(vec![NetworkSpec::catalog(ClassicalNetwork::Omega, 64)])
                .scenarios()
                .unwrap_err(),
            CampaignError::InvalidStages(64)
        );
    }

    #[test]
    fn oversized_buffer_modes_are_refused_before_any_core_is_built() {
        // Both used to validate and then take the process down while a
        // worker built the switching core: a panic in the FIFO ring arena
        // and an aborted 633 TB lane allocation.
        let cases = [
            (BufferMode::Fifo(1 << 31), ConfigError::FifoTooDeep(1 << 31)),
            (
                BufferMode::Wormhole {
                    lanes: 1 << 40,
                    lane_depth: 4,
                    flits_per_packet: 4,
                },
                ConfigError::TooManyLanes(1 << 40),
            ),
        ];
        for (mode, error) in cases {
            let config = tiny().with_buffer(mode);
            assert_eq!(config.validate(), Err(CampaignError::InvalidBuffer(error)));
            // The same grid arriving as campaign JSON.
            let json = serde_json::to_string(&config).unwrap();
            let decoded: CampaignConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(
                decoded.plan_chunked(1).unwrap_err(),
                CampaignError::InvalidBuffer(error)
            );
        }
    }

    #[test]
    fn degenerate_benes_cells_are_refused_as_invalid_stages() {
        let huge = usize::MAX / 2 + 1;
        for (n, stages) in [(0, 0), (huge, usize::MAX - 1)] {
            let direct = tiny().with_cells(vec![NetworkSpec::Benes { n }]);
            assert_eq!(direct.validate(), Err(CampaignError::InvalidStages(stages)));
            // The same cell arriving as untrusted campaign JSON.
            let json = serde_json::to_string(&tiny().with_cells(vec![NetworkSpec::Benes { n: 3 }]))
                .unwrap()
                .replace(
                    "{\"Benes\":{\"n\":3}}",
                    &format!("{{\"Benes\":{{\"n\":{n}}}}}"),
                );
            let parsed: CampaignConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(parsed, direct);
            assert_eq!(parsed.validate(), Err(CampaignError::InvalidStages(stages)));
        }
    }

    #[test]
    fn grids_whose_scenario_count_overflows_are_rejected_before_expansion() {
        // 128^5 grid points × u32::MAX replications ≈ 2^67 scenarios.
        let cfg = tiny()
            .with_cells(vec![NetworkSpec::catalog(ClassicalNetwork::Omega, 3); 128])
            .with_traffic(vec![TrafficPattern::Uniform; 128])
            .with_loads(vec![0.5; 128])
            .with_buffer_modes(vec![BufferMode::Unbuffered; 128])
            .with_fault_plans(vec![FaultPlan::none(); 128])
            .with_replications(u32::MAX);
        assert_eq!(cfg.scenario_count(), usize::MAX);
        assert_eq!(cfg.validate(), Err(CampaignError::TooManyScenarios));
        assert_eq!(
            cfg.plan_chunked(4).unwrap_err(),
            CampaignError::TooManyScenarios
        );
    }

    #[test]
    fn grids_past_the_scenario_cap_are_rejected_before_expansion() {
        // One grid point × u32::MAX replications fits in usize, but its
        // expansion would need ~618 GB.
        let cfg = tiny()
            .with_cells(vec![NetworkSpec::catalog(ClassicalNetwork::Omega, 3)])
            .with_traffic(vec![TrafficPattern::Uniform])
            .with_loads(vec![0.5])
            .with_buffer_modes(vec![BufferMode::Unbuffered])
            .with_fault_plans(vec![FaultPlan::none()])
            .with_replications(u32::MAX);
        assert_eq!(cfg.validate(), Err(CampaignError::TooManyScenarios));
        let at_cap = cfg.clone().with_replications(MAX_SCENARIOS as u32);
        assert_eq!(at_cap.validate(), Ok(()));
        let past_cap = cfg.with_replications(MAX_SCENARIOS as u32 + 1);
        assert_eq!(past_cap.validate(), Err(CampaignError::TooManyScenarios));
    }

    #[test]
    fn the_lowest_index_shard_error_wins_at_any_thread_count() {
        // No validated grid fails inside a shard, so inject failures into
        // run_campaign's runner at two shards.
        let cfg = tiny();
        let plan = cfg.plan().unwrap();
        let failing = |shard: &Shard| match shard.id {
            3 | 6 => Err(CampaignError::Scenario {
                scenario: shard.scenarios[0].index,
                error: SimError::Fabric(FabricError::NotTwoRegular),
            }),
            _ => execute_shard(&cfg, shard),
        };
        for threads in [1, 2, 8] {
            assert_eq!(
                run_plan(&cfg, &plan, threads, failing).unwrap_err(),
                CampaignError::Scenario {
                    scenario: plan.shards[3].scenarios[0].index,
                    error: SimError::Fabric(FabricError::NotTwoRegular),
                },
                "{threads} threads"
            );
        }
    }

    #[test]
    fn report_is_independent_of_thread_count() {
        let cfg = tiny().with_buffer_modes(vec![BufferMode::Unbuffered, worm()]);
        let one = run_campaign(&cfg, 1).unwrap();
        let many = run_campaign(&cfg, 7).unwrap();
        let auto = run_campaign(&cfg, 0).unwrap();
        assert_eq!(one, many);
        assert_eq!(one.to_json(), many.to_json());
        assert_eq!(one.to_json(), auto.to_json());
    }

    #[test]
    fn batched_replications_match_fresh_per_scenario_simulators() {
        // 12 replications exceed the packed-engine threshold, so the
        // unbuffered scenarios run 12-wide through the packed engine and
        // the FIFO scenarios through the rewound scalar engine — every result
        // must still be identical to a fresh simulator per scenario, and
        // the report must stay thread-invariant.
        let cfg = tiny()
            .with_loads(vec![0.7])
            .with_buffer_modes(vec![BufferMode::Unbuffered, BufferMode::Fifo(3)])
            .with_fault_plans(vec![
                FaultPlan::none(),
                FaultPlan::none().with_dead_link(1, 0, 1, 0),
            ])
            .with_replications(12);
        let report = run_campaign(&cfg, 3).unwrap();
        assert_eq!(report.to_json(), run_campaign(&cfg, 1).unwrap().to_json());
        for r in &report.scenarios {
            let net = r.scenario.network.build();
            let metrics = crate::engine::simulate(net, r.scenario.sim_config(&cfg)).unwrap();
            assert_eq!(r.delivered, metrics.delivered, "{:?}", r.scenario);
            assert_eq!(r.offered, metrics.offered, "{:?}", r.scenario);
            assert_eq!(r.dropped_fault, metrics.dropped_fault, "{:?}", r.scenario);
            assert_eq!(r.p99_latency, metrics.p99_latency(), "{:?}", r.scenario);
            assert_eq!(r.fault_exposure, metrics.fault_exposure, "{:?}", r.scenario);
        }
    }

    #[test]
    fn report_aggregates_and_conserves() {
        let report = run_campaign(&tiny(), 4).unwrap();
        assert_eq!(report.scenario_count, report.scenarios.len());
        let sum: u64 = report.scenarios.iter().map(|r| r.delivered).sum();
        assert_eq!(report.aggregate.total_delivered, sum);
        for r in &report.scenarios {
            assert_eq!(r.injected, r.delivered + r.dropped + r.in_flight, "{r:?}");
            assert_eq!(r.dropped, r.dropped_arbitration + r.dropped_backpressure);
            assert!(r.p99_latency <= r.max_latency);
            assert!(r.throughput > 0.0 && r.throughput <= 1.0);
        }
        assert_eq!(
            report.aggregate.total_dropped,
            report.aggregate.total_dropped_arbitration
                + report.aggregate.total_dropped_backpressure
        );
        assert!(report.aggregate.mean_throughput > 0.0);
        // The summary table has one row per scenario plus header and footer.
        assert_eq!(
            report.summary_table().lines().count(),
            report.scenario_count + 2
        );
    }

    #[test]
    fn different_campaign_seeds_differ() {
        let a = run_campaign(&tiny().with_seed(1), 2).unwrap();
        let b = run_campaign(&tiny().with_seed(2), 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn reports_round_trip_through_json() {
        let report = run_campaign(
            &tiny()
                .with_loads(vec![0.4])
                .with_buffer_modes(vec![BufferMode::Fifo(2), worm()]),
            2,
        )
        .unwrap();
        let json = report.to_json();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn legacy_tuple_grids_keep_their_pre_spec_json_layout() {
        // Catalog cells are still on the wire in the pre-`NetworkSpec`
        // tuple layout: both the config and the report render them
        // byte-for-byte as before the redesign — cells as two-element
        // arrays, scenario networks as the bare family name next to a
        // `stages` field.
        let cfg = CampaignConfig::over_catalog(3..=3)
            .with_cells(vec![
                NetworkSpec::catalog(ClassicalNetwork::Omega, 3),
                NetworkSpec::catalog(ClassicalNetwork::ReverseBaseline, 4),
            ])
            .with_cycles(40, 0);
        let cfg_json = serde_json::to_string(&cfg).unwrap();
        assert!(
            cfg_json.contains("\"cells\":[[\"Omega\",3],[\"ReverseBaseline\",4]]"),
            "{cfg_json}"
        );
        let back: CampaignConfig = serde_json::from_str(&cfg_json).unwrap();
        assert_eq!(back, cfg);

        let report = run_campaign(&cfg, 2).unwrap();
        let json = report.to_json();
        assert!(
            json.contains("\"network\":\"Omega\",\"stages\":3"),
            "{json}"
        );
        assert!(
            json.contains("\"network\":\"ReverseBaseline\",\"stages\":4"),
            "{json}"
        );
        assert_eq!(CampaignReport::from_json(&json).unwrap(), report);
    }

    #[test]
    fn benes_scenarios_render_the_tagged_spec_and_round_trip() {
        let cfg = CampaignConfig::over_catalog(3..=3)
            .with_cells(vec![NetworkSpec::benes(3)])
            .with_traffic(vec![TrafficPattern::Permutation(vec![2, 3, 0, 1])])
            .with_loads(vec![1.0])
            .with_cycles(40, 0);
        let report = run_campaign(&cfg, 1).unwrap();
        let json = report.to_json();
        assert!(
            json.contains("\"network\":{\"Benes\":{\"n\":3}},\"stages\":5"),
            "{json}"
        );
        assert_eq!(CampaignReport::from_json(&json).unwrap(), report);
        // Conflict-free circuits: full-load permutation traffic through the
        // looping-configured Benes never drops to arbitration.
        for r in &report.scenarios {
            assert_eq!(r.scenario.network, NetworkSpec::benes(3));
            assert_eq!(r.dropped_arbitration, 0, "{r:?}");
            assert_eq!(r.unroutable_drops, 0, "{r:?}");
            assert!(r.delivered > 0);
        }
    }

    #[test]
    fn benes_cells_validate_fault_plans_against_their_real_geometry() {
        // Benes(3) has 5 stages but only 4 cells per stage. The old
        // `1 << (stages - 1)` formula would have accepted cell 15 here and
        // panicked inside a worker; the spec-aware validation rejects it as
        // a typed error up front.
        let bad = FaultPlan::none().with_dead_switch(0, 15, 0);
        let err = CampaignConfig::over_catalog(3..=3)
            .with_cells(vec![NetworkSpec::benes(3)])
            .with_fault_plans(vec![bad])
            .scenarios()
            .unwrap_err();
        match err {
            CampaignError::InvalidFaultPlan {
                plan: 0, stages: 5, ..
            } => {}
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
        // In-range Benes fault sites are accepted, including stages beyond
        // the catalog's depth at the same cell count.
        let deep = FaultPlan::none().with_dead_link(3, 2, 1, 0);
        CampaignConfig::over_catalog(3..=3)
            .with_cells(vec![NetworkSpec::benes(3)])
            .with_fault_plans(vec![deep])
            .scenarios()
            .unwrap();
    }

    #[test]
    fn scenario_seed_mixes_both_inputs() {
        assert_ne!(scenario_seed(0, 0), scenario_seed(0, 1));
        assert_ne!(scenario_seed(0, 0), scenario_seed(1, 0));
        assert_ne!(scenario_seed(7, 3), scenario_seed(3, 7));
    }

    // ------------------------------------------------------------------
    // plan / execute_shard / assemble
    // ------------------------------------------------------------------

    #[test]
    fn plan_covers_every_scenario_exactly_once_in_order() {
        let cfg = tiny().with_replications(3);
        let plan = cfg.plan().unwrap();
        assert_eq!(plan.shard_count(), cfg.scenario_count() / 3);
        assert_eq!(plan.scenario_count(), cfg.scenario_count());
        let mut next = 0usize;
        for (id, shard) in plan.shards.iter().enumerate() {
            assert_eq!(shard.id, id);
            // One grid point per shard: all three replications, nothing else.
            assert_eq!(shard.len(), 3);
            assert_eq!(shard.scenarios[0].index, next);
            for s in &shard.scenarios {
                assert_eq!(s.index, next);
                next += 1;
            }
            let first = &shard.scenarios[0];
            for s in &shard.scenarios[1..] {
                assert_eq!(s.network, first.network);
                assert_eq!(s.offered_load, first.offered_load);
                assert_eq!(s.buffer_mode, first.buffer_mode);
            }
        }
        assert_eq!(next, cfg.scenario_count());
    }

    #[test]
    fn plan_chunked_groups_points_and_rejects_zero() {
        let cfg = tiny().with_replications(2);
        let points = cfg.scenario_count() / 2;
        let plan = cfg.plan_chunked(4).unwrap();
        assert_eq!(plan.shard_count(), points.div_ceil(4));
        assert_eq!(plan.scenario_count(), cfg.scenario_count());
        assert_eq!(plan.shards[0].len(), 4 * 2);
        assert_eq!(
            cfg.plan_chunked(0).unwrap_err(),
            CampaignError::ZeroShardSize
        );
        // A chunk larger than the grid degenerates to one shard.
        let one = cfg.plan_chunked(points + 100).unwrap();
        assert_eq!(one.shard_count(), 1);
    }

    #[test]
    fn execute_and_assemble_match_run_campaign_byte_for_byte() {
        let cfg = tiny().with_replications(2).with_fault_plans(vec![
            FaultPlan::none(),
            FaultPlan::none().with_dead_link(1, 0, 1, 0),
        ]);
        let reference = run_campaign(&cfg, 4).unwrap();
        let plan = cfg.plan_chunked(3).unwrap();
        // Execute shards out of order, as remote workers would.
        let mut results = Vec::new();
        for shard in plan.shards.iter().rev() {
            results.extend(execute_shard(&cfg, shard).unwrap());
        }
        let assembled = assemble(&cfg, results).unwrap();
        assert_eq!(assembled.to_json(), reference.to_json());
    }

    #[test]
    fn assemble_rejects_gaps_duplicates_and_strays() {
        let cfg = tiny();
        let plan = cfg.plan().unwrap();
        let full: Vec<ScenarioResult> = plan
            .shards
            .iter()
            .flat_map(|s| execute_shard(&cfg, s).unwrap())
            .collect();

        let mut missing = full.clone();
        missing.remove(2);
        assert_eq!(
            assemble(&cfg, missing).unwrap_err(),
            MergeError::MissingSlot { slot: 2 }
        );

        let mut duplicated = full.clone();
        duplicated.push(full[5].clone());
        assert_eq!(
            assemble(&cfg, duplicated).unwrap_err(),
            MergeError::DuplicateSlot { slot: 5 }
        );

        let mut stray = full.clone();
        let mut extra = full.last().unwrap().clone();
        extra.scenario.index = cfg.scenario_count() + 3;
        stray.push(extra);
        assert_eq!(
            assemble(&cfg, stray).unwrap_err(),
            MergeError::SlotOutOfRange {
                slot: cfg.scenario_count() + 3,
                slots: cfg.scenario_count(),
            }
        );
    }

    #[test]
    fn partial_reports_merge_into_the_complete_report() {
        let cfg = tiny().with_replications(2);
        let reference = run_campaign(&cfg, 1).unwrap();
        let plan = cfg.plan_chunked(2).unwrap();
        let mut merged = CampaignReport::empty(&cfg);
        // Merge shard-sized partial reports in reverse order.
        for shard in plan.shards.iter().rev() {
            let part = CampaignReport::partial(&cfg, execute_shard(&cfg, shard).unwrap()).unwrap();
            merged.merge(&part).unwrap();
        }
        assert_eq!(merged.to_json(), reference.to_json());
    }

    #[test]
    fn merge_rejects_overlaps_without_corrupting_the_target() {
        let cfg = tiny();
        let plan = cfg.plan_chunked(2).unwrap();
        let a =
            CampaignReport::partial(&cfg, execute_shard(&cfg, &plan.shards[0]).unwrap()).unwrap();
        let mut target = a.clone();
        let overlap_slot = plan.shards[0].scenarios[0].index;
        assert_eq!(
            target.merge(&a).unwrap_err(),
            MergeError::DuplicateSlot { slot: overlap_slot }
        );
        // The failed merge must leave the target untouched and retryable.
        assert_eq!(target, a);
        let b =
            CampaignReport::partial(&cfg, execute_shard(&cfg, &plan.shards[1]).unwrap()).unwrap();
        target.merge(&b).unwrap();
        assert_eq!(
            target.scenario_count,
            plan.shards[0].len() + plan.shards[1].len()
        );
    }

    #[test]
    fn merge_rejects_header_mismatches() {
        let cfg = tiny();
        let other_cfg = tiny().with_seed(cfg.campaign_seed ^ 0xdead_beef);
        let plan = cfg.plan_chunked(2).unwrap();
        let other_plan = other_cfg.plan_chunked(2).unwrap();
        let mut a =
            CampaignReport::partial(&cfg, execute_shard(&cfg, &plan.shards[0]).unwrap()).unwrap();
        let b = CampaignReport::partial(
            &other_cfg,
            execute_shard(&other_cfg, &other_plan.shards[1]).unwrap(),
        )
        .unwrap();
        assert_eq!(
            a.merge(&b).unwrap_err(),
            MergeError::HeaderMismatch {
                field: "campaign_seed"
            }
        );
    }

    /// Small grids of n = 3 catalog cells: stateless and stateful traffic,
    /// unbuffered and FIFO cells, one or two fault plans, and curves of
    /// `loads × replications` lanes below the packing threshold, above it,
    /// in one word with a short remainder (4 × 17 = 68), and past one word
    /// plus the threshold (from 2 × 37 = 74, whose 10 lanes past a word
    /// are a word of their own in a uniform curve and the previous word's
    /// tail in a FIFO or wormhole bundle).
    fn grid_strategy() -> impl proptest::prelude::Strategy<Value = CampaignConfig> {
        use proptest::prelude::*;
        (
            (1usize..=2, 0usize..ClassicalNetwork::ALL.len()),
            (0usize..4, 0usize..4),
            1usize..=2,
            (1usize..=4, 0usize..4),
            any::<u64>(),
        )
            .prop_map(
                |((cells, family), (traffic, modes), faults, (loads, reps), seed)| {
                    let cells = (0..cells)
                        .map(|c| NetworkSpec::catalog(ClassicalNetwork::ALL[(family + c) % 6], 3))
                        .collect();
                    let on_off = TrafficPattern::OnOff {
                        on_dwell: 4.0,
                        off_dwell: 2.0,
                        on_rate: 0.8,
                    };
                    let zipf = TrafficPattern::Zipf { exponent: 1.0 };
                    let traffic = [
                        vec![TrafficPattern::Uniform],
                        vec![on_off.clone()],
                        vec![on_off.clone(), TrafficPattern::Uniform],
                        vec![TrafficPattern::Uniform, on_off, zipf],
                    ][traffic]
                        .clone();
                    let modes = [
                        vec![BufferMode::Unbuffered],
                        vec![BufferMode::Fifo(2)],
                        vec![BufferMode::Fifo(2), BufferMode::Unbuffered],
                        vec![worm(), BufferMode::Unbuffered, BufferMode::Fifo(2)],
                    ][modes]
                        .clone();
                    let plans = [
                        FaultPlan::none(),
                        FaultPlan::none().with_dead_link(1, 0, 1, 0),
                    ][..faults]
                        .to_vec();
                    CampaignConfig::over_catalog(3..=3)
                        .with_seed(seed)
                        .with_cells(cells)
                        .with_traffic(traffic)
                        .with_loads((1..=loads).map(|l| l as f64 / 4.0).collect())
                        .with_buffer_modes(modes)
                        .with_fault_plans(plans)
                        .with_replications([1, 3, 17, 37][reps])
                        .with_cycles(30, 5)
                },
            )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Every scenario is planned exactly once; a packed shard is one
        /// word of its bundle — a FIFO or wormhole bundle gathering every
        /// traffic pattern of its `(cell, buffer mode, fault plan)`, an
        /// unbuffered one a single curve — cut from the bundle's lanes in
        /// canonical order; every other shard holds whole grid points; and
        /// executing the shards reproduces `run_campaign` byte for byte.
        #[test]
        fn plan_chunked_packs_curves_in_words_and_chunks_whole_points(
            config in grid_strategy(),
            points_per_shard in 1usize..=4,
        ) {
            use proptest::prelude::*;
            let plan = config.plan_chunked(points_per_shard).unwrap();
            let scenarios = config.scenarios().unwrap();
            let reps = config.replications as usize;
            let curve = config.loads.len() * reps;
            let mut seen = vec![false; config.scenario_count()];
            for (id, shard) in plan.shards.iter().enumerate() {
                prop_assert_eq!(shard.id, id);
                for s in &shard.scenarios {
                    prop_assert!(!seen[s.index], "slot {} planned twice", s.index);
                    seen[s.index] = true;
                }
                let first = &shard.scenarios[0];
                // The bundle's lanes in canonical order.
                let bundle: Vec<&Scenario> =
                    scenarios.iter().filter(|s| same_bundle(s, first)).collect();
                // Uniform and Zipf unbuffered curves pack from 8 lanes,
                // ON/OFF ones and healthy buffered bundles from 16, and a
                // bundle's last remainder shorter than that stays in its
                // previous word.
                let (packed, short) = match first.buffer_mode {
                    BufferMode::Unbuffered if !first.traffic.is_stateful() => {
                        (curve >= LANE_THRESHOLD, LANE_THRESHOLD)
                    }
                    BufferMode::Unbuffered => (curve >= ON_OFF_THRESHOLD, ON_OFF_THRESHOLD),
                    BufferMode::Fifo(_) | BufferMode::Wormhole { .. } => {
                        prop_assert_eq!(bundle.len(), config.traffic.len() * curve);
                        let short = match first.buffer_mode {
                            BufferMode::Fifo(_) => FIFO_THRESHOLD,
                            _ => WORM_THRESHOLD,
                        };
                        (first.fault_plan.is_empty() && bundle.len() >= short, short)
                    }
                };
                if packed {
                    let at = bundle.iter().position(|s| s.index == first.index).unwrap();
                    let word = &bundle[at..(at + shard.len()).min(bundle.len())];
                    prop_assert!(at % LANE_WIDTH == 0, "a word starting at lane {}", at);
                    prop_assert!(
                        word.iter().map(|s| s.index).eq(shard.scenarios.iter().map(|s| s.index)),
                        "a word is not a run of its bundle's lanes"
                    );
                    prop_assert!(
                        shard.len() == LANE_WIDTH
                            || at + shard.len() == bundle.len()
                                && (short..LANE_WIDTH + short).contains(&shard.len()),
                        "a packed unit of {} lanes",
                        shard.len()
                    );
                } else {
                    // Whole grid points only, at most `points_per_shard`.
                    prop_assert_eq!(shard.len() % reps, 0);
                    prop_assert!(shard.len() / reps <= points_per_shard);
                    for point in shard.scenarios.chunks(reps) {
                        prop_assert!(point
                            .iter()
                            .enumerate()
                            .all(|(r, s)| s.index == point[0].index + r
                                && s.replication as usize == r));
                    }
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "a slot was never planned");

            let mut results = Vec::new();
            for shard in plan.shards.iter().rev() {
                results.extend(execute_shard(&config, shard).unwrap());
            }
            prop_assert_eq!(
                assemble(&config, results).unwrap().to_json(),
                run_campaign(&config, 1).unwrap().to_json()
            );
        }
    }
}
