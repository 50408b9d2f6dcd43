//! Fault plans and the fault-injection runtime.
//!
//! A [`FaultPlan`] is a deterministic, serializable description of the
//! component failures a simulation run injects: dead switches, dead links
//! and degraded (half-bandwidth) links, each with an **onset cycle** so
//! faults can be present from the start or strike mid-simulation. Plans are
//! plain data — two runs with the same plan, seed and configuration produce
//! bit-identical metrics at any thread count, which is what lets the
//! campaign layer put a fault axis on its grid.
//!
//! The runtime half (the compiled fault state behind the [`FaultView`]
//! handed to the switching cores, and the reroute tables of
//! `FaultRuntime`) turns the plan into O(1) per-link queries and
//! per-(source, destination) reroute decisions. A reroute table is computed
//! when a run first crosses the onset of a dead link or switch, and only
//! then does it take over the packets' tags: before that onset, and for a
//! plan of degraded links alone, nothing is severed and every packet keeps
//! the fabric's own routing ([`crate::fabric::Fabric::route`]). An empty
//! plan short-circuits everything: the engine then runs the exact
//! pre-fault-subsystem code path, byte for byte.

use min_core::ConnectionNetwork;
use min_routing::disjoint::{path_tag, route_all_to, FaultDigest, FaultRoute};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One kind of component failure.
///
/// Switches live at `(stage 0..stages, cell)`; links at
/// `(stage 0..stages-1, cell, port)` — the arc leaving `cell` through
/// out-port `port` (0 = `f`, 1 = `g`) of connection `stage`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The whole 2×2 switch is dead: packets inside it are lost, nothing
    /// can enter or leave it, and every (source, destination) pair routed
    /// through it is severed.
    DeadSwitch {
        /// Stage of the dead switch (`0..stages`).
        stage: usize,
        /// Cell index within the stage.
        cell: u32,
    },
    /// One inter-stage link is dead: traffic that must cross it is dropped
    /// in flight, and pairs whose last surviving path used it become
    /// unroutable.
    DeadLink {
        /// Connection index of the link (`0..stages-1`).
        stage: usize,
        /// Source cell of the link.
        cell: u32,
        /// Out-port of the link (0 = `f`, 1 = `g`).
        port: u8,
    },
    /// The link's lanes are degraded to half bandwidth: it carries traffic
    /// only on even cycles. Nothing is severed — buffered cores stall on
    /// the off cycles, the unbuffered core (which has nowhere to hold a
    /// blocked packet) drops.
    DegradedLink {
        /// Connection index of the link (`0..stages-1`).
        stage: usize,
        /// Source cell of the link.
        cell: u32,
        /// Out-port of the link (0 = `f`, 1 = `g`).
        port: u8,
    },
}

impl FaultKind {
    /// Compact stable rendering for table labels (`S1.3`, `L0.2.1`,
    /// `d2.0.0`).
    fn label(&self) -> String {
        match *self {
            FaultKind::DeadSwitch { stage, cell } => format!("S{stage}.{cell}"),
            FaultKind::DeadLink { stage, cell, port } => format!("L{stage}.{cell}.{port}"),
            FaultKind::DegradedLink { stage, cell, port } => format!("d{stage}.{cell}.{port}"),
        }
    }
}

/// One failure with its onset cycle: the component is healthy on cycles
/// `< onset` and faulty from `onset` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    /// What fails.
    pub kind: FaultKind,
    /// First cycle on which the failure is active (0 = static fault).
    pub onset: u64,
}

/// Why a fault plan does not fit a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// A switch fault names a stage outside `0..stages`.
    StageOutOfRange {
        /// The offending stage.
        stage: usize,
        /// Number of stages in the fabric.
        stages: usize,
    },
    /// A link fault names a connection outside `0..stages-1`.
    LinkStageOutOfRange {
        /// The offending connection index.
        stage: usize,
        /// Number of inter-stage connections in the fabric.
        connections: usize,
    },
    /// A fault names a cell outside `0..cells`.
    CellOutOfRange {
        /// The offending cell.
        cell: u32,
        /// Cells per stage in the fabric.
        cells: usize,
    },
    /// A link fault names a port other than 0 or 1.
    PortOutOfRange {
        /// The offending port.
        port: u8,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::StageOutOfRange { stage, stages } => {
                write!(f, "switch stage {stage} is outside 0..{stages}")
            }
            FaultError::LinkStageOutOfRange { stage, connections } => {
                write!(f, "link stage {stage} is outside 0..{connections}")
            }
            FaultError::CellOutOfRange { cell, cells } => {
                write!(f, "cell {cell} is outside 0..{cells}")
            }
            FaultError::PortOutOfRange { port } => {
                write!(f, "port {port} is not one of the two out-ports")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A deterministic set of failures injected into one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The failures, in declaration order (order is irrelevant to the
    /// semantics but preserved for reporting).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: a fully healthy fabric. The engine detects this and
    /// runs the exact fault-free code path.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Builder-style: adds a dead switch at `(stage, cell)` from `onset`.
    pub fn with_dead_switch(mut self, stage: usize, cell: u32, onset: u64) -> Self {
        self.faults.push(Fault {
            kind: FaultKind::DeadSwitch { stage, cell },
            onset,
        });
        self
    }

    /// Builder-style: adds a dead link at `(stage, cell, port)` from
    /// `onset`.
    pub fn with_dead_link(mut self, stage: usize, cell: u32, port: u8, onset: u64) -> Self {
        self.faults.push(Fault {
            kind: FaultKind::DeadLink { stage, cell, port },
            onset,
        });
        self
    }

    /// Builder-style: adds a degraded (half-bandwidth) link at
    /// `(stage, cell, port)` from `onset`.
    pub fn with_degraded_link(mut self, stage: usize, cell: u32, port: u8, onset: u64) -> Self {
        self.faults.push(Fault {
            kind: FaultKind::DegradedLink { stage, cell, port },
            onset,
        });
        self
    }

    /// A seeded plan of `count` distinct dead links with onset 0, drawn
    /// uniformly from the link sites of a `stages × cells` fabric by a
    /// dedicated ChaCha8 stream — the same seed always produces the same
    /// plan.
    pub fn random_links(seed: u64, count: usize, stages: usize, cells: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sites = stages.saturating_sub(1) * cells * 2;
        let count = count.min(sites);
        let mut chosen: Vec<usize> = Vec::with_capacity(count);
        while chosen.len() < count {
            let site = rng.gen_range(0..sites);
            if !chosen.contains(&site) {
                chosen.push(site);
            }
        }
        let faults = chosen
            .into_iter()
            .map(|site| Fault {
                kind: FaultKind::DeadLink {
                    stage: site / (cells * 2),
                    cell: ((site / 2) % cells) as u32,
                    port: (site % 2) as u8,
                },
                onset: 0,
            })
            .collect();
        FaultPlan { faults }
    }

    /// Checks every fault site against a `stages × cells` fabric.
    pub fn validate(&self, stages: usize, cells: usize) -> Result<(), FaultError> {
        for fault in &self.faults {
            let cell = match fault.kind {
                FaultKind::DeadSwitch { stage, cell } => {
                    if stage >= stages {
                        return Err(FaultError::StageOutOfRange { stage, stages });
                    }
                    cell
                }
                FaultKind::DeadLink { stage, cell, port }
                | FaultKind::DegradedLink { stage, cell, port } => {
                    if stage + 1 >= stages {
                        return Err(FaultError::LinkStageOutOfRange {
                            stage,
                            connections: stages.saturating_sub(1),
                        });
                    }
                    if port >= 2 {
                        return Err(FaultError::PortOutOfRange { port });
                    }
                    cell
                }
            };
            if cell as usize >= cells {
                return Err(FaultError::CellOutOfRange { cell, cells });
            }
        }
        Ok(())
    }

    /// Short stable label for tables: `none`, or up to three fault labels
    /// (`L0.2.1@40+S1.0`) followed by `+k more` for the rest. An `@onset`
    /// suffix marks mid-simulation faults.
    pub fn label(&self) -> String {
        if self.faults.is_empty() {
            return "none".to_string();
        }
        let shown: Vec<String> = self
            .faults
            .iter()
            .take(3)
            .map(|f| {
                if f.onset == 0 {
                    f.kind.label()
                } else {
                    format!("{}@{}", f.kind.label(), f.onset)
                }
            })
            .collect();
        let mut label = shown.join("+");
        if self.faults.len() > 3 {
            label.push_str(&format!("+{} more", self.faults.len() - 3));
        }
        label
    }
}

/// Whether a link can carry traffic this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkStatus {
    /// Healthy: the link behaves normally.
    Up,
    /// Degraded and on an off cycle: traffic must wait (or, in the
    /// unbuffered core, is lost).
    Throttled,
    /// Dead: traffic that must cross it is lost.
    Down,
}

/// Onset value meaning "never fails".
const NEVER: u64 = u64::MAX;

/// Per-component onset tables compiled from a [`FaultPlan`] for a concrete
/// fabric. All queries are O(1).
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    cells: usize,
    /// Earliest dead-onset per link, indexed `(stage*cells + cell)*2 + port`.
    link_dead: Vec<u64>,
    /// Earliest degraded-onset per link, same indexing.
    link_degraded: Vec<u64>,
    /// Earliest dead-onset per switch, indexed `stage*cells + cell`.
    cell_dead: Vec<u64>,
    /// Earliest onset of any fault (for `any_active`).
    first_onset: u64,
    /// Sorted distinct onsets of *severing* faults (dead links/switches) —
    /// the onsets at which a new reroute table is computed.
    severing_onsets: Vec<u64>,
}

impl FaultState {
    /// Compiles `plan` (already validated) for a `stages × cells` fabric.
    pub(crate) fn new(plan: &FaultPlan, stages: usize, cells: usize) -> Self {
        let mut state = FaultState {
            cells,
            link_dead: vec![NEVER; stages.saturating_sub(1) * cells * 2],
            link_degraded: vec![NEVER; stages.saturating_sub(1) * cells * 2],
            cell_dead: vec![NEVER; stages * cells],
            first_onset: NEVER,
            severing_onsets: Vec::new(),
        };
        for fault in &plan.faults {
            state.first_onset = state.first_onset.min(fault.onset);
            match fault.kind {
                FaultKind::DeadSwitch { stage, cell } => {
                    let idx = stage * cells + cell as usize;
                    state.cell_dead[idx] = state.cell_dead[idx].min(fault.onset);
                    state.severing_onsets.push(fault.onset);
                }
                FaultKind::DeadLink { stage, cell, port } => {
                    let idx = (stage * cells + cell as usize) * 2 + port as usize;
                    state.link_dead[idx] = state.link_dead[idx].min(fault.onset);
                    state.severing_onsets.push(fault.onset);
                }
                FaultKind::DegradedLink { stage, cell, port } => {
                    let idx = (stage * cells + cell as usize) * 2 + port as usize;
                    state.link_degraded[idx] = state.link_degraded[idx].min(fault.onset);
                }
            }
        }
        state.severing_onsets.sort_unstable();
        state.severing_onsets.dedup();
        state
    }

    #[inline]
    fn link_idx(&self, stage: usize, cell: usize, port: usize) -> usize {
        (stage * self.cells + cell) * 2 + port
    }

    /// The dead links and switches active at `cycle`, as a routing digest.
    fn digest_at(&self, stages: usize, cycle: u64) -> FaultDigest {
        let mut digest = FaultDigest::new(stages, self.cells);
        for s in 0..stages.saturating_sub(1) {
            for cell in 0..self.cells {
                for port in 0..2 {
                    if self.link_dead[self.link_idx(s, cell, port)] <= cycle {
                        digest.kill_link(s, cell as u32, port as u8);
                    }
                }
            }
        }
        for s in 0..stages {
            for cell in 0..self.cells {
                if self.cell_dead[s * self.cells + cell] <= cycle {
                    digest.kill_cell(s, cell as u32);
                }
            }
        }
        digest
    }
}

/// The per-cycle fault queries handed to the switching cores. With no fault
/// state attached (the empty plan) every query returns "healthy" without
/// touching memory, so the fault-free hot path is unchanged.
#[derive(Debug, Clone, Copy)]
pub struct FaultView<'a> {
    state: Option<&'a FaultState>,
    cycle: u64,
}

impl<'a> FaultView<'a> {
    /// A view with no faults (the empty plan).
    pub(crate) fn healthy(cycle: u64) -> Self {
        FaultView { state: None, cycle }
    }

    /// A view of `state` at `cycle`.
    pub(crate) fn at(state: &'a FaultState, cycle: u64) -> Self {
        FaultView {
            state: Some(state),
            cycle,
        }
    }

    /// Whether any fault (of any kind) is active this cycle.
    #[inline]
    pub fn any_active(&self) -> bool {
        self.state.is_some_and(|s| s.first_onset <= self.cycle)
    }

    /// Whether the switch at `(stage, cell)` is dead this cycle.
    #[inline]
    pub fn cell_dead(&self, stage: usize, cell: usize) -> bool {
        self.state
            .is_some_and(|s| s.cell_dead[stage * s.cells + cell] <= self.cycle)
    }

    /// Status of the link leaving `cell` through `port` of connection
    /// `stage` this cycle. Degraded links are usable on even cycles only.
    #[inline]
    pub fn link_status(&self, stage: usize, cell: usize, port: usize) -> LinkStatus {
        let Some(s) = self.state else {
            return LinkStatus::Up;
        };
        let idx = s.link_idx(stage, cell, port);
        if s.link_dead[idx] <= self.cycle {
            LinkStatus::Down
        } else if s.link_degraded[idx] <= self.cycle && self.cycle % 2 == 1 {
            LinkStatus::Throttled
        } else {
            LinkStatus::Up
        }
    }
}

/// The reroute table of one faulty epoch: the pair tags and severed count
/// computed from the fault digest active between two severing onsets.
#[derive(Debug, Clone)]
pub(crate) struct RerouteTable {
    cells: usize,
    /// `pair_tags[src*cells + dst]`: the routing tag of the chosen surviving
    /// path, or `None` when the pair is severed.
    pair_tags: Vec<Option<u32>>,
    /// Number of severed (unroutable) pairs in this epoch.
    severed_pairs: u64,
}

impl RerouteTable {
    /// Routing tag for `(src, dst)` under this epoch's faults; `None` when
    /// the pair is severed.
    #[inline]
    pub(crate) fn tag(&self, src: usize, dst: usize) -> Option<u32> {
        self.pair_tags[src * self.cells + dst]
    }
}

/// The engine-side fault machinery: the compiled [`FaultState`] plus one
/// reroute table per severing onset, computed lazily when a run first
/// crosses that onset and cached for the runtime's lifetime — a
/// replication rerun through [`FaultRuntime::rewind`] replays the onset
/// schedule while reusing every table the disjoint-path router already
/// produced. Before the first severing onset there is no table: nothing is
/// severed, so the fabric's own routing stays in charge.
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    pub(crate) state: FaultState,
    stages: usize,
    cells: usize,
    /// `tables[k]`: the epoch that begins at `state.severing_onsets[k]`.
    tables: Vec<Option<RerouteTable>>,
    /// Number of severing onsets crossed so far (0 while no dead link or
    /// switch is active).
    crossed: usize,
}

impl FaultRuntime {
    pub(crate) fn new(plan: &FaultPlan, stages: usize, cells: usize) -> Self {
        let state = FaultState::new(plan, stages, cells);
        let tables = vec![None; state.severing_onsets.len()];
        FaultRuntime {
            state,
            stages,
            cells,
            tables,
            crossed: 0,
        }
    }

    /// Crosses every severing onset up to `cycle`, computing the reroute
    /// table of the epoch entered if this is the first time any run has
    /// entered it. Cheap no-op when no severing onset was crossed.
    pub(crate) fn advance(&mut self, net: &ConnectionNetwork, cycle: u64) {
        let before = self.crossed;
        let onsets = &self.state.severing_onsets;
        while self.crossed < onsets.len() && onsets[self.crossed] <= cycle {
            self.crossed += 1;
        }
        if self.crossed == before || self.tables[self.crossed - 1].is_some() {
            return;
        }
        let digest = self.state.digest_at(self.stages, cycle);
        let mut pair_tags = vec![None; self.cells * self.cells];
        let mut severed_pairs = 0;
        // Per-destination batch: the routing layer shares the two
        // reachability tables across all sources of each destination.
        for dst in 0..self.cells as u64 {
            for (src, route) in route_all_to(net, dst, &digest).into_iter().enumerate() {
                match route {
                    FaultRoute::Routed(path) => {
                        pair_tags[src * self.cells + dst as usize] = Some(path_tag(&path));
                    }
                    FaultRoute::Unroutable => severed_pairs += 1,
                }
            }
        }
        self.tables[self.crossed - 1] = Some(RerouteTable {
            cells: self.cells,
            pair_tags,
            severed_pairs,
        });
    }

    /// The reroute table while a dead link or switch is active; `None`
    /// before the first severing onset, when the engines route by the
    /// fabric.
    #[inline]
    pub(crate) fn rerouting(&self) -> Option<&RerouteTable> {
        let epoch = self.crossed.checked_sub(1)?;
        let table = self.tables[epoch].as_ref();
        debug_assert!(table.is_some(), "advance fills the epoch it enters");
        table
    }

    /// Number of severed pairs in the current epoch.
    pub(crate) fn severed_pairs(&self) -> u64 {
        self.rerouting().map_or(0, |table| table.severed_pairs)
    }

    /// Rewinds to the pre-run state so the next [`FaultRuntime::advance`]
    /// replays the onset schedule from cycle 0 — reusing every cached
    /// reroute table instead of re-running the disjoint-path router.
    pub(crate) fn rewind(&mut self) {
        self.crossed = 0;
    }
}

#[cfg(test)]
impl FaultPlan {
    /// A seeded mixed plan of `count` faults: each is a dead link, a dead
    /// switch or a degraded link (equal weight) at a random site, with a
    /// random onset in `0..=max_onset`. Deterministic for a given seed.
    /// Test-only: the fault and switching-core tests draw their plans here.
    pub(crate) fn random_mixed(
        seed: u64,
        count: usize,
        stages: usize,
        cells: usize,
        max_onset: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let faults = (0..count)
            .map(|_| {
                let onset = rng.gen_range(0..=max_onset);
                let cell = rng.gen_range(0..cells as u32);
                let kind = match rng.gen_range(0..3u8) {
                    0 => FaultKind::DeadSwitch {
                        stage: rng.gen_range(0..stages),
                        cell,
                    },
                    1 => FaultKind::DeadLink {
                        stage: rng.gen_range(0..stages - 1),
                        cell,
                        port: rng.gen_range(0..2u8),
                    },
                    _ => FaultKind::DegradedLink {
                        stage: rng.gen_range(0..stages - 1),
                        cell,
                        port: rng.gen_range(0..2u8),
                    },
                };
                Fault { kind, onset }
            })
            .collect();
        FaultPlan { faults }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use min_networks::omega;

    #[test]
    fn plans_build_validate_and_label() {
        let plan = FaultPlan::none()
            .with_dead_link(1, 2, 1, 0)
            .with_dead_switch(2, 0, 40)
            .with_degraded_link(0, 3, 0, 10);
        assert!(!plan.is_empty());
        assert_eq!(plan.validate(4, 8), Ok(()));
        assert_eq!(plan.label(), "L1.2.1+S2.0@40+d0.3.0@10");
        assert_eq!(FaultPlan::none().label(), "none");
        let long = FaultPlan::random_links(1, 5, 4, 8);
        assert!(long.label().ends_with("+2 more"), "{}", long.label());
        assert!(!long.label().contains("++"), "{}", long.label());
    }

    #[test]
    fn out_of_range_sites_are_typed_errors() {
        assert_eq!(
            FaultPlan::none().with_dead_switch(4, 0, 0).validate(4, 8),
            Err(FaultError::StageOutOfRange {
                stage: 4,
                stages: 4
            })
        );
        assert_eq!(
            FaultPlan::none().with_dead_link(3, 0, 0, 0).validate(4, 8),
            Err(FaultError::LinkStageOutOfRange {
                stage: 3,
                connections: 3
            })
        );
        assert_eq!(
            FaultPlan::none().with_dead_link(0, 9, 0, 0).validate(4, 8),
            Err(FaultError::CellOutOfRange { cell: 9, cells: 8 })
        );
        assert_eq!(
            FaultPlan::none().with_dead_link(0, 0, 7, 0).validate(4, 8),
            Err(FaultError::PortOutOfRange { port: 7 })
        );
        assert_eq!(FaultPlan::none().validate(4, 8), Ok(()));
    }

    #[test]
    fn random_plans_are_deterministic_and_distinct_by_seed() {
        let a = FaultPlan::random_links(7, 3, 4, 8);
        let b = FaultPlan::random_links(7, 3, 4, 8);
        let c = FaultPlan::random_links(8, 3, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.faults.len(), 3);
        assert_eq!(a.validate(4, 8), Ok(()));
        // Sites are distinct.
        let sites: std::collections::HashSet<_> =
            a.faults.iter().map(|f| format!("{:?}", f.kind)).collect();
        assert_eq!(sites.len(), 3);
        // Mixed plans validate and respect the onset bound.
        let mixed = FaultPlan::random_mixed(5, 6, 4, 8, 100);
        assert_eq!(mixed.validate(4, 8), Ok(()));
        assert!(mixed.faults.iter().all(|f| f.onset <= 100));
        assert_eq!(mixed, FaultPlan::random_mixed(5, 6, 4, 8, 100));
    }

    #[test]
    fn views_respect_onsets_and_parity() {
        let plan = FaultPlan::none()
            .with_dead_link(0, 1, 0, 5)
            .with_degraded_link(1, 0, 1, 0);
        let state = FaultState::new(&plan, 4, 8);
        let before = FaultView::at(&state, 4);
        assert_eq!(before.link_status(0, 1, 0), LinkStatus::Up);
        assert!(before.any_active(), "the degraded link is active from 0");
        let after = FaultView::at(&state, 5);
        assert_eq!(after.link_status(0, 1, 0), LinkStatus::Down);
        // Degraded: throttled on odd cycles only.
        assert_eq!(
            FaultView::at(&state, 3).link_status(1, 0, 1),
            LinkStatus::Throttled
        );
        assert_eq!(
            FaultView::at(&state, 4).link_status(1, 0, 1),
            LinkStatus::Up
        );
        // Healthy view reports nothing.
        let healthy = FaultView::healthy(100);
        assert!(!healthy.any_active());
        assert_eq!(healthy.link_status(0, 1, 0), LinkStatus::Up);
        assert!(!healthy.cell_dead(0, 1));
    }

    /// Every pair's reroute tag in the current epoch, `src`-major.
    fn pair_tags(rt: &FaultRuntime, cells: usize) -> Vec<Option<u32>> {
        let table = rt.rerouting().expect("a severing fault is active");
        (0..cells)
            .flat_map(|s| (0..cells).map(move |d| table.tag(s, d)))
            .collect()
    }

    #[test]
    fn runtime_reroutes_at_epoch_boundaries() {
        let net = omega(4);
        let cells = net.cells_per_stage();
        let plan = FaultPlan::none().with_dead_link(1, 0, 1, 50);
        let mut rt = FaultRuntime::new(&plan, net.stages(), cells);
        rt.advance(&net, 0);
        assert_eq!(rt.severed_pairs(), 0);
        // Before the onset the fabric keeps routing: no table exists.
        assert!(rt.rerouting().is_none());
        assert!(rt.tables.iter().all(Option::is_none));
        // Crossing the onset severs exactly cells/2 pairs (one link of a
        // Banyan fabric always carries cells/2 pairs).
        rt.advance(&net, 50);
        assert_eq!(rt.severed_pairs(), cells as u64 / 2);
        let severed = pair_tags(&rt, cells).iter().filter(|t| t.is_none()).count() as u64;
        assert_eq!(severed, rt.severed_pairs());
    }

    #[test]
    fn rewind_replays_the_onset_schedule_from_cached_epochs() {
        let net = omega(4);
        let cells = net.cells_per_stage();
        let plan = FaultPlan::none().with_dead_link(1, 0, 1, 50);
        let mut rt = FaultRuntime::new(&plan, net.stages(), cells);
        rt.advance(&net, 0);
        rt.advance(&net, 50);
        let severed = rt.severed_pairs();
        assert_eq!(severed, cells as u64 / 2);
        let tags_after = pair_tags(&rt, cells);
        rt.rewind();
        assert_eq!(rt.severed_pairs(), 0, "pre-run state severs nothing");
        rt.advance(&net, 0);
        assert_eq!(rt.severed_pairs(), 0);
        assert!(rt.rerouting().is_none(), "no reroute before the onset");
        rt.advance(&net, 50);
        assert_eq!(rt.severed_pairs(), severed);
        assert_eq!(
            pair_tags(&rt, cells),
            tags_after,
            "cached epochs replay identically"
        );
    }

    #[test]
    fn dead_switches_sever_their_whole_row_and_column() {
        let net = omega(3);
        let cells = net.cells_per_stage();
        let plan = FaultPlan::none().with_dead_switch(0, 1, 0);
        let mut rt = FaultRuntime::new(&plan, net.stages(), cells);
        rt.advance(&net, 0);
        let table = rt.rerouting().expect("the switch is dead from cycle 0");
        for dst in 0..cells {
            assert!(table.tag(1, dst).is_none(), "dead source cell");
        }
        for dst in 0..cells {
            assert!(table.tag(0, dst).is_some(), "healthy source survives");
        }
        assert_eq!(rt.severed_pairs(), cells as u64);
    }
}
