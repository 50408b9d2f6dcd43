//! Word-packed simulation of up to 64 unbuffered lanes at once, and the
//! pieces all three word engines share: the bit-sliced
//! [`VerticalCounter`], the per-lane streams, traffic sources and
//! injection coins ([`LaneStreams`]) with the one lane-major injection loop
//! ([`LaneStreams::inject`]), and the metric read-out ([`LaneTally`]). The
//! FIFO and wormhole engines are `crate::fifo` and `crate::worm`.
//!
//! The [`LaneEngine`] packs words the way the GF(2) eliminator of
//! `min_labels::bitmat` does: instead of simulating replications one after
//! another, it packs one `(seed, offered load)` lane per bit of a `u64` and
//! runs the whole batch through a single cycle loop. A lane is one replication of the
//! scenario at its own load, so one word can carry a whole load curve's
//! replications. Queue occupancy, out-port requests, conflict and drop sets
//! all become bitwise operations over entire lane words, and per-lane event
//! counts (deliveries, arbitration losses, occupied slots) accumulate in
//! bit-sliced `VerticalCounter`s — carry-save adders over lane words — so
//! the hot phases never iterate over set bits. Only the genuinely per-lane
//! work — RNG draws and the rare fault-loss bookkeeping — walks individual
//! bits.
//!
//! # Why this is exact, not approximate
//!
//! Four structural facts of the unbuffered model make the packed engine
//! bit-identical to running [`crate::Simulator`] once per lane:
//!
//! * **Lockstep transit.** An unbuffered packet never waits: it is injected
//!   at stage 0 and crosses exactly one stage per cycle until it is
//!   delivered or dropped. Every lane therefore has the *same*
//!   queue-occupancy schedule shape — a packet delivered at cycle `c` was
//!   injected at `c - stages` with latency exactly `stages` — so per-slot
//!   injection times need not be stored at all, and the whole latency
//!   statistic (total, maximum, histogram) collapses to one measured
//!   delivery count per lane. The same argument removes the destination
//!   planes: destination-tag routing delivers to the tag's destination by
//!   construction, so the scalar engine's misroute audit is a constant
//!   zero, and the packed engine pins that equality through the
//!   scalar-oracle tests instead of re-auditing per packet.
//! * **Per-lane RNG streams.** Each lane owns its own ChaCha8 stream, and
//!   within one lane the engine draws in the same order as the scalar
//!   engine: switch coins in (stage descending, cell ascending) order, then
//!   injection draws in (cell ascending, terminal) order. Draws happen only
//!   for bits that would draw in the scalar engine (a coin only where that
//!   lane has a same-port conflict), so the streams stay aligned. ON/OFF
//!   traffic keeps per-terminal chains, so each lane also owns its
//!   [`TrafficSources`], and its offers go through the shared lane-major
//!   loop instead of the stateless patterns' cell-major one.
//! * **Per-lane injection thresholds.** The offered load enters the model
//!   only through the injection coin, one `next_u64` compared against a
//!   threshold. Each lane holds its own [`Bernoulli`] coin, built once from
//!   its load, which makes exactly the draw and the comparison the scalar
//!   engine's `gen_bool(load)` makes. Lanes at different loads therefore
//!   consume their streams identically to scalar runs at those loads, and
//!   nothing else in a word depends on the load.
//! * **Structural sharing.** The fabric tables and the fault schedule are
//!   lane-independent, so dead-cell and link-status checks apply uniformly
//!   to whole words, and one `FaultRuntime` (with its cached reroute
//!   epochs) serves the entire batch.
//!
//! Metric updates within a cycle are commutative (sums, max, histogram
//! increments), so per-bit accumulation order does not affect the result.
//!
//! The engine is crate-private: [`crate::batch::run_replications`] is its
//! one caller. The batch validates the config and every lane load, builds
//! the fabric, sampler and fault runtime once, and hands a word here only
//! when [`crate::batch::packed_eligible`] holds, or the traffic is ON/OFF
//! and the batch has at least [`ON_OFF_THRESHOLD`] lanes, and the fabric
//! routes by destination tag; the engine repeats none of those checks. The scalar
//! engine remains the reference oracle, and the oracle tests pin the two
//! paths byte-identical.

use crate::batch::LANE_MAX_STAGES;
use crate::config::{BufferMode, SimConfig};
use crate::fabric::{Fabric, Routing};
use crate::fault::{FaultRuntime, FaultView, LinkStatus};
use crate::metrics::Metrics;
use crate::switch::fair_coin;
use crate::traffic::{DestSampler, Offer, TrafficPattern, TrafficSources, UniformCell};
use rand::distributions::{Bernoulli, Distribution};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Lanes simulated per machine word.
pub const LANE_WIDTH: usize = 64;

/// Fewest lanes an unbuffered ON/OFF batch packs at. On Omega(5), 600
/// cycles, the packed engine ran 1.4× the scalar one at 8 lanes, 1.8× at
/// 16 and 2.6× at 64, so the bound is not set by speed: it stays above the
/// 8-lane grid points a per-point plan ships, which keep the scalar path
/// perfbench's traced pass times as `engine.unbuffered`, and matches the
/// FIFO and wormhole engines' bound.
pub(crate) const ON_OFF_THRESHOLD: usize = 16;

/// A bit-sliced counter: plane `i` holds bit `i` of every replication's
/// running count, so adding a replication-mask of simultaneous events is a
/// carry-save ripple over the planes — `O(log count)` word operations per
/// add, independent of how many replications the mask covers.
#[derive(Debug, Default)]
pub(crate) struct VerticalCounter {
    planes: Vec<u64>,
}

impl VerticalCounter {
    /// Adds one event for every replication whose bit is set in `mask`.
    #[inline]
    pub(crate) fn add(&mut self, mut mask: u64) {
        if mask == 0 {
            return;
        }
        for plane in self.planes.iter_mut() {
            let carry = *plane & mask;
            *plane ^= mask;
            mask = carry;
            if mask == 0 {
                return;
            }
        }
        self.planes.push(mask);
    }

    /// Takes one event back for every replication whose bit is set in
    /// `mask`; each such count must be nonzero.
    #[inline]
    pub(crate) fn remove(&mut self, mut mask: u64) {
        for plane in self.planes.iter_mut() {
            let borrow = !*plane & mask;
            *plane ^= mask;
            mask = borrow;
            if mask == 0 {
                return;
            }
        }
        debug_assert_eq!(mask, 0, "a count went negative");
    }

    /// Adds a bit-sliced count (plane `i` holding bit `i` of every
    /// replication's addend) to every replication's count: a ripple-carry
    /// add over the planes.
    pub(crate) fn add_sliced(&mut self, addend: &[u64]) {
        let mut carry = 0u64;
        for (i, &b) in addend.iter().enumerate() {
            if i == self.planes.len() {
                self.planes.push(0);
            }
            let a = self.planes[i];
            self.planes[i] = a ^ b ^ carry;
            carry = (a & b) | (carry & (a ^ b));
        }
        let mut i = addend.len();
        while carry != 0 {
            if i == self.planes.len() {
                self.planes.push(0);
            }
            let a = self.planes[i];
            self.planes[i] = a ^ carry;
            carry &= a;
            i += 1;
        }
    }

    /// The bit planes of every replication's count.
    pub(crate) fn planes(&self) -> &[u64] {
        &self.planes
    }

    /// The accumulated count for replication `r`.
    pub(crate) fn count(&self, r: usize) -> u64 {
        self.planes
            .iter()
            .enumerate()
            .map(|(i, plane)| ((plane >> r) & 1) << i)
            .sum()
    }
}

/// The per-lane randomness and traffic state of one word, built exactly
/// like the scalar engine's: one ChaCha8 stream per `(seed, load)` lane,
/// one [`TrafficSources`] per lane (ON/OFF chains carry per-terminal
/// state), and the injection coin each lane's sources flip at its load.
#[derive(Debug)]
pub(crate) struct LaneStreams {
    pub(crate) rngs: Vec<ChaCha8Rng>,
    pub(crate) sources: Vec<TrafficSources>,
    pub(crate) coins: Vec<Bernoulli>,
}

/// Where [`LaneStreams::inject`] puts a word engine's accepted packets.
pub(crate) trait Admit {
    /// How many packets lane `r`'s first-stage cell `cell` accepts this
    /// cycle; only 0, 1 and "2 or more" are told apart.
    fn room(&mut self, cell: usize, r: usize) -> u32;
    /// Takes lane `r`'s `j`-th accepted packet at `cell` this cycle,
    /// carrying routing tag `tag`.
    fn admit(&mut self, cell: usize, r: usize, j: u32, tag: u32);
}

impl LaneStreams {
    pub(crate) fn new(traffic: &TrafficPattern, cells: usize, lanes: &[(u64, f64)]) -> Self {
        let sources = TrafficSources::new(traffic, cells);
        let (rngs, coins) = lanes
            .iter()
            .map(|&(seed, load)| (ChaCha8Rng::seed_from_u64(seed), sources.coin(load)))
            .unzip();
        LaneStreams {
            rngs,
            sources: vec![sources; lanes.len()],
            coins,
        }
    }

    /// The injection phase of a word engine, one draw path for every
    /// pattern but trace replay: per lane, the exact scalar order over
    /// (cell ascending, terminal 0..2) — offer, count it, capacity test,
    /// destination draw and tag (`dest_tag`, `None` when the fault plan
    /// leaves the pair unroutable), then the hand-off to `admit`.
    /// Lane-major, so each lane's stream and sources stay hot through its
    /// offers.
    pub(crate) fn inject<A: Admit, F: FnMut(u32, &mut ChaCha8Rng) -> Option<u32>>(
        &mut self,
        cycle: u64,
        cells: usize,
        tally: &mut LaneTally,
        mut dest_tag: F,
        admit: &mut A,
    ) {
        let lanes = self.rngs.iter_mut().zip(&mut self.sources).zip(&self.coins);
        for (r, ((rng, source), coin)) in lanes.enumerate() {
            let (mut offered, mut injected, mut unroutable) = (0, 0, 0);
            for cell in 0..cells {
                let room = admit.room(cell, r);
                let mut accepted = 0;
                for terminal in 0..2 {
                    let offer = source.offer_with(cycle, cell as u32, terminal, coin, rng);
                    debug_assert!(!matches!(offer, Offer::PacketTo(_)), "no trace replay");
                    if offer == Offer::Idle {
                        continue;
                    }
                    offered += 1;
                    if accepted == room {
                        continue;
                    }
                    let Some(tag) = dest_tag(cell as u32, rng) else {
                        unroutable += 1;
                        continue;
                    };
                    admit.admit(cell, r, accepted, tag);
                    accepted += 1;
                }
                injected += u64::from(accepted);
            }
            tally.offered[r] += offered;
            tally.injected[r] += injected;
            tally.unroutable[r] += unroutable;
        }
    }
}

/// The per-lane counts every word engine keeps, and their read-out.
#[derive(Debug)]
pub(crate) struct LaneTally {
    /// Offered, injected and unroutable packets per lane, counted inside
    /// the (already per-lane) injection loop.
    pub(crate) offered: Vec<u64>,
    pub(crate) injected: Vec<u64>,
    pub(crate) unroutable: Vec<u64>,
    /// Delivered packets per lane.
    pub(crate) delivered: VerticalCounter,
    /// Per-lane metrics the per-bit paths (latencies, fault losses) write
    /// into directly.
    pub(crate) metrics: Vec<Metrics>,
}

impl LaneTally {
    pub(crate) fn new(lanes: usize) -> Self {
        LaneTally {
            offered: vec![0; lanes],
            injected: vec![0; lanes],
            unroutable: vec![0; lanes],
            delivered: VerticalCounter::default(),
            metrics: vec![Metrics::default(); lanes],
        }
    }

    /// The per-lane metrics after `cycles` cycles over `slots` storage
    /// units, with the counts every engine keeps filled in.
    pub(crate) fn read_out(self, cycles: u64, slots: u64) -> Vec<Metrics> {
        let mut metrics = self.metrics;
        for (r, m) in metrics.iter_mut().enumerate() {
            m.measured_cycles = cycles;
            m.offered = self.offered[r];
            m.injected = self.injected[r];
            m.unroutable_drops = self.unroutable[r];
            m.delivered = self.delivered.count(r);
            m.lane_slot_cycles = cycles * slots;
        }
        metrics
    }
}

/// Split mutable borrows of the engine state handed to the monomorphized
/// injection loop ([`InjectCtx::run`]).
struct InjectCtx<'a> {
    cells: usize,
    /// One injection coin per lane, at that lane's offered load.
    coins: &'a [Bernoulli],
    conn_bits: usize,
    occ: &'a mut [u64],
    tag: &'a mut [u64],
    rngs: &'a mut [ChaCha8Rng],
    offered: &'a mut [u64],
    injected: &'a mut [u64],
    unroutable: &'a mut [u64],
}

impl InjectCtx<'_> {
    /// Cell-major, lane-minor injection: each lane still draws in the
    /// scalar (cell ascending, terminal) order on its own stream, flipping
    /// its own precomputed injection coin, while one cell's two slot words
    /// and tag planes stay hot across all lanes instead of re-walking the
    /// whole stage-0 region once per lane. `dest_tag` resolves one accepted
    /// offer to its routing tag (`None` when the fault plan leaves the pair
    /// unroutable).
    fn run<F: FnMut(u32, &mut ChaCha8Rng) -> Option<u32>>(self, mut dest_tag: F) {
        let InjectCtx {
            cells,
            coins,
            conn_bits,
            occ,
            tag,
            rngs,
            offered,
            injected,
            unroutable,
        } = self;
        let mut new_offered = [0u64; LANE_WIDTH];
        let mut new_injected = [0u64; LANE_WIDTH];
        let mut new_unroutable = [0u64; LANE_WIDTH];
        for cell in 0..cells {
            let base = cell * 2;
            // One cell's two slots accumulate in stack-local planes across
            // all replications and flush to the arena once per cell, so the
            // per-packet deposit never round-trips through memory.
            let mut slot_occ = [0u64; 2];
            let mut slot_tags = [[0u64; LANE_MAX_STAGES]; 2];
            for (r, (rng, coin)) in rngs.iter_mut().zip(coins).enumerate() {
                let bit = 1u64 << r;
                for _terminal in 0..2 {
                    if !coin.sample(rng) {
                        continue;
                    }
                    new_offered[r] += 1;
                    let Some(packet_tag) = dest_tag(cell as u32, rng) else {
                        new_unroutable[r] += 1;
                        continue;
                    };
                    new_injected[r] += 1;
                    // Front slot first, back slot for this cycle's second
                    // packet — branchless off the front-slot occupancy bit.
                    let sel = ((slot_occ[0] >> r) & 1) as usize;
                    for (b, plane) in slot_tags[sel][..conn_bits].iter_mut().enumerate() {
                        *plane |= (u64::from(packet_tag >> b) & 1) << r;
                    }
                    slot_occ[sel] |= bit;
                }
            }
            // The switching pass drained stage 0, so the flush is a plain
            // store — including the zero planes, which replaces a wholesale
            // clear of the stage-0 tag region.
            occ[base] = slot_occ[0];
            occ[base + 1] = slot_occ[1];
            tag[base * conn_bits..(base + 1) * conn_bits]
                .copy_from_slice(&slot_tags[0][..conn_bits]);
            tag[(base + 1) * conn_bits..(base + 2) * conn_bits]
                .copy_from_slice(&slot_tags[1][..conn_bits]);
        }
        for r in 0..coins.len() {
            offered[r] += new_offered[r];
            injected[r] += new_injected[r];
            unroutable[r] += new_unroutable[r];
        }
    }
}

/// The unbuffered engine's stage-0 slots as [`LaneStreams::inject`]'s
/// target: the switching pass drained them, so a lane's `j`-th packet of a
/// cycle takes slot `j` of its cell, and its tag planes are written whole.
struct SlotAdmit<'a> {
    occ: &'a mut [u64],
    tag: &'a mut [u64],
    conn_bits: usize,
}

impl Admit for SlotAdmit<'_> {
    fn room(&mut self, _cell: usize, _r: usize) -> u32 {
        2
    }

    fn admit(&mut self, cell: usize, r: usize, j: u32, packet_tag: u32) {
        let slot = cell * 2 + j as usize;
        self.occ[slot] |= 1 << r;
        let planes = &mut self.tag[slot * self.conn_bits..(slot + 1) * self.conn_bits];
        for (b, plane) in planes.iter_mut().enumerate() {
            *plane = (*plane & !(1 << r)) | (u64::from(packet_tag >> b & 1) << r);
        }
    }
}

/// A word-packed engine running up to [`LANE_WIDTH`] independent unbuffered
/// lanes of one scenario in lockstep, each lane a `(seed, offered load)`
/// replication, over the fabric, sampler and fault runtime its batch built.
/// [`LaneEngine::run`] returns metrics bit-identical to running
/// [`crate::Simulator`] once per lane at that lane's seed and load.
#[derive(Debug)]
pub(crate) struct LaneEngine<'a> {
    fabric: &'a Fabric,
    config: &'a SimConfig,
    /// The fabric's destination-tag table.
    tags: &'a [u32],
    /// One independent ChaCha8 stream per lane, seeded exactly like the
    /// scalar engine, with the lane's traffic sources and injection coin.
    streams: LaneStreams,
    /// Offered, injected, unroutable and delivered counts, and the cold per-lane
    /// metrics the fault-loss counters and per-stage exposure vectors land
    /// in directly; everything else is folded in from the vertical
    /// counters when the run finishes.
    tally: LaneTally,
    faults: Option<&'a mut FaultRuntime>,
    cycle: u64,
    /// Active lanes (bits `0..lanes` of every word are meaningful).
    lanes: usize,
    stages: usize,
    cells: usize,
    /// Tag bits consulted while switching (`stages - 1` port choices).
    conn_bits: usize,
    /// Destination sampler of the traffic pattern, shared with the scalar
    /// engine's draw path so both stay bit-identical.
    sampler: &'a DestSampler,
    /// Queue occupancy, one word per slot: slot `(stage*cells + cell)*2 + q`
    /// holds position `q` (0 = front) of that cell's two-packet queue; bit
    /// `r` is set when replication `r` has a packet there.
    occ: Vec<u64>,
    /// Bit-planes of the queued routing tags: word `slot*conn_bits + b`
    /// holds bit `b` of every replication's tag in `slot`.
    tag: Vec<u64>,
    /// Downstream cell reached from `(stage, cell, port)`, precomputed so
    /// the switching pass never re-evaluates the connection permutations:
    /// entry `(stage * cells + cell) * 2 + port`.
    next: Vec<u32>,
    /// Per-replication occupancy-cycles already accounted for dropped
    /// packets (fault losses record `stage + 1` at drop time).
    occ_fault: Vec<u64>,
    /// Deliveries inside the measurement window (each with the constant
    /// latency `stages`).
    vc_measured: VerticalCounter,
    /// Deliveries while at least one fault was active.
    vc_despite: VerticalCounter,
    /// Arbitration losses per replication, split by the stage the packet
    /// was leaving — the split prices each loss's occupancy-cycles.
    vc_arb: Vec<VerticalCounter>,
}

impl<'a> LaneEngine<'a> {
    /// Builds a packed engine for `lanes.len()` `(seed, offered load)` lanes
    /// of one scenario, in output order, and rewinds the batch's fault
    /// runtime to cycle 0. The lanes' loads replace `config.offered_load`.
    ///
    /// The batch layer has checked everything: `config` is valid and
    /// [`crate::batch::packed_eligible`], the word holds `1..=LANE_WIDTH`
    /// lanes at loads in `[0, 1]`, the fabric routes by destination tag,
    /// and `sampler` and `faults` were prepared for this fabric and config.
    pub(crate) fn with_lanes(
        fabric: &'a Fabric,
        config: &'a SimConfig,
        sampler: &'a DestSampler,
        mut faults: Option<&'a mut FaultRuntime>,
        lanes: &[(u64, f64)],
    ) -> Self {
        debug_assert!(
            config.buffer_mode == BufferMode::Unbuffered
                && !config.traffic.is_trace()
                && (1..=LANE_WIDTH).contains(&lanes.len())
                && (2..=LANE_MAX_STAGES).contains(&fabric.stages())
                && lanes.iter().all(|&(_, load)| (0.0..=1.0).contains(&load)),
            "the batch layer packs only eligible words"
        );
        let Routing::Delta(table) = fabric.routing() else {
            unreachable!("the batch layer packs only delta fabrics");
        };
        let streams = LaneStreams::new(&config.traffic, fabric.cells(), lanes);
        if let Some(rt) = faults.as_deref_mut() {
            rt.rewind();
        }
        let stages = fabric.stages();
        let cells = fabric.cells();
        let conn_bits = stages - 1;
        let slots = stages * cells * 2;
        let mut next = Vec::with_capacity((stages - 1) * cells * 2);
        for stage in 0..stages - 1 {
            for cell in 0..cells {
                for port in 0..2u8 {
                    next.push(fabric.next_cell(stage, cell as u32, port));
                }
            }
        }
        LaneEngine {
            streams,
            tally: LaneTally::new(lanes.len()),
            faults,
            cycle: 0,
            lanes: lanes.len(),
            stages,
            cells,
            conn_bits,
            sampler,
            occ: vec![0; slots],
            tag: vec![0; slots * conn_bits],
            next,
            occ_fault: vec![0; lanes.len()],
            vc_measured: VerticalCounter::default(),
            vc_despite: VerticalCounter::default(),
            vc_arb: (0..stages - 1)
                .map(|_| VerticalCounter::default())
                .collect(),
            tags: &table.tag_of_destination,
            fabric,
            config,
        }
    }

    #[inline]
    fn base(&self, stage: usize, cell: usize) -> usize {
        (stage * self.cells + cell) * 2
    }

    /// Drops the replications in `mask` holding a packet in `slot`'s word as
    /// fault losses at `stage`. This is the one per-bit drop path — it only
    /// runs while a fault plan is active.
    fn fault_drop(&mut self, mut mask: u64, stage: usize) {
        while mask != 0 {
            let r = mask.trailing_zeros() as usize;
            self.tally.metrics[r].record_fault_loss(stage);
            // A packet removed at `stage` was counted by `stage + 1`
            // end-of-cycle occupancy snapshots (stages 0..=stage).
            self.occ_fault[r] += stage as u64 + 1;
            mask &= mask - 1;
        }
    }

    /// Phase 1 — drain the last stage. Every packet delivered this cycle
    /// was injected exactly `stages` cycles ago (lockstep transit), so the
    /// latency is the constant `stages`, the warm-up test reduces to a
    /// uniform cycle comparison, and the whole phase is three vertical-
    /// counter adds per occupied slot word.
    fn deliver(&mut self, faults: &FaultView<'_>) {
        let last = self.stages - 1;
        let degraded = faults.any_active();
        let measured = self.cycle >= self.config.warmup + self.stages as u64;
        for cell in 0..self.cells {
            let base = self.base(last, cell);
            if self.occ[base] | self.occ[base + 1] == 0 {
                continue;
            }
            if faults.cell_dead(last, cell) {
                self.fault_drop(self.occ[base], last);
                self.fault_drop(self.occ[base + 1], last);
                self.occ[base] = 0;
                self.occ[base + 1] = 0;
                continue;
            }
            for q in 0..2 {
                let m = self.occ[base + q];
                if m == 0 {
                    continue;
                }
                self.tally.delivered.add(m);
                if measured {
                    self.vc_measured.add(m);
                }
                if degraded {
                    self.vc_despite.add(m);
                }
                self.occ[base + q] = 0;
            }
        }
    }

    /// Moves the `moved` replications' packets (from the front/back slots of
    /// the upstream queue per `fwd_front`/`fwd_back`) into the downstream
    /// queue at `dst_base`, filling the front slot first like the scalar
    /// push order.
    ///
    /// Only tag planes `from_plane..` travel: plane `b` is consulted once,
    /// by the switching pass at stage `b`, so bits already spent on routing
    /// are dead weight — the copy shrinks every hop and the final hop into
    /// the delivery stage moves no tag bits at all.
    fn merge_into(
        &mut self,
        src_base: usize,
        dst_base: usize,
        from_plane: usize,
        fwd_front: u64,
        fwd_back: u64,
    ) {
        let moved = fwd_front | fwd_back;
        let first = moved & !self.occ[dst_base];
        let second = moved & self.occ[dst_base];
        // 2-in-regularity bounds arrivals at two per cell per cycle, and the
        // downstream queue was drained earlier this cycle, so the back slot
        // can never already be occupied when the front one is.
        debug_assert_eq!(second & self.occ[dst_base + 1], 0, "unbuffered overflow");
        // The destination stage is strictly downstream, so splitting at its
        // front row yields disjoint source and destination slices and the
        // plane loops below run without bounds checks.
        let cb = self.conn_bits;
        let (src_rows, dst_rows) = self.tag.split_at_mut(dst_base * cb);
        let src_front = &src_rows[src_base * cb + from_plane..(src_base + 1) * cb];
        let src_back = &src_rows[(src_base + 1) * cb + from_plane..(src_base + 2) * cb];
        let (dst_front, dst_back) = dst_rows[..2 * cb].split_at_mut(cb);
        if second == 0 {
            for ((&sf, &sb), df) in src_front
                .iter()
                .zip(src_back)
                .zip(&mut dst_front[from_plane..])
            {
                let src = (sf & fwd_front) | (sb & fwd_back);
                *df = (*df & !first) | (src & first);
            }
        } else {
            for (((&sf, &sb), df), db) in src_front
                .iter()
                .zip(src_back)
                .zip(&mut dst_front[from_plane..])
                .zip(&mut dst_back[from_plane..])
            {
                let src = (sf & fwd_front) | (sb & fwd_back);
                *df = (*df & !first) | (src & first);
                *db = (*db & !second) | (src & second);
            }
        }
        self.occ[dst_base] |= first;
        self.occ[dst_base + 1] |= second;
    }

    /// Phase 2 — one switching pass, next-to-last stage back to the first.
    fn switch(&mut self, faults: &FaultView<'_>) {
        for s in (0..self.stages - 1).rev() {
            for cell in 0..self.cells {
                let base = self.base(s, cell);
                let occ_front = self.occ[base];
                let occ_back = self.occ[base + 1];
                // Queues fill front-first, so a back-only occupancy cannot
                // occur; an empty cell draws no coins (scalar parity).
                debug_assert_eq!(occ_back & !occ_front, 0);
                if occ_front == 0 {
                    continue;
                }
                if faults.cell_dead(s, cell) {
                    self.fault_drop(occ_front, s);
                    self.fault_drop(occ_back, s);
                    self.occ[base] = 0;
                    self.occ[base + 1] = 0;
                    continue;
                }
                let p_front = self.tag[base * self.conn_bits + s];
                let p_back = self.tag[(base + 1) * self.conn_bits + s];
                // Same-port conflicts draw one fair coin per replication —
                // before any link check, exactly like the scalar engine.
                let conflict = occ_front & occ_back & !(p_front ^ p_back);
                let mut swap = 0u64;
                let mut w = conflict;
                while w != 0 {
                    let r = w.trailing_zeros() as usize;
                    if fair_coin(&mut self.streams.rngs[r]) {
                        swap |= 1 << r;
                    }
                    w &= w - 1;
                }
                self.occ[base] = 0;
                self.occ[base + 1] = 0;
                for port in 0..2 {
                    let want = if port == 1 { p_front } else { !p_front };
                    let req_front = occ_front & want;
                    let want = if port == 1 { p_back } else { !p_back };
                    let req_back = occ_back & want;
                    if req_front | req_back == 0 {
                        continue;
                    }
                    // The next-cell table shares the `(stage*cells+cell)*2`
                    // indexing of the slot words.
                    let next = self.next[base + port] as usize;
                    // A dead link, a throttled link (nowhere to hold the
                    // packet in an unbuffered cell) and a dead downstream
                    // switch all cost the same: a fault loss at this stage,
                    // with no port grant — so the conflict partner is lost
                    // the same way, never as an arbitration drop.
                    let killed = faults.link_status(s, cell, port) != LinkStatus::Up
                        || faults.cell_dead(s + 1, next);
                    if killed {
                        self.fault_drop(req_front, s);
                        self.fault_drop(req_back, s);
                        continue;
                    }
                    let conf = conflict & req_front;
                    debug_assert_eq!(conf, req_front & req_back);
                    let fwd_front = req_front & !(conf & swap);
                    let fwd_back = req_back & !(conf & !swap);
                    // Exactly one of the two conflict partners loses.
                    self.vc_arb[s].add(conf);
                    self.merge_into(base, self.base(s + 1, next), s + 1, fwd_front, fwd_back);
                }
            }
        }
    }

    /// Phase 3 — injection: per lane, the exact scalar draw order over
    /// (cell ascending, terminal 0..2).
    ///
    /// The switching pass always drains stage 0 (an unbuffered packet moves
    /// or drops every cycle), so injection starts from empty source queues:
    /// the scalar engine's full-queue refusal can never fire here, the two
    /// terminals fill the front then the back slot, and each cell's slot
    /// words and tag planes are rebuilt from scratch (so the flush
    /// overwrites last cycle's stage-0 state with no separate clearing
    /// pass). The destination-to-tag resolution is monomorphized per
    /// traffic pattern and fault state, and while no dead link or switch is
    /// active it indexes the fabric's tag table directly, so the per-packet
    /// path carries no dispatch.
    ///
    /// ON/OFF chains keep per-terminal state in each lane's sources, so
    /// they take the word engines' shared lane-major loop
    /// ([`LaneStreams::inject`]) instead, writing each accepted packet
    /// straight into its stage-0 slot.
    fn inject(&mut self, faults: Option<&FaultRuntime>) {
        debug_assert!(self.occ[..self.cells * 2].iter().all(|&w| w == 0));
        let tags = self.tags;
        let sampler = self.sampler;
        let reroute = faults.and_then(FaultRuntime::rerouting);
        if self.config.traffic.is_stateful() {
            let mut slots = SlotAdmit {
                occ: &mut self.occ,
                tag: &mut self.tag,
                conn_bits: self.conn_bits,
            };
            let dest_tag = |cell, rng: &mut ChaCha8Rng| {
                let destination = sampler.draw(cell, rng);
                match reroute {
                    Some(table) => table.tag(cell as usize, destination as usize),
                    None => Some(tags[destination as usize]),
                }
            };
            let (cycle, cells) = (self.cycle, self.cells);
            self.streams
                .inject(cycle, cells, &mut self.tally, dest_tag, &mut slots);
            return;
        }
        let ctx = InjectCtx {
            cells: self.cells,
            coins: &self.streams.coins,
            conn_bits: self.conn_bits,
            occ: &mut self.occ,
            tag: &mut self.tag,
            rngs: &mut self.streams.rngs,
            offered: &mut self.tally.offered,
            injected: &mut self.tally.injected,
            unroutable: &mut self.tally.unroutable,
        };
        match (&self.config.traffic, reroute) {
            (TrafficPattern::Uniform, None) => {
                let uniform = UniformCell::new(self.cells as u32);
                ctx.run(|_cell, rng| Some(tags[uniform.draw(rng) as usize]))
            }
            (_, None) => ctx.run(|cell, rng| Some(tags[sampler.draw(cell, rng) as usize])),
            (_, Some(table)) => ctx.run(|cell, rng| {
                let destination = sampler.draw(cell, rng);
                table.tag(cell as usize, destination as usize)
            }),
        }
    }

    /// Runs one cycle for every replication.
    fn step(&mut self) {
        // Phase 0: cross any fault-onset boundary (shared by every
        // replication — the schedule is seed-independent).
        let mut rt = self.faults.take();
        if let Some(rt) = rt.as_deref_mut() {
            rt.advance(self.fabric.network(), self.cycle);
        }
        let view = match rt.as_deref() {
            Some(rt) => FaultView::at(&rt.state, self.cycle),
            None => FaultView::healthy(self.cycle),
        };

        self.deliver(&view);
        self.switch(&view);
        self.inject(rt.as_deref());
        self.faults = rt;

        self.cycle += 1;
    }

    /// Runs the configured cycle budget and returns one [`Metrics`] per
    /// lane, in the order the lanes were given: the vertical counters are
    /// materialized into per-lane [`Metrics`], with the latency
    /// statistics reconstructed from the constant unbuffered latency.
    pub(crate) fn run(mut self) -> Vec<Metrics> {
        for _ in 0..self.config.cycles {
            self.step();
        }
        // Occupancy-cycles in closed form instead of a per-cycle scan over
        // every slot word: a packet removed while leaving stage `s` was
        // present at exactly `s + 1` end-of-cycle snapshots (stages 0..=s),
        // a delivered packet at `stages` of them, and a packet still in
        // flight at stage `k` at `k + 1`. Fault losses priced theirs at
        // drop time ([`Self::fault_drop`]); the still-in-flight tail is one
        // final sweep here.
        let mut occ_end = vec![0u64; self.lanes];
        for (slot, &word) in self.occ.iter().enumerate() {
            let mut w = word;
            if w == 0 {
                continue;
            }
            let weight = (slot / (self.cells * 2) + 1) as u64;
            while w != 0 {
                occ_end[w.trailing_zeros() as usize] += weight;
                w &= w - 1;
            }
        }
        let slots = (self.stages * self.cells * 2) as u64;
        let latency = self.stages as u64;
        let mut out = self.tally.read_out(self.cycle, slots);
        for (r, metrics) in out.iter_mut().enumerate() {
            metrics.delivered_despite_fault = self.vc_despite.count(r);
            let mut arb = 0u64;
            let mut arb_occupancy = 0u64;
            for (s, vc) in self.vc_arb.iter().enumerate() {
                let losses = vc.count(r);
                arb += losses;
                arb_occupancy += losses * (s as u64 + 1);
            }
            metrics.dropped_arbitration = arb;
            let measured = self.vc_measured.count(r);
            metrics.total_latency = measured * latency;
            if measured > 0 {
                metrics.max_latency = latency;
                metrics.latency_histogram = vec![0; latency as usize + 1];
                metrics.latency_histogram[latency as usize] = measured;
            }
            metrics.lane_occupancy_sum =
                metrics.delivered * latency + arb_occupancy + self.occ_fault[r] + occ_end[r];
            // Conservation (no backpressure in the unbuffered model): what
            // was injected but neither delivered nor dropped is in flight.
            metrics.in_flight_at_end = metrics.injected
                - metrics.delivered
                - metrics.dropped_arbitration
                - metrics.dropped_fault;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{prepare, Simulator};
    use crate::fault::FaultPlan;
    use crate::traffic::TrafficPattern;
    use min_core::ConnectionNetwork;
    use min_networks::{baseline, omega, ClassicalNetwork};
    use proptest::prelude::*;

    fn scalar(net: &ConnectionNetwork, config: &SimConfig, seed: u64) -> Metrics {
        Simulator::new(net.clone(), config.clone().with_seed(seed))
            .unwrap()
            .run()
    }

    /// One word of `(seed, load)` lanes straight through the engine, set up
    /// the way the batch layer sets it up.
    fn packed_lanes(
        net: &ConnectionNetwork,
        config: &SimConfig,
        lanes: &[(u64, f64)],
    ) -> Vec<Metrics> {
        let fabric = Fabric::for_traffic(net.clone(), &config.traffic).unwrap();
        let (sampler, mut faults) = prepare(&fabric, config).unwrap();
        LaneEngine::with_lanes(&fabric, config, &sampler, faults.as_mut(), lanes).run()
    }

    /// One word of seeds at the configured load.
    fn packed(net: &ConnectionNetwork, config: &SimConfig, seeds: &[u64]) -> Vec<Metrics> {
        let lanes: Vec<(u64, f64)> = seeds.iter().map(|&s| (s, config.offered_load)).collect();
        packed_lanes(net, config, &lanes)
    }

    #[test]
    fn packed_matches_scalar_across_loads_and_widths() {
        let seeds: Vec<u64> = (1..=7u64)
            .map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for n in [3usize, 5] {
            for load in [0.15, 0.6, 1.0] {
                let net = omega(n);
                let config = SimConfig::default().with_cycles(300, 30).with_load(load);
                let packed = packed(&net, &config, &seeds);
                for (i, &seed) in seeds.iter().enumerate() {
                    assert_eq!(
                        packed[i],
                        scalar(&net, &config, seed),
                        "n={n} load={load} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_matches_scalar_under_all_traffic_patterns() {
        let seeds = [3u64, 99, 0xDEAD_BEEF];
        let net = baseline(4);
        let cells = net.cells_per_stage() as u32;
        let patterns = [
            TrafficPattern::Uniform,
            TrafficPattern::Hotspot {
                fraction: 0.4,
                target: 2,
            },
            TrafficPattern::Permutation((0..cells).rev().collect()),
            TrafficPattern::BitReversal,
            TrafficPattern::Zipf { exponent: 1.1 },
            TrafficPattern::OnOff {
                on_dwell: 12.0,
                off_dwell: 5.0,
                on_rate: 0.9,
            },
        ];
        for pattern in patterns {
            let config = SimConfig::default()
                .with_cycles(250, 25)
                .with_load(0.8)
                .with_traffic(pattern.clone());
            let packed = packed(&net, &config, &seeds);
            for (i, &seed) in seeds.iter().enumerate() {
                assert_eq!(
                    packed[i],
                    scalar(&net, &config, seed),
                    "pattern {pattern:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn packed_matches_scalar_under_fault_plans() {
        let seeds = [11u64, 12, 13, 14];
        let net = omega(4);
        let plans = [
            FaultPlan::none().with_dead_link(1, 0, 1, 0),
            FaultPlan::none()
                .with_dead_switch(1, 1, 120)
                .with_degraded_link(0, 0, 0, 0),
            FaultPlan::none()
                .with_dead_link(0, 2, 1, 10_000)
                .with_dead_switch(2, 0, 10_000),
        ];
        for plan in plans {
            let config = SimConfig::default()
                .with_cycles(300, 30)
                .with_load(0.9)
                .with_faults(plan.clone());
            let packed = packed(&net, &config, &seeds);
            for (i, &seed) in seeds.iter().enumerate() {
                assert_eq!(
                    packed[i],
                    scalar(&net, &config, seed),
                    "plan {} seed {seed}",
                    plan.label()
                );
            }
        }
    }

    #[test]
    fn a_full_word_of_replications_matches_scalar() {
        let seeds: Vec<u64> = (0..LANE_WIDTH as u64)
            .map(|k| k.wrapping_mul(0xA5A5) ^ 7)
            .collect();
        let net = omega(3);
        let config = SimConfig::default().with_cycles(150, 15).with_load(0.7);
        let packed = packed(&net, &config, &seeds);
        assert_eq!(packed.len(), LANE_WIDTH);
        for (i, &seed) in seeds.iter().enumerate() {
            assert_eq!(packed[i], scalar(&net, &config, seed), "seed {seed}");
        }
    }

    #[test]
    fn packed_metrics_conserve_packets() {
        let seeds = [5u64, 6, 7, 8, 9];
        let config = SimConfig::default().with_cycles(200, 20).with_load(1.0);
        for m in packed(&omega(5), &config, &seeds) {
            assert_eq!(
                m.injected,
                m.delivered + m.dropped() + m.in_flight_at_end,
                "conservation"
            );
            assert_eq!(m.misrouted, 0);
        }
    }

    /// Fault-free, dormant (onset beyond the cycle budget) or active plans,
    /// valid on every 3-stage-or-deeper catalog cell.
    fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
        (0usize..4).prop_map(|kind| match kind {
            0 => FaultPlan::none(),
            1 => FaultPlan::none().with_dead_switch(1, 0, 170),
            2 => FaultPlan::none().with_dead_link(1, 0, 1, 0),
            _ => FaultPlan::none()
                .with_dead_link(0, 1, 0, 40)
                .with_degraded_link(1, 1, 1, 0),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// One word of 1..=64 lanes at mixed loads — exactly 0 and 1 among
        /// them, and word sizes below the batch layer's packing threshold
        /// too — returns, lane by lane, the metrics of a fresh scalar
        /// simulator at that lane's seed and load.
        #[test]
        fn mixed_load_words_match_fresh_scalar_simulators(
            family_index in 0usize..ClassicalNetwork::ALL.len(),
            stages in 3usize..=5,
            count in 1usize..=LANE_WIDTH,
            draws in proptest::collection::vec((0usize..4, 0.0f64..=1.0), LANE_WIDTH),
            hotspot in 0.1f64..0.9,
            traffic_kind in 0usize..5,
            plan in plan_strategy(),
            seed in any::<u64>(),
        ) {
            let family = ClassicalNetwork::ALL[family_index];
            let traffic = match traffic_kind {
                0 => TrafficPattern::Uniform,
                1 => TrafficPattern::BitReversal,
                2 => TrafficPattern::Hotspot { fraction: hotspot, target: 1 },
                3 => TrafficPattern::Zipf { exponent: 2.0 * hotspot },
                _ => TrafficPattern::OnOff {
                    on_dwell: 1.0 + 20.0 * hotspot,
                    off_dwell: 1.0 + 10.0 * (1.0 - hotspot),
                    on_rate: hotspot,
                },
            };
            let config = SimConfig::default()
                .with_traffic(traffic)
                .with_faults(plan)
                .with_cycles(120, 12);
            let mut lanes: Vec<(u64, f64)> = draws[..count]
                .iter()
                .enumerate()
                .map(|(i, &(kind, load))| {
                    let load = match kind {
                        0 => 0.0,
                        1 => 1.0,
                        _ => load,
                    };
                    (seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15), load)
                })
                .collect();
            lanes[0].1 = 0.0;
            lanes[count - 1].1 = 1.0;
            let net = family.build(stages);
            let packed = packed_lanes(&net, &config, &lanes);
            prop_assert_eq!(packed.len(), count);
            for (metrics, &(seed, load)) in packed.iter().zip(&lanes) {
                let config = config.clone().with_load(load);
                prop_assert_eq!(metrics, &scalar(&net, &config, seed));
            }
        }
    }
}
