//! Word-packed simulation of up to 64 unbuffered lanes at once, and the
//! pieces all three word engines share: the bit-sliced
//! [`VerticalCounter`], the per-lane keystreams ([`LaneRng`]), injection
//! coins and lane-packed ON/OFF chains ([`LaneStreams`]) with the one
//! cell-major injection loop ([`LaneStreams::inject_cell`]), and the metric
//! read-out ([`LaneTally`]). The FIFO and wormhole engines are
//! `crate::fifo` and `crate::worm`.
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
//! * **Per-lane RNG streams.** Each lane owns its own ChaCha8 stream (a
//!   [`LaneRng`]: the block core and its results buffer), and within one
//!   lane the engine reads the same words in the same order as the scalar
//!   engine: switch coins in (stage descending, cell ascending) order, then
//!   injection draws in (cell ascending, terminal) order. Draws happen only
//!   for bits that would draw in the scalar engine (a coin only where that
//!   lane has a same-port conflict), so the streams stay aligned. A word's
//!   lanes come as contiguous traffic groups ([`LaneGroup`]), and the
//!   injection walks cells, each group's lanes running the group's own
//!   draw: uniform, table, Zipf and ON/OFF groups decide a cell's two
//!   terminals on peeked words and then take exactly the words the scalar
//!   draws read ([`CellDraw::one_word`], [`CellDraw::on_off`]), all but
//!   Zipf without a branch (a Zipf destination is searched only for an
//!   accepted packet); hot-spot traffic, fault reroutes and the few cells
//!   that straddle a buffer end draw word by word in the scalar order
//!   instead ([`CellDraw::general`]), reading a destination only for an
//!   accepted packet. ON/OFF chain state is one lane-packed word per
//!   terminal.
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
//! The engine is crate-private: [`crate::batch::run_bundle`] is its one
//! caller. The batch validates the config and every lane load, builds the
//! fabric, each traffic's sampler and the fault runtime once, and hands a
//! word here only when every curve of the batch packs
//! ([`crate::batch::packed_eligible`] for stateless traffic, at least
//! [`ON_OFF_THRESHOLD`] lanes for ON/OFF) and the fabric routes by
//! destination tag; the engine repeats none of those checks. The scalar
//! engine remains the reference oracle, and the oracle tests pin the two
//! paths byte-identical.

use crate::batch::LANE_MAX_STAGES;
use crate::config::{BufferMode, SimConfig};
use crate::fabric::{Fabric, Routing};
use crate::fault::{FaultRuntime, FaultView, LinkStatus, RerouteTable};
use crate::metrics::Metrics;
use crate::switch::fair_coin;
use crate::traffic::{DestSampler, TrafficPattern, TrafficSources, UniformCell};
use rand::distributions::{Bernoulli, Distribution};
use rand::{RngCore, SeedableRng};
use rand_chacha::rand_core::block::BlockRngCore;
use rand_chacha::ChaCha8Core;

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

/// One lane's ChaCha8 stream, read straight out of its block buffer: the
/// words of `ChaCha8Rng::seed_from_u64(seed)`, in order, whether they are
/// drawn through [`RngCore`] or looked at up to [`PEEK_WORDS`] at a time
/// with [`LaneRng::peek`] and then consumed by count with [`LaneRng::take`].
#[derive(Clone, Debug)]
pub(crate) struct LaneRng {
    core: ChaCha8Core,
    results: <ChaCha8Core as BlockRngCore>::Results,
    /// Next unread word of `results`; its length means exhausted.
    index: usize,
}

/// The most keystream words one cell's two terminals read on a branch-free
/// injection path: per terminal an ON/OFF exit coin, the injection coin and
/// a one-word destination.
const PEEK_WORDS: usize = 12;

impl LaneRng {
    fn len(&self) -> usize {
        self.results.as_ref().len()
    }

    fn refill(&mut self) {
        self.core.generate(&mut self.results);
        self.index = 0;
    }

    /// The next `N` words (at most [`PEEK_WORDS`]), unconsumed, or `None`
    /// when fewer than that remain before the buffer ends (the caller then
    /// draws through [`RngCore`], which refills across the end). An
    /// exhausted buffer is refilled first, which skips no word.
    #[inline]
    pub(crate) fn peek<const N: usize>(&mut self) -> Option<[u32; N]> {
        debug_assert!(N <= PEEK_WORDS);
        if self.index == self.len() {
            self.refill();
        }
        let window = self.results.as_ref().get(self.index..self.index + N)?;
        window.try_into().ok()
    }

    /// Consumes the first `words` words of the last [`LaneRng::peek`].
    #[inline]
    pub(crate) fn take(&mut self, words: usize) {
        debug_assert!(words <= PEEK_WORDS && self.index + words <= self.len());
        self.index += words;
    }
}

impl SeedableRng for LaneRng {
    type Seed = <ChaCha8Core as SeedableRng>::Seed;

    fn from_seed(seed: Self::Seed) -> Self {
        let results = <ChaCha8Core as BlockRngCore>::Results::default();
        LaneRng {
            core: ChaCha8Core::from_seed(seed),
            index: results.as_ref().len(),
            results,
        }
    }
}

impl RngCore for LaneRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= self.len() {
            self.refill();
        }
        let word = self.results.as_ref()[self.index];
        self.index += 1;
        word
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        if let Some(&[lo, hi]) = self.results.as_ref().get(self.index..self.index + 2) {
            self.index += 2;
            return u64::from(hi) << 32 | u64::from(lo);
        }
        let lo = u64::from(self.next_u32());
        u64::from(self.next_u32()) << 32 | lo
    }
}

/// One peeked `u64`, handed as a generator to a draw that reads exactly
/// one word — an injection or exit coin, or a power-of-two uniform
/// destination — so the draw runs its own code on a word not yet taken.
/// Which draws read one word is [`DestSampler::fixed_words`]'s to say; the
/// oracle tests pin the word count against the scalar stream.
struct OneWord(u64);

impl RngCore for OneWord {
    fn next_u32(&mut self) -> u32 {
        unreachable!("one-word draws read whole u64 words")
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// The `X = N / 2` `u64` draws of an `N`-word peek, in draw order.
#[inline(always)]
fn words<const N: usize, const X: usize>(peek: [u32; N]) -> [u64; X] {
    std::array::from_fn(|i| u64::from(peek[2 * i + 1]) << 32 | u64::from(peek[2 * i]))
}

/// One traffic pattern's lanes of a word: the pattern, the destination
/// sampler the batch prepared for it, and its `(seed, offered load)`
/// lanes. A word's groups are contiguous runs of its lanes, in lane order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LaneGroup<'a> {
    pub(crate) traffic: &'a TrafficPattern,
    pub(crate) sampler: &'a DestSampler,
    pub(crate) lanes: &'a [(u64, f64)],
}

/// How a group decides a cell's two terminals while no reroute is active,
/// chosen once per word.
#[derive(Clone, Copy, Debug)]
enum Fast {
    /// Stateless or ON/OFF offers to a power-of-two uniform destination,
    /// decided branch-free on peeked words ([`CellDraw::one_word`],
    /// [`CellDraw::on_off`]).
    Uniform,
    /// Stateless offers to a destination that reads no word (a table),
    /// decided the same way.
    Table,
    /// Stateless offers to a Zipf destination, decided on peeked words,
    /// the destination searched only for an accepted packet.
    Zipf,
    /// The scalar order, a destination drawn only for an accepted packet
    /// ([`CellDraw::general`]): hot-spot traffic, whose draw reads a
    /// varying number of words.
    General,
}

/// One group of a word, as [`LaneStreams`] runs it.
#[derive(Clone, Copy, Debug)]
struct Group<'a> {
    /// The group's lanes, `start..end`.
    start: usize,
    end: usize,
    sampler: &'a DestSampler,
    /// An ON/OFF group's exit coins, `[leave OFF, leave ON]`.
    exits: Option<[Bernoulli; 2]>,
    fast: Fast,
}

/// What one cell's injection leaves for a word engine to store: per slot
/// (0 for a lane's first accepted packet of the cycle, 1 for its second),
/// the lanes that put a packet there and the bytes of their routing tags.
/// It also sums each lane's counts over a whole injection pass, which
/// [`Landing::count_into`] adds to the engine's tally once per pass.
#[derive(Debug)]
pub(crate) struct Landing {
    pub(crate) occupied: [u64; 2],
    /// `bytes[q][h][r]`: byte `h` of lane `r`'s tag in slot `q`. Each lane
    /// rewrites its entries at every cell; [`Landing::planes`] masks the
    /// stale ones.
    bytes: [[[u8; LANE_WIDTH]; 2]; 2],
    /// Offered, injected and unroutable packets per lane over the pass.
    counts: [[u32; LANE_WIDTH]; 3],
}

impl Landing {
    pub(crate) fn new() -> Self {
        Landing {
            occupied: [0; 2],
            bytes: [[[0; LANE_WIDTH]; 2]; 2],
            counts: [[0; LANE_WIDTH]; 3],
        }
    }

    /// Adds the pass's per-lane counts to `tally`.
    pub(crate) fn count_into(&self, tally: &mut LaneTally) {
        let totals = [
            &mut tally.offered,
            &mut tally.injected,
            &mut tally.unroutable,
        ];
        for (total, counts) in totals.into_iter().zip(&self.counts) {
            for (t, &c) in total.iter_mut().zip(counts) {
                *t += u64::from(c);
            }
        }
    }

    /// Writes slot `q`'s tag planes: plane `b` holds bit `b` of every
    /// occupying lane's tag, and 0 for every other lane.
    #[inline]
    pub(crate) fn planes(&self, q: usize, planes: &mut [u64]) {
        write_planes(&self.bytes[q], self.occupied[q], planes);
    }
}

/// The per-lane randomness and traffic state of one word, built exactly
/// like the scalar engine's: one ChaCha8 stream per `(seed, load)` lane,
/// the injection coin each lane's sources flip at its load, and the ON/OFF
/// chains of every terminal, lane-packed.
#[derive(Debug)]
pub(crate) struct LaneStreams<'a> {
    pub(crate) rngs: Vec<LaneRng>,
    coins: Vec<Bernoulli>,
    groups: Vec<Group<'a>>,
    /// ON/OFF chain state, word `2 · cell + terminal`: bit `r` is set
    /// while lane `r`'s source there is ON (every source starts ON). Bits
    /// of lanes outside an ON/OFF group are never read.
    on: Vec<u64>,
    /// The uniform destination draw over the fabric's cells.
    uniform: UniformCell,
    /// The fabric's destination-tag table.
    tags: &'a [u32],
}

impl<'a> LaneStreams<'a> {
    /// The streams of a word of `groups` (at most [`LANE_WIDTH`] lanes in
    /// all, no trace replay) on a fabric of `cells` cells per stage with
    /// destination-tag table `tags`.
    pub(crate) fn new(groups: &[LaneGroup<'a>], tags: &'a [u32], cells: usize) -> Self {
        let (mut rngs, mut coins) = (Vec::new(), Vec::new());
        let groups: Vec<Group> = groups
            .iter()
            .map(|group| {
                debug_assert!(!group.traffic.is_trace(), "no trace replay");
                let sources = TrafficSources::new(group.traffic, cells);
                let start = rngs.len();
                for &(seed, load) in group.lanes {
                    rngs.push(LaneRng::seed_from_u64(seed));
                    coins.push(sources.coin(load));
                }
                let exits = sources.exit_coins();
                // An ON/OFF burst's destination is uniform.
                let uniform = matches!(group.traffic, TrafficPattern::Uniform) || exits.is_some();
                let fast = match (exits, group.sampler.fixed_words()) {
                    (None, Some(0)) => Fast::Table,
                    (_, Some(1)) if uniform => Fast::Uniform,
                    (None, Some(1)) => Fast::Zipf,
                    _ => Fast::General,
                };
                Group {
                    start,
                    end: rngs.len(),
                    sampler: group.sampler,
                    exits,
                    fast,
                }
            })
            .collect();
        debug_assert!(rngs.len() <= LANE_WIDTH);
        LaneStreams {
            rngs,
            coins,
            on: vec![!0; 2 * cells],
            groups,
            uniform: UniformCell::new(cells as u32),
            tags,
        }
    }

    /// Injection at first-stage cell `cell`, the one draw path of every
    /// word engine: each lane, on its own stream and in the scalar order
    /// over the cell's two terminals, makes the offer (stepping its ON/OFF
    /// chain first), counts it, tests its room — `room[0]` holds the lanes
    /// whose cell takes a first packet this cycle, `room[1]` those that
    /// take a second — and draws the accepted packet's destination and tag
    /// (from `reroute` while a fault is active, `None` there refusing an
    /// unroutable pair). The counts and the accepted packets land in
    /// `landing`.
    ///
    /// Each group runs its own monomorphized lane loop. With no reroute,
    /// uniform, table, Zipf and ON/OFF groups decide both terminals on
    /// peeked words, Zipf searching a destination only for an accepted
    /// packet; hot-spot and rerouted draws take the scalar order, reading a
    /// destination only for an accepted packet.
    #[inline]
    pub(crate) fn inject_cell(
        &mut self,
        cell: usize,
        room: [u64; 2],
        reroute: Option<&RerouteTable>,
        landing: &mut Landing,
    ) {
        landing.occupied = [0; 2];
        let (tags, uniform, c) = (self.tags, self.uniform, cell as u32);
        for group in &self.groups {
            let lanes = GroupCell {
                rngs: &mut self.rngs,
                coins: &self.coins,
                start: group.start,
                end: group.end,
                room,
                landing: &mut *landing,
            };
            let (zero, one) = self.on[2 * cell..2 * cell + 2].split_at_mut(1);
            let (sampler, exits) = (group.sampler, group.exits);
            let chains = exits.map(|_| [&mut zero[0], &mut one[0]]);
            match (reroute, group.fast) {
                (Some(table), _) => lanes.chained(chains, |room, coin, rng, on| {
                    let mut dest_tag = |cell, rng: &mut LaneRng| {
                        table.tag(cell as usize, sampler.draw(cell, rng) as usize)
                    };
                    CellDraw::general(c, room, coin, exits.as_ref(), on, rng, &mut dest_tag)
                }),
                (None, Fast::Uniform) => {
                    let tag_of = |_, x| tags[uniform.draw(&mut OneWord(x)) as usize];
                    match exits {
                        Some(exits) => lanes.chained(chains, |room, coin, rng, on| {
                            CellDraw::on_off(c, room, coin, &exits, on, rng, &tag_of)
                        }),
                        None => lanes.run(|room, coin, rng, _| {
                            CellDraw::one_word::<1, false, _>(c, room, coin, rng, &tag_of)
                        }),
                    }
                }
                (None, Fast::Table) => {
                    let tag_of = |cell, _| tags[sampler.draw(cell, &mut OneWord(0)) as usize];
                    lanes.run(|room, coin, rng, _| {
                        CellDraw::one_word::<0, false, _>(c, room, coin, rng, &tag_of)
                    });
                }
                (None, Fast::Zipf) => {
                    let tag_of = |cell, x| tags[sampler.draw(cell, &mut OneWord(x)) as usize];
                    lanes.run(|room, coin, rng, _| {
                        CellDraw::one_word::<1, true, _>(c, room, coin, rng, &tag_of)
                    });
                }
                (None, Fast::General) => lanes.chained(chains, |room, coin, rng, on| {
                    let mut dest_tag =
                        |cell, rng: &mut LaneRng| Some(tags[sampler.draw(cell, rng) as usize]);
                    CellDraw::general(c, room, coin, exits.as_ref(), on, rng, &mut dest_tag)
                }),
            }
        }
    }
}

/// One group's lanes at one cell, with the landing their draws feed.
struct GroupCell<'s> {
    rngs: &'s mut [LaneRng],
    coins: &'s [Bernoulli],
    start: usize,
    end: usize,
    room: [u64; 2],
    landing: &'s mut Landing,
}

impl GroupCell<'_> {
    /// Runs `draw` for every lane of the group, in lane order: it is handed
    /// the lane's room (for a first and a second packet), its injection
    /// coin, its stream and its lane index.
    #[inline]
    fn run<D: FnMut([bool; 2], &Bernoulli, &mut LaneRng, usize) -> CellDraw>(self, mut draw: D) {
        let GroupCell {
            rngs,
            coins,
            start,
            end,
            room,
            landing,
        } = self;
        assert!(end <= LANE_WIDTH && end <= rngs.len() && end <= coins.len());
        let mut occupied = [0u64; 2];
        for r in start..end {
            let lane_room = [room[0] >> r & 1 == 1, room[1] >> r & 1 == 1];
            let d = draw(lane_room, &coins[r], &mut rngs[r], r);
            landing.counts[0][r] += d.offered;
            landing.counts[1][r] += d.packets;
            landing.counts[2][r] += d.unroutable;
            occupied[0] |= u64::from(d.packets > 0) << r;
            occupied[1] |= u64::from(d.packets > 1) << r;
            let [front, back] = d.tags;
            landing.bytes[0][0][r] = front as u8;
            landing.bytes[0][1][r] = (front >> 8) as u8;
            landing.bytes[1][0][r] = back as u8;
            landing.bytes[1][1][r] = (back >> 8) as u8;
        }
        landing.occupied[0] |= occupied[0];
        landing.occupied[1] |= occupied[1];
    }

    /// [`GroupCell::run`] where `draw` also steps the lane's two ON/OFF
    /// chain states, read from and written back to the cell's chain words
    /// `chains` (always ON for a group without chains).
    #[inline]
    fn chained<D>(self, chains: Option<[&mut u64; 2]>, mut draw: D)
    where
        D: FnMut([bool; 2], &Bernoulli, &mut LaneRng, &mut [bool; 2]) -> CellDraw,
    {
        let Some([zero, one]) = chains else {
            return self.run(|room, coin, rng, _| draw(room, coin, rng, &mut [true; 2]));
        };
        self.run(|room, coin, rng, r| {
            let mut on = [*zero >> r & 1 == 1, *one >> r & 1 == 1];
            let d = draw(room, coin, rng, &mut on);
            *zero = *zero & !(1 << r) | u64::from(on[0]) << r;
            *one = *one & !(1 << r) | u64::from(on[1]) << r;
            d
        });
    }
}

/// The per-lane counts every word engine keeps, and their read-out.
#[derive(Debug)]
pub(crate) struct LaneTally {
    /// Offered, injected and unroutable packets per lane, counted by the
    /// injection draws.
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

/// What one lane's two terminals do at a first-stage cell in one cycle.
#[derive(Clone, Copy, Debug, Default)]
struct CellDraw {
    offered: u32,
    /// Accepted packets: the first takes slot 0, the second slot 1.
    packets: u32,
    unroutable: u32,
    /// Slot 0's and slot 1's routing tags; an empty slot's entry is
    /// arbitrary, since the occupancy word masks the planes.
    tags: [u32; 2],
}

impl CellDraw {
    /// The general draw, in the scalar order: each terminal makes its
    /// offer — an ON/OFF source (`exits` its exit coins, `on` its chain
    /// states) first steps its chain on one exit coin and offers only while
    /// ON — an offer meeting room resolves its destination tag through
    /// `dest_tag` (`None` when the fault plan leaves the pair unroutable,
    /// which takes no room), and an offer meeting none is refused.
    #[inline]
    fn general<F: FnMut(u32, &mut LaneRng) -> Option<u32>>(
        cell: u32,
        room: [bool; 2],
        coin: &Bernoulli,
        exits: Option<&[Bernoulli; 2]>,
        on: &mut [bool; 2],
        rng: &mut LaneRng,
        dest_tag: &mut F,
    ) -> Self {
        let mut draw = CellDraw::default();
        for on in on.iter_mut() {
            if let Some(exits) = exits {
                *on ^= exits[usize::from(*on)].sample(rng);
            }
            if !(*on && coin.sample(rng)) {
                continue;
            }
            draw.offered += 1;
            if !room[draw.packets as usize] {
                continue;
            }
            match dest_tag(cell, rng) {
                Some(tag) => {
                    draw.tags[draw.packets as usize] = tag;
                    draw.packets += 1;
                }
                None => draw.unroutable += 1,
            }
        }
        draw
    }

    /// The draws of two stateless terminals whose destination always
    /// routes and reads exactly `W` words, zero or one, decided on one
    /// peek: both coins and both candidate destinations are evaluated on
    /// peeked words, then exactly the words the general draw would read are
    /// taken. A `LAZY` draw evaluates a candidate destination only for an
    /// accepted packet, for a `tag_of` too costly to waste on a refused
    /// offer (a Zipf search); otherwise the draw takes no branch. `tag_of`
    /// maps a source cell and a destination word to the routing tag. Near
    /// the end of the buffer, where a peek comes back short, the same draws
    /// run word by word instead.
    #[inline]
    fn one_word<const W: usize, const LAZY: bool, T: Fn(u32, u64) -> u32>(
        cell: u32,
        room: [bool; 2],
        coin: &Bernoulli,
        rng: &mut LaneRng,
        tag_of: &T,
    ) -> Self {
        let Some(peek) = rng.peek::<8>() else {
            return Self::at_end::<W, T>(cell, room, coin, None, &mut [true; 2], rng, tag_of);
        };
        let x: [u64; 4] = words(peek);
        let c0 = coin.sample(&mut OneWord(x[0]));
        let a0 = c0 & room[0];
        // Terminal 1's coin comes after terminal 0's coin and, when that
        // packet was accepted, its destination word.
        let i1 = 1 + W * usize::from(a0);
        let c1 = coin.sample(&mut OneWord(x[i1]));
        let a1 = c1 & room[usize::from(a0)];
        let t0 = if LAZY && !a0 { 0 } else { tag_of(cell, x[1]) };
        let t1 = if LAZY && !a1 {
            0
        } else {
            tag_of(cell, x[i1 + W])
        };
        let packets = u32::from(a0) + u32::from(a1);
        rng.take(2 * (2 + W * packets as usize));
        CellDraw {
            offered: u32::from(c0) + u32::from(c1),
            packets,
            unroutable: 0,
            tags: [if a0 { t0 } else { t1 }, t1],
        }
    }

    /// [`CellDraw::one_word`]'s and [`CellDraw::on_off`]'s draws where a
    /// peek comes back short: the general draw, its destination always
    /// routing and reading `W` words. Out of line, so the hot loop keeps its
    /// registers.
    #[cold]
    #[inline(never)]
    fn at_end<const W: usize, T: Fn(u32, u64) -> u32>(
        cell: u32,
        room: [bool; 2],
        coin: &Bernoulli,
        exits: Option<&[Bernoulli; 2]>,
        on: &mut [bool; 2],
        rng: &mut LaneRng,
        tag_of: &T,
    ) -> Self {
        let mut dest_tag = |cell, rng: &mut LaneRng| {
            let word = if W == 1 { rng.next_u64() } else { 0 };
            Some(tag_of(cell, word))
        };
        Self::general(cell, room, coin, exits, on, rng, &mut dest_tag)
    }

    /// The draws of two ON/OFF terminals (chain states `on`, stepped here
    /// on the exit coins `exits`) sending to a one-word destination,
    /// decided without a branch on one peek: per terminal, the exit coin of
    /// its chain state, the injection coin where the chain is ON and the
    /// candidate destination, each evaluated at the word the general draw
    /// would read it from; then exactly the words it would read are taken.
    /// Near the end of the buffer, where a peek comes back short, the
    /// general draw runs instead.
    #[inline]
    fn on_off<T: Fn(u32, u64) -> u32>(
        cell: u32,
        room: [bool; 2],
        coin: &Bernoulli,
        exits: &[Bernoulli; 2],
        on: &mut [bool; 2],
        rng: &mut LaneRng,
        tag_of: &T,
    ) -> Self {
        let Some(peek) = rng.peek::<PEEK_WORDS>() else {
            return Self::at_end::<1, T>(cell, room, coin, Some(exits), on, rng, tag_of);
        };
        let x: [u64; PEEK_WORDS / 2] = words(peek);
        // `i` is the next word the general draw would read.
        let (mut i, mut offered, mut accepted, mut tags) = (0, 0, [false; 2], [0; 2]);
        for t in 0..2 {
            on[t] ^= exits[usize::from(on[t])].sample(&mut OneWord(x[i]));
            let offer = on[t] & coin.sample(&mut OneWord(x[i + 1]));
            i += 1 + usize::from(on[t]);
            // Terminal 1 meets the room left after terminal 0.
            accepted[t] = offer & room[usize::from(accepted[0])];
            tags[t] = tag_of(cell, x[i]);
            i += usize::from(accepted[t]);
            offered += u32::from(offer);
        }
        rng.take(2 * i);
        CellDraw {
            offered,
            packets: u32::from(accepted[0]) + u32::from(accepted[1]),
            unroutable: 0,
            tags: [if accepted[0] { tags[0] } else { tags[1] }, tags[1]],
        }
    }
}

/// Transposes the 8×8 bit matrix held in `x`, row `i` in byte `i` and
/// column `j` at bit `j` of each byte (Hacker's Delight, §7-3).
#[inline(always)]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Writes one slot's tag planes from its lanes' tag bytes (`bytes[h][r]`
/// is byte `h` of lane `r`'s tag): plane `b` holds bit `b` of every
/// occupied lane's tag. Each run of eight lanes and eight bits is one 8×8
/// bit-matrix transpose. Out of line, so its constants stay out of the
/// injection loop's registers.
#[inline(never)]
fn write_planes(bytes: &[[u8; LANE_WIDTH]; 2], occupied: u64, planes: &mut [u64]) {
    for (half, planes) in planes.chunks_mut(8).enumerate() {
        let rows: [u64; LANE_WIDTH / 8] = std::array::from_fn(|g| {
            let lanes = &bytes[half][8 * g..8 * (g + 1)];
            transpose8(u64::from_le_bytes(lanes.try_into().expect("eight lanes")))
        });
        for (b, plane) in planes.iter_mut().enumerate() {
            let bits = rows
                .iter()
                .enumerate()
                .fold(0, |p, (g, &row)| p | (row >> (8 * b) & 0xFF) << (8 * g));
            *plane = bits & occupied;
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
    /// One independent ChaCha8 stream per lane, seeded exactly like the
    /// scalar engine, with the lane's injection coin and ON/OFF chains.
    streams: LaneStreams<'a>,
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
    /// Builds a packed engine for the lanes of `groups`, in output order,
    /// and rewinds the batch's fault runtime to cycle 0. The groups' traffic
    /// and the lanes' loads replace `config.traffic` and
    /// `config.offered_load`.
    ///
    /// The batch layer has checked everything: `config` is valid for every
    /// group's traffic and packs, the word holds `1..=LANE_WIDTH` lanes at
    /// loads in `[0, 1]`, the fabric routes by destination tag, and each
    /// group's sampler and `faults` were prepared for this fabric.
    pub(crate) fn with_groups(
        fabric: &'a Fabric,
        config: &'a SimConfig,
        mut faults: Option<&'a mut FaultRuntime>,
        groups: &[LaneGroup<'a>],
    ) -> Self {
        let lanes: usize = groups.iter().map(|g| g.lanes.len()).sum();
        debug_assert!(
            config.buffer_mode == BufferMode::Unbuffered
                && (1..=LANE_WIDTH).contains(&lanes)
                && (2..=LANE_MAX_STAGES).contains(&fabric.stages())
                && groups
                    .iter()
                    .flat_map(|g| g.lanes)
                    .all(|&(_, load)| (0.0..=1.0).contains(&load)),
            "the batch layer packs only eligible words"
        );
        let Routing::Delta(table) = fabric.routing() else {
            unreachable!("the batch layer packs only delta fabrics");
        };
        let streams = LaneStreams::new(groups, &table.tag_of_destination, fabric.cells());
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
            tally: LaneTally::new(lanes),
            faults,
            cycle: 0,
            lanes,
            stages,
            cells,
            conn_bits,
            occ: vec![0; slots],
            tag: vec![0; slots * conn_bits],
            next,
            occ_fault: vec![0; lanes],
            vc_measured: VerticalCounter::default(),
            vc_despite: VerticalCounter::default(),
            vc_arb: (0..stages - 1)
                .map(|_| VerticalCounter::default())
                .collect(),
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

    /// Phase 3 — injection through the word engines' one draw path
    /// ([`LaneStreams::inject_cell`]), cell by cell.
    ///
    /// The switching pass always drains stage 0 (an unbuffered packet moves
    /// or drops every cycle), so every cell has room for both terminals:
    /// the scalar engine's full-queue refusal can never fire here, and a
    /// lane's first and second accepted packets take the front and back
    /// slot. Each cell's slot words and tag planes are rebuilt from scratch
    /// — zero planes included — so the flush overwrites last cycle's
    /// stage-0 state with no separate clearing pass. While a dead link or
    /// switch is active, destinations resolve through the fault runtime's
    /// reroute table.
    fn inject(&mut self, faults: Option<&FaultRuntime>) {
        debug_assert!(self.occ[..self.cells * 2].iter().all(|&w| w == 0));
        let reroute = faults.and_then(FaultRuntime::rerouting);
        let conn_bits = self.conn_bits;
        let mut landing = Landing::new();
        for cell in 0..self.cells {
            self.streams
                .inject_cell(cell, [!0; 2], reroute, &mut landing);
            for q in 0..2 {
                let slot = cell * 2 + q;
                self.occ[slot] = landing.occupied[q];
                landing.planes(q, &mut self.tag[slot * conn_bits..(slot + 1) * conn_bits]);
            }
        }
        landing.count_into(&mut self.tally);
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
    use rand_chacha::ChaCha8Rng;

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
        let group = one_group(config, &sampler, lanes);
        LaneEngine::with_groups(&fabric, config, faults.as_mut(), &[group]).run()
    }

    /// All of a word's lanes as one group of the config's traffic.
    fn one_group<'a>(
        config: &'a SimConfig,
        sampler: &'a DestSampler,
        lanes: &'a [(u64, f64)],
    ) -> LaneGroup<'a> {
        LaneGroup {
            traffic: &config.traffic,
            sampler,
            lanes,
        }
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

    /// The deepest fabric the engine packs, `LANE_MAX_STAGES` stages with
    /// eleven tag planes (two tag bytes per lane), under the one-word, table
    /// and general destination draws, at loads of exactly 0 and 1 among
    /// others. Building a fabric that deep is the cost here, so the fresh
    /// scalar simulators share one build; a fault plan is left out, since
    /// its reroute table at this size takes seconds even in release.
    #[test]
    fn deepest_words_match_fresh_scalar_simulators() {
        let stages = LANE_MAX_STAGES;
        let fabric = Fabric::for_traffic(omega(stages), &TrafficPattern::Uniform).unwrap();
        let cells = fabric.cells() as u32;
        let patterns = [
            TrafficPattern::Uniform,
            TrafficPattern::Zipf { exponent: 1.2 },
            TrafficPattern::Permutation((0..cells).rev().collect()),
            TrafficPattern::Hotspot {
                fraction: 0.3,
                target: cells - 1,
            },
        ];
        let lanes: Vec<(u64, f64)> = [1.0, 0.0, 0.55, 0.85, 1.0]
            .iter()
            .enumerate()
            .map(|(i, &load)| (0xDEE9 + i as u64, load))
            .collect();
        for traffic in patterns {
            let config = SimConfig::default()
                .with_traffic(traffic.clone())
                .with_cycles(2 * stages as u64, 2);
            let (sampler, _) = prepare(&fabric, &config).unwrap();
            let group = one_group(&config, &sampler, &lanes);
            let packed = LaneEngine::with_groups(&fabric, &config, None, &[group]).run();
            for (metrics, &(seed, load)) in packed.iter().zip(&lanes) {
                let config = config.clone().with_seed(seed).with_load(load);
                let fresh =
                    Simulator::prepared(fabric.clone(), config, sampler.clone(), None).run();
                assert_eq!(metrics, &fresh, "{} load {load}", traffic.label());
            }
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
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Peeks and takes mixed with `next_u32` and `next_u64` draws read,
        /// word for word, the stream of a fresh `ChaCha8Rng` at the same
        /// seed, across several buffer ends; a peek consumes nothing, and
        /// comes back short only within [`PEEK_WORDS`] of a buffer end.
        #[test]
        fn lane_rng_reads_the_chacha8_stream(
            seed in any::<u64>(),
            ops in proptest::collection::vec((0usize..4, 0usize..=PEEK_WORDS), 600),
        ) {
            let mut lane = LaneRng::seed_from_u64(seed);
            let mut reference = ChaCha8Rng::seed_from_u64(seed);
            for (op, words) in ops {
                match op {
                    0 => prop_assert_eq!(lane.next_u32(), reference.next_u32()),
                    1 => prop_assert_eq!(lane.next_u64(), reference.next_u64()),
                    _ => match lane.peek::<PEEK_WORDS>() {
                        Some(window) => {
                            prop_assert_eq!(lane.peek::<PEEK_WORDS>(), Some(window));
                            for &word in &window[..words] {
                                prop_assert_eq!(word, reference.next_u32());
                            }
                            lane.take(words);
                        }
                        None => {
                            prop_assert!(lane.index + PEEK_WORDS > lane.len());
                            prop_assert_eq!(lane.next_u64(), reference.next_u64());
                        }
                    },
                }
            }
            prop_assert_eq!(lane.next_u64(), reference.next_u64());
        }
    }
}
