//! Word-packed simulation of up to 64 wormhole lanes at once.
//!
//! [`run_word`] is the wormhole sibling of [`crate::lane::LaneEngine`]: one
//! `(seed, offered load)` lane per bit of a `u64`, every lane a replication
//! of one healthy, destination-tag-routed [`BufferMode::Wormhole`]
//! scenario under its group's traffic pattern, all of them stepped through
//! a single cycle loop. It
//! reproduces [`crate::switch::WormholeCore`] driven by
//! [`crate::Simulator`], bit for bit and lane by lane.
//!
//! # State as bit planes
//!
//! Each virtual channel of each `(stage, cell)` — a *slot* — keeps one
//! record of words, and bit `r` of every word belongs to lane `r` of the
//! batch:
//!
//! * `active` — a worm holds the slot;
//! * `held` and `receive` — the slot's two flit counters (flits buffered,
//!   flits still to arrive), bit-sliced: plane `b` holds bit `b` of every
//!   lane's count, so `ready` is the OR of the `held` planes and `full` one
//!   comparison against the lane depth;
//! * `routed` — the head flit has left and claimed a downstream slot, and
//!   `out` — which channel of the next cell it claimed, one-hot;
//! * `tag` — the worm's routing-tag planes, plane `s` being its out-port at
//!   stage `s`.
//!
//! Arbitration, the fall-through to the next ready channel in cyclic order
//! from the winner, head-flit claims, flit moves, tail releases, source
//! streaming and delivery all become word operations over these records,
//! and the per-lane event counts (flits ejected, worms delivered, stalls,
//! held slots) accumulate in [`VerticalCounter`]s. Only what is genuinely
//! per lane walks bits: the RNG draws, the worm's injection cycle (copied
//! along with each head-flit claim) and the latency of each delivered worm.
//! The engine is compiled for 1, 2, 4 and 8 channels per cell; a cell with
//! fewer channels than its build pads the rest as permanently busy, so they
//! are never free, never ready and never counted.
//!
//! # Why this is exact
//!
//! Every lane owns its ChaCha8 stream and its traffic state, and draws
//! what the scalar engine draws, in the scalar order: an arbitration draw
//! `gen_range(0..count)` in (stage descending, cell ascending, port 0
//! before port 1) order, only where that lane has two or more candidates
//! for the port; then the injection offers and destination draws in (cell
//! ascending, terminal) order, through the one cell-major loop all word
//! engines share ([`LaneStreams::inject_cell`]). The cell's `ACTIVE` words
//! give each lane's room and its first and second free channel, which take
//! its first and second accepted packet. Nothing else depends on the seed or the
//! load, so the shared fabric tables serve every lane. Within one cycle the
//! metric updates are sums and histogram increments, so the order in which
//! bits are visited does not matter.
//!
//! The engine is crate-private: [`crate::batch::run_bundle`] hands it a
//! word only for a batch of at least [`WORM_THRESHOLD`] lanes of a
//! wormhole config with an empty fault plan, stateless or ON/OFF traffic
//! and at most [`WORM_MAX_LANES`] channels per cell, on a fabric that
//! routes by destination tag; the batch's lanes may span several traffic
//! patterns. Destination-tag routing delivers
//! every worm to its tag's destination, so the scalar misroute audit is the
//! constant zero here, and with no fault plan nothing is ever dropped.

use crate::batch::LANE_MAX_STAGES;
use crate::config::{BufferMode, SimConfig};
use crate::fabric::{Fabric, Routing};
use crate::lane::{Landing, LaneGroup, LaneStreams, LaneTally, VerticalCounter, LANE_WIDTH};
use crate::metrics::Metrics;
use rand::RngCore;

/// Most virtual channels per cell the packed wormhole engine accepts, the
/// widest build. Set by measurement: a cell's word work grows with the
/// square of its channel count (the cyclic fall-through, the claims) and
/// the scalar core's only linearly, and at 8 channels the packed engine's
/// lead over the scalar one had fallen to 1.3–1.7×, from 2.4–3× at 1.
pub(crate) const WORM_MAX_LANES: usize = 8;

/// Fewest lanes a wormhole batch packs at. Set by measurement: a word costs
/// the same channel work whatever its width, and at 8 lanes the packed
/// engine ran 0.87–1.12× the scalar core's speed (0.51× at 8 channels per
/// cell), at 16 lanes 1.3–1.8× for up to 4 channels and 0.94× at 8, and at
/// 24 lanes 1.4–2.2× for every channel count.
pub(crate) const WORM_THRESHOLD: usize = 16;

/// Word offsets inside a slot record; the counter, tag and `out` planes
/// follow at offsets computed from the scenario.
const ACTIVE: usize = 0;
const ROUTED: usize = 1;
const HELD: usize = 2;

/// Runs one word of `(seed, offered load)` lanes of a wormhole scenario,
/// in traffic groups, and returns one [`Metrics`] per lane, in the order
/// the lanes were given.
///
/// The batch layer has checked everything: `config` is valid for every
/// group's traffic, in wormhole mode with at most [`WORM_MAX_LANES`]
/// channels per cell and an empty fault plan, and no group replays a
/// trace; the word holds `1..=LANE_WIDTH` lanes at loads in `[0, 1]`; the
/// fabric routes by destination tag and each group's sampler was prepared
/// for it.
pub(crate) fn run_word(fabric: &Fabric, config: &SimConfig, groups: &[LaneGroup]) -> Vec<Metrics> {
    let BufferMode::Wormhole {
        lanes: channels, ..
    } = config.buffer_mode
    else {
        unreachable!("the batch layer packs only wormhole words here");
    };
    match channels {
        1 => WormEngine::<1>::new(fabric, config, groups).run(),
        2 => WormEngine::<2>::new(fabric, config, groups).run(),
        3 | 4 => WormEngine::<4>::new(fabric, config, groups).run(),
        _ => WormEngine::<8>::new(fabric, config, groups).run(),
    }
}

/// Bit planes needed to hold every count in `0..=max`.
fn planes_for(max: u32) -> usize {
    (u32::BITS - max.leading_zeros()) as usize
}

/// Lanes whose bit-sliced count is nonzero.
#[inline]
fn nonzero(planes: &[u64]) -> u64 {
    planes.iter().fold(0, |acc, &p| acc | p)
}

/// Lanes whose bit-sliced count equals `value`.
#[inline]
fn equals(planes: &[u64], value: u32) -> u64 {
    planes.iter().enumerate().fold(!0, |acc, (b, &p)| {
        acc & if value >> b & 1 == 1 { p } else { !p }
    })
}

/// Adds one to the count of every lane in `mask`.
#[inline]
fn increment(planes: &mut [u64], mut mask: u64) {
    for p in planes {
        let carry = *p & mask;
        *p ^= mask;
        mask = carry;
    }
    debug_assert_eq!(mask, 0, "bit-sliced counter overflow");
}

/// Takes one from the count of every lane in `mask`.
#[inline]
fn decrement(planes: &mut [u64], mut mask: u64) {
    for p in planes {
        let borrow = !*p & mask;
        *p ^= mask;
        mask = borrow;
    }
    debug_assert_eq!(mask, 0, "bit-sliced counter underflow");
}

/// Sets the count of every lane in `mask` to `value`.
#[inline]
fn assign(planes: &mut [u64], mask: u64, value: u32) {
    for (b, p) in planes.iter_mut().enumerate() {
        let bit = if value >> b & 1 == 1 { mask } else { 0 };
        *p = (*p & !mask) | bit;
    }
}

/// `SELECT[m][k]` is the position of the `k`-th lowest set bit of `m`.
const SELECT: [[u8; WORM_MAX_LANES]; 1 << WORM_MAX_LANES] = {
    let mut table = [[0u8; WORM_MAX_LANES]; 1 << WORM_MAX_LANES];
    let mut m = 0;
    while m < 1 << WORM_MAX_LANES {
        let (mut bit, mut k) = (0, 0);
        while bit < WORM_MAX_LANES {
            if m >> bit & 1 == 1 {
                table[m][k] = bit as u8;
                k += 1;
            }
            bit += 1;
        }
        m += 1;
    }
    table
};

/// The scalar core's arbitration draw `rng.gen_range(0..SPAN as usize)`,
/// for `SPAN` in `2..=WORM_MAX_LANES`: the same words and the same value,
/// with the divisor a constant. A power of two masks one word. Any other
/// span takes two words `v = hi · 2^64 + lo`, rejects only `hi = 2^64 − 1`
/// with `lo > 2^64 − 1 − (r² mod SPAN)` where `r = 2^64 mod SPAN` (the
/// zone above `2^128 − 1 − (2^128 mod SPAN)`), and returns `v mod SPAN`,
/// which is `((hi mod SPAN) · r + lo mod SPAN) mod SPAN`.
#[inline]
fn pick<const SPAN: u64>(rng: &mut impl RngCore) -> usize {
    if SPAN.is_power_of_two() {
        return (rng.next_u64() & (SPAN - 1)) as usize;
    }
    let r = (u64::MAX % SPAN + 1) % SPAN;
    let edge = u64::MAX - r * r % SPAN;
    loop {
        let hi = rng.next_u64();
        let lo = rng.next_u64();
        if hi != u64::MAX || lo <= edge {
            return ((hi % SPAN * r + lo % SPAN) % SPAN) as usize;
        }
    }
}

/// A word-packed engine running up to [`LANE_WIDTH`] wormhole lanes of one
/// scenario in lockstep, with its cells' channels padded to `L`.
#[derive(Debug)]
struct WormEngine<'a, const L: usize> {
    config: &'a SimConfig,
    /// Downstream cell reached from `(stage, cell, port)`, entry
    /// `(stage * cells + cell) * 2 + port`.
    next: Vec<u32>,
    /// Each lane's stream, injection coin and ON/OFF chains.
    streams: LaneStreams<'a>,
    /// Offered and injected packets, delivered worms and the per-lane
    /// metrics that latencies are recorded into.
    tally: LaneTally,
    cycle: u64,
    stages: usize,
    cells: usize,
    /// The scenario's channels per cell (the rest of `L` is padding).
    channels: usize,
    flits: u32,
    /// The lane depth when a channel can fill up (depth at most the worm
    /// length), else `None`.
    full_at: Option<u32>,
    /// Offsets of the `receive`, `tag` and `out` planes in a slot record.
    receive: usize,
    tag: usize,
    out: usize,
    stride: usize,
    /// Slot records, slot `(stage * cells + cell) * L + l` at
    /// `slot * stride`.
    slots: Vec<u64>,
    /// Injection cycle of the worm holding each slot, per lane:
    /// `born[slot * LANE_WIDTH + r]`.
    born: Vec<u64>,
    /// Flits ejected at the last stage.
    vc_flits: VerticalCounter,
    /// Flit-cycles a ready flit could not cross its link.
    vc_stalls: VerticalCounter,
    /// Slots held right now, and their sum over every finished cycle.
    vc_active: VerticalCounter,
    vc_occupancy: VerticalCounter,
}

impl<'a, const L: usize> WormEngine<'a, L> {
    fn new(fabric: &'a Fabric, config: &'a SimConfig, groups: &[LaneGroup<'a>]) -> Self {
        let BufferMode::Wormhole {
            lanes: channels,
            lane_depth,
            flits_per_packet,
        } = config.buffer_mode
        else {
            unreachable!("the batch layer packs only wormhole words here");
        };
        let lanes: usize = groups.iter().map(|g| g.lanes.len()).sum();
        debug_assert!(
            config.fault_plan.is_empty()
                && (1..=L).contains(&channels)
                && (1..=LANE_WIDTH).contains(&lanes)
                && (2..=LANE_MAX_STAGES).contains(&fabric.stages()),
            "the batch layer packs only eligible words"
        );
        let Routing::Delta(table) = fabric.routing() else {
            unreachable!("the batch layer packs only delta fabrics");
        };
        let stages = fabric.stages();
        let cells = fabric.cells();
        let flits = flits_per_packet as u32;
        // As in the scalar core, a depth beyond `u32` acts as `u32::MAX`.
        let depth = lane_depth.min(u32::MAX as usize) as u32;
        let receive = HELD + planes_for(depth.min(flits));
        let tag = receive + planes_for(flits);
        let out = tag + stages - 1;
        let stride = out + L;
        let slots = stages * cells * L;
        let mut next = Vec::with_capacity((stages - 1) * cells * 2);
        for stage in 0..stages - 1 {
            for cell in 0..cells {
                for port in 0..2u8 {
                    next.push(fabric.next_cell(stage, cell as u32, port));
                }
            }
        }
        let mut records = vec![0; slots * stride];
        // Padding channels are busy for every lane, forever.
        for (k, record) in records.chunks_exact_mut(stride).enumerate() {
            if k % L >= channels {
                record[ACTIVE] = !0;
            }
        }
        WormEngine {
            config,
            next,
            streams: LaneStreams::new(groups, &table.tag_of_destination, cells),
            tally: LaneTally::new(lanes),
            cycle: 0,
            stages,
            cells,
            channels,
            flits,
            full_at: (depth <= flits).then_some(depth),
            receive,
            tag,
            out,
            stride,
            slots: records,
            born: vec![0; slots * LANE_WIDTH],
            vc_flits: VerticalCounter::default(),
            vc_stalls: VerticalCounter::default(),
            vc_active: VerticalCounter::default(),
            vc_occupancy: VerticalCounter::default(),
        }
    }

    /// The record of slot `k`.
    #[inline]
    fn record(&self, k: usize) -> &[u64] {
        &self.slots[k * self.stride..(k + 1) * self.stride]
    }

    /// Lanes whose buffered flits fill the slot record `rec`.
    #[inline]
    fn full(&self, rec: &[u64]) -> u64 {
        self.full_at
            .map_or(0, |depth| equals(&rec[HELD..self.receive], depth))
    }

    /// Phase 1 — every ready flit of a last-stage slot leaves (a last-stage
    /// channel holds at most one flit: it receives at most one per cycle
    /// and ejects it the next), and a worm whose tail leaves is delivered.
    fn deliver(&mut self) {
        let (stride, receive, tag) = (self.stride, self.receive, self.tag);
        let first = (self.stages - 1) * self.cells * L;
        for k in first..first + self.cells * L {
            let rec = &mut self.slots[k * stride..(k + 1) * stride];
            let ready = nonzero(&rec[HELD..receive]);
            if ready == 0 {
                continue;
            }
            self.vc_flits.add(ready);
            decrement(&mut rec[HELD..receive], ready);
            let tail = ready & !nonzero(&rec[HELD..tag]);
            if tail == 0 {
                continue;
            }
            rec[ACTIVE] &= !tail;
            self.vc_active.remove(tail);
            self.tally.delivered.add(tail);
            let mut bits = tail;
            while bits != 0 {
                let r = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let born = self.born[k * LANE_WIDTH + r];
                if born >= self.config.warmup {
                    self.tally.metrics[r].record_latency(self.cycle - born);
                }
            }
        }
    }

    /// Phase 2 — one switching pass, next-to-last stage back to the first,
    /// then source streaming into the first-stage channels.
    fn switch(&mut self) {
        let (stride, receive, tag) = (self.stride, self.receive, self.tag);
        for s in (0..self.stages - 1).rev() {
            for cell in 0..self.cells {
                let base = (s * self.cells + cell) * L;
                // Channels with a flit ready to cross this stage's link,
                // and the out-port their worm's tag requests.
                let mut ready = [0u64; L];
                let mut port1 = [0u64; L];
                let mut busy = 0;
                for l in 0..L {
                    let rec = self.record(base + l);
                    ready[l] = nonzero(&rec[HELD..receive]);
                    port1[l] = rec[tag + s];
                    busy |= ready[l];
                }
                if busy == 0 {
                    continue;
                }
                for port in 0..2 {
                    let mut candidates = [0u64; L];
                    for l in 0..L {
                        let want = if port == 1 { port1[l] } else { !port1[l] };
                        candidates[l] = ready[l] & want;
                    }
                    if candidates.iter().any(|&c| c != 0) {
                        self.forward(s, cell, port, &candidates);
                    }
                }
            }
        }
        // Source streaming: each first-stage channel draws one flit per
        // cycle from its worm's staging buffer, where it has room.
        for k in 0..self.cells * L {
            let rec = self.record(k);
            let stream = nonzero(&rec[receive..tag]) & !self.full(rec);
            if stream != 0 {
                let rec = &mut self.slots[k * stride..(k + 1) * stride];
                increment(&mut rec[HELD..receive], stream);
                decrement(&mut rec[receive..tag], stream);
            }
        }
    }

    /// Arbitrates out-port `port` of cell `(s, cell)` among `candidates`
    /// (per channel of the cell, the batch lanes whose flit there wants
    /// the port) and moves at most one flit per batch lane across the link.
    fn forward(&mut self, s: usize, cell: usize, port: usize, candidates: &[u64; L]) {
        let base = (s * self.cells + cell) * L;
        // Bit-sliced candidate counts, at most `L` per lane.
        let mut count = [0u64; 4];
        for &c in candidates {
            let mut carry = c;
            for plane in &mut count {
                let next = *plane & carry;
                *plane ^= carry;
                carry = next;
            }
        }
        // The only candidate wins outright; two or more draw a winner, in
        // groups of equal count so each group's draw has a constant span.
        let single = equals(&count, 1);
        let mut winner = candidates.map(|c| c & single);
        if L > 1 {
            self.draw::<2>(&count, candidates, &mut winner);
        }
        if L > 2 {
            self.draw::<3>(&count, candidates, &mut winner);
            self.draw::<4>(&count, candidates, &mut winner);
        }
        if L > 4 {
            self.draw::<5>(&count, candidates, &mut winner);
            self.draw::<6>(&count, candidates, &mut winner);
            self.draw::<7>(&count, candidates, &mut winner);
            self.draw::<8>(&count, candidates, &mut winner);
        }
        // A candidate can move when its worm already owns a downstream
        // channel with room, or its head finds a free channel in the next
        // cell.
        let dc = self.next[(s * self.cells + cell) * 2 + port] as usize;
        let down = ((s + 1) * self.cells + dc) * L;
        let mut room = [0u64; L];
        let mut all_busy = !0u64;
        for m in 0..L {
            let rec = self.record(down + m);
            all_busy &= rec[ACTIVE];
            room[m] = !self.full(rec);
        }
        let mut able = [0u64; L];
        for l in 0..L {
            if candidates[l] == 0 {
                continue;
            }
            let rec = self.record(base + l);
            let mut has_room = 0;
            for m in 0..L {
                has_room |= rec[self.out + m] & room[m];
            }
            let routed = rec[ROUTED];
            able[l] = candidates[l] & ((routed & has_room) | (!routed & !all_busy));
        }
        // The port goes to the first able candidate in cyclic channel
        // order from the winner; every other candidate stalls.
        let mut moved = [0u64; L];
        for w in 0..L {
            let mut pending = winner[w];
            for d in 0..L {
                let l = (w + d) % L;
                moved[l] |= pending & able[l];
                pending &= !able[l];
            }
        }
        let any_moved = moved.iter().fold(0, |acc, &m| acc | m);
        self.vc_stalls.add_sliced(&count);
        self.vc_stalls.remove(any_moved);
        if any_moved != 0 {
            self.advance(s, base, down, &moved);
        }
    }

    /// Draws the winner for every batch lane with exactly `SPAN`
    /// candidates, each on its own stream.
    #[inline]
    fn draw<const SPAN: u64>(
        &mut self,
        count: &[u64; 4],
        candidates: &[u64; L],
        winner: &mut [u64; L],
    ) {
        let mut group = equals(count, SPAN as u32);
        while group != 0 {
            let r = group.trailing_zeros() as usize;
            group &= group - 1;
            let k = pick::<SPAN>(&mut self.streams.rngs[r]);
            // With every channel a candidate, the `k`-th is channel `k`.
            let l = if SPAN as usize == self.channels {
                k
            } else {
                let mut mine = 0usize;
                for (l, &c) in candidates.iter().enumerate() {
                    mine |= ((c >> r & 1) as usize) << l;
                }
                usize::from(SELECT[mine][k])
            };
            winner[l] |= 1 << r;
        }
    }

    /// Moves one flit across the out-link of cell `(s, ·)` whose slots
    /// start at `base` into the next-stage cell whose slots start at
    /// `down`: `moved[l]` holds the batch lanes whose flit leaves channel
    /// `l`, at most one channel per lane. A head flit first claims the
    /// first free channel downstream; a tail flit leaving releases its
    /// slot.
    fn advance(&mut self, s: usize, base: usize, down: usize, moved: &[u64; L]) {
        let stride = self.stride;
        let (receive, tag, out, flits) = (self.receive, self.tag, self.out, self.flits);
        // The downstream stage is strictly behind in the slot order, so the
        // split yields this cell's records and the next cell's.
        let (upper, lower) = self.slots.split_at_mut(down * stride);
        let up = &mut upper[base * stride..(base + L) * stride];
        let next = &mut lower[..L * stride];
        let mut heads = [0u64; L];
        let mut all_heads = 0;
        for l in 0..L {
            let rec = &mut up[l * stride..(l + 1) * stride];
            heads[l] = moved[l] & !rec[ROUTED];
            rec[ROUTED] |= heads[l];
            for p in &mut rec[out..out + L] {
                *p &= !heads[l];
            }
            all_heads |= heads[l];
        }
        if all_heads != 0 {
            // Every moving head claims exactly one downstream channel.
            self.vc_active.add(all_heads);
            let mut rest = all_heads;
            for m in 0..L {
                let rec = &mut next[m * stride..(m + 1) * stride];
                let claim = rest & !rec[ACTIVE];
                if claim == 0 {
                    continue;
                }
                rest ^= claim;
                debug_assert_eq!(nonzero(&rec[HELD..tag]) & claim, 0, "a free slot is empty");
                rec[ACTIVE] |= claim;
                rec[ROUTED] &= !claim;
                assign(&mut rec[receive..tag], claim, flits);
                for l in 0..L {
                    let from = heads[l] & claim;
                    if from == 0 {
                        continue;
                    }
                    let src = &mut up[l * stride..(l + 1) * stride];
                    src[out + m] |= from;
                    // Only the tag bits of later stages travel on.
                    for b in s + 1..self.stages - 1 {
                        rec[tag + b] = (rec[tag + b] & !from) | (src[tag + b] & from);
                    }
                    let mut bits = from;
                    while bits != 0 {
                        let r = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        self.born[(down + m) * LANE_WIDTH + r] =
                            self.born[(base + l) * LANE_WIDTH + r];
                    }
                }
                if rest == 0 {
                    break;
                }
            }
            debug_assert_eq!(rest, 0, "only heads with a free channel move");
        }
        let mut arriving = [0u64; L];
        let mut released = 0;
        for l in 0..L {
            if moved[l] == 0 {
                continue;
            }
            let rec = &mut up[l * stride..(l + 1) * stride];
            for m in 0..L {
                arriving[m] |= moved[l] & rec[out + m];
            }
            decrement(&mut rec[HELD..receive], moved[l]);
            let tail = moved[l] & !nonzero(&rec[HELD..tag]);
            rec[ACTIVE] &= !tail;
            released |= tail;
        }
        for m in 0..L {
            if arriving[m] != 0 {
                let rec = &mut next[m * stride..(m + 1) * stride];
                increment(&mut rec[HELD..receive], arriving[m]);
                decrement(&mut rec[receive..tag], arriving[m]);
            }
        }
        self.vc_active.remove(released);
    }

    /// Phase 3 — injection through the word engines' one draw path
    /// ([`LaneStreams::inject_cell`]), cell by cell: an accepted packet
    /// becomes a worm whose head flit sits in the first channel of its
    /// source cell that neither an older worm nor an earlier packet of this
    /// cycle holds. The cell's `ACTIVE` words give each lane's first and
    /// second free channel as masks, and with them its room.
    fn inject(&mut self) {
        let conn_bits = self.stages - 1;
        let (stride, receive, tag, flits) = (self.stride, self.receive, self.tag, self.flits);
        let mut landing = Landing::new();
        let mut planes = [[0u64; LANE_MAX_STAGES - 1]; 2];
        for cell in 0..self.cells {
            let base = cell * L;
            // `free[0][l]` holds the lanes whose first free channel is `l`,
            // `free[1][l]` those whose second is; `one` and `two` the lanes
            // with at least one and two free channels so far.
            let mut free = [[0u64; L]; 2];
            let (mut one, mut two) = (0u64, 0u64);
            for l in 0..L {
                let idle = !self.slots[(base + l) * stride + ACTIVE];
                free[0][l] = idle & !one;
                free[1][l] = idle & one & !two;
                two |= idle & one;
                one |= idle;
            }
            self.streams
                .inject_cell(cell, [one, two], None, &mut landing);
            if landing.occupied[0] == 0 {
                continue;
            }
            for (q, planes) in planes.iter_mut().enumerate() {
                landing.planes(q, &mut planes[..conn_bits]);
            }
            for l in 0..L {
                let from = [0, 1].map(|q| landing.occupied[q] & free[q][l]);
                let c = from[0] | from[1];
                if c == 0 {
                    continue;
                }
                let k = base + l;
                let rec = &mut self.slots[k * stride..(k + 1) * stride];
                rec[ACTIVE] |= c;
                rec[ROUTED] &= !c;
                // The head flit enters with the packet; the rest of the worm
                // streams in from the staging buffer.
                assign(&mut rec[HELD..receive], c, 1);
                assign(&mut rec[receive..tag], c, flits - 1);
                for b in 0..conn_bits {
                    let plane = (planes[0][b] & from[0]) | (planes[1][b] & from[1]);
                    rec[tag + b] = (rec[tag + b] & !c) | plane;
                }
                self.vc_active.add(c);
                let mut bits = c;
                while bits != 0 {
                    let r = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.born[k * LANE_WIDTH + r] = self.cycle;
                }
            }
        }
        landing.count_into(&mut self.tally);
    }

    /// Runs the configured cycle budget and returns one [`Metrics`] per
    /// lane, in the order the lanes were given.
    fn run(mut self) -> Vec<Metrics> {
        for _ in 0..self.config.cycles {
            self.deliver();
            self.switch();
            self.inject();
            self.vc_occupancy.add_sliced(self.vc_active.planes());
            self.cycle += 1;
        }
        let slots = (self.stages * self.cells * self.channels) as u64;
        let mut metrics = self.tally.read_out(self.cycle, slots);
        for (r, m) in metrics.iter_mut().enumerate() {
            m.flits_delivered = self.vc_flits.count(r);
            m.flit_stalls = self.vc_stalls.count(r);
            m.lane_occupancy_sum = self.vc_occupancy.count(r);
            // Nothing is dropped without faults: whatever was injected and
            // not delivered is still in the fabric.
            m.in_flight_at_end = m.injected - m.delivered;
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{prepare, Simulator};
    use crate::traffic::TrafficPattern;
    use min_core::ConnectionNetwork;
    use min_networks::{baseline, omega};
    use rand_chacha::ChaCha8Rng;

    fn wormhole(lanes: usize, lane_depth: usize, flits_per_packet: usize) -> BufferMode {
        BufferMode::Wormhole {
            lanes,
            lane_depth,
            flits_per_packet,
        }
    }

    fn scalar(net: &ConnectionNetwork, config: &SimConfig, seed: u64, load: f64) -> Metrics {
        Simulator::new(net.clone(), config.clone().with_seed(seed).with_load(load))
            .unwrap()
            .run()
    }

    /// One word of `(seed, load)` lanes straight through the engine, set up
    /// the way the batch layer sets it up.
    fn packed(net: &ConnectionNetwork, config: &SimConfig, lanes: &[(u64, f64)]) -> Vec<Metrics> {
        let fabric = Fabric::for_traffic(net.clone(), &config.traffic).unwrap();
        let (sampler, faults) = prepare(&fabric, config).unwrap();
        assert!(faults.is_none());
        let group = LaneGroup {
            traffic: &config.traffic,
            sampler: &sampler,
            lanes,
        };
        run_word(&fabric, config, &[group])
    }

    fn assert_matches_scalar(net: &ConnectionNetwork, config: &SimConfig, lanes: &[(u64, f64)]) {
        let packed = packed(net, config, lanes);
        assert_eq!(packed.len(), lanes.len());
        for (m, &(seed, load)) in packed.iter().zip(lanes) {
            assert_eq!(
                *m,
                scalar(net, config, seed, load),
                "{:?} seed {seed} load {load}",
                config.buffer_mode
            );
        }
    }

    fn mixed_lanes(count: usize) -> Vec<(u64, f64)> {
        (0..count as u64)
            .map(|k| {
                (
                    k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 5,
                    (k % 11) as f64 / 10.0,
                )
            })
            .collect()
    }

    #[test]
    fn packed_wormhole_matches_scalar_across_lane_counts() {
        let lanes = mixed_lanes(LANE_WIDTH);
        for per_cell in 1..=WORM_MAX_LANES {
            for (depth, flits) in [(4, 4), (1, 3), (6, 2), (2, 1)] {
                let config = SimConfig::default()
                    .with_cycles(200, 20)
                    .with_buffer(wormhole(per_cell, depth, flits));
                assert_matches_scalar(&omega(4), &config, &lanes);
            }
        }
    }

    #[test]
    fn arbitration_draws_match_gen_range_draw_for_draw() {
        use rand::{Rng, SeedableRng};
        fn check<const SPAN: u64>(seed: u64) {
            let mut fast = ChaCha8Rng::seed_from_u64(seed);
            let mut reference = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..5_000 {
                assert_eq!(
                    pick::<SPAN>(&mut fast),
                    reference.gen_range(0..SPAN as usize)
                );
            }
            assert_eq!(
                fast.next_u64(),
                reference.next_u64(),
                "streams stay aligned"
            );
        }
        for seed in [0, 7, u64::MAX] {
            check::<2>(seed);
            check::<3>(seed);
            check::<4>(seed);
            check::<5>(seed);
            check::<6>(seed);
            check::<7>(seed);
            check::<8>(seed);
        }
    }

    #[test]
    fn packed_wormhole_matches_scalar_under_all_traffic_patterns() {
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
                .with_buffer(wormhole(2, 3, 4))
                .with_traffic(pattern);
            assert_matches_scalar(&net, &config, &mixed_lanes(13));
        }
    }
}
