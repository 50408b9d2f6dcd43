//! Word-packed simulation of up to 64 FIFO lanes at once.
//!
//! [`run_word`] is the FIFO sibling of [`crate::lane::LaneEngine`] and
//! `crate::worm`: one `(seed, offered load)` lane per bit of a `u64`, every
//! lane a replication of one healthy, destination-tag-routed
//! [`BufferMode::Fifo`] scenario, all of them stepped through a single
//! cycle loop. It reproduces [`crate::switch::FifoCore`] driven by
//! [`crate::Simulator`], bit for bit and lane by lane.
//!
//! # State as position planes
//!
//! Each `(stage, cell)` queue holds up to `2 · depth` packets, and bit `r`
//! of every word belongs to lane `r` of the batch:
//!
//! * `occ` — occupancy-prefix planes: plane `k` holds the lanes whose queue
//!   holds more than `k` packets, so the queue's front is plane 0 and
//!   "full" is the last plane;
//! * `data` — per position, the queued packet's routing-tag planes (plane
//!   `s` is its out-port at stage `s`) followed by the bit planes of the
//!   cycle it was injected in. A position no lane occupies holds garbage
//!   that nothing reads.
//!
//! The two head positions are a cell's candidates. A move copies the
//! packet's planes to the first free position of the downstream queue, a
//! pop shifts the queue forward by one or two positions, and both are
//! masked word operations over every lane at once; a same-port conflict
//! that leaves both heads in place after a coin swap exchanges them, which
//! is what the scalar core's `push_front` of the retained pair does. The
//! per-lane event counts (deliveries, queued packets) accumulate in
//! [`VerticalCounter`]s. Only what is genuinely per lane walks bits: the
//! RNG draws and the latency of each delivered packet, read back from its
//! injection-cycle planes.
//!
//! # Why this is exact
//!
//! Every lane owns its ChaCha8 stream and its traffic sources, and draws
//! what the scalar engine draws, in the scalar order: a [`fair_coin`] per
//! same-port conflict in (stage descending, cell ascending) order, only
//! where that lane's two heads want the same out-port; then the injection
//! offers and destination draws in (cell ascending, terminal) order through
//! the word engines' shared loop. Stages run descending and cells
//! ascending, so a downstream queue that an earlier cell of the pass
//! filled, or that its own stage's pass drained, looks to each lane exactly
//! as it does to the scalar core. A delta fabric's cell sends its two
//! out-ports to two different cells (else two tags would name one
//! destination), so each downstream queue takes at most one packet per lane
//! from a cell.
//!
//! The engine is crate-private: [`crate::batch::run_replications`] hands it
//! a word only for a batch of at least [`FIFO_THRESHOLD`] lanes of a FIFO
//! config with an empty fault plan, no trace replay and a depth of at most
//! [`FIFO_MAX_DEPTH`], on a fabric that routes by destination tag. Such a
//! fabric delivers every packet to its tag's destination, so the scalar
//! misroute audit is the constant zero here, and with no fault plan nothing
//! is ever dropped.

use crate::batch::LANE_MAX_STAGES;
use crate::config::{BufferMode, SimConfig};
use crate::fabric::{Fabric, Routing};
use crate::lane::{Admit, LaneStreams, LaneTally, VerticalCounter, LANE_WIDTH};
use crate::metrics::Metrics;
use crate::switch::fair_coin;
use crate::traffic::DestSampler;

/// Fewest lanes a FIFO batch packs at. Set by measurement on Omega(5) at
/// depth 4, 600 cycles: a word costs the same queue work whatever its
/// width, and against the scalar core the packed engine ran 0.69–0.85× at
/// 8 lanes, 0.86–1.00× at 12, 1.09–1.30× at 16 and 1.26–1.49× at 24.
pub(crate) const FIFO_THRESHOLD: usize = 16;

/// Deepest FIFO (packets per input port) the packed engine takes. Set by
/// measurement: a full queue shifts all `2 · depth` positions on a pop,
/// where the scalar core's ring moves a cursor, so at depth 8 a 16-lane
/// word ran 0.89–0.98× the scalar core (64-lane words 1.2–1.9×), at depth
/// 4 1.08–1.44×.
pub(crate) const FIFO_MAX_DEPTH: usize = 4;

/// Empty positions past the last of every queue, so a pop reads the one
/// or two positions behind each position it rewrites without a bounds
/// test.
const PAD: usize = 2;

/// Most planes a queued packet carries: a routing-tag plane per inter-stage
/// connection and one per bit of its injection cycle.
const MAX_PLANES: usize = LANE_MAX_STAGES - 1 + u64::BITS as usize;

/// Runs one word of `(seed, offered load)` lanes of a FIFO scenario and
/// returns one [`Metrics`] per lane, in the order the lanes were given.
///
/// The batch layer has checked everything: `config` is valid, in FIFO mode
/// with a depth of at most [`FIFO_MAX_DEPTH`], an empty fault plan and no
/// trace replay; the word holds `1..=LANE_WIDTH` lanes at loads in
/// `[0, 1]`; the fabric routes by destination tag and `sampler` was
/// prepared for it.
pub(crate) fn run_word(
    fabric: &Fabric,
    config: &SimConfig,
    sampler: &DestSampler,
    lanes: &[(u64, f64)],
) -> Vec<Metrics> {
    FifoEngine::new(fabric, config, sampler, lanes).run()
}

/// Appends the packets of the lanes in `mask` at the tail of one queue —
/// its occupancy planes `occ` and position planes `data`, `planes` words
/// per position, `occ` without the padding — writing planes `from..` from
/// `src`. Every lane in `mask` has room.
fn append(occ: &mut [u64], data: &mut [u64], planes: usize, mask: u64, from: usize, src: &[u64]) {
    let mut rest = mask;
    for (k, o) in occ.iter_mut().enumerate() {
        let at = rest & !*o;
        if at == 0 {
            continue;
        }
        *o |= at;
        let position = &mut data[k * planes + from..(k + 1) * planes];
        for (d, &v) in position.iter_mut().zip(src) {
            *d = (*d & !at) | (v & at);
        }
        rest &= !at;
        if rest == 0 {
            return;
        }
    }
    debug_assert_eq!(rest, 0, "only lanes with room append");
}

/// A word-packed engine running up to [`LANE_WIDTH`] FIFO lanes of one
/// scenario in lockstep.
#[derive(Debug)]
struct FifoEngine<'a> {
    config: &'a SimConfig,
    sampler: &'a DestSampler,
    /// The fabric's destination-tag table.
    tags: &'a [u32],
    /// Downstream cell reached from `(stage, cell, port)`, entry
    /// `(stage * cells + cell) * 2 + port`.
    next: Vec<u32>,
    /// Each lane's stream, traffic sources and injection coin.
    streams: LaneStreams,
    /// Offered, injected and delivered packets, and the per-lane metrics
    /// that latencies are recorded into.
    tally: LaneTally,
    cycle: u64,
    stages: usize,
    cells: usize,
    /// Packets per queue, `2 · depth`.
    cap: usize,
    /// Positions per queue, the padding included.
    positions: usize,
    /// Routing-tag planes per packet, one per inter-stage connection; the
    /// injection-cycle planes follow them.
    conn_bits: usize,
    /// Planes per queued packet.
    planes: usize,
    /// Occupancy-prefix planes: word `queue * positions + k` holds the
    /// lanes whose queue (`stage * cells + cell`) holds more than `k`
    /// packets.
    occ: Vec<u64>,
    /// Position planes: word `(queue * positions + k) * planes + p` holds
    /// plane `p` of the packet at position `k` of the queue.
    data: Vec<u64>,
    /// Injection scratch: the lanes whose `j`-th packet of the cycle enters
    /// first-stage cell `cell`, word `cell * 2 + j`, and its tag planes.
    claims: Vec<u64>,
    new_tags: Vec<u64>,
    /// Packets queued right now, and their sum over every finished cycle.
    vc_queued: VerticalCounter,
    vc_occupancy: VerticalCounter,
}

impl<'a> FifoEngine<'a> {
    fn new(
        fabric: &'a Fabric,
        config: &'a SimConfig,
        sampler: &'a DestSampler,
        lanes: &[(u64, f64)],
    ) -> Self {
        let BufferMode::Fifo(depth) = config.buffer_mode else {
            unreachable!("the batch layer packs only FIFO words here");
        };
        debug_assert!(
            config.fault_plan.is_empty()
                && !config.traffic.is_trace()
                && (1..=FIFO_MAX_DEPTH).contains(&depth)
                && (1..=LANE_WIDTH).contains(&lanes.len())
                && (2..=LANE_MAX_STAGES).contains(&fabric.stages()),
            "the batch layer packs only eligible words"
        );
        let Routing::Delta(table) = fabric.routing() else {
            unreachable!("the batch layer packs only delta fabrics");
        };
        let stages = fabric.stages();
        let cells = fabric.cells();
        let cap = 2 * depth;
        let conn_bits = stages - 1;
        // Injection cycles run `0..cycles`.
        let cycle_bits = (u64::BITS - (config.cycles - 1).leading_zeros()) as usize;
        let planes = conn_bits + cycle_bits;
        let mut next = Vec::with_capacity((stages - 1) * cells * 2);
        for stage in 0..stages - 1 {
            for cell in 0..cells {
                let pair = [0, 1].map(|port| fabric.next_cell(stage, cell as u32, port));
                debug_assert_ne!(pair[0], pair[1], "a delta cell's ports reach two cells");
                next.extend(pair);
            }
        }
        let queues = stages * cells;
        let positions = cap + PAD;
        FifoEngine {
            config,
            sampler,
            tags: &table.tag_of_destination,
            next,
            streams: LaneStreams::new(&config.traffic, cells, lanes),
            tally: LaneTally::new(lanes.len()),
            cycle: 0,
            stages,
            cells,
            cap,
            positions,
            conn_bits,
            planes,
            occ: vec![0; queues * positions],
            data: vec![0; queues * positions * planes],
            claims: vec![0; cells * 2],
            new_tags: vec![0; cells * 2 * conn_bits],
            vc_queued: VerticalCounter::default(),
            vc_occupancy: VerticalCounter::default(),
        }
    }

    /// Phase 1 — every packet queued at a last-stage cell leaves, and its
    /// latency is read back from its injection-cycle planes.
    fn deliver(&mut self) {
        let (positions, planes, conn_bits) = (self.positions, self.planes, self.conn_bits);
        let first = (self.stages - 1) * self.cells;
        for q in first..first + self.cells {
            for k in 0..self.cap {
                let m = std::mem::take(&mut self.occ[q * positions + k]);
                if m == 0 {
                    break;
                }
                self.tally.delivered.add(m);
                self.vc_queued.remove(m);
                let at = (q * positions + k) * planes;
                let born_planes = &self.data[at + conn_bits..at + planes];
                let mut bits = m;
                while bits != 0 {
                    let r = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let born = born_planes
                        .iter()
                        .enumerate()
                        .fold(0, |acc, (b, &p)| acc | (p >> r & 1) << b);
                    if born >= self.config.warmup {
                        self.tally.metrics[r].record_latency(self.cycle - born);
                    }
                }
            }
        }
    }

    /// Phase 2 — one switching pass, next-to-last stage back to the first.
    fn switch(&mut self) {
        let (positions, planes) = (self.positions, self.planes);
        let mut src = [0u64; MAX_PLANES];
        for s in (0..self.stages - 1).rev() {
            for cell in 0..self.cells {
                let q = s * self.cells + cell;
                let h0 = self.occ[q * positions];
                if h0 == 0 {
                    continue;
                }
                let h1 = self.occ[q * positions + 1];
                let head = q * positions * planes;
                let p0 = self.data[head + s];
                let p1 = self.data[head + planes + s];
                // Same-port conflicts draw one fair coin per lane; a lane
                // whose coin lands swaps its two candidates.
                let mut swap = 0u64;
                let mut w = h1 & !(p0 ^ p1);
                while w != 0 {
                    let r = w.trailing_zeros() as usize;
                    w &= w - 1;
                    if fair_coin(&mut self.streams.rngs[r]) {
                        swap |= 1 << r;
                    }
                }
                let (mut m0, mut m1) = (0, 0);
                for port in 0..2 {
                    let (w0, w1) = if port == 1 {
                        (h0 & p0, h1 & p1)
                    } else {
                        (h0 & !p0, h1 & !p1)
                    };
                    if w0 | w1 == 0 {
                        continue;
                    }
                    let dq = (s + 1) * self.cells + self.next[q * 2 + port] as usize;
                    let room = !self.occ[dq * positions + self.cap - 1];
                    // The first candidate in (swapped) order takes the port
                    // if the next queue has room; a loser stays queued.
                    let mv0 = w0 & room & !(w1 & swap);
                    let mv1 = w1 & room & !(w0 & !swap);
                    if mv0 | mv1 == 0 {
                        continue;
                    }
                    // Only the planes of later stages travel on.
                    let moving = planes - (s + 1);
                    let (d0, d1) = self.data[head..head + 2 * planes].split_at(planes);
                    for ((v, &a), &b) in
                        src[..moving].iter_mut().zip(&d0[s + 1..]).zip(&d1[s + 1..])
                    {
                        *v = (a & mv0) | (b & mv1);
                    }
                    append(
                        &mut self.occ[dq * positions..dq * positions + self.cap],
                        &mut self.data[dq * positions * planes..(dq + 1) * positions * planes],
                        planes,
                        mv0 | mv1,
                        s + 1,
                        &src[..moving],
                    );
                    m0 |= mv0;
                    m1 |= mv1;
                }
                self.pop(q, s, m0, m1, swap & !(m0 | m1));
            }
        }
    }

    /// Closes the gaps the moves of one switching pass left in queue `q`
    /// (at stage `s`): `m0` and `m1` hold the lanes whose head and second
    /// packet left, `reorder` the lanes whose coin swap left both in place,
    /// which the scalar core's retention puts back in swapped order.
    fn pop(&mut self, q: usize, s: usize, m0: u64, m1: u64, reorder: u64) {
        if m0 | m1 | reorder == 0 {
            return;
        }
        let (positions, planes) = (self.positions, self.planes);
        let occ = &mut self.occ[q * positions..(q + 1) * positions];
        let data = &mut self.data[q * positions * planes..(q + 1) * positions * planes];
        let two = m0 & m1;
        let one = m0 ^ m1;
        let keep = !(m0 | m1);
        // Positions past the longest queue hold nothing to move, and the
        // padding reads as empty.
        let len = occ.iter().take_while(|&&o| o != 0).count();
        for k in 0..len {
            occ[k] = (keep & occ[k]) | (one & occ[k + 1]) | (two & occ[k + 2]);
        }
        // The front position takes the second packet where only the head
        // left or the pair swapped, the third where both left; the next
        // position takes the old head where the pair swapped.
        let front_stays = !m0 & !reorder;
        let front_from_second = (m0 & !m1) | reorder;
        let second_stays = keep & !reorder;
        let (front, back) = data.split_at_mut(2 * planes);
        let (d0, d1) = front.split_at_mut(planes);
        let (d2, d3) = back[..2 * planes].split_at(planes);
        let columns = d0[s..]
            .iter_mut()
            .zip(&mut d1[s..])
            .zip(&d2[s..])
            .zip(&d3[s..]);
        for (((a, b), &c), &d) in columns {
            let (old_a, old_b) = (*a, *b);
            *a = (old_a & front_stays) | (old_b & front_from_second) | (c & two);
            *b = (old_a & reorder) | (old_b & second_stays) | (c & one) | (d & two);
        }
        // Every later position takes its own packet, the next one's or the
        // one after, plane by plane.
        for k in 2..len {
            let (here, behind) = data[k * planes..(k + 3) * planes].split_at_mut(planes);
            let (next, after) = behind.split_at(planes);
            for ((h, &n), &a) in here[s..].iter_mut().zip(&next[s..]).zip(&after[s..]) {
                *h = (*h & keep) | (n & one) | (a & two);
            }
        }
    }

    /// Phase 3 — injection through the word engines' shared loop
    /// ([`LaneStreams::inject`]): each lane's accepted packets of a cell
    /// gather in per-cell words and join the tail of its first-stage queue
    /// in terminal order, injection cycle attached.
    fn inject(&mut self) {
        self.claims.fill(0);
        self.new_tags.fill(0);
        let mut tails = QueueTails {
            occ: &self.occ,
            cap: self.cap,
            positions: self.positions,
            conn_bits: self.conn_bits,
            claims: &mut self.claims,
            new_tags: &mut self.new_tags,
        };
        let (sampler, tags) = (self.sampler, self.tags);
        self.streams.inject(
            self.cycle,
            self.cells,
            &mut self.tally,
            |cell, rng| Some(tags[sampler.draw(cell, rng) as usize]),
            &mut tails,
        );
        let (cap, positions) = (self.cap, self.positions);
        let (planes, conn_bits) = (self.planes, self.conn_bits);
        let mut src = [0u64; MAX_PLANES];
        for (b, plane) in src[conn_bits..planes].iter_mut().enumerate() {
            *plane = if self.cycle >> b & 1 == 1 { !0 } else { 0 };
        }
        for (k, &mask) in self.claims.iter().enumerate() {
            if mask == 0 {
                continue;
            }
            src[..conn_bits].copy_from_slice(&self.new_tags[k * conn_bits..(k + 1) * conn_bits]);
            let cell = k / 2;
            append(
                &mut self.occ[cell * positions..cell * positions + cap],
                &mut self.data[cell * positions * planes..(cell + 1) * positions * planes],
                planes,
                mask,
                0,
                &src[..planes],
            );
            self.vc_queued.add(mask);
        }
    }

    /// Runs the configured cycle budget and returns one [`Metrics`] per
    /// lane, in the order the lanes were given.
    fn run(mut self) -> Vec<Metrics> {
        for _ in 0..self.config.cycles {
            self.deliver();
            self.switch();
            self.inject();
            self.vc_occupancy.add_sliced(self.vc_queued.planes());
            self.cycle += 1;
        }
        let slots = (self.stages * self.cells * self.cap) as u64;
        let mut metrics = self.tally.read_out(self.cycle, slots);
        for (r, m) in metrics.iter_mut().enumerate() {
            m.lane_occupancy_sum = self.vc_occupancy.count(r);
            // Nothing is dropped without faults: whatever was injected and
            // not delivered is still queued.
            m.in_flight_at_end = m.injected - m.delivered;
        }
        metrics
    }
}

/// The first-stage queues as [`LaneStreams::inject`]'s target: a lane's
/// cell takes as many packets as its queue has free positions, and its
/// `j`-th packet of the cycle is gathered in word `cell * 2 + j`.
struct QueueTails<'a> {
    occ: &'a [u64],
    cap: usize,
    positions: usize,
    conn_bits: usize,
    claims: &'a mut [u64],
    new_tags: &'a mut [u64],
}

impl Admit for QueueTails<'_> {
    fn room(&mut self, cell: usize, r: usize) -> u32 {
        let queue = &self.occ[cell * self.positions..cell * self.positions + self.cap];
        // Room for two unless the queue is full or one short of it.
        (2 - (queue[self.cap - 1] >> r & 1) - (queue[self.cap - 2] >> r & 1)) as u32
    }

    fn admit(&mut self, cell: usize, r: usize, j: u32, packet_tag: u32) {
        let k = cell * 2 + j as usize;
        self.claims[k] |= 1 << r;
        let planes = &mut self.new_tags[k * self.conn_bits..(k + 1) * self.conn_bits];
        for (b, plane) in planes.iter_mut().enumerate() {
            *plane |= u64::from(packet_tag >> b & 1) << r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{prepare, Simulator};
    use crate::traffic::TrafficPattern;
    use min_core::ConnectionNetwork;
    use min_networks::{baseline, omega};

    fn scalar(net: &ConnectionNetwork, config: &SimConfig, seed: u64, load: f64) -> Metrics {
        Simulator::new(net.clone(), config.clone().with_seed(seed).with_load(load))
            .unwrap()
            .run()
    }

    /// One word of `(seed, load)` lanes straight through the engine, set up
    /// the way the batch layer sets it up.
    fn assert_matches_scalar(net: &ConnectionNetwork, config: &SimConfig, lanes: &[(u64, f64)]) {
        let fabric = Fabric::for_traffic(net.clone(), &config.traffic).unwrap();
        let (sampler, faults) = prepare(&fabric, config).unwrap();
        assert!(faults.is_none());
        let packed = run_word(&fabric, config, &sampler, lanes);
        assert_eq!(packed.len(), lanes.len());
        for (m, &(seed, load)) in packed.iter().zip(lanes) {
            assert_eq!(
                *m,
                scalar(net, config, seed, load),
                "{:?} {:?} seed {seed} load {load}",
                config.buffer_mode,
                config.traffic
            );
        }
    }

    fn mixed_lanes(count: usize) -> Vec<(u64, f64)> {
        (0..count as u64)
            .map(|k| {
                (
                    k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 11,
                    (k % 11) as f64 / 10.0,
                )
            })
            .collect()
    }

    #[test]
    fn packed_fifo_matches_scalar_across_depths() {
        let lanes = mixed_lanes(LANE_WIDTH);
        for depth in 1..=FIFO_MAX_DEPTH {
            for (stages, cycles) in [(2, 90), (4, 250), (5, 170)] {
                let config = SimConfig::default()
                    .with_cycles(cycles, cycles / 10)
                    .with_buffer(BufferMode::Fifo(depth));
                assert_matches_scalar(&omega(stages), &config, &lanes);
            }
        }
    }

    #[test]
    fn packed_fifo_matches_scalar_under_all_traffic_patterns() {
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
                .with_buffer(BufferMode::Fifo(3))
                .with_traffic(pattern);
            assert_matches_scalar(&net, &config, &mixed_lanes(13));
        }
    }
}
