//! Pluggable switching cores over flat, preallocated arenas.
//!
//! [`SwitchCore`] abstracts the storage half of the engine's three-phase
//! cycle — delivery at the last stage, switching between stages, and the
//! admission test plus hand-off of injection — so one engine loop
//! ([`crate::Simulator`]) drives three buffer architectures:
//!
//! * [`UnbufferedCore`] — Patel's unbuffered crossbar cells: a packet that
//!   loses an out-port arbitration (or finds the downstream cell full) is
//!   dropped;
//! * [`FifoCore`] — per-cell FIFOs with backpressure: a packet that cannot
//!   advance stays queued, and injection is refused when the first-stage
//!   queue is full;
//! * [`WormholeCore`] — multi-lane virtual-channel wormhole switching:
//!   packets are split into flits, a worm's head flit allocates one lane per
//!   cell it enters, body flits stream behind it at one flit per out-port
//!   per cycle, and a blocked worm holds its lanes across stages until the
//!   tail drains through.
//!
//! The packet-atomic cores keep their queues in one [`RingArena`]: a ring
//! per `(stage, cell)` in a single contiguous, preallocated slot vector with
//! per-ring `head`/`len` cursors, each ring padded to a power of two so
//! every wrap is a mask instead of a hardware division. A queued packet is
//! stored as its routing tag, destination and injection time only; the
//! unobservable `id`/`source` header fields are not stored at all. The
//! wormhole core stores no flits: a lane holds one worm at a time, so its
//! whole flit state is two counters (flits held, flits still to arrive).
//! Every core skips empty cells, reads the fault view only on cycles where
//! a fault is active, and keeps running counts for the occupancy.
//!
//! All cores support [`SwitchCore::reset`], which rewinds the storage to
//! its pristine state without reallocating — the batching layer
//! ([`crate::batch`]) uses it to run every replication of a scenario
//! through one core instance.

use crate::config::{BufferMode, MAX_WORMHOLE_LANES};
use crate::fabric::Fabric;
use crate::fault::{FaultView, LinkStatus};
use crate::metrics::Metrics;
use crate::packet::Packet;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

/// The storage-and-switching half of the simulation engine.
///
/// The engine calls the phases in a fixed order each cycle — [`deliver`],
/// [`switch`], then for each injection attempt [`can_accept`] followed by
/// [`inject`] — and reads [`in_flight`] / [`occupancy`] for the end-of-cycle
/// accounting. Implementations own every packet (or flit) inside the fabric;
/// the engine owns the clock, the RNG and the traffic sources.
///
/// [`deliver`]: SwitchCore::deliver
/// [`switch`]: SwitchCore::switch
/// [`can_accept`]: SwitchCore::can_accept
/// [`inject`]: SwitchCore::inject
/// [`in_flight`]: SwitchCore::in_flight
/// [`occupancy`]: SwitchCore::occupancy
pub trait SwitchCore: std::fmt::Debug + Send {
    /// Phase 1 — drain everything deliverable at the last stage, recording
    /// deliveries, misroutes and (post-warm-up) latencies. Traffic sitting
    /// in a dead last-stage switch is lost instead (`faults`).
    fn deliver(
        &mut self,
        fabric: &Fabric,
        faults: &FaultView<'_>,
        cycle: u64,
        warmup: u64,
        metrics: &mut Metrics,
    );

    /// Phase 2 — move packets (or flits) one stage forward, from the
    /// next-to-last stage back to the first so that space freed in a stage
    /// is visible to the stage behind it within the same cycle. `faults`
    /// supplies the cycle's dead/degraded components: traffic that must
    /// cross a dead link (or enter a dead switch) is dropped as a fault
    /// loss, and degraded links carry traffic on even cycles only.
    fn switch(
        &mut self,
        fabric: &Fabric,
        faults: &FaultView<'_>,
        rng: &mut ChaCha8Rng,
        metrics: &mut Metrics,
    );

    /// Whether first-stage cell `cell` can accept one more packet right now.
    fn can_accept(&self, cell: usize) -> bool;

    /// Phase 3 — admit `packet` at first-stage cell `cell`. Callers must
    /// check [`SwitchCore::can_accept`] first.
    fn inject(&mut self, cell: usize, packet: Packet);

    /// Number of packets currently inside the fabric.
    fn in_flight(&self) -> u64;

    /// `(occupied, total)` storage-unit snapshot — queued packets over queue
    /// slots for the packet cores, active lanes over all lanes for the
    /// wormhole core — accumulated by the engine into the occupancy metrics.
    fn occupancy(&self) -> (u64, u64);

    /// Rewinds the core to its freshly constructed (empty) state without
    /// reallocating, so one core instance can run many replications.
    fn reset(&mut self);
}

/// Builds the core matching `mode` for a `stages × cells` fabric.
///
/// `mode` must already be validated ([`BufferMode::validate`]); the engine
/// guarantees this by validating the whole `SimConfig` first.
pub(crate) fn build_core(mode: BufferMode, stages: usize, cells: usize) -> Box<dyn SwitchCore> {
    match mode {
        BufferMode::Unbuffered => Box::new(UnbufferedCore::new(stages, cells)),
        BufferMode::Fifo(depth) => Box::new(FifoCore::new(stages, cells, depth)),
        BufferMode::Wormhole {
            lanes,
            lane_depth,
            flits_per_packet,
        } => Box::new(WormholeCore::new(
            stages,
            cells,
            lanes,
            lane_depth,
            flits_per_packet,
        )),
    }
}

/// A flat arena of equally sized ring buffers.
///
/// Ring `r` occupies the slot range `r << shift .. (r + 1) << shift` of one
/// contiguous vector; `head[r]`/`len[r]` are its cursors. Storage per ring is
/// padded up to the next power of two so every cursor wrap is a bitwise AND
/// instead of a hardware division; the *logical* capacity (`is_full`,
/// [`RingArena::slot_count`]) stays exactly `cap`. Every operation is O(1)
/// with no allocation after construction; a running count of the values
/// across all rings makes [`RingArena::total_len`] O(1) too.
#[derive(Debug, Clone)]
pub struct RingArena<T> {
    slots: Vec<T>,
    head: Vec<u32>,
    len: Vec<u32>,
    /// Sum of `len`.
    total: u64,
    /// Logical per-ring capacity — the admission limit.
    cap: u32,
    /// `cap.next_power_of_two() - 1` — the cursor wrap mask.
    mask: u32,
    /// `log2(cap.next_power_of_two())` — the ring stride shift.
    shift: u32,
}

impl<T: Copy + Default> RingArena<T> {
    /// An arena of `rings` empty rings, each holding up to `cap` values.
    pub fn new(rings: usize, cap: usize) -> Self {
        assert!(cap > 0 && cap < u32::MAX as usize, "ring capacity {cap}");
        let storage = cap.next_power_of_two();
        RingArena {
            slots: vec![T::default(); rings * storage],
            head: vec![0; rings],
            len: vec![0; rings],
            total: 0,
            cap: cap as u32,
            mask: storage as u32 - 1,
            shift: storage.trailing_zeros(),
        }
    }

    /// Number of values currently in ring `r`.
    #[inline]
    pub fn len(&self, r: usize) -> usize {
        self.len[r] as usize
    }

    /// Whether ring `r` holds no values.
    #[inline]
    pub fn is_empty(&self, r: usize) -> bool {
        self.len[r] == 0
    }

    /// Whether ring `r` is at (logical) capacity.
    #[inline]
    pub fn is_full(&self, r: usize) -> bool {
        self.len[r] == self.cap
    }

    #[inline]
    fn slot(&self, r: usize, offset: u32) -> usize {
        (r << self.shift) + ((self.head[r].wrapping_add(offset)) & self.mask) as usize
    }

    /// Appends `value` at the back of ring `r`.
    ///
    /// # Panics
    ///
    /// Panics when the ring is full — overflow would silently corrupt the
    /// ring's FIFO contents, so it is never allowed to pass.
    pub fn push_back(&mut self, r: usize, value: T) {
        assert!(!self.is_full(r), "ring {r} overflow");
        let s = self.slot(r, self.len[r]);
        self.slots[s] = value;
        self.len[r] += 1;
        self.total += 1;
    }

    /// Prepends `value` at the front of ring `r` (used to retain blocked
    /// packets in their original order).
    ///
    /// # Panics
    ///
    /// Panics when the ring is full (see [`RingArena::push_back`]).
    pub fn push_front(&mut self, r: usize, value: T) {
        assert!(!self.is_full(r), "ring {r} overflow");
        self.head[r] = self.head[r].wrapping_add(self.mask) & self.mask;
        let s = self.slot(r, 0);
        self.slots[s] = value;
        self.len[r] += 1;
        self.total += 1;
    }

    /// Removes and returns the front value of ring `r`, if any.
    pub fn pop_front(&mut self, r: usize) -> Option<T> {
        if self.len[r] == 0 {
            return None;
        }
        let s = self.slot(r, 0);
        let v = self.slots[s];
        self.head[r] = (self.head[r] + 1) & self.mask;
        self.len[r] -= 1;
        self.total -= 1;
        Some(v)
    }

    /// Total number of values across every ring.
    pub fn total_len(&self) -> u64 {
        self.total
    }

    /// Total *logical* slot capacity of the arena (`rings × cap`), excluding
    /// power-of-two padding — this feeds the occupancy metrics and must not
    /// change with the storage layout.
    pub fn slot_count(&self) -> u64 {
        self.head.len() as u64 * u64::from(self.cap)
    }

    /// Empties every ring without reallocating or touching slot storage.
    pub fn reset(&mut self) {
        self.head.fill(0);
        self.len.fill(0);
        self.total = 0;
    }
}

/// The fair coin that settles a same-port conflict between a packet
/// cell's two head packets: exactly the draw and the outcome of
/// `rng.gen_bool(0.5)` — one `next_u64`, `true` when its top bit is clear
/// (`(v >> 11) < 2^52`) — without building a `Bernoulli` per conflict. The
/// scalar cores and the word engines all flip this one.
#[inline]
pub(crate) fn fair_coin(rng: &mut ChaCha8Rng) -> bool {
    rng.next_u64() >> 63 == 0
}

/// One packet waiting in a packet-atomic core's queue: the header fields
/// the metrics can observe. The `id`/`source` fields of [`Packet`] are never
/// observable, so they are not stored.
#[derive(Debug, Clone, Copy, Default)]
struct Queued {
    tag: u32,
    dest: u32,
    injected_at: u64,
}

/// The shared packet-atomic core, parameterized at the type level by its
/// conflict policy: `UNBUFFERED = true` drops conflict losers (Patel's
/// model), `false` retains them with backpressure. Its queues are one
/// [`RingArena`] with a ring per `(stage, cell)`. Use through the
/// [`UnbufferedCore`] and [`FifoCore`] aliases.
#[derive(Debug)]
pub struct PacketCore<const UNBUFFERED: bool> {
    queues: RingArena<Queued>,
    stages: usize,
    cells: usize,
}

/// Patel's unbuffered crossbar cells over a flat arena: conflict losers and
/// backpressured packets are dropped, so the fabric never holds more than
/// two packets per cell.
pub type UnbufferedCore = PacketCore<true>;

/// Per-cell FIFOs with backpressure over a flat arena: blocked packets stay
/// queued, and injection is refused when the first-stage queue is full.
///
/// This core is the oracle of the word-packed FIFO engine (`crate::fifo`),
/// which runs healthy batches of up to 64 replications per word: the FIFO
/// oracle tests hold every packed lane to this core driven by a fresh
/// [`crate::Simulator`], field for field.
pub type FifoCore = PacketCore<false>;

impl PacketCore<true> {
    /// An unbuffered core for a `stages × cells` fabric.
    pub fn new(stages: usize, cells: usize) -> Self {
        Self::with_capacity(stages, cells, 2)
    }
}

impl PacketCore<false> {
    /// A FIFO core for a `stages × cells` fabric with per-cell FIFOs holding
    /// `2 · depth` packets (depth per input port of the 2×2 cell).
    pub fn new(stages: usize, cells: usize, depth: usize) -> Self {
        Self::with_capacity(stages, cells, 2 * depth.max(1))
    }
}

impl<const UNBUFFERED: bool> PacketCore<UNBUFFERED> {
    fn with_capacity(stages: usize, cells: usize, capacity: usize) -> Self {
        PacketCore {
            queues: RingArena::new(stages * cells, capacity),
            stages,
            cells,
        }
    }

    #[inline]
    fn ring(&self, stage: usize, cell: usize) -> usize {
        stage * self.cells + cell
    }
}

impl<const UNBUFFERED: bool> SwitchCore for PacketCore<UNBUFFERED> {
    fn deliver(
        &mut self,
        _fabric: &Fabric,
        faults: &FaultView<'_>,
        cycle: u64,
        warmup: u64,
        metrics: &mut Metrics,
    ) {
        let last = self.stages - 1;
        let degraded = faults.any_active();
        for cell in 0..self.cells {
            let r = self.ring(last, cell);
            if self.queues.is_empty(r) {
                continue;
            }
            if degraded && faults.cell_dead(last, cell) {
                while self.queues.pop_front(r).is_some() {
                    metrics.record_fault_loss(last);
                }
                continue;
            }
            while let Some(q) = self.queues.pop_front(r) {
                metrics.delivered += 1;
                if degraded {
                    metrics.delivered_despite_fault += 1;
                }
                if q.dest as usize != cell {
                    metrics.misrouted += 1;
                }
                if q.injected_at >= warmup {
                    metrics.record_latency(cycle - q.injected_at);
                }
            }
        }
    }

    /// One switching pass. `UNBUFFERED` selects the drop-on-conflict
    /// policy; otherwise blocked packets are retained at the head of their
    /// queue in arrival order. The fault checks are gated on `faulty`, so
    /// a healthy fabric reads no fault table.
    fn switch(
        &mut self,
        fabric: &Fabric,
        faults: &FaultView<'_>,
        rng: &mut ChaCha8Rng,
        metrics: &mut Metrics,
    ) {
        let faulty = faults.any_active();
        for s in (0..self.stages - 1).rev() {
            for cell in 0..self.cells {
                let r = self.ring(s, cell);
                if self.queues.is_empty(r) {
                    continue;
                }
                // A switch that died takes its queued traffic with it.
                if faulty && faults.cell_dead(s, cell) {
                    while self.queues.pop_front(r).is_some() {
                        metrics.record_fault_loss(s);
                    }
                    continue;
                }
                // A 2x2 cell forwards at most one packet per out-port per
                // cycle; only the two packets at the head of the queue are
                // considered this cycle (FIFO order preserved).
                let mut port_used = [false; 2];
                let mut cand = [Queued::default(); 2];
                let mut count = 0;
                while count < 2 {
                    match self.queues.pop_front(r) {
                        Some(q) => {
                            cand[count] = q;
                            count += 1;
                        }
                        None => break,
                    }
                }
                // Resolve same-port contention with a fair coin.
                if count == 2 && ((cand[0].tag ^ cand[1].tag) >> s) & 1 == 0 && fair_coin(rng) {
                    cand.swap(0, 1);
                }
                let mut retained = [Queued::default(); 2];
                let mut retained_count = 0;
                for &q in &cand[..count] {
                    let port = ((q.tag >> s) & 1) as usize;
                    if port_used[port] {
                        // Lost arbitration.
                        if UNBUFFERED {
                            metrics.dropped_arbitration += 1;
                        } else {
                            retained[retained_count] = q;
                            retained_count += 1;
                        }
                        continue;
                    }
                    let status = if faulty {
                        faults.link_status(s, cell, port)
                    } else {
                        LinkStatus::Up
                    };
                    match status {
                        LinkStatus::Down => {
                            // The packet's next hop is gone: it is lost in
                            // flight.
                            metrics.record_fault_loss(s);
                            continue;
                        }
                        LinkStatus::Throttled => {
                            // Half-bandwidth link on an off cycle: wait if
                            // the core can hold the packet, lose it if not.
                            if UNBUFFERED {
                                metrics.record_fault_loss(s);
                            } else {
                                metrics.record_fault_exposure(s);
                                retained[retained_count] = q;
                                retained_count += 1;
                            }
                            continue;
                        }
                        LinkStatus::Up => {}
                    }
                    let next = fabric.next_cell(s, cell as u32, port as u8) as usize;
                    if faulty && faults.cell_dead(s + 1, next) {
                        metrics.record_fault_loss(s);
                        continue;
                    }
                    let nr = self.ring(s + 1, next);
                    if !self.queues.is_full(nr) {
                        port_used[port] = true;
                        self.queues.push_back(nr, q);
                    } else if UNBUFFERED {
                        metrics.dropped_backpressure += 1;
                    } else {
                        retained[retained_count] = q;
                        retained_count += 1;
                    }
                }
                // Put retained packets back at the front, preserving order.
                for &q in retained[..retained_count].iter().rev() {
                    self.queues.push_front(r, q);
                }
                // In unbuffered mode nothing may linger in an interior queue.
                if UNBUFFERED && s > 0 {
                    while self.queues.pop_front(r).is_some() {
                        metrics.dropped_backpressure += 1;
                    }
                }
            }
        }
    }

    fn can_accept(&self, cell: usize) -> bool {
        !self.queues.is_full(self.ring(0, cell))
    }

    fn inject(&mut self, cell: usize, packet: Packet) {
        let r = self.ring(0, cell);
        self.queues.push_back(
            r,
            Queued {
                tag: packet.tag,
                dest: packet.destination,
                injected_at: packet.injected_at,
            },
        );
    }

    fn in_flight(&self) -> u64 {
        self.queues.total_len()
    }

    fn occupancy(&self) -> (u64, u64) {
        (self.queues.total_len(), self.queues.slot_count())
    }

    fn reset(&mut self) {
        self.queues.reset();
    }
}

/// `out_lane` of a lane whose head flit has not yet allocated a downstream
/// lane.
const NO_ROUTE: u32 = u32::MAX;

/// The per-lane switching state: 16 bytes, four lanes per cache line. A
/// free lane's record is stale; claiming the lane overwrites it.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// Flits of the worm buffered in this lane.
    held: u32,
    /// Flits of the worm that have not yet arrived into this lane (they are
    /// still in the upstream lane, or in the source staging buffer for
    /// first-stage lanes).
    to_receive: u32,
    /// Global index of the downstream lane the head flit allocated, or
    /// [`NO_ROUTE`] while the head flit is still here.
    out_lane: u32,
    /// The worm's routing tag.
    tag: u32,
}

const _: () = assert!(std::mem::size_of::<Lane>() == 16);

/// The lane masks of one cell: bit `l` describes lane `l`.
#[derive(Debug, Clone, Copy, Default)]
struct CellLanes {
    /// Lanes a worm holds.
    active: u64,
    /// Active lanes holding at least one flit (`held > 0`).
    ready: u64,
    /// Active lanes whose worm leaves this cell through out-port 1.
    port: u64,
}

/// Multi-lane virtual-channel wormhole core.
///
/// Every cell owns `lanes` lanes, each buffering up to `lane_depth` flits.
/// A lane holds one worm at a time, so it stores no flit records: it counts
/// the flits it holds and the flits still to arrive, and the flit that
/// leaves it with both counts at zero is the worm's tail. A packet is
/// injected as a worm of `flits_per_packet` flits into a free first-stage
/// lane; its head flit allocates a free lane in the downstream cell chosen
/// by destination-tag routing, and the body streams behind it at one flit
/// per out-port per cycle (same-port contention between lanes is arbitrated
/// uniformly at random, and a blocked winner yields the port to the next
/// ready lane). A lane is released only when the worm's tail
/// flit has drained through it, so a blocked worm holds lanes across several
/// stages — the defining wormhole behaviour. The stage-ordered channel
/// dependencies of a MIN are acyclic, so this cannot deadlock.
///
/// Each cell keeps its lanes in `u64` masks (hence at most
/// [`crate::MAX_WORMHOLE_LANES`] lanes), so the first free lane is one
/// `trailing_zeros`, a port's candidates are two ANDs, and every phase
/// walks only set bits, in lane order. A lane's switching state is a
/// 16-byte hot record; the worm's cold [`Packet`] header is copied once
/// per hop and read only at delivery and when a fault kills the worm.
///
/// This core is the oracle of the word-packed wormhole engine
/// (`crate::worm`), which runs healthy batches of up to 64 replications
/// per word: the wormhole oracle tests hold every packed lane to this core
/// driven by a fresh [`crate::Simulator`], field for field.
#[derive(Debug)]
pub struct WormholeCore {
    stages: usize,
    cells: usize,
    lanes_per_cell: usize,
    /// `log2` of the per-cell lane stride, `lanes_per_cell` rounded up to a
    /// power of two: lane `l` of cell `c` has global index `c << shift | l`.
    shift: u32,
    /// The `lanes_per_cell` low bits: every lane of a cell.
    all_lanes: u64,
    lane_depth: u32,
    flits_per_packet: u32,
    /// Lane masks per cell, indexed `stage * cells + cell`.
    cell: Vec<CellLanes>,
    /// Hot per-lane state, indexed by global lane index.
    lane: Vec<Lane>,
    /// Header of the worm holding each lane, same indexing.
    packet: Vec<Packet>,
    /// Number of active lanes across the fabric.
    active_lanes: u64,
    in_flight: u64,
}

impl WormholeCore {
    /// A core for a `stages × cells` fabric with `lanes` lanes of
    /// `lane_depth` flits per cell and `flits_per_packet` flits per worm.
    /// All three parameters must be nonzero and `lanes` at most
    /// [`crate::MAX_WORMHOLE_LANES`] (see [`BufferMode::validate`]).
    pub fn new(
        stages: usize,
        cells: usize,
        lanes: usize,
        lane_depth: usize,
        flits_per_packet: usize,
    ) -> Self {
        assert!(
            lanes > 0 && lane_depth > 0 && flits_per_packet > 0,
            "wormhole parameters must be nonzero"
        );
        assert!(
            lanes <= MAX_WORMHOLE_LANES,
            "{lanes} lanes exceed the {MAX_WORMHOLE_LANES}-bit lane mask"
        );
        let shift = lanes.next_power_of_two().trailing_zeros();
        let slots = (stages * cells) << shift;
        assert!(
            slots < NO_ROUTE as usize,
            "{slots} lanes overflow a u32 index"
        );
        WormholeCore {
            stages,
            cells,
            lanes_per_cell: lanes,
            shift,
            all_lanes: u64::MAX >> (MAX_WORMHOLE_LANES - lanes),
            // A lane never holds more than one worm's flits, so a depth
            // beyond `u32` behaves exactly like `u32::MAX`.
            lane_depth: lane_depth.min(u32::MAX as usize) as u32,
            flits_per_packet: flits_per_packet as u32,
            cell: vec![CellLanes::default(); stages * cells],
            lane: vec![Lane::default(); slots],
            packet: vec![Packet::default(); slots],
            active_lanes: 0,
            in_flight: 0,
        }
    }

    /// First free lane of cell `c` (`stage * cells + cell`), in lane order.
    #[inline]
    fn free_lane(&self, c: usize) -> Option<usize> {
        let free = !self.cell[c].active & self.all_lanes;
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// Hands lane `l` of cell `c`, at `stage`, to the worm `packet` with
    /// switching state `lane`, and returns the lane's global index.
    #[inline]
    fn claim(&mut self, c: usize, l: usize, stage: usize, lane: Lane, packet: Packet) -> usize {
        let cell = &mut self.cell[c];
        cell.active |= 1 << l;
        cell.ready |= u64::from(lane.held > 0) << l;
        cell.port = cell.port & !(1 << l) | u64::from((lane.tag >> stage) & 1) << l;
        self.active_lanes += 1;
        let li = c << self.shift | l;
        self.lane[li] = lane;
        self.packet[li] = packet;
        li
    }

    /// Frees lane `l` of cell `c`.
    #[inline]
    fn release(&mut self, c: usize, l: usize) {
        let cell = &mut self.cell[c];
        cell.active &= !(1 << l);
        cell.ready &= !(1 << l);
        self.active_lanes -= 1;
    }

    /// Takes one flit out of lane `l` of cell `c`, clearing its ready bit
    /// when it empties; returns whether the worm's tail just left.
    #[inline]
    fn pop_flit(&mut self, c: usize, l: usize) -> bool {
        let lane = &mut self.lane[c << self.shift | l];
        lane.held -= 1;
        if lane.held > 0 {
            return false;
        }
        let tail = lane.to_receive == 0;
        self.cell[c].ready &= !(1 << l);
        tail
    }

    /// Tries to move the front flit of lane `l` of cell `c` (= `(s, cell)`)
    /// across the stage-`s` link through `port`. Returns whether a flit
    /// moved.
    fn try_forward(&mut self, fabric: &Fabric, c: usize, l: usize, s: usize, port: usize) -> bool {
        let li = c << self.shift | l;
        if self.lane[li].out_lane == NO_ROUTE {
            // Head flit: allocate a free lane in the downstream cell.
            let cell = (c - s * self.cells) as u32;
            let next = fabric.next_cell(s, cell, port as u8) as usize;
            let dc = (s + 1) * self.cells + next;
            let Some(dl) = self.free_lane(dc) else {
                return false;
            };
            let lane = Lane {
                held: 0,
                to_receive: self.flits_per_packet,
                out_lane: NO_ROUTE,
                tag: self.lane[li].tag,
            };
            let dli = self.claim(dc, dl, s + 1, lane, self.packet[li]);
            self.lane[li].out_lane = dli as u32;
        }
        let dli = self.lane[li].out_lane as usize;
        let down = &mut self.lane[dli];
        if down.held == self.lane_depth {
            return false;
        }
        down.held += 1;
        down.to_receive -= 1;
        self.cell[dli >> self.shift].ready |= 1 << (dli & ((1 << self.shift) - 1));
        // The tail has left: the whole worm drained through, so release
        // the upstream lane.
        if self.pop_flit(c, l) {
            self.release(c, l);
        }
        true
    }

    /// Kills the worm with packet id `id` outright: every lane it holds (in
    /// any stage, including flits already forwarded past the fault and the
    /// source staging remainder) is freed. One fault loss is recorded at
    /// `stage`.
    fn kill_worm(&mut self, id: u64, stage: usize, metrics: &mut Metrics) {
        for c in 0..self.cell.len() {
            let mut bits = self.cell[c].active;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.packet[c << self.shift | l].id == id {
                    self.release(c, l);
                }
            }
        }
        self.in_flight -= 1;
        metrics.record_fault_loss(stage);
    }

    /// Kills, in lane order, the worms holding the lanes `lanes` of cell
    /// `c` at `stage` (a worm holds at most one lane per cell).
    fn kill_worms_at(&mut self, c: usize, mut lanes: u64, stage: usize, metrics: &mut Metrics) {
        while lanes != 0 {
            let l = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            let id = self.packet[c << self.shift | l].id;
            self.kill_worm(id, stage, metrics);
        }
    }
}

impl SwitchCore for WormholeCore {
    fn deliver(
        &mut self,
        _fabric: &Fabric,
        faults: &FaultView<'_>,
        cycle: u64,
        warmup: u64,
        metrics: &mut Metrics,
    ) {
        // A last-stage cell has two in-links, and the switch pass forwards
        // at most one flit per link per cycle. Every ready flit leaves here
        // on the cycle after it arrives, so at most two lanes are ready,
        // each holding one flit: the cell's two ejection links (one flit
        // per link, as in the interior stages) take them all, in lane
        // order. A worm is delivered when its tail flit leaves.
        let last = self.stages - 1;
        let degraded = faults.any_active();
        for cell in 0..self.cells {
            let c = last * self.cells + cell;
            if self.cell[c].active == 0 {
                continue;
            }
            if degraded && faults.cell_dead(last, cell) {
                self.kill_worms_at(c, self.cell[c].active, last, metrics);
                continue;
            }
            let mut ready = self.cell[c].ready;
            debug_assert!(
                ready.count_ones() <= 2,
                "a last-stage cell has two in-links"
            );
            while ready != 0 {
                let l = ready.trailing_zeros() as usize;
                ready &= ready - 1;
                metrics.flits_delivered += 1;
                if !self.pop_flit(c, l) {
                    continue;
                }
                let p = &self.packet[c << self.shift | l];
                metrics.delivered += 1;
                if degraded {
                    metrics.delivered_despite_fault += 1;
                }
                if p.destination as usize != cell {
                    metrics.misrouted += 1;
                }
                if p.injected_at >= warmup {
                    metrics.record_latency(cycle - p.injected_at);
                }
                self.release(c, l);
                self.in_flight -= 1;
            }
        }
    }

    fn switch(
        &mut self,
        fabric: &Fabric,
        faults: &FaultView<'_>,
        rng: &mut ChaCha8Rng,
        metrics: &mut Metrics,
    ) {
        // The fault checks are gated on `faulty` so the healthy hot path is
        // untouched.
        let faulty = faults.any_active();
        for s in (0..self.stages - 1).rev() {
            for cell in 0..self.cells {
                let c = s * self.cells + cell;
                let lanes = self.cell[c];
                if lanes.active == 0 {
                    continue;
                }
                if faulty && faults.cell_dead(s, cell) {
                    self.kill_worms_at(c, lanes.active, s, metrics);
                    continue;
                }
                // Lanes with a flit ready to cross this stage's link, split
                // by the out-port their worm's routing tag requests.
                let want = [lanes.ready & !lanes.port, lanes.ready & lanes.port];
                // Walk the nonempty ports only: with one lane busy, the loop
                // then runs once instead of branching on an empty port.
                let mut ports = u32::from(want[0] != 0) | u32::from(want[1] != 0) << 1;
                while ports != 0 {
                    let port = ports.trailing_zeros() as usize;
                    ports &= ports - 1;
                    let candidates = want[port];
                    let count = candidates.count_ones();
                    if faulty {
                        let next = fabric.next_cell(s, cell as u32, port as u8) as usize;
                        let status = faults.link_status(s, cell, port);
                        if status == LinkStatus::Down || faults.cell_dead(s + 1, next) {
                            // The link (or the switch behind it) is gone:
                            // every worm routed through it dies in place.
                            self.kill_worms_at(c, candidates, s, metrics);
                            continue;
                        }
                        if status == LinkStatus::Throttled {
                            // Off cycle of a half-bandwidth link: everyone
                            // holds their lanes and waits.
                            for _ in 0..count {
                                metrics.flit_stalls += 1;
                                metrics.record_fault_exposure(s);
                            }
                            continue;
                        }
                    }
                    // Fair arbitration: a uniformly chosen winner gets the
                    // port; if it cannot actually move (no free downstream
                    // lane, or downstream lane full) the port falls through
                    // to the next ready lane in cyclic lane order — the
                    // candidates rotated to start at the winner.
                    let mut winner = candidates;
                    if count > 1 {
                        for _ in 0..rng.gen_range(0..count as usize) {
                            winner &= winner - 1;
                        }
                    }
                    let first = winner.trailing_zeros();
                    let mut order = candidates.rotate_right(first);
                    let mut moved = false;
                    while order != 0 && !moved {
                        let l = (order.trailing_zeros() + first) as usize & 63;
                        order &= order - 1;
                        moved = self.try_forward(fabric, c, l, s, port);
                    }
                    metrics.flit_stalls += u64::from(count - u32::from(moved));
                }
            }
        }
        // Source streaming: each first-stage lane draws one flit per cycle
        // from its worm's injection staging buffer, after the stage pass so
        // space freed this cycle is usable immediately.
        for c in 0..self.cells {
            let mut bits = self.cell[c].active;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let lane = &mut self.lane[c << self.shift | l];
                if lane.to_receive > 0 && lane.held < self.lane_depth {
                    lane.held += 1;
                    lane.to_receive -= 1;
                    self.cell[c].ready |= 1 << l;
                }
            }
        }
    }

    fn can_accept(&self, cell: usize) -> bool {
        self.cell[cell].active != self.all_lanes
    }

    fn inject(&mut self, cell: usize, packet: Packet) {
        let l = self
            .free_lane(cell)
            .expect("inject is only called after can_accept");
        // The head flit enters the lane in the injection cycle itself; the
        // rest of the worm streams in from the source staging buffer.
        let lane = Lane {
            held: 1,
            to_receive: self.flits_per_packet - 1,
            out_lane: NO_ROUTE,
            tag: packet.tag,
        };
        self.claim(cell, l, 0, lane, packet);
        self.in_flight += 1;
    }

    fn in_flight(&self) -> u64 {
        self.in_flight
    }

    fn occupancy(&self) -> (u64, u64) {
        let lanes = self.stages * self.cells * self.lanes_per_cell;
        (self.active_lanes, lanes as u64)
    }

    fn reset(&mut self) {
        self.cell.fill(CellLanes::default());
        self.active_lanes = 0;
        self.in_flight = 0;
    }
}

#[cfg(test)]
mod reference {
    //! The wormhole core as it stood before the lane masks and the hot/cold
    //! split: one 48-byte record per lane, linear free-lane scans and
    //! full-lane sweeps. Kept verbatim as the lockstep oracle of
    //! [`super::WormholeCore`].

    use super::SwitchCore;
    use crate::fabric::Fabric;
    use crate::fault::{FaultView, LinkStatus};
    use crate::metrics::Metrics;
    use crate::packet::Packet;
    use rand::Rng;
    use rand_chacha::ChaCha8Rng;

    /// Bookkeeping of one virtual-channel lane.
    #[derive(Debug, Clone, Copy, Default)]
    struct LaneState {
        /// Whether a worm currently owns this lane.
        active: bool,
        /// Header of the owning worm (routing tag, destination, injection time).
        packet: Packet,
        /// Flits of the worm buffered in this lane (zero whenever it is free).
        held: u32,
        /// Flits of the worm that have not yet arrived into this lane (they are
        /// still in the upstream lane, or in the source staging buffer for
        /// first-stage lanes).
        to_receive: u32,
        /// Whether the head flit has already allocated a downstream lane.
        route_set: bool,
        /// Global index of the allocated downstream lane (valid iff `route_set`).
        out_lane: u32,
    }

    /// Multi-lane virtual-channel wormhole core.
    ///
    /// Every cell owns `lanes` lanes, each buffering up to `lane_depth` flits.
    /// A lane holds one worm at a time, so it stores no flit records: it counts
    /// the flits it holds and the flits still to arrive, and the flit that
    /// leaves it with both counts at zero is the worm's tail. A packet is
    /// injected as a worm of `flits_per_packet` flits into a free first-stage
    /// lane; its head flit allocates a free lane in the downstream cell chosen
    /// by destination-tag routing, and the body streams behind it at one flit
    /// per out-port per cycle (same-port contention between lanes is arbitrated
    /// uniformly at random, and a blocked winner yields the port to the next
    /// ready lane). A lane is released only when the worm's tail
    /// flit has drained through it, so a blocked worm holds lanes across several
    /// stages — the defining wormhole behaviour. The stage-ordered channel
    /// dependencies of a MIN are acyclic, so this cannot deadlock.
    #[derive(Debug)]
    pub struct WormholeCore {
        stages: usize,
        cells: usize,
        lanes_per_cell: usize,
        lane_depth: u32,
        flits_per_packet: u32,
        lane: Vec<LaneState>,
        in_flight: u64,
        /// Reused per-port candidate lists for the switching pass, kept on the
        /// core so steady-state switching allocates nothing.
        want_scratch: [Vec<usize>; 2],
    }

    impl WormholeCore {
        /// A core for a `stages × cells` fabric with `lanes` lanes of
        /// `lane_depth` flits per cell and `flits_per_packet` flits per worm.
        /// All three parameters must be nonzero (see [`BufferMode::validate`]).
        pub fn new(
            stages: usize,
            cells: usize,
            lanes: usize,
            lane_depth: usize,
            flits_per_packet: usize,
        ) -> Self {
            assert!(
                lanes > 0 && lane_depth > 0 && flits_per_packet > 0,
                "wormhole parameters must be nonzero"
            );
            let lane_count = stages * cells * lanes;
            WormholeCore {
                stages,
                cells,
                lanes_per_cell: lanes,
                // A lane never holds more than one worm's flits, so a depth
                // beyond `u32` behaves exactly like `u32::MAX`.
                lane_depth: lane_depth.min(u32::MAX as usize) as u32,
                flits_per_packet: flits_per_packet as u32,
                lane: vec![LaneState::default(); lane_count],
                in_flight: 0,
                want_scratch: [Vec::new(), Vec::new()],
            }
        }

        #[inline]
        fn lane_index(&self, stage: usize, cell: usize, lane: usize) -> usize {
            (stage * self.cells + cell) * self.lanes_per_cell + lane
        }

        /// First free lane of `(stage, cell)`, scanning in lane order.
        fn free_lane(&self, stage: usize, cell: usize) -> Option<usize> {
            (0..self.lanes_per_cell)
                .map(|l| self.lane_index(stage, cell, l))
                .find(|&li| !self.lane[li].active)
        }

        /// Tries to move the front flit of lane `li` across the stage-`s` link
        /// through `port`. Returns whether a flit moved.
        fn try_forward(
            &mut self,
            fabric: &Fabric,
            li: usize,
            s: usize,
            cell: usize,
            port: usize,
        ) -> bool {
            if !self.lane[li].route_set {
                // Head flit: allocate a free lane in the downstream cell.
                let next_cell = fabric.next_cell(s, cell as u32, port as u8) as usize;
                let Some(dl) = self.free_lane(s + 1, next_cell) else {
                    return false;
                };
                let packet = self.lane[li].packet;
                self.lane[li].route_set = true;
                self.lane[li].out_lane = dl as u32;
                self.lane[dl] = LaneState {
                    active: true,
                    packet,
                    held: 0,
                    to_receive: self.flits_per_packet,
                    route_set: false,
                    out_lane: 0,
                };
            }
            let dl = self.lane[li].out_lane as usize;
            if self.lane[dl].held == self.lane_depth {
                return false;
            }
            self.lane[li].held -= 1;
            self.lane[dl].held += 1;
            self.lane[dl].to_receive -= 1;
            // The tail has left: the whole worm drained through, so release
            // the upstream lane.
            if self.lane[li].held == 0 && self.lane[li].to_receive == 0 {
                self.lane[li] = LaneState::default();
            }
            true
        }

        /// Kills the worm with packet id `id` outright: every lane it holds (in
        /// any stage, including flits already forwarded past the fault and the
        /// source staging remainder) is freed. One fault loss is recorded at
        /// `stage`.
        fn kill_worm(&mut self, id: u64, stage: usize, metrics: &mut Metrics) {
            for lane in &mut self.lane {
                if lane.active && lane.packet.id == id {
                    *lane = LaneState::default();
                }
            }
            self.in_flight -= 1;
            metrics.record_fault_loss(stage);
        }

        /// Kills every worm holding a lane at `(stage, cell)` — the cell died.
        fn kill_worms_at(&mut self, stage: usize, cell: usize, metrics: &mut Metrics) {
            for l in 0..self.lanes_per_cell {
                let li = self.lane_index(stage, cell, l);
                if self.lane[li].active {
                    let id = self.lane[li].packet.id;
                    self.kill_worm(id, stage, metrics);
                }
            }
        }
    }

    impl SwitchCore for WormholeCore {
        fn deliver(
            &mut self,
            _fabric: &Fabric,
            faults: &FaultView<'_>,
            cycle: u64,
            warmup: u64,
            metrics: &mut Metrics,
        ) {
            // A last-stage cell has two output terminals, so it ejects at most
            // two flits per cycle (one per ejection link, matching the
            // one-flit-per-link discipline of the interior stages). Lanes take
            // the ejection links round-robin — the scan start rotates with the
            // cycle — and a worm is delivered when its tail flit leaves.
            let degraded = faults.any_active();
            for cell in 0..self.cells {
                if degraded && faults.cell_dead(self.stages - 1, cell) {
                    self.kill_worms_at(self.stages - 1, cell, metrics);
                    continue;
                }
                let mut eject_budget = 2u32;
                let start = (cycle as usize) % self.lanes_per_cell;
                for k in 0..self.lanes_per_cell {
                    if eject_budget == 0 {
                        break;
                    }
                    let l = (start + k) % self.lanes_per_cell;
                    let li = self.lane_index(self.stages - 1, cell, l);
                    let lane = &mut self.lane[li];
                    if lane.held == 0 {
                        continue;
                    }
                    lane.held -= 1;
                    eject_budget -= 1;
                    metrics.flits_delivered += 1;
                    if lane.held == 0 && lane.to_receive == 0 {
                        let p = lane.packet;
                        metrics.delivered += 1;
                        if degraded {
                            metrics.delivered_despite_fault += 1;
                        }
                        if p.destination as usize != cell {
                            metrics.misrouted += 1;
                        }
                        if p.injected_at >= warmup {
                            metrics.record_latency(cycle - p.injected_at);
                        }
                        *lane = LaneState::default();
                        self.in_flight -= 1;
                    }
                }
            }
        }

        fn switch(
            &mut self,
            fabric: &Fabric,
            faults: &FaultView<'_>,
            rng: &mut ChaCha8Rng,
            metrics: &mut Metrics,
        ) {
            // Per cell, lanes with a flit ready to cross this stage's link,
            // grouped by the out-port their worm's routing tag requests. The
            // scratch buffers live on the core so steady-state switching stays
            // allocation-free. The fault checks are gated on `faulty` so the
            // healthy hot path is untouched.
            let faulty = faults.any_active();
            let mut want = std::mem::take(&mut self.want_scratch);
            for s in (0..self.stages - 1).rev() {
                for cell in 0..self.cells {
                    if faulty && faults.cell_dead(s, cell) {
                        self.kill_worms_at(s, cell, metrics);
                        continue;
                    }
                    want[0].clear();
                    want[1].clear();
                    for l in 0..self.lanes_per_cell {
                        let li = self.lane_index(s, cell, l);
                        if self.lane[li].held > 0 {
                            let port = self.lane[li].packet.port_at(s) as usize;
                            want[port].push(li);
                        }
                    }
                    for port in 0..2 {
                        let candidates = std::mem::take(&mut want[port]);
                        if candidates.is_empty() {
                            continue;
                        }
                        if faulty {
                            let next = fabric.next_cell(s, cell as u32, port as u8) as usize;
                            let status = faults.link_status(s, cell, port);
                            if status == LinkStatus::Down || faults.cell_dead(s + 1, next) {
                                // The link (or the switch behind it) is gone:
                                // every worm routed through it dies in place.
                                for &li in &candidates {
                                    let id = self.lane[li].packet.id;
                                    self.kill_worm(id, s, metrics);
                                }
                                want[port] = candidates;
                                continue;
                            }
                            if status == LinkStatus::Throttled {
                                // Off cycle of a half-bandwidth link: everyone
                                // holds their lanes and waits.
                                for _ in &candidates {
                                    metrics.flit_stalls += 1;
                                    metrics.record_fault_exposure(s);
                                }
                                want[port] = candidates;
                                continue;
                            }
                        }
                        // Fair arbitration: a uniformly chosen winner gets the
                        // port; if it cannot actually move (no free downstream
                        // lane, or downstream lane full) the port falls through
                        // to the next ready lane in cyclic order.
                        let winner = if candidates.len() == 1 {
                            0
                        } else {
                            rng.gen_range(0..candidates.len())
                        };
                        let mut moved = false;
                        for k in 0..candidates.len() {
                            let li = candidates[(winner + k) % candidates.len()];
                            if !moved && self.try_forward(fabric, li, s, cell, port) {
                                moved = true;
                            } else {
                                metrics.flit_stalls += 1;
                            }
                        }
                        want[port] = candidates;
                    }
                }
            }
            self.want_scratch = want;
            // Source streaming: each first-stage lane draws one flit per cycle
            // from its worm's injection staging buffer, after the stage pass so
            // space freed this cycle is usable immediately.
            let depth = self.lane_depth;
            for lane in &mut self.lane[..self.cells * self.lanes_per_cell] {
                if lane.to_receive > 0 && lane.held < depth {
                    lane.held += 1;
                    lane.to_receive -= 1;
                }
            }
        }

        fn can_accept(&self, cell: usize) -> bool {
            self.free_lane(0, cell).is_some()
        }

        fn inject(&mut self, cell: usize, packet: Packet) {
            let li = self
                .free_lane(0, cell)
                .expect("inject is only called after can_accept");
            self.lane[li] = LaneState {
                active: true,
                packet,
                // The head flit enters the lane in the injection cycle itself;
                // the rest of the worm streams in from the source staging buffer.
                held: 1,
                to_receive: self.flits_per_packet - 1,
                route_set: false,
                out_lane: 0,
            };
            self.in_flight += 1;
        }

        fn in_flight(&self) -> u64 {
            self.in_flight
        }

        fn occupancy(&self) -> (u64, u64) {
            let occupied = self.lane.iter().filter(|l| l.active).count() as u64;
            (occupied, self.lane.len() as u64)
        }

        fn reset(&mut self) {
            self.lane.fill(LaneState::default());
            self.in_flight = 0;
            self.want_scratch[0].clear();
            self.want_scratch[1].clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultState};
    use crate::traffic::TrafficPattern;
    use min_networks::ClassicalNetwork;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lane-mask core and the reference core, driven through the
        /// same `deliver`/`switch`/`can_accept`/`inject` calls with cloned
        /// RNGs, agree after every cycle on every counter, the in-flight
        /// count, the occupancy and the arbitration stream's position —
        /// across a reset, on healthy fabrics and under random fault plans.
        #[test]
        fn wormhole_core_matches_the_reference_core_in_lockstep(
            family in 0..ClassicalNetwork::ALL.len(),
            stages in 2usize..=6,
            // 0 stands for a full 64-lane mask.
            lanes in 0usize..=8,
            lane_depth in 1usize..=4,
            flits in 1usize..=6,
            load in 0.0f64..=1.0,
            seed in any::<u64>(),
            fault_count in 0usize..=4,
        ) {
            let lanes = if lanes == 0 { MAX_WORMHOLE_LANES } else { lanes };
            const CYCLES: u64 = 120;
            const WARMUP: u64 = 10;
            let fabric = Fabric::for_traffic(ClassicalNetwork::ALL[family].build(stages), &TrafficPattern::Uniform)
                .expect("catalog networks are simulable");
            let cells = fabric.cells();
            let plan = FaultPlan::random_mixed(seed, fault_count, stages, cells, CYCLES / 2);
            let state = FaultState::new(&plan, stages, cells);
            let mut core = WormholeCore::new(stages, cells, lanes, lane_depth, flits);
            let mut oracle = reference::WormholeCore::new(stages, cells, lanes, lane_depth, flits);
            let mut metrics = Metrics::default();
            let mut oracle_metrics = Metrics::default();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut oracle_rng = rng.clone();
            let mut traffic = ChaCha8Rng::seed_from_u64(!seed);
            let mut next_id = 0;
            for _ in 0..2 {
                for cycle in 0..CYCLES {
                    let faults = if plan.is_empty() {
                        FaultView::healthy(cycle)
                    } else {
                        FaultView::at(&state, cycle)
                    };
                    core.deliver(&fabric, &faults, cycle, WARMUP, &mut metrics);
                    oracle.deliver(&fabric, &faults, cycle, WARMUP, &mut oracle_metrics);
                    core.switch(&fabric, &faults, &mut rng, &mut metrics);
                    oracle.switch(&fabric, &faults, &mut oracle_rng, &mut oracle_metrics);
                    for cell in 0..cells {
                        for _ in 0..2 {
                            if !traffic.gen_bool(load) {
                                continue;
                            }
                            let accepts = core.can_accept(cell);
                            prop_assert_eq!(accepts, oracle.can_accept(cell));
                            if accepts {
                                let packet = Packet {
                                    id: next_id,
                                    source: cell as u32,
                                    destination: traffic.gen_range(0..cells as u32),
                                    tag: traffic.gen(),
                                    injected_at: cycle,
                                };
                                next_id += 1;
                                core.inject(cell, packet);
                                oracle.inject(cell, packet);
                            }
                        }
                    }
                    prop_assert_eq!(&metrics, &oracle_metrics);
                    prop_assert_eq!(core.in_flight(), oracle.in_flight());
                    prop_assert_eq!(core.occupancy(), oracle.occupancy());
                    prop_assert_eq!(rng.clone().next_u64(), oracle_rng.clone().next_u64());
                }
                core.reset();
                oracle.reset();
            }
        }
    }

    #[test]
    fn fair_coin_draws_what_gen_bool_half_draws() {
        use rand::Rng;
        for seed in [0, 7, u64::MAX] {
            let mut fast = ChaCha8Rng::seed_from_u64(seed);
            let mut reference = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..100_000 {
                assert_eq!(fair_coin(&mut fast), reference.gen_bool(0.5));
            }
            assert_eq!(
                fast.next_u64(),
                reference.next_u64(),
                "streams stay aligned"
            );
        }
    }

    #[test]
    fn ring_arena_is_fifo_and_wraps() {
        let mut a: RingArena<u32> = RingArena::new(2, 3);
        assert!(a.is_empty(0) && a.is_empty(1));
        a.push_back(0, 1);
        a.push_back(0, 2);
        a.push_back(0, 3);
        assert!(a.is_full(0));
        assert!(a.is_empty(1), "rings are independent");
        assert_eq!(a.pop_front(0), Some(1));
        a.push_back(0, 4); // wraps around the slot boundary
        assert_eq!(a.pop_front(0), Some(2));
        assert_eq!(a.pop_front(0), Some(3));
        assert_eq!(a.pop_front(0), Some(4));
        assert_eq!(a.pop_front(0), None);
    }

    #[test]
    fn ring_arena_push_front_restores_order() {
        let mut a: RingArena<u32> = RingArena::new(1, 4);
        a.push_back(0, 10);
        a.push_back(0, 11);
        let first = a.pop_front(0).unwrap();
        let second = a.pop_front(0).unwrap();
        // Retain both, preserving order, as the switch phase does.
        a.push_front(0, second);
        a.push_front(0, first);
        assert_eq!(a.pop_front(0), Some(10));
        assert_eq!(a.pop_front(0), Some(11));
        assert_eq!(a.total_len(), 0);
        assert_eq!(a.slot_count(), 4);
    }

    #[test]
    fn ring_arena_padding_keeps_logical_capacity_and_reset_empties() {
        // cap = 3 pads storage to 4, but admission and the occupancy
        // denominator must still see 3 slots per ring.
        let mut a: RingArena<u32> = RingArena::new(2, 3);
        assert_eq!(a.slot_count(), 6);
        a.push_back(0, 1);
        a.push_back(0, 2);
        a.push_back(0, 3);
        assert!(a.is_full(0), "logical capacity, not padded storage");
        a.push_back(1, 9);
        a.reset();
        assert!(a.is_empty(0) && a.is_empty(1));
        assert_eq!(a.total_len(), 0);
        a.push_back(0, 7);
        assert_eq!(a.pop_front(0), Some(7));
    }

    #[test]
    fn packet_cores_reset_to_empty() {
        for mode in [BufferMode::Unbuffered, BufferMode::Fifo(3)] {
            let mut core = build_core(mode, 3, 4);
            core.inject(1, Packet::default());
            assert_eq!(core.in_flight(), 1);
            core.reset();
            assert_eq!(core.in_flight(), 0);
            assert_eq!(core.occupancy().0, 0);
            assert!(core.can_accept(1));
        }
        let mut worm = WormholeCore::new(3, 4, 2, 2, 3);
        worm.inject(1, Packet::default());
        worm.inject(1, Packet::default());
        assert_eq!(worm.in_flight(), 2);
        worm.reset();
        assert_eq!(worm.in_flight(), 0);
        assert_eq!(worm.occupancy().0, 0);
        assert!(worm.can_accept(1));
    }

    #[test]
    fn fifo_core_occupancy_denominator_ignores_padding() {
        // Fifo(3) queues hold 2·3 = 6 packets; padded storage is 8 per ring
        // but the occupancy denominator must stay 6 per ring.
        let core = FifoCore::new(3, 4, 3);
        assert_eq!(core.occupancy().1, 3 * 4 * 6);
    }

    #[test]
    fn wormhole_lane_allocation_scans_in_order_and_respects_occupancy() {
        let mut core = WormholeCore::new(3, 4, 2, 2, 3);
        assert_eq!(core.free_lane(1), Some(0));
        let p = Packet::default();
        core.inject(1, p);
        assert_eq!(core.free_lane(1), Some(1));
        core.inject(1, p);
        assert_eq!(core.free_lane(1), None);
        assert!(!core.can_accept(1));
        assert!(core.can_accept(0));
        assert_eq!(core.in_flight(), 2);
        let (occupied, total) = core.occupancy();
        assert_eq!(occupied, 2);
        assert_eq!(total, 3 * 4 * 2);
    }

    #[test]
    fn build_core_matches_the_mode() {
        let modes = [
            BufferMode::Unbuffered,
            BufferMode::Fifo(4),
            BufferMode::Wormhole {
                lanes: 2,
                lane_depth: 2,
                flits_per_packet: 4,
            },
        ];
        for mode in modes {
            let core = build_core(mode, 3, 4);
            assert_eq!(core.in_flight(), 0);
            assert!(core.can_accept(0));
        }
    }
}
