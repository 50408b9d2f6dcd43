//! Traffic generation: destination distributions and injection processes.
//!
//! The original four patterns (uniform, hot-spot, fixed permutation,
//! bit-reversal) are *stateless*: each injection draws a destination and
//! nothing else persists between cycles. The production-shaped suite adds
//!
//! * [`TrafficPattern::Zipf`] — destinations skewed by a Zipf law over the
//!   cell index, sampled from a precomputed CDF ([`ZipfCdf`]) with one
//!   64-bit draw and a binary search;
//! * [`TrafficPattern::OnOff`] — bursty Markov-modulated sources: every
//!   terminal owns a two-state (ON/OFF) chain with geometric dwell times
//!   and injects only while ON, so the instantaneous rate during a burst
//!   far exceeds the long-run mean;
//! * [`TrafficPattern::Trace`] — exact replay of a recorded
//!   `(cycle, source, dest)` schedule ([`TraceData`]), carried as JSON like
//!   every other pattern and checked by [`TraceData::validate`].
//!
//! Injection state lives in [`TrafficSources`], which the engine asks for
//! an [`Offer`] per (cell, terminal) each cycle. Destinations have one draw
//! path: [`TrafficPattern::sampler`] builds a [`DestSampler`] holding each
//! stateless pattern's draw (a uniform range, the hot-spot coin, a
//! per-source table for permutation and bit-reversal, a [`ZipfCdf`]), and
//! both the scalar and word-packed engines draw through it, so they stay
//! bit-identical. Trace destinations come with the offer instead
//! ([`Offer::PacketTo`]). Everything is deterministic under
//! the engine's per-scenario ChaCha8 streams: a pattern draws nothing
//! beyond its documented per-offer draws, in a fixed order.
//!
//! Parameters are validated **up front** ([`TrafficPattern::validate`] for
//! cell-count-independent checks, [`TrafficPattern::validate_for`] against
//! a concrete fabric) and the draw paths assume validated input: a NaN
//! hot-spot fraction or a mismatched permutation is a typed
//! [`TrafficError`] at configuration time, never a panic in the hot path.

use rand::distributions::{Bernoulli, Distribution};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How injected packets choose their destination cell — and, for the
/// stateful members, *when* packets are injected at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Every destination cell is equally likely.
    Uniform,
    /// With probability `fraction` the packet goes to `target`; otherwise the
    /// destination is uniform (the classic hot-spot model).
    Hotspot {
        /// Probability of addressing the hot cell (finite, in `[0, 1]`).
        fraction: f64,
        /// The hot destination cell (must lie inside the fabric).
        target: u32,
    },
    /// Source cell `s` always sends to `destinations[s]` (a fixed
    /// cell-level traffic permutation or many-to-one pattern). The vector
    /// must have exactly one entry per cell, each a valid cell index.
    Permutation(Vec<u32>),
    /// Source cell `s` sends to the bit-reversal of `s`.
    BitReversal,
    /// Destinations follow a Zipf law over the cell index: cell `d` is
    /// drawn with probability proportional to `1 / (d + 1)^exponent`, so
    /// low-numbered cells are "popular" and the skew grows with the
    /// exponent (`0` degenerates to uniform). Sampling uses a precomputed
    /// CDF and costs one 64-bit draw plus a binary search.
    Zipf {
        /// Skew exponent (finite, non-negative; typical values `0.5..=1.5`).
        exponent: f64,
    },
    /// Bursty Markov-modulated sources: each of the `2 × cells` terminals
    /// runs an independent two-state chain. A terminal starts ON, leaves
    /// the ON state with probability `1 / on_dwell` per cycle and the OFF
    /// state with probability `1 / off_dwell`, so dwell times are geometric
    /// with the configured means. While ON it injects with probability
    /// `offered_load × on_rate` per cycle (destinations uniform); while OFF
    /// it injects nothing. The long-run offered rate is therefore
    /// `offered_load × on_rate × on_dwell / (on_dwell + off_dwell)`, while
    /// the in-burst rate is `offered_load × on_rate` — the gap is the
    /// burstiness.
    OnOff {
        /// Mean ON-burst length in cycles (finite, `>= 1`).
        on_dwell: f64,
        /// Mean OFF-gap length in cycles (finite, `>= 1`).
        off_dwell: f64,
        /// In-burst injection probability scale (finite, in `(0, 1]`),
        /// multiplied with the configured offered load.
        on_rate: f64,
    },
    /// Exact replay of a recorded schedule: packets are injected at the
    /// recorded (cycle, terminal) slots toward the recorded destinations,
    /// wrapping around the trace period. The configured offered load is
    /// ignored — the trace *is* the load. No RNG is drawn.
    Trace(TraceData),
}

/// Why a traffic pattern (or its fit to a fabric) is invalid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficError {
    /// A parameter that must be a finite float is NaN or infinite. (A NaN
    /// can arrive through deserialization — `1e999` parses to infinity —
    /// and previously propagated through a `clamp` into the RNG's range
    /// assertion; now it is rejected here.)
    NonFinite {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A parameter is outside its documented range.
    OutOfRange {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The hot-spot target does not name a cell of the fabric.
    HotspotTargetOutOfRange {
        /// The configured target cell.
        target: u32,
        /// Cells per stage of the fabric.
        cells: u32,
    },
    /// The permutation vector's length does not match the fabric (one entry
    /// per cell). Previously the draw path silently wrapped the source
    /// index around the vector, masking the misconfiguration.
    PermutationLength {
        /// The configured vector length.
        len: usize,
        /// Cells per stage of the fabric.
        cells: u32,
    },
    /// A permutation entry does not name a cell of the fabric. Previously
    /// the draw path silently reduced entries modulo the cell count.
    PermutationEntry {
        /// Index of the offending entry.
        index: usize,
        /// The offending entry.
        entry: u32,
        /// Cells per stage of the fabric.
        cells: u32,
    },
    /// The trace was recorded for a different fabric width.
    TraceCellsMismatch {
        /// Cells per stage the trace was recorded for.
        trace: u32,
        /// Cells per stage of the fabric.
        cells: u32,
    },
    /// The trace has a zero period or zero cells — nothing to replay.
    TraceEmpty,
    /// A trace record's cycle lies at or beyond the trace period.
    TraceCycleBeyondPeriod {
        /// Index of the offending record.
        record: usize,
        /// The record's cycle.
        cycle: u32,
        /// The trace period.
        period: u32,
    },
    /// A trace record's source is not a terminal index (`0..2 × cells`).
    TraceSourceOutOfRange {
        /// Index of the offending record.
        record: usize,
        /// The record's source terminal.
        source: u32,
        /// Number of injection terminals (`2 × cells`).
        terminals: u32,
    },
    /// A trace record's destination is not a cell index.
    TraceDestOutOfRange {
        /// Index of the offending record.
        record: usize,
        /// The record's destination cell.
        dest: u32,
        /// Cells per stage the trace was recorded for.
        cells: u32,
    },
    /// Trace records are not strictly sorted by `(cycle, source)` — the
    /// canonical order, which also forbids two packets from one terminal
    /// in one cycle.
    TraceUnsorted {
        /// Index of the first out-of-order record.
        record: usize,
    },
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::NonFinite { what, value } => {
                write!(f, "{what} must be finite, got {value}")
            }
            TrafficError::OutOfRange { what, value } => {
                write!(f, "{what} is out of range: {value}")
            }
            TrafficError::HotspotTargetOutOfRange { target, cells } => {
                write!(f, "hot-spot target {target} is not a cell index (< {cells})")
            }
            TrafficError::PermutationLength { len, cells } => write!(
                f,
                "permutation has {len} entries but the fabric has {cells} cells per stage"
            ),
            TrafficError::PermutationEntry {
                index,
                entry,
                cells,
            } => write!(
                f,
                "permutation entry {index} is {entry}, not a cell index (< {cells})"
            ),
            TrafficError::TraceCellsMismatch { trace, cells } => write!(
                f,
                "trace was recorded for {trace} cells per stage but the fabric has {cells}"
            ),
            TrafficError::TraceEmpty => write!(f, "trace has a zero period or zero cells"),
            TrafficError::TraceCycleBeyondPeriod {
                record,
                cycle,
                period,
            } => write!(
                f,
                "trace record {record} is at cycle {cycle}, beyond the period {period}"
            ),
            TrafficError::TraceSourceOutOfRange {
                record,
                source,
                terminals,
            } => write!(
                f,
                "trace record {record} injects at terminal {source}, not a terminal index (< {terminals})"
            ),
            TrafficError::TraceDestOutOfRange {
                record,
                dest,
                cells,
            } => write!(
                f,
                "trace record {record} addresses cell {dest}, not a cell index (< {cells})"
            ),
            TrafficError::TraceUnsorted { record } => write!(
                f,
                "trace record {record} is not strictly ordered by (cycle, source)"
            ),
        }
    }
}

impl std::error::Error for TrafficError {}

/// Checks that `value` is finite, returning the typed error otherwise.
fn finite(what: &'static str, value: f64) -> Result<f64, TrafficError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(TrafficError::NonFinite { what, value })
    }
}

impl TrafficPattern {
    /// Short stable name for tables and benchmark/report identifiers.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::Hotspot { .. } => "hotspot",
            TrafficPattern::Permutation(_) => "permutation",
            TrafficPattern::BitReversal => "bit-reversal",
            TrafficPattern::Zipf { .. } => "zipf",
            TrafficPattern::OnOff { .. } => "on-off",
            TrafficPattern::Trace(_) => "trace",
        }
    }

    /// Whether the pattern replays a recorded trace.
    pub(crate) fn is_trace(&self) -> bool {
        matches!(self, TrafficPattern::Trace(_))
    }

    /// Whether the pattern carries per-source injection state across cycles
    /// (ON/OFF chains, trace schedules). `batch::packed_eligible` admits
    /// only stateless patterns; the word engines keep one
    /// [`TrafficSources`] per lane, so all three pack ON/OFF chains through
    /// their own gate, and trace replay (whose schedule would be copied per
    /// lane) runs on the scalar engine.
    pub fn is_stateful(&self) -> bool {
        matches!(
            self,
            TrafficPattern::OnOff { .. } | TrafficPattern::Trace(_)
        )
    }

    /// Checks every parameter that can be checked without knowing the
    /// fabric: probabilities are finite and in range, dwell times are at
    /// least one cycle, the trace is internally consistent.
    ///
    /// [`crate::SimConfig::validate`] calls this, so invalid parameters are
    /// typed errors at configuration time rather than panics at draw time.
    pub fn validate(&self) -> Result<(), TrafficError> {
        match self {
            TrafficPattern::Uniform
            | TrafficPattern::BitReversal
            | TrafficPattern::Permutation(_) => Ok(()),
            TrafficPattern::Hotspot { fraction, .. } => {
                let fraction = finite("hot-spot fraction", *fraction)?;
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(TrafficError::OutOfRange {
                        what: "hot-spot fraction",
                        value: fraction,
                    });
                }
                Ok(())
            }
            TrafficPattern::Zipf { exponent } => {
                let exponent = finite("zipf exponent", *exponent)?;
                if exponent < 0.0 {
                    return Err(TrafficError::OutOfRange {
                        what: "zipf exponent",
                        value: exponent,
                    });
                }
                Ok(())
            }
            TrafficPattern::OnOff {
                on_dwell,
                off_dwell,
                on_rate,
            } => {
                // Dwells of at least one cycle keep the per-cycle exit
                // probabilities `1 / dwell` valid; an on-rate in `(0, 1]`
                // keeps the in-burst injection probability
                // `offered_load × on_rate` a probability for any valid load.
                for (what, value) in [("on dwell", *on_dwell), ("off dwell", *off_dwell)] {
                    if finite(what, value)? < 1.0 {
                        return Err(TrafficError::OutOfRange { what, value });
                    }
                }
                let on_rate = finite("on rate", *on_rate)?;
                if !(on_rate > 0.0 && on_rate <= 1.0) {
                    return Err(TrafficError::OutOfRange {
                        what: "on rate",
                        value: on_rate,
                    });
                }
                Ok(())
            }
            TrafficPattern::Trace(trace) => trace.validate(),
        }
    }

    /// Checks the pattern against a concrete fabric of `cells` cells per
    /// stage, including everything [`TrafficPattern::validate`] checks: the
    /// hot-spot target and every permutation entry must name a cell, the
    /// permutation must have one entry per cell, and a trace must have been
    /// recorded for exactly this width. [`crate::Simulator::new`] calls
    /// this, so a mismatched pattern is a typed error at construction.
    pub fn validate_for(&self, cells: u32) -> Result<(), TrafficError> {
        self.validate()?;
        match self {
            TrafficPattern::Hotspot { target, .. } => {
                if *target >= cells {
                    return Err(TrafficError::HotspotTargetOutOfRange {
                        target: *target,
                        cells,
                    });
                }
                Ok(())
            }
            TrafficPattern::Permutation(dest) => {
                if dest.len() != cells as usize {
                    return Err(TrafficError::PermutationLength {
                        len: dest.len(),
                        cells,
                    });
                }
                for (index, &entry) in dest.iter().enumerate() {
                    if entry >= cells {
                        return Err(TrafficError::PermutationEntry {
                            index,
                            entry,
                            cells,
                        });
                    }
                }
                Ok(())
            }
            TrafficPattern::Trace(trace) => {
                if trace.cells != cells {
                    return Err(TrafficError::TraceCellsMismatch {
                        trace: trace.cells,
                        cells,
                    });
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Builds the destination sampler for a fabric of `cells` cells per
    /// stage and `width_bits = log2(cells)`: the one draw path both engines
    /// use. Permutation and bit-reversal destinations are tabulated per
    /// source cell and Zipf's CDF is precomputed, once per sampler.
    ///
    /// The pattern must be valid for the fabric
    /// ([`TrafficPattern::validate_for`]); the engines guarantee this by
    /// validating at construction. A hot-spot fraction outside `[0, 1]`
    /// panics here, when its coin is built.
    pub fn sampler(&self, cells: u32, width_bits: usize) -> DestSampler {
        DestSampler(match self {
            TrafficPattern::Uniform | TrafficPattern::OnOff { .. } => {
                DestDraw::Uniform(UniformCell::new(cells))
            }
            &TrafficPattern::Hotspot { fraction, target } => DestDraw::Hotspot {
                hot: Bernoulli::new(fraction).expect("validated hot-spot fraction"),
                target,
                uniform: UniformCell::new(cells),
            },
            TrafficPattern::Permutation(dest) => DestDraw::Table(dest.clone()),
            // The shift is 32 only for the one-cell fabric, whose single
            // source reverses to 0.
            TrafficPattern::BitReversal => DestDraw::Table(
                (0..cells)
                    .map(|s| {
                        s.reverse_bits()
                            .checked_shr(32 - width_bits as u32)
                            .unwrap_or(0)
                    })
                    .collect(),
            ),
            TrafficPattern::Zipf { exponent } => DestDraw::Zipf(ZipfCdf::new(cells, *exponent)),
            TrafficPattern::Trace(_) => DestDraw::Replayed,
        })
    }
}

/// A precomputed Zipf CDF over cell indices, sampled with one `u64` draw
/// and a binary search.
///
/// Cell `d` has weight `1 / (d + 1)^exponent`; the normalized cumulative
/// weights are stored as fixed-point `u64` thresholds so sampling compares
/// a raw [`rand::RngCore::next_u64`] draw against them — no floating-point
/// arithmetic on the draw path, hence bit-identical across platforms.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfCdf {
    /// Exclusive cumulative thresholds: cell `d` is chosen when the draw
    /// falls in `thresholds[d - 1]..thresholds[d]` (with an implicit 0
    /// before the first). The last entry is `u64::MAX`.
    thresholds: Vec<u64>,
}

impl ZipfCdf {
    /// Precomputes the CDF for `cells` destinations with the given (finite,
    /// non-negative) exponent.
    pub fn new(cells: u32, exponent: f64) -> Self {
        let weights: Vec<f64> = (0..cells)
            .map(|d| (f64::from(d) + 1.0).powf(-exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut thresholds = Vec::with_capacity(cells as usize);
        let mut cum = 0.0;
        for &w in &weights {
            cum += w;
            // Round-to-nearest keeps each cell's share within one ulp of
            // the real CDF; the final threshold is pinned to the maximum so
            // every draw lands on some cell.
            thresholds.push(((cum / total) * (u64::MAX as f64)) as u64);
        }
        if let Some(last) = thresholds.last_mut() {
            *last = u64::MAX;
        }
        ZipfCdf { thresholds }
    }

    /// Draws one destination: a single 64-bit draw, then a binary search
    /// over the thresholds.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        let x = rng.next_u64();
        // First threshold strictly above the draw; the u64::MAX pin plus
        // the min() guard keep the edge draw x == u64::MAX in range.
        let idx = self.thresholds.partition_point(|&t| t <= x);
        idx.min(self.thresholds.len() - 1) as u32
    }
}

/// A uniform draw over the cells `0..cells`, with the power-of-two mask
/// precomputed.
///
/// For a power-of-two `cells > 1` the draw is `next_u64() & (cells - 1)` —
/// exactly the word and the value `gen_range(0..cells)` produces, without
/// its 128-bit span arithmetic. Any other count keeps `gen_range` (which
/// draws nothing at all for a single cell).
#[derive(Debug, Clone, Copy)]
pub struct UniformCell {
    cells: u32,
    /// `cells - 1` when `cells` is a power of two above one.
    mask: Option<u64>,
}

impl UniformCell {
    /// The uniform draw over `0..cells`; `cells` must be positive.
    pub fn new(cells: u32) -> Self {
        let mask = (cells > 1 && cells.is_power_of_two()).then(|| u64::from(cells - 1));
        UniformCell { cells, mask }
    }

    /// Draws one cell, consuming the same words as `gen_range(0..cells)`.
    #[inline]
    pub fn draw<R: Rng>(&self, rng: &mut R) -> u32 {
        match self.mask {
            Some(mask) => (rng.next_u64() & mask) as u32,
            None => rng.gen_range(0..self.cells),
        }
    }
}

/// The destination draw of a traffic pattern, built once per simulator by
/// [`TrafficPattern::sampler`].
///
/// This is the only place destinations are drawn: the scalar and the
/// word-packed engine both call [`DestSampler::draw`], which is what keeps
/// their streams bit-identical.
#[derive(Debug, Clone)]
pub struct DestSampler(DestDraw);

#[derive(Debug, Clone)]
enum DestDraw {
    /// Uniform over `0..cells` (also the destinations of ON/OFF bursts).
    Uniform(UniformCell),
    /// `target` when the `hot` coin (probability `fraction`) lands,
    /// otherwise uniform.
    Hotspot {
        hot: Bernoulli,
        target: u32,
        uniform: UniformCell,
    },
    /// A fixed destination per source cell (permutation, bit-reversal).
    Table(Vec<u32>),
    Zipf(ZipfCdf),
    /// Trace destinations are part of the replayed schedule.
    Replayed,
}

impl DestSampler {
    /// Draws a destination for a packet injected at source cell `source`.
    ///
    /// # Panics
    ///
    /// Panics for a [`TrafficPattern::Trace`] sampler: trace destinations
    /// arrive with the offer ([`Offer::PacketTo`]), never from a draw. The
    /// engines never draw for a trace.
    #[inline]
    pub fn draw<R: Rng>(&self, source: u32, rng: &mut R) -> u32 {
        match &self.0 {
            DestDraw::Uniform(uniform) => uniform.draw(rng),
            DestDraw::Hotspot {
                hot,
                target,
                uniform,
            } => {
                if hot.sample(rng) {
                    *target
                } else {
                    uniform.draw(rng)
                }
            }
            DestDraw::Table(dest) => dest[source as usize],
            DestDraw::Zipf(cdf) => cdf.sample(rng),
            DestDraw::Replayed => {
                panic!("trace destinations are replayed via TrafficSources::offer, not drawn")
            }
        }
    }
}

/// One recorded injection: at `cycle` (within the trace period), terminal
/// `source` injects a packet destined for cell `dest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Cycle within the trace period (`0..period`).
    pub cycle: u32,
    /// Injecting terminal (`0..2 × cells`; terminal `t` of cell `c` is
    /// `2c + t`).
    pub source: u32,
    /// Destination cell (`0..cells`).
    pub dest: u32,
}

/// A recorded traffic trace: a periodic schedule of
/// `(cycle, source terminal, destination cell)` injections.
///
/// Replay wraps around [`TraceData::period`], so a trace shorter than the
/// simulated run repeats. Records must be strictly sorted by
/// `(cycle, source)`, the order [`TraceData::validate`] enforces.
///
/// The struct serializes through serde like every other pattern variant
/// (campaign grids and the min-serve wire protocol carry it as JSON).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceData {
    /// Cells per stage of the fabric the trace was recorded for.
    pub cells: u32,
    /// Trace period in cycles; replay uses `cycle % period`.
    pub period: u32,
    /// The recorded injections, strictly sorted by `(cycle, source)`.
    pub records: Vec<TraceRecord>,
}

impl TraceData {
    /// Checks the trace's internal consistency: a nonzero period and cell
    /// count, every record inside the period and the terminal/cell ranges,
    /// and strict `(cycle, source)` ordering.
    pub fn validate(&self) -> Result<(), TrafficError> {
        if self.period == 0 || self.cells == 0 {
            return Err(TrafficError::TraceEmpty);
        }
        let terminals = self.cells * 2;
        let mut prev: Option<(u32, u32)> = None;
        for (record, r) in self.records.iter().enumerate() {
            if r.cycle >= self.period {
                return Err(TrafficError::TraceCycleBeyondPeriod {
                    record,
                    cycle: r.cycle,
                    period: self.period,
                });
            }
            if r.source >= terminals {
                return Err(TrafficError::TraceSourceOutOfRange {
                    record,
                    source: r.source,
                    terminals,
                });
            }
            if r.dest >= self.cells {
                return Err(TrafficError::TraceDestOutOfRange {
                    record,
                    dest: r.dest,
                    cells: self.cells,
                });
            }
            if prev.is_some_and(|p| p >= (r.cycle, r.source)) {
                return Err(TrafficError::TraceUnsorted { record });
            }
            prev = Some((r.cycle, r.source));
        }
        Ok(())
    }
}

/// One injection decision for a (cell, terminal) slot in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Nothing to inject this cycle.
    Idle,
    /// Inject one packet; the destination comes from the pattern's
    /// [`DestSampler`].
    Packet,
    /// Inject one packet to the given destination cell (trace replay — the
    /// destination is part of the schedule, no draw happens).
    PacketTo(u32),
}

/// Per-run injection state of a traffic pattern: the ON/OFF chains of
/// bursty sources, the expanded schedule of a trace — or nothing at all for
/// the stateless patterns, which keep the plain Bernoulli coin.
///
/// The engine asks [`TrafficSources::offer`] once per (cell, terminal) slot
/// per cycle, in (cell ascending, terminal) order; each call makes the
/// documented RNG draws for its pattern (exactly one `gen_bool` for
/// stateless patterns — the same coin the engine drew before this type
/// existed — one or two for ON/OFF chains, none for a trace), which is what
/// keeps runs deterministic and replications bit-identical across engines.
#[derive(Debug, Clone)]
pub struct TrafficSources {
    kind: SourceKind,
}

#[derive(Debug, Clone)]
enum SourceKind {
    /// Stateless patterns: one Bernoulli coin per slot per cycle.
    Bernoulli,
    /// Markov-modulated ON/OFF: per-terminal chain state plus the
    /// precomputed exit coins.
    OnOff {
        /// Chain state per terminal (`2 × cells`, terminal `t` of cell `c`
        /// at index `2c + t`); everyone starts ON.
        on: Vec<bool>,
        /// Leaves ON with probability `1 / on_dwell`.
        exit_on: Bernoulli,
        /// Leaves OFF with probability `1 / off_dwell`.
        exit_off: Bernoulli,
        on_rate: f64,
    },
    /// Trace replay: the records expanded into a per-cycle schedule,
    /// sorted by terminal for binary search.
    Trace {
        period: u64,
        /// `schedule[cycle % period]` = sorted `(terminal, dest)` pairs.
        schedule: Vec<Vec<(u32, u32)>>,
    },
}

impl TrafficSources {
    /// Builds the injection state for a validated pattern on a fabric of
    /// `cells` cells per stage.
    ///
    /// # Panics
    ///
    /// Panics when an ON/OFF dwell is below one cycle (or NaN), which
    /// [`TrafficPattern::validate`] rejects.
    pub fn new(pattern: &TrafficPattern, cells: usize) -> Self {
        let exit = |dwell: f64| Bernoulli::new(1.0 / dwell).expect("validated dwell");
        let kind = match pattern {
            TrafficPattern::OnOff {
                on_dwell,
                off_dwell,
                on_rate,
            } => SourceKind::OnOff {
                on: vec![true; cells * 2],
                exit_on: exit(*on_dwell),
                exit_off: exit(*off_dwell),
                on_rate: *on_rate,
            },
            TrafficPattern::Trace(trace) => {
                let mut schedule = vec![Vec::new(); trace.period as usize];
                for r in &trace.records {
                    schedule[r.cycle as usize].push((r.source, r.dest));
                }
                // Validated traces are (cycle, source)-sorted, so each
                // cycle's list arrives terminal-sorted for binary search.
                SourceKind::Trace {
                    period: u64::from(trace.period),
                    schedule,
                }
            }
            _ => SourceKind::Bernoulli,
        };
        TrafficSources { kind }
    }

    /// Rewinds the injection state to cycle 0 (every ON/OFF chain back to
    /// ON). The batch layer's scalar path calls this through the
    /// simulator's rewind between lanes, so a reused engine is
    /// bit-identical to a freshly built one.
    pub fn reset(&mut self) {
        if let SourceKind::OnOff { on, .. } = &mut self.kind {
            on.iter_mut().for_each(|state| *state = true);
        }
    }

    /// Decides whether terminal `terminal` of first-stage cell `cell`
    /// offers a packet this cycle at the configured `load`.
    ///
    /// Stateless patterns draw the classic Bernoulli coin. ON/OFF chains
    /// first advance their state (one draw), then — while ON — draw the
    /// injection coin at `load × on_rate`. Trace replay draws nothing and
    /// ignores `load`: the recorded schedule is the load.
    pub fn offer<R: Rng>(
        &mut self,
        cycle: u64,
        cell: u32,
        terminal: usize,
        load: f64,
        rng: &mut R,
    ) -> Offer {
        let coin = self.coin(load);
        self.offer_with(cycle, cell, terminal, &coin, rng)
    }

    /// The injection coin [`TrafficSources::offer`] flips at `load`: one
    /// [`Bernoulli`] at `load`, or at the in-burst rate `load × on_rate`
    /// for ON/OFF chains. The engines build it once per run, since the load
    /// is fixed for a run.
    pub(crate) fn coin(&self, load: f64) -> Bernoulli {
        let p = match self.kind {
            SourceKind::Bernoulli => load,
            SourceKind::OnOff { on_rate, .. } => load * on_rate,
            // A trace never flips the coin.
            SourceKind::Trace { .. } => 0.0,
        };
        Bernoulli::new(p).expect("validated load and on rate")
    }

    /// [`TrafficSources::offer`] with its injection coin built once by
    /// [`TrafficSources::coin`]: the same draws, in the same order.
    #[inline]
    pub(crate) fn offer_with<R: Rng>(
        &mut self,
        cycle: u64,
        cell: u32,
        terminal: usize,
        coin: &Bernoulli,
        rng: &mut R,
    ) -> Offer {
        match &mut self.kind {
            SourceKind::Bernoulli => {
                if coin.sample(rng) {
                    Offer::Packet
                } else {
                    Offer::Idle
                }
            }
            SourceKind::OnOff {
                on,
                exit_on,
                exit_off,
                ..
            } => {
                let state = &mut on[cell as usize * 2 + terminal];
                if *state {
                    if exit_on.sample(rng) {
                        *state = false;
                    }
                } else if exit_off.sample(rng) {
                    *state = true;
                }
                if *state && coin.sample(rng) {
                    Offer::Packet
                } else {
                    Offer::Idle
                }
            }
            SourceKind::Trace { period, schedule } => {
                let slot = &schedule[(cycle % *period) as usize];
                let want = cell * 2 + terminal as u32;
                match slot.binary_search_by_key(&want, |&(t, _)| t) {
                    Ok(i) => Offer::PacketTo(slot[i].1),
                    Err(_) => Offer::Idle,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn uniform_covers_all_destinations() {
        let mut rng = ChaCha8Rng::seed_from_u64(211);
        let mut seen = [false; 8];
        for _ in 0..500 {
            let d = TrafficPattern::Uniform.sampler(8, 3).draw(0, &mut rng);
            seen[d as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn hotspot_biases_towards_the_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(223);
        let sampler = TrafficPattern::Hotspot {
            fraction: 0.5,
            target: 3,
        }
        .sampler(8, 3);
        let hits = (0..2_000)
            .filter(|_| sampler.draw(1, &mut rng) == 3)
            .count();
        // 50% direct + 1/8 of the uniform remainder ≈ 56%.
        assert!(hits > 800 && hits < 1500, "hits = {hits}");
    }

    #[test]
    fn permutation_is_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(227);
        let sampler = TrafficPattern::Permutation(vec![3, 2, 1, 0]).sampler(4, 2);
        for s in 0..4u32 {
            assert_eq!(sampler.draw(s, &mut rng), 3 - s);
        }
    }

    #[test]
    fn bit_reversal_reverses() {
        let mut rng = ChaCha8Rng::seed_from_u64(229);
        let sampler = TrafficPattern::BitReversal.sampler(8, 3);
        assert_eq!(sampler.draw(0b001, &mut rng), 0b100);
        assert_eq!(sampler.draw(0b110, &mut rng), 0b011);
    }

    #[test]
    fn labels_cover_the_new_patterns() {
        assert_eq!(TrafficPattern::Zipf { exponent: 1.0 }.label(), "zipf");
        let on_off = TrafficPattern::OnOff {
            on_dwell: 8.0,
            off_dwell: 8.0,
            on_rate: 1.0,
        };
        assert_eq!(on_off.label(), "on-off");
        assert!(on_off.is_stateful());
        let trace = TrafficPattern::Trace(two_record_trace());
        assert_eq!(trace.label(), "trace");
        assert!(trace.is_stateful());
        assert!(!TrafficPattern::Uniform.is_stateful());
        assert!(!TrafficPattern::Zipf { exponent: 1.0 }.is_stateful());
    }

    #[test]
    fn zipf_cdf_is_monotone_and_covers_all_cells() {
        let cdf = ZipfCdf::new(16, 1.0);
        assert!(cdf.thresholds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*cdf.thresholds.last().unwrap(), u64::MAX);
        let mut rng = ChaCha8Rng::seed_from_u64(233);
        let mut seen = [false; 16];
        for _ in 0..5_000 {
            seen[cdf.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "seen {seen:?}");
    }

    #[test]
    fn zipf_rank_frequency_follows_the_exponent() {
        // With exponent s, count(rank d) / count(rank 0) ≈ (d + 1)^-s; check
        // the slope at a few ranks with generous sampling-noise bands.
        let exponent = 1.2;
        let cdf = ZipfCdf::new(32, exponent);
        let mut rng = ChaCha8Rng::seed_from_u64(239);
        let mut counts = [0u64; 32];
        let draws = 200_000;
        for _ in 0..draws {
            counts[cdf.sample(&mut rng) as usize] += 1;
        }
        assert!(counts
            .windows(2)
            .all(|w| w[0] >= w[1].saturating_sub(w[1] / 4)));
        for rank in [1usize, 3, 7] {
            let expected = f64::powf(rank as f64 + 1.0, -exponent);
            let measured = counts[rank] as f64 / counts[0] as f64;
            let rel = (measured - expected).abs() / expected;
            assert!(
                rel < 0.15,
                "rank {rank}: measured {measured:.4} vs expected {expected:.4}"
            );
        }
    }

    #[test]
    fn zipf_exponent_zero_degenerates_to_uniform() {
        let cdf = ZipfCdf::new(8, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(241);
        let mut counts = [0u64; 8];
        for _ in 0..80_000 {
            counts[cdf.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let rel = (c as f64 - 10_000.0).abs() / 10_000.0;
            assert!(rel < 0.1, "counts {counts:?}");
        }
    }

    #[test]
    fn on_off_burst_lengths_match_the_dwell() {
        // At load 1 and on_rate 1, offers directly expose the chain state:
        // mean ON-run and OFF-gap lengths must match the configured dwells
        // (geometric distributions with those means).
        let pattern = TrafficPattern::OnOff {
            on_dwell: 12.0,
            off_dwell: 4.0,
            on_rate: 1.0,
        };
        let mut sources = TrafficSources::new(&pattern, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(251);
        let (mut bursts, mut gaps) = (Vec::new(), Vec::new());
        let mut run = 0u64;
        let mut last_on = true;
        for cycle in 0..200_000u64 {
            let on = sources.offer(cycle, 0, 0, 1.0, &mut rng) == Offer::Packet;
            if on == last_on {
                run += 1;
            } else {
                if last_on {
                    bursts.push(run);
                } else {
                    gaps.push(run);
                }
                run = 1;
                last_on = on;
            }
        }
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        let (mean_burst, mean_gap) = (mean(&bursts), mean(&gaps));
        assert!(
            (mean_burst - 12.0).abs() < 1.5,
            "mean burst {mean_burst} vs dwell 12"
        );
        assert!(
            (mean_gap - 4.0).abs() < 0.8,
            "mean gap {mean_gap} vs dwell 4"
        );
    }

    #[test]
    fn on_off_reset_restores_the_initial_state() {
        let pattern = TrafficPattern::OnOff {
            on_dwell: 3.0,
            off_dwell: 3.0,
            on_rate: 1.0,
        };
        let mut sources = TrafficSources::new(&pattern, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(257);
        let first: Vec<Offer> = (0..50)
            .map(|c| sources.offer(c, c as u32 % 2, 0, 0.8, &mut rng))
            .collect();
        sources.reset();
        let mut rng = ChaCha8Rng::seed_from_u64(257);
        let second: Vec<Offer> = (0..50)
            .map(|c| sources.offer(c, c as u32 % 2, 0, 0.8, &mut rng))
            .collect();
        assert_eq!(first, second);
    }

    fn two_record_trace() -> TraceData {
        TraceData {
            cells: 4,
            period: 3,
            records: vec![
                TraceRecord {
                    cycle: 0,
                    source: 1,
                    dest: 3,
                },
                TraceRecord {
                    cycle: 2,
                    source: 6,
                    dest: 0,
                },
            ],
        }
    }

    #[test]
    fn trace_replay_follows_the_schedule_and_wraps() {
        let pattern = TrafficPattern::Trace(two_record_trace());
        let mut sources = TrafficSources::new(&pattern, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(263);
        for lap in 0..2u64 {
            let base = lap * 3;
            // cycle 0: terminal 1 = (cell 0, terminal 1) sends to cell 3.
            assert_eq!(sources.offer(base, 0, 1, 0.5, &mut rng), Offer::PacketTo(3));
            assert_eq!(sources.offer(base, 0, 0, 0.5, &mut rng), Offer::Idle);
            // cycle 2: terminal 6 = (cell 3, terminal 0) sends to cell 0.
            assert_eq!(
                sources.offer(base + 2, 3, 0, 0.5, &mut rng),
                Offer::PacketTo(0)
            );
            assert_eq!(sources.offer(base + 1, 2, 1, 0.5, &mut rng), Offer::Idle);
        }
        // The trace draws nothing: the RNG is untouched.
        let mut fresh = ChaCha8Rng::seed_from_u64(263);
        assert_eq!(rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn validate_rejects_non_finite_and_out_of_range_parameters() {
        for fraction in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                TrafficPattern::Hotspot {
                    fraction,
                    target: 0
                }
                .validate(),
                Err(TrafficError::NonFinite { .. })
            ));
        }
        for fraction in [-0.1, 1.5] {
            assert!(matches!(
                TrafficPattern::Hotspot {
                    fraction,
                    target: 0
                }
                .validate(),
                Err(TrafficError::OutOfRange { .. })
            ));
        }
        assert!(matches!(
            TrafficPattern::Zipf { exponent: f64::NAN }.validate(),
            Err(TrafficError::NonFinite { .. })
        ));
        assert!(matches!(
            TrafficPattern::Zipf { exponent: -1.0 }.validate(),
            Err(TrafficError::OutOfRange { .. })
        ));
        let bad_on_off = [
            (0.5, 4.0, 1.0),
            (4.0, f64::NAN, 1.0),
            (4.0, 4.0, 0.0),
            (4.0, 4.0, 1.5),
        ];
        for (on_dwell, off_dwell, on_rate) in bad_on_off {
            assert!(
                TrafficPattern::OnOff {
                    on_dwell,
                    off_dwell,
                    on_rate
                }
                .validate()
                .is_err(),
                "({on_dwell}, {off_dwell}, {on_rate})"
            );
        }
        assert_eq!(
            TrafficPattern::OnOff {
                on_dwell: 8.0,
                off_dwell: 2.0,
                on_rate: 0.5
            }
            .validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_for_checks_the_fabric_fit() {
        assert_eq!(
            TrafficPattern::Hotspot {
                fraction: 0.5,
                target: 8
            }
            .validate_for(8),
            Err(TrafficError::HotspotTargetOutOfRange {
                target: 8,
                cells: 8
            })
        );
        assert_eq!(
            TrafficPattern::Permutation(vec![0, 1, 2]).validate_for(4),
            Err(TrafficError::PermutationLength { len: 3, cells: 4 })
        );
        assert_eq!(
            TrafficPattern::Permutation(vec![0, 1, 2, 4]).validate_for(4),
            Err(TrafficError::PermutationEntry {
                index: 3,
                entry: 4,
                cells: 4
            })
        );
        assert_eq!(
            TrafficPattern::Permutation(vec![3, 2, 1, 0]).validate_for(4),
            Ok(())
        );
        assert_eq!(
            TrafficPattern::Trace(two_record_trace()).validate_for(8),
            Err(TrafficError::TraceCellsMismatch { trace: 4, cells: 8 })
        );
        assert_eq!(
            TrafficPattern::Trace(two_record_trace()).validate_for(4),
            Ok(())
        );
    }

    #[test]
    fn trace_validation_rejects_out_of_range_records() {
        let mut cycle_high = two_record_trace();
        cycle_high.records[1].cycle = 3;
        assert!(matches!(
            cycle_high.validate(),
            Err(TrafficError::TraceCycleBeyondPeriod { .. })
        ));
        let mut source_high = two_record_trace();
        source_high.records[1].source = 8;
        assert!(matches!(
            source_high.validate(),
            Err(TrafficError::TraceSourceOutOfRange { .. })
        ));
        let mut dest_high = two_record_trace();
        dest_high.records[0].dest = 4;
        assert!(matches!(
            dest_high.validate(),
            Err(TrafficError::TraceDestOutOfRange { .. })
        ));
        let empty = TraceData {
            cells: 4,
            period: 0,
            records: vec![],
        };
        assert_eq!(empty.validate(), Err(TrafficError::TraceEmpty));
        // Duplicate (cycle, source) pairs are unsorted by definition.
        let mut dup = two_record_trace();
        dup.records[1] = dup.records[0];
        assert!(matches!(
            dup.validate(),
            Err(TrafficError::TraceUnsorted { record: 1 })
        ));
    }

    #[test]
    fn uniform_cell_draws_are_gen_range_draws() {
        // The masked path takes the power-of-two counts above one; a single
        // cell and a non-power-of-two count keep `gen_range`, which draws
        // nothing for one cell.
        for (cells, masked) in [
            (1, false),
            (2, true),
            (16, true),
            (1 << 15, true),
            (12, false),
        ] {
            let uniform = UniformCell::new(cells);
            assert_eq!(uniform.mask.is_some(), masked, "cells={cells}");
            let mut a = ChaCha8Rng::seed_from_u64(271);
            let mut b = ChaCha8Rng::seed_from_u64(271);
            for _ in 0..2_000 {
                assert_eq!(uniform.draw(&mut a), b.gen_range(0..cells), "cells={cells}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "cells={cells} stream alignment");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(277);
        let mut fresh = ChaCha8Rng::seed_from_u64(277);
        assert_eq!(UniformCell::new(1).draw(&mut rng), 0);
        assert_eq!(rng.next_u64(), fresh.next_u64(), "one cell draws nothing");
    }

    #[test]
    fn sampler_draw_streams_are_pinned() {
        // Golden streams: from seed 269, every source of a 16-cell fabric
        // takes its first 64 draws in turn; the FNV-1a hash of those draws
        // and the RNG's next word pin both the values and how many words
        // each draw consumes. No committed artifact covers the hot-spot,
        // permutation or bit-reversal streams, so this is their guard.
        const CELLS: u32 = 16;
        let permutation = (0..CELLS).map(|s| (5 * s + 3) % CELLS).collect();
        let cases = [
            (
                TrafficPattern::Uniform,
                0x57de_31e0_af01_6951,
                0x80f4_45ba_63de_5018,
            ),
            (
                TrafficPattern::OnOff {
                    on_dwell: 8.0,
                    off_dwell: 8.0,
                    on_rate: 1.0,
                },
                0x57de_31e0_af01_6951,
                0x80f4_45ba_63de_5018,
            ),
            (
                TrafficPattern::Hotspot {
                    fraction: 0.3,
                    target: 5,
                },
                0xe9aa_e45a_9f12_a885,
                0x6f61_bb3f_b9d6_e0ef,
            ),
            (
                TrafficPattern::Permutation(permutation),
                0x8f15_9587_f830_5925,
                0x9605_5bef_136f_9a43,
            ),
            (
                TrafficPattern::BitReversal,
                0xa120_4b45_9583_5925,
                0x9605_5bef_136f_9a43,
            ),
            (
                TrafficPattern::Zipf { exponent: 0.9 },
                0x6358_3bee_f1a2_6e83,
                0x80f4_45ba_63de_5018,
            ),
        ];
        for (pattern, hash, next) in cases {
            let sampler = pattern.sampler(CELLS, 4);
            let mut rng = ChaCha8Rng::seed_from_u64(269);
            let mut fnv = 0xcbf2_9ce4_8422_2325u64;
            for source in 0..CELLS {
                for _ in 0..64 {
                    fnv = (fnv ^ u64::from(sampler.draw(source, &mut rng)))
                        .wrapping_mul(0x0100_0000_01b3);
                }
            }
            let label = pattern.label();
            assert_eq!(fnv, hash, "{label} draws");
            assert_eq!(rng.next_u64(), next, "{label} stream alignment");
        }
    }
}
