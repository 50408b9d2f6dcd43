//! Simulation configuration.

use crate::fault::FaultPlan;
use crate::traffic::{TrafficError, TrafficPattern};
use serde::{Deserialize, Serialize};

/// Most virtual-channel lanes a wormhole cell may have: the wormhole core
/// keeps each cell's active lanes in one `u64` mask.
pub const MAX_WORMHOLE_LANES: usize = 64;

/// Deepest per-input FIFO a cell may have. A cell's queue holds
/// `2 · depth` packets in a ring with `u32` cursors; this bound keeps every
/// ring far inside them.
pub const MAX_FIFO_DEPTH: usize = 1 << 16;

/// Buffering discipline of the 2×2 cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BufferMode {
    /// Patel's unbuffered model: when two packets request the same out-port
    /// in the same cycle one of them (chosen uniformly) is dropped.
    Unbuffered,
    /// Per-input FIFOs of the given depth with backpressure: a packet that
    /// cannot advance stays in its queue; injection fails when the
    /// first-stage queue is full.
    Fifo(usize),
    /// Multi-lane virtual-channel wormhole switching: each packet is split
    /// into `flits_per_packet` flits, every cell owns `lanes` lanes of
    /// `lane_depth` flits each, a worm's head flit allocates one lane per
    /// cell it traverses, and a blocked worm holds its lanes across stages
    /// until the tail flit drains through.
    Wormhole {
        /// Virtual-channel lanes per cell.
        lanes: usize,
        /// Flit capacity of each lane.
        lane_depth: usize,
        /// Number of flits every packet is split into.
        flits_per_packet: usize,
    },
}

impl BufferMode {
    /// Short stable label for tables and report identifiers.
    pub fn label(&self) -> String {
        match self {
            BufferMode::Unbuffered => "unbuffered".to_string(),
            BufferMode::Fifo(depth) => format!("fifo({depth})"),
            BufferMode::Wormhole {
                lanes,
                lane_depth,
                flits_per_packet,
            } => format!("worm({lanes}x{lane_depth}x{flits_per_packet})"),
        }
    }

    /// Checks the mode's parameters: every lane/depth/flit count must be
    /// nonzero, a FIFO at most [`MAX_FIFO_DEPTH`] deep and a wormhole cell
    /// at most [`MAX_WORMHOLE_LANES`] lanes wide.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            BufferMode::Unbuffered => Ok(()),
            BufferMode::Fifo(depth) => {
                if depth == 0 {
                    Err(ConfigError::ZeroParameter("fifo depth"))
                } else if depth > MAX_FIFO_DEPTH {
                    Err(ConfigError::FifoTooDeep(depth))
                } else {
                    Ok(())
                }
            }
            BufferMode::Wormhole {
                lanes,
                lane_depth,
                flits_per_packet,
            } => {
                if lanes == 0 {
                    Err(ConfigError::ZeroParameter("wormhole lanes"))
                } else if lanes > MAX_WORMHOLE_LANES {
                    Err(ConfigError::TooManyLanes(lanes))
                } else if lane_depth == 0 {
                    Err(ConfigError::ZeroParameter("wormhole lane depth"))
                } else if flits_per_packet == 0 {
                    Err(ConfigError::ZeroParameter("flits per packet"))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Why a [`SimConfig`] is not runnable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// The offered load is not a probability in `[0, 1]`.
    InvalidLoad(f64),
    /// The warm-up consumes the whole cycle budget, leaving no measurement
    /// window.
    WarmupExceedsCycles {
        /// Configured warm-up cycles.
        warmup: u64,
        /// Configured total cycles.
        cycles: u64,
    },
    /// A buffer-mode parameter that must be nonzero is zero.
    ZeroParameter(&'static str),
    /// A FIFO depth above [`MAX_FIFO_DEPTH`].
    FifoTooDeep(usize),
    /// A wormhole lane count above [`MAX_WORMHOLE_LANES`].
    TooManyLanes(usize),
    /// The traffic pattern is invalid (non-finite hot-spot fraction,
    /// malformed permutation or trace, …) — rejected here instead of
    /// asserting at draw time in the injection hot path.
    Traffic(TrafficError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidLoad(load) => {
                write!(f, "offered load {load} is not a probability in [0, 1]")
            }
            ConfigError::WarmupExceedsCycles { warmup, cycles } => write!(
                f,
                "warm-up of {warmup} cycles consumes the whole {cycles}-cycle budget"
            ),
            ConfigError::ZeroParameter(what) => write!(f, "{what} must be nonzero"),
            ConfigError::FifoTooDeep(depth) => {
                write!(f, "fifo depth {depth} exceeds the maximum {MAX_FIFO_DEPTH}")
            }
            ConfigError::TooManyLanes(lanes) => write!(
                f,
                "{lanes} wormhole lanes exceed the maximum {MAX_WORMHOLE_LANES}"
            ),
            ConfigError::Traffic(e) => write!(f, "invalid traffic pattern: {e}"),
        }
    }
}

impl From<TrafficError> for ConfigError {
    fn from(e: TrafficError) -> Self {
        ConfigError::Traffic(e)
    }
}

impl std::error::Error for ConfigError {}

/// Complete description of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Probability that an idle input injects a packet in a given cycle.
    pub offered_load: f64,
    /// Buffering discipline.
    pub buffer_mode: BufferMode,
    /// Traffic pattern (destination distribution).
    pub traffic: TrafficPattern,
    /// Total number of simulated cycles (the warm-up runs inside this
    /// budget).
    pub cycles: u64,
    /// Number of warm-up cycles at the start of the run, excluded from the
    /// latency statistics.
    pub warmup: u64,
    /// PRNG seed (the simulation is fully deterministic given the seed).
    pub seed: u64,
    /// Failures injected into the run ([`FaultPlan::none`] = healthy
    /// fabric; the empty plan runs the exact fault-free code path). Fault
    /// sites are validated against the fabric at simulator construction.
    pub fault_plan: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            offered_load: 0.5,
            buffer_mode: BufferMode::Unbuffered,
            traffic: TrafficPattern::Uniform,
            cycles: 1_000,
            warmup: 100,
            seed: 0x1988,
            fault_plan: FaultPlan::none(),
        }
    }
}

impl SimConfig {
    /// Checks the configuration for typed errors instead of panicking or
    /// silently misbehaving mid-run: the offered load must be a probability,
    /// the warm-up must leave a measurement window, every buffer-mode
    /// parameter must be in range ([`BufferMode::validate`]), and the
    /// traffic pattern's parameters must be in range
    /// ([`TrafficPattern::validate`] — fabric-dependent checks
    /// like hot-spot targets run at simulator construction via
    /// [`TrafficPattern::validate_for`]). [`crate::Simulator::new`] calls
    /// this, so invalid configurations are rejected at construction.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.offered_load) {
            // NaN fails the range check too: PartialOrd orders it with nothing.
            return Err(ConfigError::InvalidLoad(self.offered_load));
        }
        if self.warmup >= self.cycles {
            return Err(ConfigError::WarmupExceedsCycles {
                warmup: self.warmup,
                cycles: self.cycles,
            });
        }
        self.buffer_mode.validate()?;
        self.traffic.validate()?;
        Ok(())
    }

    /// Builder-style setter for the offered load (validated by
    /// [`SimConfig::validate`] at simulator construction).
    pub fn with_load(mut self, load: f64) -> Self {
        self.offered_load = load;
        self
    }

    /// Builder-style setter for the buffer mode.
    pub fn with_buffer(mut self, mode: BufferMode) -> Self {
        self.buffer_mode = mode;
        self
    }

    /// Builder-style setter for the traffic pattern.
    pub fn with_traffic(mut self, traffic: TrafficPattern) -> Self {
        self.traffic = traffic;
        self
    }

    /// Builder-style setter for the cycle counts.
    pub fn with_cycles(mut self, cycles: u64, warmup: u64) -> Self {
        self.cycles = cycles;
        self.warmup = warmup;
        self
    }

    /// Builder-style setter for the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_setters_compose() {
        let cfg = SimConfig::default()
            .with_load(0.9)
            .with_buffer(BufferMode::Fifo(4))
            .with_traffic(TrafficPattern::Hotspot {
                fraction: 0.2,
                target: 0,
            })
            .with_cycles(500, 50)
            .with_seed(7);
        assert_eq!(cfg.offered_load, 0.9);
        assert_eq!(cfg.buffer_mode, BufferMode::Fifo(4));
        assert_eq!(cfg.cycles, 500);
        assert_eq!(cfg.warmup, 50);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn out_of_range_loads_are_rejected_with_a_typed_error() {
        assert_eq!(
            SimConfig::default().with_load(1.5).validate(),
            Err(ConfigError::InvalidLoad(1.5))
        );
        assert_eq!(
            SimConfig::default().with_load(-0.1).validate(),
            Err(ConfigError::InvalidLoad(-0.1))
        );
        assert!(matches!(
            SimConfig::default().with_load(f64::NAN).validate(),
            Err(ConfigError::InvalidLoad(_))
        ));
    }

    #[test]
    fn warmup_must_leave_a_measurement_window() {
        assert_eq!(
            SimConfig::default().with_cycles(100, 100).validate(),
            Err(ConfigError::WarmupExceedsCycles {
                warmup: 100,
                cycles: 100
            })
        );
        assert_eq!(
            SimConfig::default().with_cycles(0, 0).validate(),
            Err(ConfigError::WarmupExceedsCycles {
                warmup: 0,
                cycles: 0
            })
        );
        assert_eq!(SimConfig::default().with_cycles(100, 99).validate(), Ok(()));
    }

    #[test]
    fn zero_buffer_parameters_are_rejected() {
        assert_eq!(
            BufferMode::Fifo(0).validate(),
            Err(ConfigError::ZeroParameter("fifo depth"))
        );
        for (lanes, lane_depth, flits_per_packet) in [(0, 4, 4), (2, 0, 4), (2, 4, 0)] {
            let mode = BufferMode::Wormhole {
                lanes,
                lane_depth,
                flits_per_packet,
            };
            assert!(matches!(
                mode.validate(),
                Err(ConfigError::ZeroParameter(_))
            ));
        }
        assert_eq!(
            BufferMode::Wormhole {
                lanes: 2,
                lane_depth: 4,
                flits_per_packet: 4
            }
            .validate(),
            Ok(())
        );
    }

    #[test]
    fn oversized_buffer_parameters_are_rejected_before_any_allocation() {
        let worm = |lanes| BufferMode::Wormhole {
            lanes,
            lane_depth: 2,
            flits_per_packet: 4,
        };
        assert_eq!(worm(MAX_WORMHOLE_LANES).validate(), Ok(()));
        assert_eq!(
            worm(MAX_WORMHOLE_LANES + 1).validate(),
            Err(ConfigError::TooManyLanes(MAX_WORMHOLE_LANES + 1))
        );
        assert_eq!(BufferMode::Fifo(MAX_FIFO_DEPTH).validate(), Ok(()));
        assert_eq!(
            BufferMode::Fifo(MAX_FIFO_DEPTH + 1).validate(),
            Err(ConfigError::FifoTooDeep(MAX_FIFO_DEPTH + 1))
        );
        // The two modes that used to pass validation and then take the
        // process down while building the core.
        assert_eq!(
            SimConfig::default()
                .with_buffer(BufferMode::Fifo(1 << 31))
                .validate(),
            Err(ConfigError::FifoTooDeep(1 << 31))
        );
        assert_eq!(
            SimConfig::default().with_buffer(worm(1 << 40)).validate(),
            Err(ConfigError::TooManyLanes(1 << 40))
        );
    }

    #[test]
    fn invalid_traffic_parameters_are_rejected_with_a_typed_error() {
        assert!(matches!(
            SimConfig::default()
                .with_traffic(TrafficPattern::Hotspot {
                    fraction: f64::NAN,
                    target: 0
                })
                .validate(),
            Err(ConfigError::Traffic(TrafficError::NonFinite { .. }))
        ));
        assert!(matches!(
            SimConfig::default()
                .with_traffic(TrafficPattern::Zipf { exponent: -0.5 })
                .validate(),
            Err(ConfigError::Traffic(TrafficError::OutOfRange { .. }))
        ));
        assert_eq!(
            SimConfig::default()
                .with_traffic(TrafficPattern::Zipf { exponent: 1.0 })
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn labels_are_short_and_parameterized() {
        assert_eq!(BufferMode::Unbuffered.label(), "unbuffered");
        assert_eq!(BufferMode::Fifo(8).label(), "fifo(8)");
        assert_eq!(
            BufferMode::Wormhole {
                lanes: 2,
                lane_depth: 4,
                flits_per_packet: 8
            }
            .label(),
            "worm(2x4x8)"
        );
    }
}
