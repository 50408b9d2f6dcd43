//! Simulation metrics.

use serde::{Deserialize, Serialize};

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Total cycles run so far (warm-up included; warm-up is excluded only
    /// from the latency statistics).
    pub measured_cycles: u64,
    /// Packets the traffic source wanted to inject over the whole run
    /// (warm-up included).
    pub offered: u64,
    /// Packets actually accepted into the fabric over the whole run.
    pub injected: u64,
    /// Packets delivered to their destination over the whole run.
    pub delivered: u64,
    /// Packets dropped because they lost an out-port arbitration in an
    /// unbuffered cell.
    pub dropped_arbitration: u64,
    /// Packets dropped because the downstream cell had no space (unbuffered
    /// mode only; buffered modes apply backpressure instead).
    pub dropped_backpressure: u64,
    /// Packets (or whole worms) lost to an injected fault: they hit a dead
    /// link, entered a dead switch, or were caught in one when it died.
    pub dropped_fault: u64,
    /// Injection attempts refused because every path from the source to the
    /// drawn destination was severed by active faults (the packet never
    /// entered the fabric; counted in `offered` but not in `injected`).
    pub unroutable_drops: u64,
    /// Packets delivered while at least one fault was active — the
    /// survivor count of a degraded fabric.
    pub delivered_despite_fault: u64,
    /// Per-stage fault exposure: `fault_exposure[s]` counts the events at
    /// stage `s` in which traffic met an active fault (a drop at a dead
    /// link or switch, or a stall at a degraded link). Empty when the run
    /// injected no faults.
    pub fault_exposure: Vec<u64>,
    /// Packets still inside the fabric when the run ended.
    pub in_flight_at_end: u64,
    /// Sum of the latencies (in cycles) of the packets delivered inside the
    /// measurement window.
    pub total_latency: u64,
    /// Largest single-packet latency observed inside the measurement window.
    pub max_latency: u64,
    /// Packets delivered to the wrong destination (must always be zero; kept
    /// as an audit counter).
    pub misrouted: u64,
    /// Flits ejected at the last stage (wormhole mode; zero in the
    /// packet-atomic modes).
    pub flits_delivered: u64,
    /// Flit-cycles in which a flit was ready to cross a stage link but could
    /// not move — it lost the per-port arbitration, found no free downstream
    /// lane for its head, or found the downstream lane full (wormhole mode).
    pub flit_stalls: u64,
    /// Occupied storage units (queued packets, or active lanes in wormhole
    /// mode) summed over every cycle — the numerator of the mean occupancy.
    pub lane_occupancy_sum: u64,
    /// Total storage units (queue slots, or lanes) summed over every cycle —
    /// the denominator of the mean occupancy.
    pub lane_slot_cycles: u64,
    /// Latency histogram: `latency_histogram[l]` is the number of measured
    /// packets delivered with a latency of exactly `l` cycles. Dense and
    /// exact: it grows to the largest observed latency, which is bounded by
    /// the configured run length, so memory is `O(cycles)` in the worst case
    /// (a congested FIFO run). Switch to a bucketed histogram if runs ever
    /// reach many millions of cycles.
    pub latency_histogram: Vec<u64>,
}

impl Metrics {
    /// Total packets dropped, summing every cause (arbitration losses,
    /// downstream backpressure, and fault losses).
    pub fn dropped(&self) -> u64 {
        self.dropped_arbitration + self.dropped_backpressure + self.dropped_fault
    }

    /// Delivered packets per port per cycle.
    ///
    /// Pass the number of output *terminals* (`N = 2 · cells`) to obtain the
    /// normalized throughput of the delta-network literature (a value in
    /// `[0, 1]`); passing the cell count yields the per-cell rate (in
    /// `[0, 2]`).
    pub fn normalized_throughput(&self, ports: usize) -> f64 {
        if self.measured_cycles == 0 || ports == 0 {
            return 0.0;
        }
        self.delivered as f64 / (self.measured_cycles as f64 * ports as f64)
    }

    /// Offered packets per port per cycle — the x-axis of a saturation /
    /// stability curve (plot [`Metrics::normalized_throughput`] against it;
    /// the two diverge past the saturation point).
    pub fn offered_rate(&self, ports: usize) -> f64 {
        if self.measured_cycles == 0 || ports == 0 {
            return 0.0;
        }
        self.offered as f64 / (self.measured_cycles as f64 * ports as f64)
    }

    /// Ejected flits per port per cycle (wormhole mode). Saturates towards
    /// the link capacity of one flit per cycle, so it measures how close the
    /// fabric runs to its physical bandwidth even when packet throughput is
    /// scaled down by the flit count.
    pub fn flit_throughput(&self, ports: usize) -> f64 {
        if self.measured_cycles == 0 || ports == 0 {
            return 0.0;
        }
        self.flits_delivered as f64 / (self.measured_cycles as f64 * ports as f64)
    }

    /// Mean fraction of storage units (queue slots, or wormhole lanes) that
    /// were occupied, averaged over the whole run. A saturation diagnostic:
    /// it approaches 1 when the fabric is congestion-bound.
    pub fn mean_lane_occupancy(&self) -> f64 {
        if self.lane_slot_cycles == 0 {
            0.0
        } else {
            self.lane_occupancy_sum as f64 / self.lane_slot_cycles as f64
        }
    }

    /// Fraction of offered packets that were accepted into the fabric.
    pub fn acceptance_rate(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.injected as f64 / self.offered as f64
        }
    }

    /// Number of deliveries inside the measurement window (warm-up deliveries
    /// are excluded, matching `total_latency` and the histogram).
    pub fn measured_deliveries(&self) -> u64 {
        self.latency_histogram.iter().sum()
    }

    /// Mean latency of the packets delivered inside the measurement window,
    /// in cycles.
    pub fn mean_latency(&self) -> f64 {
        let measured = self.measured_deliveries();
        if measured == 0 {
            0.0
        } else {
            self.total_latency as f64 / measured as f64
        }
    }

    /// Records one delivered-packet latency, updating the running total, the
    /// maximum and the histogram together so the three statistics can never
    /// fall out of sync.
    pub fn record_latency(&mut self, latency: u64) {
        self.total_latency += latency;
        self.max_latency = self.max_latency.max(latency);
        let idx = latency as usize;
        if idx >= self.latency_histogram.len() {
            self.latency_histogram.resize(idx + 1, 0);
        }
        self.latency_histogram[idx] += 1;
    }

    /// Records one fault-exposure event at `stage` (a drop at a dead
    /// component or a stall at a degraded link), growing the per-stage
    /// vector on demand.
    pub fn record_fault_exposure(&mut self, stage: usize) {
        if stage >= self.fault_exposure.len() {
            self.fault_exposure.resize(stage + 1, 0);
        }
        self.fault_exposure[stage] += 1;
    }

    /// Records one packet (or whole worm) lost to a fault at `stage`: the
    /// loss and its exposure event are always counted together.
    pub fn record_fault_loss(&mut self, stage: usize) {
        self.dropped_fault += 1;
        self.record_fault_exposure(stage);
    }

    /// Total fault-exposure events across every stage.
    pub fn total_fault_exposure(&self) -> u64 {
        self.fault_exposure.iter().sum()
    }

    /// Latency at the given percentile (`p` in `[0, 100]`), in cycles,
    /// computed from the histogram: the smallest latency `l` such that at
    /// least `p`% of the measured packets were delivered within `l` cycles.
    /// Returns 0 when no latency was measured.
    pub fn percentile_latency(&self, p: f64) -> u64 {
        let total = self.measured_deliveries();
        if total == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * total as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (latency, &count) in self.latency_histogram.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return latency as u64;
            }
        }
        unreachable!("rank never exceeds the histogram total")
    }

    /// The 99th-percentile latency, in cycles.
    pub fn p99_latency(&self) -> u64 {
        self.percentile_latency(99.0)
    }

    /// Folds `other` into `self` as if the two runs' events had been
    /// recorded into one accumulator: counters and sums add (including
    /// `measured_cycles` and `in_flight_at_end`, so ratio metrics such as
    /// [`Metrics::normalized_throughput`] and
    /// [`Metrics::mean_lane_occupancy`] become replication averages),
    /// `max_latency` takes the maximum, and the per-stage exposure and
    /// latency histograms add element-wise. Merging is associative and
    /// commutative, and merging in any order equals sequential
    /// accumulation — which is what lets batched replications aggregate
    /// without per-replication re-aggregation.
    pub fn merge(&mut self, other: &Metrics) {
        self.measured_cycles += other.measured_cycles;
        self.offered += other.offered;
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.dropped_arbitration += other.dropped_arbitration;
        self.dropped_backpressure += other.dropped_backpressure;
        self.dropped_fault += other.dropped_fault;
        self.unroutable_drops += other.unroutable_drops;
        self.delivered_despite_fault += other.delivered_despite_fault;
        self.in_flight_at_end += other.in_flight_at_end;
        self.total_latency += other.total_latency;
        self.max_latency = self.max_latency.max(other.max_latency);
        self.misrouted += other.misrouted;
        self.flits_delivered += other.flits_delivered;
        self.flit_stalls += other.flit_stalls;
        self.lane_occupancy_sum += other.lane_occupancy_sum;
        self.lane_slot_cycles += other.lane_slot_cycles;
        if other.fault_exposure.len() > self.fault_exposure.len() {
            self.fault_exposure.resize(other.fault_exposure.len(), 0);
        }
        for (acc, &v) in self.fault_exposure.iter_mut().zip(&other.fault_exposure) {
            *acc += v;
        }
        if other.latency_histogram.len() > self.latency_histogram.len() {
            self.latency_histogram
                .resize(other.latency_histogram.len(), 0);
        }
        for (acc, &v) in self
            .latency_histogram
            .iter_mut()
            .zip(&other.latency_histogram)
        {
            *acc += v;
        }
    }

    /// Conservation audit: every injected packet is delivered, dropped or
    /// still in flight.
    pub fn conserved(&self) -> bool {
        self.injected == self.delivered + self.dropped() + self.in_flight_at_end
            || // unbuffered drops are counted against injection in the same cycle
            self.injected + self.dropped() >= self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities_are_computed_correctly() {
        let mut m = Metrics {
            measured_cycles: 100,
            offered: 400,
            injected: 380,
            delivered: 350,
            dropped_arbitration: 15,
            dropped_backpressure: 5,
            in_flight_at_end: 10,
            ..Metrics::default()
        };
        for _ in 0..350 {
            m.record_latency(4);
        }
        assert_eq!(m.dropped(), 20);
        assert_eq!(m.measured_deliveries(), 350);
        assert_eq!(m.total_latency, 1_400);
        assert_eq!(m.max_latency, 4);
        assert!((m.normalized_throughput(8) - 350.0 / 800.0).abs() < 1e-12);
        assert!((m.offered_rate(8) - 400.0 / 800.0).abs() < 1e-12);
        assert!((m.acceptance_rate() - 0.95).abs() < 1e-12);
        assert!((m.mean_latency() - 4.0).abs() < 1e-12);
        assert!(m.conserved());
    }

    #[test]
    fn zero_division_is_guarded() {
        let m = Metrics::default();
        assert_eq!(m.normalized_throughput(8), 0.0);
        assert_eq!(m.offered_rate(8), 0.0);
        assert_eq!(m.flit_throughput(8), 0.0);
        assert_eq!(m.mean_lane_occupancy(), 0.0);
        assert_eq!(m.mean_latency(), 0.0);
        assert_eq!(m.acceptance_rate(), 1.0);
        assert_eq!(m.p99_latency(), 0);
    }

    #[test]
    fn flit_and_occupancy_accounting() {
        let m = Metrics {
            measured_cycles: 100,
            flits_delivered: 400,
            lane_occupancy_sum: 150,
            lane_slot_cycles: 600,
            ..Metrics::default()
        };
        assert!((m.flit_throughput(8) - 0.5).abs() < 1e-12);
        assert!((m.mean_lane_occupancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fault_counters_feed_the_drop_total_and_exposure_histogram() {
        let mut m = Metrics {
            dropped_arbitration: 3,
            dropped_backpressure: 2,
            dropped_fault: 5,
            unroutable_drops: 7,
            delivered_despite_fault: 11,
            ..Metrics::default()
        };
        assert_eq!(m.dropped(), 10);
        assert_eq!(m.total_fault_exposure(), 0);
        m.record_fault_exposure(2);
        m.record_fault_exposure(2);
        m.record_fault_exposure(0);
        assert_eq!(m.fault_exposure, vec![1, 0, 2]);
        assert_eq!(m.total_fault_exposure(), 3);
    }

    #[test]
    fn merge_equals_sequential_accumulation() {
        // Record two runs' events into one accumulator...
        let mut sequential = Metrics::default();
        for latency in [3u64, 3, 7] {
            sequential.record_latency(latency);
        }
        sequential.record_fault_exposure(1);
        sequential.record_fault_exposure(3);
        sequential.measured_cycles = 300;
        sequential.offered = 40;
        sequential.injected = 30;
        sequential.delivered = 25;
        sequential.dropped_arbitration = 3;
        sequential.dropped_fault = 2;
        sequential.in_flight_at_end = 4;
        sequential.lane_occupancy_sum = 50;
        sequential.lane_slot_cycles = 600;

        // ...and the same events split across two metrics, then merged.
        let mut a = Metrics::default();
        a.record_latency(3);
        a.record_fault_exposure(1);
        a.measured_cycles = 100;
        a.offered = 15;
        a.injected = 12;
        a.delivered = 10;
        a.dropped_arbitration = 1;
        a.in_flight_at_end = 1;
        a.lane_occupancy_sum = 20;
        a.lane_slot_cycles = 200;
        let mut b = Metrics::default();
        b.record_latency(3);
        b.record_latency(7);
        b.record_fault_exposure(3);
        b.measured_cycles = 200;
        b.offered = 25;
        b.injected = 18;
        b.delivered = 15;
        b.dropped_arbitration = 2;
        b.dropped_fault = 2;
        b.in_flight_at_end = 3;
        b.lane_occupancy_sum = 30;
        b.lane_slot_cycles = 400;

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, sequential);
        // Commutative: merging the other way round gives the same result.
        let mut swapped = b.clone();
        swapped.merge(&a);
        assert_eq!(swapped, sequential);
        // The shorter histogram on the left still absorbs the longer right.
        assert_eq!(merged.max_latency, 7);
        assert_eq!(merged.fault_exposure, vec![0, 1, 0, 1]);
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let mut m = Metrics::default();
        // 99 packets at 3 cycles, one straggler at 40.
        for _ in 0..99 {
            m.record_latency(3);
        }
        m.record_latency(40);
        assert_eq!(m.percentile_latency(50.0), 3);
        assert_eq!(m.p99_latency(), 3);
        assert_eq!(m.percentile_latency(100.0), 40);
        assert_eq!(m.latency_histogram[3], 99);
        assert_eq!(m.latency_histogram[40], 1);
    }
}
