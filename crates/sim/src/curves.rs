//! Replication-averaged load curves: the one home of the fold, the
//! saturation knee and the `stability.json`/`saturation.json` layouts.
//! [`fold`] keys each result by the grid axes decoded from its scenario
//! index, so patterns sharing a label never merge and a partial report
//! folds into the points it covers. The writers print fixed-precision
//! floats: the bytes are identical across platforms and thread counts.

use crate::campaign::{CampaignConfig, CampaignReport, ScenarioResult};
use crate::config::BufferMode;
use crate::fault::FaultPlan;
use crate::traffic::TrafficPattern;
use min_networks::NetworkSpec;
use std::collections::BTreeMap;

/// Throughput shortfall that marks the knee ([`Curve::saturation_load`]).
pub const DIVERGENCE_THRESHOLD: f64 = 0.05;

/// One offered load of a curve: sums over the results folded into it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CurvePoint {
    /// The offered load of the ladder step.
    pub load: f64,
    /// Results folded in: the divisor of [`CurvePoint::mean`].
    pub replications: u32,
    /// Terminals of the cell.
    pub terminals: usize,
    /// Packets offered (open-loop: refused packets count).
    pub offered: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped inside the fabric.
    pub dropped: u64,
    /// Worst 99th-percentile latency of any replication.
    pub p99_latency: u64,
    /// Sum of normalized throughputs.
    pub throughput_sum: f64,
    /// Sum of acceptance fractions.
    pub acceptance_sum: f64,
    /// Sum of mean latencies.
    pub mean_latency_sum: f64,
    /// Sum of mean occupancies.
    pub occupancy_sum: f64,
}

impl CurvePoint {
    fn add(&mut self, r: &ScenarioResult) {
        self.replications += 1;
        self.offered += r.offered;
        self.delivered += r.delivered;
        self.dropped += r.dropped;
        self.p99_latency = self.p99_latency.max(r.p99_latency);
        self.throughput_sum += r.throughput;
        self.acceptance_sum += r.acceptance;
        self.mean_latency_sum += r.mean_latency;
        self.occupancy_sum += r.mean_occupancy;
    }

    /// The replication mean of one of the point's sums.
    pub fn mean(&self, sum: f64) -> f64 {
        sum / f64::from(self.replications)
    }

    /// Offered packets per terminal per cycle, or `0.0` over zero slots.
    pub fn offered_rate(&self, cycles: u64) -> f64 {
        let slots = cycles as f64 * self.terminals as f64 * f64::from(self.replications);
        if slots == 0.0 {
            0.0
        } else {
            self.offered as f64 / slots
        }
    }
}

/// One (cell, traffic pattern, buffer mode, fault plan) load curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve<'a> {
    /// The grid cell.
    pub network: NetworkSpec,
    /// The traffic pattern.
    pub traffic: &'a TrafficPattern,
    /// The buffer architecture.
    pub buffer_mode: BufferMode,
    /// The fault plan.
    pub fault_plan: &'a FaultPlan,
    /// The ladder points holding at least one result, in ladder order.
    pub points: Vec<CurvePoint>,
}

impl Curve<'_> {
    /// The stability knee: the first ladder load whose mean throughput falls
    /// more than [`DIVERGENCE_THRESHOLD`] below a positive offered rate, or
    /// `None` when the curve never diverges on this ladder.
    pub fn saturation_load(&self, cycles: u64) -> Option<f64> {
        self.points.iter().find_map(|p| {
            let offered = p.offered_rate(cycles);
            let throughput = p.mean(p.throughput_sum);
            (offered > 0.0 && throughput < (1.0 - DIVERGENCE_THRESHOLD) * offered).then_some(p.load)
        })
    }
}

/// Groups `report` into one curve per (cell, traffic, buffer mode, fault
/// plan), in canonical grid order. Results outside `config`'s grid are
/// ignored.
pub fn fold<'a>(config: &'a CampaignConfig, report: &CampaignReport) -> Vec<Curve<'a>> {
    let total = config.scenario_count();
    let mut grid: BTreeMap<[usize; 4], BTreeMap<usize, CurvePoint>> = BTreeMap::new();
    for r in report.scenarios.iter().filter(|r| r.scenario.index < total) {
        let [cell, traffic, mode, plan, load] = axes(config, r.scenario.index);
        grid.entry([cell, traffic, mode, plan])
            .or_default()
            .entry(load)
            .or_insert_with(|| CurvePoint {
                load: r.scenario.offered_load,
                terminals: config.cells[cell].terminals(),
                ..CurvePoint::default()
            })
            .add(r);
    }
    grid.into_iter()
        .map(|([cell, traffic, mode, plan], points)| Curve {
            network: config.cells[cell],
            traffic: &config.traffic[traffic],
            buffer_mode: config.buffer_modes[mode],
            fault_plan: &config.fault_plans[plan],
            points: points.into_values().collect(),
        })
        .collect()
}

/// `[cell, traffic, buffer mode, fault plan, load]` of an in-grid index.
fn axes(config: &CampaignConfig, index: usize) -> [usize; 5] {
    let mut rest = index / config.replications as usize;
    let mut digit = |len: usize| {
        let d = rest % len;
        rest /= len;
        d
    };
    let plan = digit(config.fault_plans.len());
    let mode = digit(config.buffer_modes.len());
    let load = digit(config.loads.len());
    let traffic = digit(config.traffic.len());
    [rest, traffic, mode, plan, load]
}

/// `stability.json`: each curve's points (offered rate, throughput,
/// acceptance, latency, occupancy) and its [`Curve::saturation_load`].
pub fn stability_json(config: &CampaignConfig, curves: &[Curve]) -> String {
    let cycles = config.cycles;
    let curves: Vec<String> = curves
        .iter()
        .map(|c| {
            let points: Vec<String> = c
                .points
                .iter()
                .map(|p| {
                    format!(
                        "{{\"load\":{:.2},\"offered\":{:.6},\"throughput\":{:.6},\
                         \"acceptance\":{:.6},\"mean_latency\":{:.4},\"occupancy\":{:.6}}}",
                        p.load,
                        p.offered_rate(cycles),
                        p.mean(p.throughput_sum),
                        p.mean(p.acceptance_sum),
                        p.mean(p.mean_latency_sum),
                        p.mean(p.occupancy_sum),
                    )
                })
                .collect();
            let knee = c
                .saturation_load(cycles)
                .map_or("null".to_string(), |load| format!("{load:.2}"));
            format!(
                "{{\"network\":\"{}\",\"stages\":{},\"traffic\":\"{}\",\"buffers\":\"{}\",\
                 \"points\":[{}],\"saturation_load\":{knee}}}",
                c.network.name(),
                c.network.stages(),
                c.traffic.label(),
                c.buffer_mode.label(),
                points.join(","),
            )
        })
        .collect();
    format!(
        "{{\"cycles\":{cycles},\"warmup\":{},\"replications\":{},\
         \"divergence_threshold\":{DIVERGENCE_THRESHOLD},\"curves\":[{}]}}",
        config.warmup,
        config.replications,
        curves.join(","),
    )
}

/// `saturation.json`: the curves flattened point by point (throughput,
/// latency, acceptance, delivered and dropped totals).
pub fn saturation_json(config: &CampaignConfig, curves: &[Curve]) -> String {
    let points: Vec<String> = curves
        .iter()
        .flat_map(|c| c.points.iter().map(move |p| (c.network, p)))
        .map(|(network, p)| {
            format!(
                "{{\"network\":\"{}\",\"stages\":{},\"load\":{:.2},\
                 \"throughput\":{:.6},\"mean_latency\":{:.4},\"p99_latency\":{},\
                 \"acceptance\":{:.6},\"delivered\":{},\"dropped\":{}}}",
                network.name(),
                network.stages(),
                p.load,
                p.mean(p.throughput_sum),
                p.mean(p.mean_latency_sum),
                p.p99_latency,
                p.mean(p.acceptance_sum),
                p.delivered,
                p.dropped,
            )
        })
        .collect();
    format!(
        "{{\"cycles\":{},\"replications\":{},\"points\":[{}]}}",
        config.cycles,
        config.replications,
        points.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, Scenario};
    use min_networks::ClassicalNetwork;

    #[test]
    fn curves_are_keyed_by_grid_axis_not_by_label_or_adjacency() {
        // Two Zipf exponents share the "zipf" label, and two buffer modes
        // and two fault plans sit between one curve's replications and its
        // next load in the canonical expansion.
        let config = CampaignConfig::over_catalog(3..=3)
            .with_cells(vec![NetworkSpec::catalog(ClassicalNetwork::Omega, 3)])
            .with_traffic(vec![
                TrafficPattern::Zipf { exponent: 1.0 },
                TrafficPattern::Zipf { exponent: 2.0 },
            ])
            .with_loads(vec![0.4, 0.8])
            .with_buffer_modes(vec![BufferMode::Unbuffered, BufferMode::Fifo(2)])
            .with_fault_plans(vec![
                FaultPlan::none(),
                FaultPlan::none().with_dead_link(1, 0, 1, 0),
            ])
            .with_replications(3)
            .with_cycles(40, 4);
        let report = run_campaign(&config, 1).unwrap();
        let curves = fold(&config, &report);

        let mut expected_keys = Vec::new();
        for traffic in &config.traffic {
            for &mode in &config.buffer_modes {
                for plan in &config.fault_plans {
                    expected_keys.push((traffic, mode, plan));
                }
            }
        }
        let keys: Vec<_> = curves
            .iter()
            .map(|c| (c.traffic, c.buffer_mode, c.fault_plan))
            .collect();
        assert_eq!(keys, expected_keys);

        for c in &curves {
            let loads: Vec<f64> = c.points.iter().map(|p| p.load).collect();
            assert_eq!(loads, config.loads);
            for p in &c.points {
                // Hand fold: select the point's results by value.
                let rs: Vec<&ScenarioResult> = report
                    .scenarios
                    .iter()
                    .filter(|r| {
                        let s = &r.scenario;
                        s.network == c.network
                            && s.traffic == *c.traffic
                            && s.buffer_mode == c.buffer_mode
                            && s.fault_plan == *c.fault_plan
                            && s.offered_load == p.load
                    })
                    .collect();
                assert_eq!(rs.len(), 3);
                assert_eq!(p.replications, config.replications);
                let mean = |f: fn(&ScenarioResult) -> f64| {
                    rs.iter().map(|r| f(r)).sum::<f64>() / rs.len() as f64
                };
                assert_eq!(p.mean(p.throughput_sum), mean(|r| r.throughput));
                assert_eq!(p.mean(p.acceptance_sum), mean(|r| r.acceptance));
                assert_eq!(p.mean(p.mean_latency_sum), mean(|r| r.mean_latency));
                assert_eq!(p.mean(p.occupancy_sum), mean(|r| r.mean_occupancy));
                assert_eq!(p.offered, rs.iter().map(|r| r.offered).sum::<u64>());
                assert_eq!(p.delivered, rs.iter().map(|r| r.delivered).sum::<u64>());
                assert_eq!(p.dropped, rs.iter().map(|r| r.dropped).sum::<u64>());
                let p99 = rs.iter().map(|r| r.p99_latency).max().unwrap();
                assert_eq!(p.p99_latency, p99);
            }
        }
        let flat = saturation_json(&config, &curves);
        assert_eq!(flat.matches("\"load\":").count(), 16, "{flat}");
    }

    #[test]
    fn a_partial_report_folds_into_the_points_it_covers() {
        let config = CampaignConfig::over_catalog(3..=3)
            .with_loads(vec![0.3, 0.6, 0.9])
            .with_buffer_modes(vec![BufferMode::Unbuffered, BufferMode::Fifo(2)])
            .with_replications(2)
            .with_cycles(30, 3);
        let full = run_campaign(&config, 1).unwrap();
        // Every third result, in reverse arrival order.
        let some: Vec<ScenarioResult> = full.scenarios.iter().step_by(3).rev().cloned().collect();
        let partial = CampaignReport::partial(&config, some.clone()).unwrap();
        let curves = fold(&config, &partial);
        let folded: u32 = curves
            .iter()
            .flat_map(|c| &c.points)
            .map(|p| p.replications)
            .sum();
        assert_eq!(folded as usize, some.len());
        for c in &curves {
            assert!(c.points.windows(2).all(|w| {
                let at = |load| config.loads.iter().position(|&l| l == load);
                at(w[0].load) < at(w[1].load)
            }));
            for p in &c.points {
                let covered = some
                    .iter()
                    .filter(|r| {
                        r.scenario.network == c.network
                            && r.scenario.buffer_mode == c.buffer_mode
                            && r.scenario.offered_load == p.load
                    })
                    .count();
                assert_eq!(p.replications as usize, covered);
            }
        }
    }

    /// A result carrying only the fields the curve writers read.
    #[allow(clippy::too_many_arguments)]
    fn result(
        scenario: Scenario,
        offered: u64,
        delivered: u64,
        dropped: u64,
        p99_latency: u64,
        throughput: f64,
        acceptance: f64,
        mean_latency: f64,
        mean_occupancy: f64,
    ) -> ScenarioResult {
        ScenarioResult {
            scenario,
            throughput,
            mean_latency,
            p99_latency,
            max_latency: p99_latency,
            acceptance,
            offered,
            injected: delivered + dropped,
            delivered,
            dropped,
            dropped_arbitration: dropped,
            dropped_backpressure: 0,
            flits_delivered: 0,
            flit_stalls: 0,
            mean_occupancy,
            in_flight: 0,
            dropped_fault: 0,
            unroutable_drops: 0,
            delivered_despite_fault: 0,
            fault_exposure: Vec::new(),
            path_diversity: Vec::new(),
        }
    }

    /// Omega n=2 (4 terminals) × {uniform, zipf} × loads {0, 0.5, 1} × 2
    /// replications of 10 cycles: 80 terminal slots per point. The uniform
    /// curve tracks its offered rate (no knee); the zipf curve falls below
    /// 95 % of it from load 0.5 on.
    fn hand_built() -> (CampaignConfig, CampaignReport) {
        let config = CampaignConfig::over_catalog(2..=2)
            .with_cells(vec![NetworkSpec::catalog(ClassicalNetwork::Omega, 2)])
            .with_traffic(vec![
                TrafficPattern::Uniform,
                TrafficPattern::Zipf { exponent: 1.0 },
            ])
            .with_loads(vec![0.0, 0.5, 1.0])
            .with_replications(2)
            .with_cycles(10, 1);
        // (offered, delivered, dropped, p99, throughput, acceptance,
        //  mean latency, occupancy) per scenario, in canonical order.
        let rows = [
            (0, 0, 0, 0, 0.0, 1.0, 0.0, 0.0),
            (0, 0, 0, 0, 0.0, 1.0, 0.0, 0.0),
            (20, 20, 0, 2, 0.5, 1.0, 2.0, 0.125),
            (20, 19, 1, 3, 0.49, 0.9, 2.5, 0.25),
            (40, 38, 2, 3, 0.96, 1.0, 2.0, 0.5),
            (40, 39, 1, 4, 0.98, 1.0, 3.0, 0.5),
            (0, 0, 0, 0, 0.0, 1.0, 0.0, 0.0),
            (0, 0, 0, 0, 0.0, 1.0, 0.0, 0.0),
            (20, 18, 2, 2, 0.5, 1.0, 2.0, 0.25),
            (20, 17, 3, 5, 0.44, 0.75, 3.0, 0.25),
            (40, 30, 10, 6, 0.75, 0.5, 4.0, 0.75),
            (40, 28, 12, 7, 0.7, 0.5, 4.5, 0.875),
        ];
        let results = config
            .scenarios()
            .unwrap()
            .into_iter()
            .zip(rows)
            .map(|(s, (o, d, x, p99, t, a, l, occ))| result(s, o, d, x, p99, t, a, l, occ))
            .collect();
        let report = CampaignReport::partial(&config, results).unwrap();
        (config, report)
    }

    #[test]
    fn both_writers_pin_their_fixed_precision_layout() {
        let (config, report) = hand_built();
        let curves = fold(&config, &report);
        assert_eq!(
            stability_json(&config, &curves),
            "{\"cycles\":10,\"warmup\":1,\"replications\":2,\"divergence_threshold\":0.05,\
             \"curves\":[{\"network\":\"Omega\",\"stages\":2,\"traffic\":\"uniform\",\
             \"buffers\":\"unbuffered\",\"points\":[\
             {\"load\":0.00,\"offered\":0.000000,\"throughput\":0.000000,\"acceptance\":1.000000,\
             \"mean_latency\":0.0000,\"occupancy\":0.000000},\
             {\"load\":0.50,\"offered\":0.500000,\"throughput\":0.495000,\"acceptance\":0.950000,\
             \"mean_latency\":2.2500,\"occupancy\":0.187500},\
             {\"load\":1.00,\"offered\":1.000000,\"throughput\":0.970000,\"acceptance\":1.000000,\
             \"mean_latency\":2.5000,\"occupancy\":0.500000}],\"saturation_load\":null},\
             {\"network\":\"Omega\",\"stages\":2,\"traffic\":\"zipf\",\
             \"buffers\":\"unbuffered\",\"points\":[\
             {\"load\":0.00,\"offered\":0.000000,\"throughput\":0.000000,\"acceptance\":1.000000,\
             \"mean_latency\":0.0000,\"occupancy\":0.000000},\
             {\"load\":0.50,\"offered\":0.500000,\"throughput\":0.470000,\"acceptance\":0.875000,\
             \"mean_latency\":2.5000,\"occupancy\":0.250000},\
             {\"load\":1.00,\"offered\":1.000000,\"throughput\":0.725000,\"acceptance\":0.500000,\
             \"mean_latency\":4.2500,\"occupancy\":0.812500}],\"saturation_load\":0.50}]}"
        );
        assert_eq!(
            saturation_json(&config, &curves),
            "{\"cycles\":10,\"replications\":2,\"points\":[\
             {\"network\":\"Omega\",\"stages\":2,\"load\":0.00,\"throughput\":0.000000,\
             \"mean_latency\":0.0000,\"p99_latency\":0,\"acceptance\":1.000000,\
             \"delivered\":0,\"dropped\":0},\
             {\"network\":\"Omega\",\"stages\":2,\"load\":0.50,\"throughput\":0.495000,\
             \"mean_latency\":2.2500,\"p99_latency\":3,\"acceptance\":0.950000,\
             \"delivered\":39,\"dropped\":1},\
             {\"network\":\"Omega\",\"stages\":2,\"load\":1.00,\"throughput\":0.970000,\
             \"mean_latency\":2.5000,\"p99_latency\":4,\"acceptance\":1.000000,\
             \"delivered\":77,\"dropped\":3},\
             {\"network\":\"Omega\",\"stages\":2,\"load\":0.00,\"throughput\":0.000000,\
             \"mean_latency\":0.0000,\"p99_latency\":0,\"acceptance\":1.000000,\
             \"delivered\":0,\"dropped\":0},\
             {\"network\":\"Omega\",\"stages\":2,\"load\":0.50,\"throughput\":0.470000,\
             \"mean_latency\":2.5000,\"p99_latency\":5,\"acceptance\":0.875000,\
             \"delivered\":35,\"dropped\":5},\
             {\"network\":\"Omega\",\"stages\":2,\"load\":1.00,\"throughput\":0.725000,\
             \"mean_latency\":4.2500,\"p99_latency\":7,\"acceptance\":0.500000,\
             \"delivered\":58,\"dropped\":22}]}"
        );
    }

    #[test]
    fn the_knee_is_the_first_diverging_load_with_a_positive_offered_rate() {
        let (config, report) = hand_built();
        let curves = fold(&config, &report);
        // Zipf diverges at 0.5 and again at 1.0: the first one is the knee.
        assert_eq!(curves[1].saturation_load(config.cycles), Some(0.5));
        // Uniform stays within 5 % of its offered rate.
        assert_eq!(curves[0].saturation_load(config.cycles), None);
        // Zero terminal slots mean a zero offered rate: never a knee, even
        // on a curve that diverges everywhere else.
        assert_eq!(curves[1].saturation_load(0), None);
        let mut starved = curves[1].clone();
        for p in &mut starved.points {
            p.terminals = 0;
        }
        assert_eq!(starved.saturation_load(config.cycles), None);
        // A 0.0 rung with a zero throughput sum offers nothing either.
        starved.points.truncate(1);
        starved.points[0].terminals = 4;
        assert_eq!(starved.points[0].offered_rate(config.cycles), 0.0);
        assert_eq!(starved.saturation_load(config.cycles), None);
    }
}
