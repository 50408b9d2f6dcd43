//! End-to-end distributed execution: a master and several workers on
//! localhost must reproduce the single-process campaign report
//! byte-for-byte — the wire-level form of the determinism oracle.

use std::time::Duration;

use min_serve::{client, Master, MasterConfig, WorkerConfig};
use min_sim::campaign::{run_campaign, CampaignConfig, CampaignReport};
use min_sim::FaultPlan;
use min_sim::TrafficPattern;
use min_sim::{TraceData, TraceRecord};

/// A grid small enough for CI but wide enough to produce many shards and
/// exercise the fault/path-diversity plumbing — and every production-shaped
/// traffic pattern (Zipf, ON/OFF, trace replay) — across the wire.
fn grid() -> CampaignConfig {
    // The n=3 catalog cells have 4 cells per stage = 8 terminals.
    let trace = TraceData {
        cells: 4,
        period: 4,
        records: vec![
            TraceRecord {
                cycle: 0,
                source: 0,
                dest: 3,
            },
            TraceRecord {
                cycle: 0,
                source: 5,
                dest: 3,
            },
            TraceRecord {
                cycle: 2,
                source: 7,
                dest: 0,
            },
        ],
    };
    CampaignConfig::over_catalog(3..=3)
        .with_traffic(vec![
            TrafficPattern::Uniform,
            TrafficPattern::BitReversal,
            TrafficPattern::Zipf { exponent: 1.1 },
            TrafficPattern::OnOff {
                on_dwell: 10.0,
                off_dwell: 5.0,
                on_rate: 0.9,
            },
            TrafficPattern::Trace(trace),
        ])
        .with_loads(vec![0.35, 0.85])
        .with_fault_plans(vec![
            FaultPlan::none(),
            FaultPlan::none().with_dead_link(1, 0, 1, 0),
        ])
        .with_replications(2)
        .with_cycles(120, 20)
}

fn fast_worker(addr: std::net::SocketAddr, name: &str) -> WorkerConfig {
    let mut config = WorkerConfig::new(addr.to_string(), name);
    config.heartbeat = Duration::from_millis(50);
    config.poll = Duration::from_millis(10);
    config
}

#[test]
fn master_with_two_workers_matches_the_single_process_report() {
    let config = grid();
    let reference = run_campaign(&config, 1).unwrap().to_json();

    let master = Master::bind(
        "127.0.0.1:0",
        MasterConfig {
            heartbeat_timeout: Duration::from_secs(5),
            once: true,
            tick: Duration::from_millis(2),
        },
    )
    .unwrap();
    let addr = master.local_addr();
    let master = std::thread::spawn(move || master.run().unwrap());

    let (shards, scenarios) = client::submit(addr, &config, 2).unwrap();
    assert_eq!(scenarios, config.scenario_count());
    assert!(shards > 2, "want more shards than workers, got {shards}");

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let worker = fast_worker(addr, &format!("w{i}"));
            std::thread::spawn(move || min_serve::run_worker(&worker).unwrap())
        })
        .collect();

    let report_json = client::wait_for_results(addr, Duration::from_millis(20)).unwrap();
    assert_eq!(report_json, reference);
    // The string is the canonical rendering: it parses back to the same
    // report the in-process runner produced.
    let report = CampaignReport::from_json(&report_json).unwrap();
    assert_eq!(report.scenario_count, config.scenario_count());

    let summaries: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let executed: usize = summaries.iter().map(|s| s.executed).sum();
    assert_eq!(executed, shards);
    assert!(
        summaries.iter().all(|s| s.executed > 0),
        "both workers should get work: {summaries:?}"
    );
    master.join().unwrap();
}

#[test]
fn status_results_and_resubmission_follow_the_protocol() {
    let config = grid().with_loads(vec![0.5]).with_replications(1);
    let master = Master::bind("127.0.0.1:0", MasterConfig::default()).unwrap();
    let addr = master.local_addr();
    let master_thread = std::thread::spawn(move || master.run().unwrap());

    // Before any submission: no results, empty status.
    let status = client::status(addr).unwrap();
    assert!(!status.has_job);
    assert!(client::results(addr).is_err());

    let (shards, _) = client::submit(addr, &config, 1).unwrap();
    let status = client::status(addr).unwrap();
    assert!(status.has_job);
    assert_eq!(status.pending, shards);
    assert_eq!(client::results(addr).unwrap(), None);

    // A second submission while the first is in flight is refused.
    assert!(client::submit(addr, &config, 1).is_err());

    let worker = fast_worker(addr, "w0");
    let worker = std::thread::spawn(move || min_serve::run_worker(&worker).unwrap());
    let report_json = client::wait_for_results(addr, Duration::from_millis(20)).unwrap();
    assert_eq!(report_json, run_campaign(&config, 1).unwrap().to_json());

    // The master is persistent (once = false): a fresh submission after
    // completion replaces the finished job.
    let (shards2, _) = client::submit(addr, &config, 2).unwrap();
    assert!(shards2 < shards);

    client::shutdown(addr).unwrap();
    master_thread.join().unwrap();
    worker.join().unwrap();
}

#[test]
fn packed_curves_ship_as_word_shards_and_survive_a_crash() {
    // Every curve has 2 loads × 5 replications = 10 lanes, past the packed
    // engine's threshold of 8: the master ships each curve as one word.
    let config = CampaignConfig::over_catalog(3..=3)
        .with_traffic(vec![TrafficPattern::Uniform, TrafficPattern::BitReversal])
        .with_loads(vec![0.3, 0.9])
        .with_fault_plans(vec![
            FaultPlan::none(),
            FaultPlan::none().with_dead_link(1, 0, 1, 0),
        ])
        .with_replications(5)
        .with_cycles(100, 10);
    let reference = run_campaign(&config, 1).unwrap().to_json();

    let master = Master::bind(
        "127.0.0.1:0",
        MasterConfig {
            heartbeat_timeout: Duration::from_millis(400),
            once: true,
            tick: Duration::from_millis(2),
        },
    )
    .unwrap();
    let addr = master.local_addr();
    let master = std::thread::spawn(move || master.run().unwrap());

    let points = config.scenario_count() / 5;
    let curves = config.cells.len() * config.traffic.len() * config.fault_plans.len();
    let (shards, scenarios) = client::submit(addr, &config, 2).unwrap();
    assert_eq!(scenarios, config.scenario_count());
    assert!(shards < points, "{shards} shards for {points} grid points");
    // One 10-lane word per curve: whatever the doomed worker leases is a
    // word unit.
    assert_eq!(shards, curves);

    let mut doomed = WorkerConfig::new(addr.to_string(), "doomed");
    doomed.poll = Duration::from_millis(10);
    doomed.die_after_leases = Some(1);
    let crash = min_serve::run_worker(&doomed).unwrap();
    assert!(crash.died);
    assert_eq!((crash.leased, crash.executed), (1, 0));
    assert_eq!(client::status(addr).unwrap().running, 1);

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let worker = fast_worker(addr, &format!("w{i}"));
            std::thread::spawn(move || min_serve::run_worker(&worker).unwrap())
        })
        .collect();
    let report_json = client::wait_for_results(addr, Duration::from_millis(20)).unwrap();
    assert_eq!(report_json, reference);

    // The doomed worker's shard was requeued and run by a survivor.
    let executed: usize = workers
        .into_iter()
        .map(|w| w.join().unwrap().executed)
        .sum();
    assert_eq!(executed, shards, "the survivors ran every shard once");
    master.join().unwrap();
}
