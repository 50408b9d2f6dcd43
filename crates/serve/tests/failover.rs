//! Failover oracle: a worker that dies holding a leased shard must not
//! perturb the campaign — the master requeues the shard after the
//! heartbeat deadline, a surviving worker re-executes it, and the final
//! report is byte-identical to the single-process run.

use std::time::{Duration, Instant};

use min_serve::{client, Master, MasterConfig, WorkerConfig};
use min_sim::campaign::{run_campaign, CampaignConfig};
use min_sim::FaultPlan;
use min_sim::TrafficPattern;

/// A master tick no test outlives: the master must serve every exchange,
/// and requeue dead workers' shards, driven by incoming requests alone.
const NEVER: Duration = Duration::from_secs(3600);

#[test]
fn a_worker_killed_mid_campaign_does_not_perturb_the_report() {
    let config = CampaignConfig::over_catalog(3..=3)
        .with_traffic(vec![TrafficPattern::Uniform, TrafficPattern::BitReversal])
        .with_loads(vec![0.4, 0.9])
        .with_fault_plans(vec![
            FaultPlan::none(),
            FaultPlan::none().with_dead_link(0, 1, 1, 0),
        ])
        .with_replications(2)
        .with_cycles(100, 10);
    let reference = run_campaign(&config, 1).unwrap().to_json();

    let master = Master::bind(
        "127.0.0.1:0",
        MasterConfig {
            // Short enough that the test requeues quickly, long enough
            // that a live worker's 50ms heartbeat can never miss it.
            heartbeat_timeout: Duration::from_millis(400),
            once: true,
            tick: NEVER,
        },
    )
    .unwrap();
    let addr = master.local_addr();
    let master = std::thread::spawn(move || master.run().unwrap());

    let (shards, _) = client::submit(addr, &config, 2).unwrap();

    // The doomed worker runs first, synchronously: it leases one shard and
    // "crashes" — no results, no heartbeats, the shard stuck `Running`.
    let mut doomed = WorkerConfig::new(addr.to_string(), "doomed");
    doomed.poll = Duration::from_millis(10);
    doomed.die_after_leases = Some(1);
    let crash = min_serve::run_worker(&doomed).unwrap();
    assert!(crash.died);
    assert_eq!(crash.leased, 1);
    assert_eq!(crash.executed, 0);

    let before = client::status(addr).unwrap();
    assert_eq!(before.running, 1, "the dead worker's lease is outstanding");

    // The survivor must finish the whole job, including the requeued
    // shard, once the heartbeat deadline passes.
    let mut survivor = WorkerConfig::new(addr.to_string(), "survivor");
    survivor.heartbeat = Duration::from_millis(50);
    survivor.poll = Duration::from_millis(10);
    let survivor = std::thread::spawn(move || min_serve::run_worker(&survivor).unwrap());

    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        let status = client::status(addr).unwrap();
        if status.complete {
            break status;
        }
        assert!(Instant::now() < deadline, "campaign stalled: {status:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        status.requeues >= 1,
        "the doomed worker's shard was never requeued: {status:?}"
    );

    let report_json = client::results(addr).unwrap().expect("job is complete");
    assert_eq!(report_json, reference);

    let summary = survivor.join().unwrap();
    assert_eq!(summary.executed, shards, "survivor ran every shard");
    master.join().unwrap();
}

#[test]
fn duplicate_pushes_for_a_requeued_shard_are_discarded() {
    // Directly exercise push idempotency through the public protocol: two
    // workers race the same shard; the master keeps the first result and
    // acknowledges (discards) the second, and the report is unperturbed.
    use min_serve::{Reply, Request};
    use min_sim::campaign::execute_shard;

    let config = CampaignConfig::over_catalog(3..=3).with_cycles(80, 10);
    let reference = run_campaign(&config, 1).unwrap().to_json();
    let plan = config.plan().unwrap();

    let master = Master::bind(
        "127.0.0.1:0",
        MasterConfig {
            heartbeat_timeout: Duration::from_secs(30),
            once: true,
            tick: NEVER,
        },
    )
    .unwrap();
    let addr = master.local_addr();
    let master = std::thread::spawn(move || master.run().unwrap());

    client::submit(addr, &config, 1).unwrap();
    // Lease every shard under one name, then push each result twice.
    for shard in &plan.shards {
        let reply = client::request(
            addr,
            &Request::Lease {
                worker: "w".to_string(),
            },
        )
        .unwrap();
        let leased = match reply {
            Reply::Assignment { shard, .. } => shard,
            other => panic!("expected an assignment, got {other:?}"),
        };
        assert_eq!(leased.id, shard.id);
        let results = execute_shard(&config, &leased).unwrap();
        for _ in 0..2 {
            let reply = client::request(
                addr,
                &Request::Push {
                    worker: "w".to_string(),
                    shard: leased.id,
                    results: results.clone(),
                },
            )
            .unwrap();
            assert_eq!(reply, Reply::Ack);
        }
    }
    let report_json = client::results(addr).unwrap().expect("all slots filled");
    assert_eq!(report_json, reference);
    master.join().unwrap();
}

#[test]
fn a_push_that_is_not_the_shards_planned_results_is_rejected() {
    // The master checks every push against the plan: shard 1's results
    // pushed as shard 0 (or an empty push) must neither fill slot 0 nor
    // block the honest pushes, which still give the reference bytes.
    use min_serve::{Reply, Request};
    use min_sim::campaign::execute_shard;

    let config = CampaignConfig::over_catalog(3..=3).with_cycles(80, 10);
    let reference = run_campaign(&config, 1).unwrap().to_json();

    let master = Master::bind(
        "127.0.0.1:0",
        MasterConfig {
            heartbeat_timeout: Duration::from_secs(30),
            once: true,
            tick: NEVER,
        },
    )
    .unwrap();
    let addr = master.local_addr();
    let master = std::thread::spawn(move || master.run().unwrap());
    let push = |shard: usize, results| {
        client::request(
            addr,
            &Request::Push {
                worker: "w".to_string(),
                shard,
                results,
            },
        )
        .unwrap()
    };

    let (shards, _) = client::submit(addr, &config, 1).unwrap();
    assert!(shards > 1);
    let leased: Vec<_> = (0..shards)
        .map(|_| {
            let reply = client::request(
                addr,
                &Request::Lease {
                    worker: "w".to_string(),
                },
            )
            .unwrap();
            match reply {
                Reply::Assignment { shard, .. } => shard,
                other => panic!("expected an assignment, got {other:?}"),
            }
        })
        .collect();
    let results: Vec<_> = leased
        .iter()
        .map(|shard| execute_shard(&config, shard).unwrap())
        .collect();

    for forged in [results[1].clone(), Vec::new()] {
        let reply = push(leased[0].id, forged);
        assert!(matches!(reply, Reply::Error { .. }), "{reply:?}");
    }
    let status = client::status(addr).unwrap();
    assert_eq!(
        (status.done, status.running),
        (0, shards),
        "slots unchanged"
    );
    assert_eq!(client::results(addr).unwrap(), None);

    for (shard, results) in leased.iter().zip(results) {
        assert_eq!(push(shard.id, results), Reply::Ack);
    }
    let report_json = client::results(addr).unwrap().expect("all slots filled");
    assert_eq!(report_json, reference);
    master.join().unwrap();
}
