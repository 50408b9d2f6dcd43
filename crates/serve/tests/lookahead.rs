//! The worker's lease-ahead loop against a scripted master: the exact
//! order of its requests, the two-shard bound, draining on `Exit`,
//! heartbeats while a shard executes, and a failed shard ending the
//! worker without its queued neighbour.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use min_serve::protocol::{read_frame, write_frame};
use min_serve::{client, run_worker, Reply, Request, WorkerConfig, WorkerSummary};
use min_sim::campaign::{CampaignConfig, Shard};

/// How long a worker may take to finish a scripted exchange.
const DEADLINE: Duration = Duration::from_secs(60);

/// A heartbeat interval no test outlives.
const HOUR: Duration = Duration::from_secs(3600);

/// Simulated cycles of a shard that runs for many 2 ms heartbeat
/// intervals.
const LONG_CYCLES: u64 = 5_000;

/// One request as the scripted master saw it.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Register,
    Lease,
    Push(usize),
    Heartbeat,
}

/// A stand-in master that serves requests one connection at a time, as the
/// real one does: `Register` and `Push` get `Ack`, each `Lease` gets the
/// next scripted reply (`Wait` once the script runs out). It stops at a
/// `Shutdown` and returns what it saw.
fn scripted_master(leases: Vec<Reply>) -> (SocketAddr, JoinHandle<Vec<Seen>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = thread::spawn(move || {
        let mut leases = VecDeque::from(leases);
        let mut seen = Vec::new();
        loop {
            let (mut stream, _) = listener.accept().unwrap();
            let (reply, saw) = match read_frame(&mut stream).unwrap() {
                Request::Register { .. } => (Reply::Ack, Seen::Register),
                Request::Heartbeat { .. } => (Reply::Ack, Seen::Heartbeat),
                Request::Lease { .. } => (leases.pop_front().unwrap_or(Reply::Wait), Seen::Lease),
                Request::Push { shard, .. } => (Reply::Ack, Seen::Push(shard)),
                Request::Shutdown => {
                    write_frame(&mut stream, &Reply::Ack).unwrap();
                    return seen;
                }
                other => panic!("a worker sent {other:?}"),
            };
            seen.push(saw);
            write_frame(&mut stream, &reply).unwrap();
        }
    });
    (addr, handle)
}

/// A small campaign and its one-scenario shards.
fn plan() -> (CampaignConfig, Vec<Shard>) {
    let config = CampaignConfig::over_catalog(3..=3).with_cycles(80, 10);
    let shards = config.plan().unwrap().shards;
    (config, shards)
}

fn assignment(config: &CampaignConfig, shard: &Shard) -> Reply {
    Reply::Assignment {
        config: config.clone(),
        shard: shard.clone(),
    }
}

/// Runs a worker against `addr` that heartbeats every `heartbeat` while a
/// shard executes, and returns its result within [`DEADLINE`].
fn run_scripted_worker(addr: SocketAddr, heartbeat: Duration) -> io::Result<WorkerSummary> {
    let mut config = WorkerConfig::new(addr.to_string(), "w");
    config.heartbeat = heartbeat;
    config.poll = Duration::from_millis(10);
    let (done, result) = mpsc::channel();
    let worker = thread::spawn(move || done.send(run_worker(&config)).unwrap());
    let summary = result
        .recv_timeout(DEADLINE)
        .expect("the worker did not return in time");
    worker.join().unwrap();
    summary
}

#[test]
fn the_worker_leases_one_shard_ahead_and_drains_on_exit() {
    let (config, shards) = plan();
    let script = vec![
        assignment(&config, &shards[0]),
        assignment(&config, &shards[1]),
        // Everything is leased elsewhere: the worker must push the shard it
        // holds before it asks again.
        Reply::Wait,
        assignment(&config, &shards[2]),
        // `Exit` with shard 2 in hand: it is still pushed.
        Reply::Exit,
    ];
    let (addr, master) = scripted_master(script);
    // With an hour between heartbeats, none falls inside the test: the
    // registration already counts as a sign of life, and the worker
    // returns without waiting an interval out.
    let summary = run_scripted_worker(addr, HOUR).unwrap();
    client::shutdown(addr).unwrap();
    let seen = master.join().unwrap();

    assert_eq!(
        seen,
        vec![
            Seen::Register,
            Seen::Lease,
            // The second lease goes out before the first push...
            Seen::Lease,
            // ...and with two shards unpushed, no third lease does.
            Seen::Push(shards[0].id),
            Seen::Lease,
            Seen::Push(shards[1].id),
            Seen::Lease,
            Seen::Lease,
            Seen::Push(shards[2].id),
        ]
    );
    assert_eq!(
        summary,
        WorkerSummary {
            leased: 3,
            executed: 3,
            died: false
        }
    );
}

#[test]
fn heartbeats_flow_while_a_long_shard_executes() {
    // One shard that runs for many heartbeat intervals.
    let config = CampaignConfig::over_catalog(6..=6).with_cycles(LONG_CYCLES, 10);
    let shard = config.plan().unwrap().shards.swap_remove(0);
    let (addr, master) = scripted_master(vec![assignment(&config, &shard), Reply::Exit]);
    let summary = run_scripted_worker(addr, Duration::from_millis(2)).unwrap();
    client::shutdown(addr).unwrap();
    let seen = master.join().unwrap();

    assert_eq!(seen[..3], [Seen::Register, Seen::Lease, Seen::Lease]);
    assert_eq!(seen.last(), Some(&Seen::Push(shard.id)));
    let between = &seen[3..seen.len() - 1];
    assert!(
        !between.is_empty() && between.iter().all(|s| *s == Seen::Heartbeat),
        "expected heartbeats between the lease and the push: {seen:?}"
    );
    assert_eq!(summary.executed, 1);
}

#[test]
fn a_failed_shard_ends_the_worker_without_pushing_the_queued_one() {
    let (config, shards) = plan();
    let mut failing = shards[0].clone();
    failing.scenarios[0].offered_load = 1.5;
    let script = vec![
        assignment(&config, &failing),
        assignment(&config, &shards[1]),
    ];
    let (addr, master) = scripted_master(script);
    let error = run_scripted_worker(addr, HOUR).unwrap_err();
    client::shutdown(addr).unwrap();
    let seen = master.join().unwrap();

    assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    assert!(
        error
            .to_string()
            .starts_with(&format!("shard {} failed", failing.id)),
        "{error}"
    );
    assert!(
        !seen.iter().any(|s| matches!(s, Seen::Push(_))),
        "nothing may be pushed after a failed shard: {seen:?}"
    );
}
