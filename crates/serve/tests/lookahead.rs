//! The worker's lease-ahead loop against a scripted master: the exact
//! order of its requests, the two-shard bound, draining on `Exit`, and a
//! failed shard ending the worker without its queued neighbour.

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

/// Runs a worker against `addr` with no heartbeats inside the test's
/// lifetime, and returns its result within [`DEADLINE`].
fn run_scripted_worker(addr: SocketAddr) -> io::Result<WorkerSummary> {
    let mut config = WorkerConfig::new(addr.to_string(), "w");
    config.heartbeat = Duration::from_secs(3600);
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
    let summary = run_scripted_worker(addr).unwrap();
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
fn a_failed_shard_ends_the_worker_without_pushing_the_queued_one() {
    let (config, shards) = plan();
    let mut failing = shards[0].clone();
    failing.scenarios[0].offered_load = 1.5;
    let script = vec![
        assignment(&config, &failing),
        assignment(&config, &shards[1]),
    ];
    let (addr, master) = scripted_master(script);
    let error = run_scripted_worker(addr).unwrap_err();
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
