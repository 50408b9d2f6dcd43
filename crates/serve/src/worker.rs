//! The campaign worker: lease one shard ahead, execute, push, heartbeat.
//!
//! A worker is a stateless loop over one-shot connections to the master
//! (see [`crate::protocol`]): register, then lease shards, execute them
//! with the pure `min_sim::campaign::execute_shard`, push the slotted
//! results, and repeat until the master says [`Reply::Exit`] or goes away.
//!
//! The loop runs on two threads, so that round trips overlap execution.
//! An executor thread runs `execute_shard` on the shards it is handed
//! through a channel of capacity one; the calling thread does all master
//! I/O. While shard *k* executes, the I/O thread pushes shard *k − 1*'s
//! results and leases shard *k + 1*, which waits in the channel so that
//! the executor starts it the moment *k* is done. A worker therefore holds
//! at most two shards that are leased but not yet pushed, and leases no
//! third until one of them is pushed. A `Wait` while a shard is in hand
//! defers the next lease until that shard is pushed; an `Exit` stops the
//! leasing, but the shards in hand are still executed and pushed.
//!
//! One heartbeat thread runs from registration until the loop returns and
//! sends [`Request::Heartbeat`] every [`WorkerConfig::heartbeat`], so the
//! master's failover monitor can tell a shard that takes long from a
//! worker that is gone.
//!
//! For failover testing, [`WorkerConfig::die_after_leases`] makes the
//! worker abandon the loop right after its *n*-th lease — holding shards
//! it will never push, exactly like a crashed machine — so integration
//! tests and the CI smoke job can exercise the requeue path
//! deterministically.

use std::io;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::thread;
use std::time::Duration;

use min_sim::campaign::{execute_shard, CampaignConfig, ScenarioResult, Shard};

use crate::client::request;
use crate::protocol::{Reply, Request};

/// Tuning knobs of a worker loop.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Master address, e.g. `127.0.0.1:7077`.
    pub master: String,
    /// The worker's name: its identity for leases and failover.
    pub name: String,
    /// Interval between heartbeats, sent from registration until the loop
    /// ends. Keep well under the master's heartbeat timeout.
    pub heartbeat: Duration,
    /// Sleep between lease attempts while the master has no work.
    pub poll: Duration,
    /// Consecutive failed connections to the master before the worker
    /// gives up. Covers both "master not up yet" at startup and "master
    /// exited after serving results" at the end.
    pub max_connect_failures: u32,
    /// Abandon the loop immediately after the *n*-th successful lease,
    /// without pushing anything it holds or heartbeating further — a
    /// deterministic stand-in for a worker crash, used by the failover
    /// tests.
    ///
    /// Because the worker leases one shard ahead, a crash holds up to two
    /// leases (the *n*-th and the one before it, if that was not yet
    /// pushed); the master requeues both after its heartbeat timeout. The
    /// same lookahead means that, at the end of a campaign, one worker may
    /// hold a shard that an idle worker could have run: at most one shard
    /// of extra tail.
    pub die_after_leases: Option<usize>,
}

impl WorkerConfig {
    /// A worker with default timing (1s heartbeat, 50ms poll) for the
    /// given master address and name.
    pub fn new(master: impl Into<String>, name: impl Into<String>) -> Self {
        WorkerConfig {
            master: master.into(),
            name: name.into(),
            heartbeat: Duration::from_secs(1),
            poll: Duration::from_millis(50),
            max_connect_failures: 100,
            die_after_leases: None,
        }
    }
}

/// What a finished worker loop did, for logging and test assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSummary {
    /// Shards leased from the master.
    pub leased: usize,
    /// Shards executed and pushed back.
    pub executed: usize,
    /// Whether the loop ended via [`WorkerConfig::die_after_leases`].
    pub died: bool,
}

/// A leased shard, on its way to the executor.
type Lease = (CampaignConfig, Shard);

/// An executed shard's id and results, on its way back to be pushed.
type Executed = io::Result<(usize, Vec<ScenarioResult>)>;

/// Runs the worker loop until the master drains it ([`Reply::Exit`]),
/// disappears, or the configured simulated crash fires.
///
/// A shard that fails to execute ends the worker with an
/// [`io::ErrorKind::InvalidData`] error; a panic in `execute_shard`
/// propagates to the caller.
pub fn run_worker(config: &WorkerConfig) -> io::Result<WorkerSummary> {
    let mut failures = 0u32;
    retrying(config, &mut failures, |c| {
        request(
            &c.master,
            &Request::Register {
                worker: c.name.clone(),
            },
        )
    })?;
    thread::scope(|scope| {
        let (hand, queued) = mpsc::sync_channel::<Lease>(1);
        let (finish, finished) = mpsc::channel::<Executed>();
        let executor = scope.spawn(move || {
            for (campaign, shard) in queued {
                let executed = execute_shard(&campaign, &shard)
                    .map(|results| (shard.id, results))
                    .map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("shard {} failed: {e}", shard.id),
                        )
                    });
                // After a failure, stop: a shard still queued is dropped
                // with the channel, unexecuted.
                let failed = executed.is_err();
                if finish.send(executed).is_err() || failed {
                    break;
                }
            }
        });
        let beat = Heartbeat::start(config);
        let summary = lease_ahead(config, &mut failures, &hand, &finished);
        drop(beat);
        // Hang up, so the executor stops once its current shard is done.
        drop(hand);
        if let Err(panic) = executor.join() {
            std::panic::resume_unwind(panic);
        }
        summary
    })
}

/// The I/O side of [`run_worker`]: leases while fewer than two shards are
/// in hand, hands each leased shard to the executor, and pushes results as
/// they come back.
fn lease_ahead(
    config: &WorkerConfig,
    failures: &mut u32,
    hand: &SyncSender<Lease>,
    finished: &Receiver<Executed>,
) -> io::Result<WorkerSummary> {
    let mut summary = WorkerSummary::default();
    // Shards leased and not yet pushed: queued, executing or executed.
    let mut in_hand = 0usize;
    let mut leasing = true;
    loop {
        if leasing && in_hand < 2 {
            let reply = match retrying(config, failures, |c| {
                request(
                    &c.master,
                    &Request::Lease {
                        worker: c.name.clone(),
                    },
                )
            }) {
                Ok(reply) => reply,
                // The master is gone for good. If it ever gave us work, the
                // job is simply over; propagate only a cold start failure.
                Err(_) if summary.leased > 0 => return Ok(summary),
                Err(e) => return Err(e),
            };
            match reply {
                Reply::Assignment {
                    config: campaign,
                    shard,
                } => {
                    summary.leased += 1;
                    if config.die_after_leases == Some(summary.leased) {
                        summary.died = true;
                        return Ok(summary);
                    }
                    in_hand += 1;
                    // A closed channel means the executor stopped on a
                    // failed shard, whose error is waiting below.
                    if hand.send((campaign, shard)).is_ok() {
                        continue;
                    }
                }
                Reply::Wait if in_hand == 0 => {
                    thread::sleep(config.poll);
                    continue;
                }
                // Lease again once the shard in hand is pushed.
                Reply::Wait => {}
                Reply::Exit => leasing = false,
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected master reply: {other:?}"),
                    ))
                }
            }
        }
        if in_hand == 0 {
            return Ok(summary);
        }
        // The executor hangs up without a result only when it panicked,
        // which `run_worker` re-raises once it has joined it.
        let (shard_id, results) = finished
            .recv()
            .map_err(|_| io::Error::other("the shard executor stopped"))??;
        in_hand -= 1;
        let pushed = retrying(config, failures, |c| {
            request(
                &c.master,
                &Request::Push {
                    worker: c.name.clone(),
                    shard: shard_id,
                    results: results.clone(),
                },
            )
        });
        match pushed {
            Ok(Reply::Ack) => summary.executed += 1,
            Ok(other) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("push of shard {shard_id} rejected: {other:?}"),
                ))
            }
            // The master vanished mid-push: there is no one left to
            // deliver results to, so the loop is over.
            Err(_) => return Ok(summary),
        }
    }
}

/// Retries a master exchange across transient connection failures, up to
/// [`WorkerConfig::max_connect_failures`] consecutive ones.
fn retrying<T>(
    config: &WorkerConfig,
    failures: &mut u32,
    mut exchange: impl FnMut(&WorkerConfig) -> io::Result<T>,
) -> io::Result<T> {
    loop {
        match exchange(config) {
            Ok(value) => {
                *failures = 0;
                return Ok(value);
            }
            Err(e) => {
                *failures += 1;
                if *failures >= config.max_connect_failures {
                    return Err(e);
                }
                std::thread::sleep(config.poll);
            }
        }
    }
}

/// A heartbeat ticker: sends [`Request::Heartbeat`] every
/// [`WorkerConfig::heartbeat`] until dropped. The first beat is due one
/// interval after start, because the registration that precedes it has
/// already refreshed the worker's last-seen time.
struct Heartbeat {
    stop: mpsc::Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(config: &WorkerConfig) -> Heartbeat {
        let (stop, stopped) = mpsc::channel();
        let master = config.master.clone();
        let name = config.name.clone();
        let interval = config.heartbeat;
        let handle = std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                // A missed heartbeat is the master's problem to notice,
                // not ours to crash on.
                let _ = request(
                    &master,
                    &Request::Heartbeat {
                        worker: name.clone(),
                    },
                );
            }
        });
        Heartbeat {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;
    use crate::protocol::{read_frame, write_frame};

    fn beating(listener: &TcpListener, interval: Duration) -> Heartbeat {
        let mut config = WorkerConfig::new(listener.local_addr().unwrap().to_string(), "w");
        config.heartbeat = interval;
        Heartbeat::start(&config)
    }

    #[test]
    fn dropping_a_heartbeat_returns_without_waiting_out_its_interval() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let beat = beating(&listener, Duration::from_secs(3600));
        let (done, dropped) = mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(beat);
            done.send(()).unwrap();
        });
        dropped
            .recv_timeout(Duration::from_secs(60))
            .expect("dropping the heartbeat waited out its interval");
        dropper.join().unwrap();
        // Registration already counts as a sign of life: no beat was sent.
        listener.set_nonblocking(true).unwrap();
        assert_eq!(
            listener.accept().unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
    }

    #[test]
    fn heartbeats_flow_once_an_interval_has_passed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let beat = beating(&listener, Duration::from_millis(20));
        for _ in 0..2 {
            let (mut stream, _) = listener.accept().unwrap();
            let request: Request = read_frame(&mut stream).unwrap();
            assert_eq!(
                request,
                Request::Heartbeat {
                    worker: "w".to_string()
                }
            );
            write_frame(&mut stream, &Reply::Ack).unwrap();
        }
        // Close the port first, so a beat already on its way is refused
        // rather than left waiting for a reply.
        drop(listener);
        drop(beat);
    }
}
