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
//! Every request refreshes the master's last-seen time for the worker. The
//! I/O thread's only long wait is for the executor to finish a shard; it
//! waits [`WorkerConfig::heartbeat`] at a time and sends a
//! [`Request::Heartbeat`] after each, so the master's failover monitor can
//! tell a shard that takes long from a worker that is gone.
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
    /// Interval between heartbeats, sent while the worker waits for a
    /// shard to finish executing. Keep well under the master's heartbeat
    /// timeout.
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
        let summary = lease_ahead(config, &mut failures, &hand, &finished);
        // Hang up, so the executor stops once its current shard is done.
        drop(hand);
        if let Err(panic) = executor.join() {
            std::panic::resume_unwind(panic);
        }
        summary
    })
}

/// The I/O side of [`run_worker`]: leases while fewer than two shards are
/// in hand, hands each leased shard to the executor, pushes results as
/// they come back, and heartbeats while it waits for them.
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
        let (shard_id, results) = loop {
            match finished.recv_timeout(config.heartbeat) {
                Ok(executed) => break executed?,
                // A missed heartbeat is the master's problem to notice,
                // not ours to crash on.
                Err(RecvTimeoutError::Timeout) => {
                    let _ = request(
                        &config.master,
                        &Request::Heartbeat {
                            worker: config.name.clone(),
                        },
                    );
                }
                // The executor hangs up without a result only when it
                // panicked, which `run_worker` re-raises once it has
                // joined it.
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::other("the shard executor stopped"))
                }
            }
        };
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
