//! The campaign master: job state, shard leasing and heartbeat failover.
//!
//! The master owns one job at a time: a campaign planned by
//! `CampaignConfig::plan_chunked` (the planner `run_campaign` uses, so a
//! lane-eligible bundle — an unbuffered curve, or a FIFO or wormhole
//! cell's curves across traffic patterns — ships as one 64-lane word per
//! shard and
//! `points_per_shard` sizes only the other shards), whose shards move
//! through `Pending → Running → Done`. Workers lease pending shards (lowest
//! id first), execute them with `min_sim::campaign::execute_shard`, and
//! push results back; a monitor requeues the shards of any worker that
//! misses its heartbeat deadline. Because shards are index-addressed and
//! scenario seeds are derived per index, a requeued shard re-executes to
//! byte-identical results on any other worker — pushes are therefore
//! idempotent: the first one fills the slot, later duplicates are
//! acknowledged and discarded. A push is checked against the plan first:
//! results that are not exactly the shard's planned scenarios, in shard
//! order, get a `Reply::Error` and leave the slot as it was.
//!
//! Connections are served sequentially (one request/reply per connection,
//! see [`crate::protocol`]) off a blocking accept, so the master waits only
//! for the next request and never on a timer. The failover monitor runs
//! right before each request is served: a dead worker's shards are only
//! observable through a request (a lease, `Status`, `Results`), so
//! requeueing then is exactly as fresh as any timer could make it.
//! Campaign execution happens in the workers, so the master's work per
//! exchange is an O(log shards) lease or filing one pushed shard — never a
//! simulation; the report is assembled once, when the last shard lands.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use min_sim::campaign::{assemble, CampaignConfig, ScenarioResult, Shard};

use crate::protocol::{read_frame, write_frame, Reply, Request, StatusReport};

/// Tuning knobs of a [`Master`].
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// A worker that has not been heard from (lease, push, or heartbeat)
    /// for this long is declared dead and its running shards are requeued.
    pub heartbeat_timeout: Duration,
    /// When `true`, the master exits once a job has completed **and** its
    /// results have been served to a client — the mode integration tests
    /// and the CI smoke job run in. When `false` the master stays up for
    /// further submissions until a `Shutdown` request.
    pub once: bool,
    /// The interval at which clients of this master should poll `Status`
    /// or `Results`. The master itself never sleeps: it blocks in
    /// `accept` and runs the failover monitor per request.
    pub tick: Duration,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            heartbeat_timeout: Duration::from_secs(10),
            once: false,
            tick: Duration::from_millis(5),
        }
    }
}

impl MasterConfig {
    /// Per-connection socket read/write timeout, derived from the
    /// heartbeat timeout: half of it, floored at 100 ms. Tying the two
    /// together keeps a wedged peer from stalling the accept loop longer
    /// than a failover round, and keeps short-heartbeat test configurations
    /// from racing a (previously hard-coded 10 s) socket timeout.
    pub fn io_timeout(&self) -> Duration {
        (self.heartbeat_timeout / 2).max(Duration::from_millis(100))
    }
}

/// Lifecycle of one shard slot.
#[derive(Debug, Clone)]
enum Slot {
    /// Not yet leased (or requeued after its worker died).
    Pending,
    /// Leased to the named worker.
    Running {
        worker: String,
    },
    Done,
}

/// The active job: a planned campaign plus its slot table and the results
/// pushed so far.
struct Job {
    config: CampaignConfig,
    shards: Vec<Shard>,
    slots: Vec<Slot>,
    /// The ids of the `Pending` slots; the lowest is leased first.
    pending: BTreeSet<usize>,
    done: usize,
    requeues: u64,
    /// Every pushed shard's results, in arrival order.
    results: Vec<ScenarioResult>,
    /// The canonical report JSON, assembled when the last slot lands.
    report: Option<String>,
}

impl Job {
    fn complete(&self) -> bool {
        self.done == self.slots.len()
    }
}

/// The distributed campaign master. Bind with [`Master::bind`], then hand
/// the thread to [`Master::run`].
pub struct Master {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: MasterConfig,
    job: Option<Job>,
    /// Worker name → last time it was heard from.
    workers: HashMap<String, Instant>,
    served_results: bool,
    shutdown: bool,
}

impl Master {
    /// Binds the master to `addr` (use port `0` for an ephemeral port; the
    /// chosen address is available via [`Master::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, config: MasterConfig) -> io::Result<Master> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Master {
            listener,
            local_addr,
            config,
            job: None,
            workers: HashMap::new(),
            served_results: false,
            shutdown: false,
        })
    }

    /// The address the master is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves requests until shut down — or, in [`MasterConfig::once`]
    /// mode, until a completed job's results have been served.
    pub fn run(mut self) -> io::Result<()> {
        while !self.should_exit() {
            let (stream, _) = self.listener.accept()?;
            self.monitor();
            // Ignore per-connection failures (a worker dying mid exchange
            // must not take the master down); failover handles the fallout.
            let _ = self.serve_connection(stream);
        }
        Ok(())
    }

    fn should_exit(&self) -> bool {
        if self.shutdown {
            return true;
        }
        self.config.once && self.served_results && self.job.as_ref().is_some_and(Job::complete)
    }

    fn serve_connection(&mut self, mut stream: TcpStream) -> io::Result<()> {
        // Replies go out in one write; without this, Nagle's algorithm can
        // hold the tail of a large reply until the client's delayed ACK.
        stream.set_nodelay(true)?;
        // Timeouts keep a wedged peer from stalling the accept loop forever.
        let io_timeout = self.config.io_timeout();
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        let request: Request = read_frame(&mut stream)?;
        let reply = self.handle(request);
        write_frame(&mut stream, &reply)
    }

    fn touch(&mut self, worker: &str) {
        self.workers.insert(worker.to_string(), Instant::now());
    }

    fn handle(&mut self, request: Request) -> Reply {
        match request {
            Request::Register { worker } | Request::Heartbeat { worker } => {
                self.touch(&worker);
                Reply::Ack
            }
            Request::Lease { worker } => {
                self.touch(&worker);
                self.lease(&worker)
            }
            Request::Push {
                shard,
                results,
                worker,
            } => {
                self.touch(&worker);
                self.push(shard, results)
            }
            Request::Submit {
                config,
                points_per_shard,
            } => self.submit(config, points_per_shard),
            Request::Status => Reply::Status {
                status: self.status(),
            },
            Request::Results => match self.job.as_ref().map(|job| &job.report) {
                Some(Some(report_json)) => {
                    self.served_results = true;
                    Reply::Results {
                        report_json: report_json.clone(),
                    }
                }
                Some(None) => Reply::NotReady,
                None => Reply::Error {
                    message: "no job submitted".to_string(),
                },
            },
            Request::Shutdown => {
                self.shutdown = true;
                Reply::Ack
            }
        }
    }

    fn lease(&mut self, worker: &str) -> Reply {
        let once = self.config.once;
        let Some(job) = self.job.as_mut() else {
            return Reply::Wait;
        };
        if job.complete() {
            // In once mode the job is the master's whole life: drain the
            // worker pool. A persistent master keeps workers polling for
            // the next submission instead.
            return if once { Reply::Exit } else { Reply::Wait };
        }
        match job.pending.pop_first() {
            Some(id) => {
                job.slots[id] = Slot::Running {
                    worker: worker.to_string(),
                };
                Reply::Assignment {
                    config: job.config.clone(),
                    shard: job.shards[id].clone(),
                }
            }
            // Everything is leased out but not yet done; the poller may
            // still inherit a requeued shard.
            None => Reply::Wait,
        }
    }

    fn push(&mut self, shard: usize, results: Vec<ScenarioResult>) -> Reply {
        let Some(job) = self.job.as_mut() else {
            return Reply::Error {
                message: "no job submitted".to_string(),
            };
        };
        if shard >= job.slots.len() {
            return Reply::Error {
                message: format!("shard {shard} out of range ({} shards)", job.slots.len()),
            };
        }
        // The results must be exactly this shard's planned scenarios, in
        // shard order: anything else would fill (or hole) another shard's
        // slots under this shard's name.
        let planned = &job.shards[shard].scenarios;
        if !results.iter().map(|r| &r.scenario).eq(planned) {
            return Reply::Error {
                message: format!(
                    "rejected results for shard {shard}: they do not match its {} planned scenarios",
                    planned.len()
                ),
            };
        }
        if let Slot::Done = std::mem::replace(&mut job.slots[shard], Slot::Done) {
            // A worker declared dead can still come back with the results
            // of a shard that was requeued and re-executed elsewhere.
            // Execution is deterministic, so the bytes are the same either
            // way: first push wins, duplicates are discarded.
            return Reply::Ack;
        }
        // The shard may have been requeued before its late push landed.
        job.pending.remove(&shard);
        job.results.extend(results);
        job.done += 1;
        if job.complete() {
            // `assemble` slots the results by canonical index, so the bytes
            // do not depend on the order the shards landed in.
            match assemble(&job.config, std::mem::take(&mut job.results)) {
                Ok(report) => job.report = Some(report.to_json()),
                Err(e) => {
                    return Reply::Error {
                        message: format!("the pushed results do not assemble: {e}"),
                    }
                }
            }
        }
        Reply::Ack
    }

    fn submit(&mut self, config: CampaignConfig, points_per_shard: usize) -> Reply {
        if self.job.as_ref().is_some_and(|job| !job.complete()) {
            return Reply::Error {
                message: "a job is already in progress".to_string(),
            };
        }
        let plan = match config.plan_chunked(points_per_shard) {
            Ok(plan) => plan,
            Err(e) => {
                return Reply::Error {
                    message: format!("invalid campaign: {e}"),
                }
            }
        };
        let shards = plan.shards;
        let scenarios = shards.iter().map(Shard::len).sum();
        self.served_results = false;
        self.job = Some(Job {
            config,
            slots: vec![Slot::Pending; shards.len()],
            pending: (0..shards.len()).collect(),
            done: 0,
            requeues: 0,
            results: Vec::new(),
            report: None,
            shards,
        });
        Reply::Submitted {
            shards: self.job.as_ref().expect("just set").shards.len(),
            scenarios,
        }
    }

    fn status(&self) -> StatusReport {
        let job = self.job.as_ref();
        let count = |f: fn(&Job) -> usize| job.map_or(0, f);
        StatusReport {
            has_job: job.is_some(),
            shards: count(|job| job.slots.len()),
            pending: count(|job| job.pending.len()),
            running: count(|job| job.slots.len() - job.pending.len() - job.done),
            done: count(|job| job.done),
            complete: job.is_some_and(Job::complete),
            workers: self.workers.len(),
            requeues: job.map_or(0, |job| job.requeues),
        }
    }

    /// The failover monitor: drops workers that have missed their
    /// heartbeat deadline and requeues every shard they were running.
    fn monitor(&mut self) {
        let timeout = self.config.heartbeat_timeout;
        let now = Instant::now();
        let dead: Vec<String> = self
            .workers
            .iter()
            .filter(|(_, last_seen)| now.duration_since(**last_seen) > timeout)
            .map(|(name, _)| name.clone())
            .collect();
        if dead.is_empty() {
            return;
        }
        for name in &dead {
            self.workers.remove(name);
        }
        if let Some(job) = self.job.as_mut() {
            for (id, slot) in job.slots.iter_mut().enumerate() {
                if matches!(slot, Slot::Running { worker } if dead.contains(worker)) {
                    *slot = Slot::Pending;
                    job.pending.insert(id);
                    job.requeues += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use min_sim::BufferMode;

    #[test]
    fn an_oversized_buffer_mode_gets_an_error_reply_not_a_crash() {
        let mut master = Master::bind("127.0.0.1:0", MasterConfig::default()).unwrap();
        let config = CampaignConfig::over_catalog(3..=3)
            .with_cycles(80, 10)
            .with_buffer(BufferMode::Wormhole {
                lanes: 1 << 40,
                lane_depth: 4,
                flits_per_packet: 4,
            });
        let reply = master.handle(Request::Submit {
            config,
            points_per_shard: 1,
        });
        let Reply::Error { message } = reply else {
            panic!("expected an error reply, got {reply:?}");
        };
        assert!(message.contains("wormhole lanes exceed"), "{message}");
        assert!(master.job.is_none(), "nothing was queued");
    }

    #[test]
    fn io_timeout_tracks_the_heartbeat_timeout() {
        let default = MasterConfig::default();
        assert_eq!(default.io_timeout(), Duration::from_secs(5));
        // Short failover configurations (the failover tests run a 400 ms
        // heartbeat) get a proportionally short socket timeout...
        let short = MasterConfig {
            heartbeat_timeout: Duration::from_millis(400),
            ..MasterConfig::default()
        };
        assert_eq!(short.io_timeout(), Duration::from_millis(200));
        // ...down to a floor that still tolerates loopback latency.
        let tiny = MasterConfig {
            heartbeat_timeout: Duration::from_millis(50),
            ..MasterConfig::default()
        };
        assert_eq!(tiny.io_timeout(), Duration::from_millis(100));
    }
}
