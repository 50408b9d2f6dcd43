//! The loopback min-serve workload: the end-to-end campaign, its set-up
//! timing, and the traced run in which the benchmark plays the one worker.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use baseline_equivalence::prelude::{execute_shard, CampaignConfig, CampaignReport};
use baseline_equivalence::serve::protocol::{read_frame, write_frame, Reply, Request};
use baseline_equivalence::serve::{
    results, run_worker, shutdown, submit, Master, MasterConfig, WorkerConfig, WorkerSummary,
};

use crate::metrics::{ratio, secs, Metrics};

/// Socket timeout of the benchmark's own connections, as `client::request`
/// sets it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn text(error: impl std::fmt::Display) -> String {
    error.to_string()
}

/// Names a reply the benchmark did not expect, without dumping a report.
fn unexpected(what: &str, reply: &Reply) -> String {
    match reply {
        Reply::Error { message } => format!("{what}: master error: {message}"),
        _ => format!("{what}: unexpected master reply"),
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// Binds a master with `MasterConfig::default()` on an ephemeral loopback
/// port and runs it on its own thread.
fn start_master() -> Result<(SocketAddr, JoinHandle<io::Result<()>>), String> {
    let master = Master::bind("127.0.0.1:0", MasterConfig::default()).map_err(text)?;
    let addr = master.local_addr();
    Ok((addr, thread::spawn(move || master.run())))
}

fn join_master(master: JoinHandle<io::Result<()>>) -> Result<(), String> {
    master.join().expect("master thread panicked").map_err(text)
}

/// A stream that counts the bytes it carries in both directions.
struct Counted<S> {
    inner: S,
    bytes: u64,
}

impl<S: Read> Read for Counted<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for Counted<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Requests made and bytes moved by one client session.
#[derive(Default)]
struct Wire {
    requests: u64,
    bytes: u64,
}

impl Wire {
    /// One request/reply exchange on a fresh connection, the discipline of
    /// every min-serve client.
    fn call(&mut self, addr: SocketAddr, request: &Request) -> Result<Reply, String> {
        let mut stream = Counted {
            inner: connect(addr).map_err(text)?,
            bytes: 0,
        };
        write_frame(&mut stream, request).map_err(text)?;
        let reply = read_frame(&mut stream).map_err(text)?;
        self.requests += 1;
        self.bytes += stream.bytes;
        Ok(reply)
    }
}

/// One set-up: master bind plus the reply to `Submit`. The request is queued
/// on the listener before the master thread starts, so the master's first
/// accept takes it and no accept tick is waited out.
pub fn setup_once(config: &CampaignConfig) -> Result<f64, String> {
    let t = Instant::now();
    let master = Master::bind("127.0.0.1:0", MasterConfig::default()).map_err(text)?;
    let addr = master.local_addr();
    let mut stream = connect(addr).map_err(text)?;
    let request = Request::Submit {
        config: config.clone(),
        points_per_shard: 1,
    };
    write_frame(&mut stream, &request).map_err(text)?;
    let handle = thread::spawn(move || master.run());
    let reply: Reply = read_frame(&mut stream).map_err(text)?;
    let setup_s = secs(t);
    Wire::default().call(addr, &Request::Shutdown)?;
    join_master(handle)?;
    match reply {
        Reply::Submitted { .. } => Ok(setup_s),
        other => Err(unexpected("submit", &other)),
    }
}

/// The end-to-end workload: a master, `workers` workers with
/// `WorkerConfig::new` defaults, and a client that submits with one grid
/// point per shard and then polls for the report once per master tick.
/// Returns the report and the wall time from bind to report in hand.
pub fn run(config: &CampaignConfig, workers: usize) -> Result<(String, f64), String> {
    let tick = MasterConfig::default().tick;
    let t = Instant::now();
    let (addr, master) = start_master()?;
    submit(addr, config, 1).map_err(text)?;
    let pool: Vec<_> = (0..workers)
        .map(|i| {
            let worker = WorkerConfig::new(addr.to_string(), format!("w{i}"));
            thread::spawn(move || run_worker(&worker))
        })
        .collect();
    let report = loop {
        if let Some(report) = results(addr).map_err(text)? {
            break report;
        }
        thread::sleep(tick);
    };
    let wall_s = secs(t);
    shutdown(addr).map_err(text)?;
    join_master(master)?;
    drain(addr, pool)?;
    Ok((report, wall_s))
}

/// Stands in for the stopped master until every worker has left: each
/// request gets `Exit`, so a worker leaves at its next poll instead of
/// retrying the closed port until its connect budget runs out.
fn drain(addr: SocketAddr, pool: Vec<JoinHandle<io::Result<WorkerSummary>>>) -> Result<(), String> {
    // If the port cannot be taken back, the workers still leave on their
    // own once their connect budget is spent.
    let listener = TcpListener::bind(addr)
        .and_then(|l| l.set_nonblocking(true).map(|()| l))
        .ok();
    while pool.iter().any(|worker| !worker.is_finished()) {
        match listener.as_ref().map(TcpListener::accept) {
            Some(Ok((mut stream, _))) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                if read_frame::<Request>(&mut stream).is_ok() {
                    let _ = write_frame(&mut stream, &Reply::Exit);
                }
            }
            _ => thread::sleep(Duration::from_millis(1)),
        }
    }
    for worker in pool {
        worker
            .join()
            .expect("worker thread panicked")
            .map_err(text)?;
    }
    Ok(())
}

/// The traced run: the benchmark submits, then plays the single worker with
/// `write_frame`/`read_frame` and `execute_shard`, so each request type gets
/// its own round-trip time. Afterwards it replays, on the same data, the
/// master's merge and report serialization and the decoding of the `Push`
/// and `Results` frames.
pub fn trace(out: &mut Metrics, config: &CampaignConfig, expected: &str) -> Result<(), String> {
    let worker = "perfbench".to_string();
    let wall = Instant::now();
    let (addr, master) = start_master()?;
    let mut wire = Wire::default();
    let request = Request::Submit {
        config: config.clone(),
        points_per_shard: 1,
    };
    let t = Instant::now();
    let shards = match wire.call(addr, &request)? {
        Reply::Submitted { shards, .. } => shards,
        other => return Err(unexpected("submit", &other)),
    };
    let submit_s = secs(t);
    let register = Request::Register {
        worker: worker.clone(),
    };
    wire.call(addr, &register)?;

    let (mut lease_s, mut execute_s, mut push_s) = (0.0, 0.0, 0.0);
    let mut pushed = Vec::with_capacity(shards);
    for _ in 0..shards {
        let lease = Request::Lease {
            worker: worker.clone(),
        };
        let t = Instant::now();
        let reply = wire.call(addr, &lease)?;
        lease_s += secs(t);
        let Reply::Assignment { config, shard } = reply else {
            return Err(unexpected("lease", &reply));
        };
        let t = Instant::now();
        let results = execute_shard(&config, &shard).map_err(text)?;
        execute_s += secs(t);
        let push = Request::Push {
            worker: worker.clone(),
            shard: shard.id,
            results: results.clone(),
        };
        let t = Instant::now();
        let reply = wire.call(addr, &push)?;
        push_s += secs(t);
        if reply != Reply::Ack {
            return Err(unexpected("push", &reply));
        }
        pushed.push(results);
    }

    let t = Instant::now();
    let reply = wire.call(addr, &Request::Results)?;
    let results_s = secs(t);
    let Reply::Results { report_json } = reply else {
        return Err(unexpected("results", &reply));
    };
    wire.call(addr, &Request::Shutdown)?;
    join_master(master)?;
    let wall_s = secs(wall);
    if report_json != expected {
        return Err("serve: traced report differs from the oracle".to_string());
    }

    let mut store = CampaignReport::empty(config);
    let mut merge_s = 0.0;
    for results in &pushed {
        let results = results.clone();
        let t = Instant::now();
        let partial = CampaignReport::partial(config, results).map_err(text)?;
        store.merge(&partial).map_err(text)?;
        merge_s += secs(t);
    }
    let t = Instant::now();
    let json = store.to_json();
    let to_json_s = secs(t);
    if json != report_json {
        return Err("serve: replayed merge differs from the served report".to_string());
    }
    let report_bytes = report_json.len();
    let mut frame = Vec::new();
    write_frame(&mut frame, &Reply::Results { report_json }).map_err(text)?;
    let t = Instant::now();
    read_frame::<Reply>(&mut frame.as_slice()).map_err(text)?;
    let results_decode_s = secs(t);
    let mut push_decode_s = 0.0;
    for (shard, results) in pushed.into_iter().enumerate() {
        let push = Request::Push {
            worker: worker.clone(),
            shard,
            results,
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &push).map_err(text)?;
        let t = Instant::now();
        read_frame::<Request>(&mut frame.as_slice()).map_err(text)?;
        push_decode_s += secs(t);
    }

    let per_call_ms = |total: f64| ratio(total * 1e3, shards as f64);
    out.push("serve.submit_s", submit_s, "s");
    out.push("serve.lease_s", lease_s, "s");
    out.push("serve.lease_rtt_ms", per_call_ms(lease_s), "ms");
    out.push("serve.push_s", push_s, "s");
    out.push("serve.push_rtt_ms", per_call_ms(push_s), "ms");
    out.push("serve.execute_s", execute_s, "s");
    out.push("serve.results_s", results_s, "s");
    out.push("serve.requests", wire.requests as f64, "count");
    out.push("serve.wire_bytes", wire.bytes as f64, "bytes");
    out.push("serve.report_bytes", report_bytes as f64, "bytes");
    out.push("serve.merge_s", merge_s, "s");
    out.push("serve.campaign.to_json_s", to_json_s, "s");
    out.push("serve.protocol.results_decode_s", results_decode_s, "s");
    out.push("serve.protocol.push_decode_s", push_decode_s, "s");
    out.push("trace.serve.wall_s", wall_s, "s");
    let spans = submit_s + lease_s + execute_s + push_s + results_s;
    out.push("trace.serve.residual_s", wall_s - spans, "s");
    Ok(())
}
