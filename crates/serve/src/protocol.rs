//! Wire protocol of the distributed campaign service.
//!
//! Every message is one **frame**: a `u32` big-endian byte count followed by
//! that many bytes of compact JSON — the `serde_json` rendering of a
//! [`Request`] or [`Reply`]. A TCP connection carries exactly one
//! request/reply exchange and is then closed by the client; workers that
//! need to talk repeatedly (lease, heartbeat, push) open a fresh connection
//! per message. Keeping connections single-shot means the master never
//! interleaves writes from two conversations on one stream and a dying
//! client can never wedge more than one exchange.
//!
//! ## Determinism across the wire
//!
//! [`crate::protocol::Request::Push`] carries typed
//! [`ScenarioResult`]s. The JSON layer prints floats with Rust's
//! shortest-round-trip formatting and parses them back exactly, so a result
//! that crosses the wire is bit-identical to one produced in process — the
//! foundation of the service's byte-identity guarantee.

use std::io::{self, Read, Write};

use min_sim::campaign::{CampaignConfig, ScenarioResult, Shard};
use serde::{Deserialize, Serialize};

/// Upper bound on a frame's payload, as a safety net against corrupt or
/// hostile length prefixes. Campaign shards and partial results are far
/// smaller; whole-campaign reports for very large grids dominate.
pub const MAX_FRAME_BYTES: u32 = 256 * 1024 * 1024;

fn invalid(err: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err.to_string())
}

/// Writes one length-prefixed JSON frame. Prefix and payload go out in a
/// single write, so the prefix never travels as a segment of its own.
pub fn write_frame<T: Serialize>(stream: &mut impl Write, msg: &T) -> io::Result<()> {
    let text = serde_json::to_string(msg).map_err(invalid)?;
    let len = u32::try_from(text.len()).map_err(|_| invalid("frame exceeds u32::MAX bytes"))?;
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    let mut frame = Vec::with_capacity(4 + text.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(text.as_bytes());
    stream.write_all(&frame)?;
    stream.flush()
}

/// Reads one length-prefixed JSON frame.
pub fn read_frame<T: Deserialize>(stream: &mut impl Read) -> io::Result<T> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    let text = String::from_utf8(payload).map_err(invalid)?;
    serde_json::from_str(&text).map_err(invalid)
}

/// A client-to-master message. One request per connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// A worker announces itself (and its liveness) by name.
    Register {
        /// The worker's self-chosen name; also its failover identity.
        worker: String,
    },
    /// A worker asks for a shard to execute.
    Lease {
        /// Name the worker registered under.
        worker: String,
    },
    /// A worker streams back the results of a leased shard.
    Push {
        /// Name the worker registered under.
        worker: String,
        /// Plan-order id of the shard these results belong to.
        shard: usize,
        /// The shard's slotted results, in shard scenario order.
        results: Vec<ScenarioResult>,
    },
    /// A worker proves it is still alive while executing a long shard.
    Heartbeat {
        /// Name the worker registered under.
        worker: String,
    },
    /// A client submits a campaign for distributed execution.
    Submit {
        /// The campaign to run.
        config: CampaignConfig,
        /// Grid points per shard outside lane-eligible bundles, which ship
        /// as one 64-lane word per shard (`CampaignConfig::plan_chunked`).
        points_per_shard: usize,
    },
    /// A client asks for the job's progress.
    Status,
    /// A client asks for the completed report.
    Results,
    /// A client asks the master to exit.
    Shutdown,
}

/// A master-to-client message: the reply to one [`Request`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// The request was applied; nothing further to say.
    Ack,
    /// A leased shard, together with the campaign it belongs to (workers
    /// are stateless between connections, so every assignment is
    /// self-contained).
    Assignment {
        /// The campaign configuration the shard is part of.
        config: CampaignConfig,
        /// The shard to execute.
        shard: Shard,
    },
    /// No shard is available right now; poll again shortly.
    Wait,
    /// The job is finished (or the master is draining): the worker should
    /// exit its lease loop.
    Exit,
    /// A submitted campaign was planned and queued.
    Submitted {
        /// Number of shards in the plan.
        shards: usize,
        /// Total scenarios across the plan.
        scenarios: usize,
    },
    /// The job's progress counters.
    Status {
        /// The progress snapshot.
        status: StatusReport,
    },
    /// The completed campaign report, as the **verbatim** canonical JSON of
    /// `CampaignReport::to_json` — kept as a string so the client can write
    /// it to disk byte-identically to a single-process run.
    Results {
        /// Canonical report JSON.
        report_json: String,
    },
    /// The results are not ready yet (shards still pending or running).
    NotReady,
    /// The request could not be applied.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// A snapshot of the master's job state, for `status` clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// Whether a job has been submitted.
    pub has_job: bool,
    /// Total shards in the current plan.
    pub shards: usize,
    /// Shards not yet leased (including requeued ones).
    pub pending: usize,
    /// Shards currently leased to a live worker.
    pub running: usize,
    /// Shards whose results are in the store.
    pub done: usize,
    /// Whether every slot is filled.
    pub complete: bool,
    /// Workers currently considered alive.
    pub workers: usize,
    /// Shards requeued from workers that missed their heartbeat deadline.
    pub requeues: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let req = Request::Push {
            worker: "w-1".to_string(),
            shard: 3,
            results: Vec::new(),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req).unwrap();
        assert_eq!(
            u32::from_be_bytes(wire[..4].try_into().unwrap()) as usize,
            wire.len() - 4
        );
        let back: Request = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn multi_megabyte_results_frames_round_trip() {
        // A report string escapes every quote, backslash and newline it
        // holds; decoding must stay linear in the frame size.
        let chunk = "{\"load\":0.4,\"name\":\"Ω-β \\\\ 漢字 😀\",\"ctl\":\"\u{1}\"}\n";
        let reply = Reply::Results {
            report_json: chunk.repeat(80_000),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &reply).unwrap();
        assert!(wire.len() > 4 << 20);
        let back: Reply = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn oversized_length_prefixes_are_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        wire.extend_from_slice(b"{}");
        assert_eq!(
            read_frame::<Request>(&mut wire.as_slice())
                .unwrap_err()
                .kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_frames_error_instead_of_hanging() {
        let req = Request::Status;
        let mut wire = Vec::new();
        write_frame(&mut wire, &req).unwrap();
        wire.pop();
        assert!(read_frame::<Request>(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn requests_and_replies_survive_json() {
        let cfg = CampaignConfig::over_catalog(3..=3);
        let shard = cfg.plan().unwrap().shards.remove(0);
        let messages = [
            Reply::Ack,
            Reply::Wait,
            Reply::Exit,
            Reply::NotReady,
            Reply::Assignment {
                config: cfg.clone(),
                shard,
            },
            Reply::Submitted {
                shards: 6,
                scenarios: 6,
            },
            Reply::Status {
                status: StatusReport {
                    has_job: true,
                    shards: 6,
                    pending: 1,
                    running: 2,
                    done: 3,
                    complete: false,
                    workers: 2,
                    requeues: 1,
                },
            },
            Reply::Error {
                message: "no".to_string(),
            },
        ];
        for msg in &messages {
            let json = serde_json::to_string(msg).unwrap();
            let back: Reply = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, msg);
        }
    }
}
