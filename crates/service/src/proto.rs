//! The sweep protocol: typed messages over [`crate::frame`] frames.
//!
//! Payloads are rendered with the runtime's deterministic [`Json`]
//! writer and decoded with its strict object reader ([`Fields`]), so a
//! malformed peer — a missing, mis-typed or unknown field — is rejected
//! at decode time with a named first error, the same policy
//! [`SweepSpec::parse`](oraclesize_runtime::SweepSpec::parse) applies to
//! submitted jobs. Error paths start at `payload` (`payload.records[3]`).
//!
//! | kind | message | direction |
//! |------|--------------|---------------------|
//! | 1 | [`Message::Submit`] | client → server |
//! | 2 | [`Message::Accepted`] | server → client |
//! | 3 | [`Message::Poll`] | client → server |
//! | 4 | [`Message::Status`] | server → client |
//! | 5 | [`Message::Want`] | worker → server |
//! | 6 | [`Message::Shard`] | server → worker |
//! | 7 | [`Message::NoWork`] | server → worker |
//! | 8 | [`Message::Result`] | worker → server |
//! | 9 | [`Message::Ack`] | server → worker |
//! | 10 | [`Message::Error`] | server → anyone |
//!
//! The server answers only when there is news: it holds a `Poll` until
//! the job merges another shard and a `Want` until a shard is pending
//! (see [`crate::server`]), so neither peer sleeps between requests.
//! `NoWork` only means "shut down", and a `Shard` carries its job's spec
//! only when the connection's job changes.
//!
//! Result records are checkpoint-journal records, encoded and decoded by
//! [`journal::record_json`] / [`journal::record_from_json`]: a cell
//! result has one codec on disk and on the wire, digest included. It is
//! lossless for every untraced report — exactly the reports a service
//! sweep produces.

use std::io::{self, Read, Write};

use oraclesize_runtime::journal::{self, JournalRecord};
use oraclesize_runtime::json::{self, Fields};
use oraclesize_runtime::Json;

use crate::frame::{read_frame, write_frame};

/// A protocol message. See the module table for kinds and directions.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Submit a sweep job: the spec's canonical JSON plus whether the
    /// server may prefill results from its own journal for this job.
    Submit {
        /// [`SweepSpec::to_json`](oraclesize_runtime::SweepSpec::to_json).
        spec: Json,
        /// Allow server-side journal resume for this job.
        resume: bool,
    },
    /// The job was admitted (or already known); `job` is the spec digest.
    Accepted {
        /// Job id — [`SweepSpec::digest`](oraclesize_runtime::SweepSpec::digest).
        job: u64,
        /// Total cells in the sweep.
        cells: u64,
    },
    /// Ask for a job's progress. The server answers when the job next
    /// merges a shard, or at once when the job is done or unknown, so a
    /// client loops on `Poll` without sleeping.
    Poll {
        /// Job id.
        job: u64,
    },
    /// Progress snapshot, sent once per merged shard while the job
    /// runs; `artifact` is present exactly when `state` is `"done"`.
    Status {
        /// Job id.
        job: u64,
        /// `"running"` or `"done"`.
        state: String,
        /// Cells merged so far.
        done: u64,
        /// Total cells.
        total: u64,
        /// The merged artifact file contents, byte-identical to a local
        /// run's `BENCH_<NAME>.json`.
        artifact: Option<String>,
    },
    /// A worker asking for a shard. The server holds the answer until
    /// a shard is pending or it has finished its jobs.
    Want {
        /// Worker name, for the server's log line.
        worker: String,
    },
    /// A shard lease: run cells `[lo, hi)` of job `job`'s `total`-cell
    /// grid. The spec travels with a lease whose job differs from the
    /// job of the connection's previous lease, so workers need no side
    /// channel; a worker caches the one job it is serving.
    Shard {
        /// Job id.
        job: u64,
        /// Shard id within the job.
        shard: u64,
        /// First sweep-wide cell index of the shard.
        lo: u64,
        /// One past the last cell index.
        hi: u64,
        /// Total cells in the sweep.
        total: u64,
        /// The job's spec JSON, present on a connection's first lease
        /// of this job since a lease of another.
        spec: Option<Json>,
    },
    /// The server has finished its configured job count: shut down.
    NoWork,
    /// A completed shard's per-cell results.
    Result {
        /// Job id.
        job: u64,
        /// Shard id being returned.
        shard: u64,
        /// One journal record per cell of the shard, in cell order.
        records: Vec<JournalRecord>,
    },
    /// The server merged a result batch.
    Ack {
        /// Job id.
        job: u64,
        /// Cells merged so far.
        done: u64,
        /// Total cells.
        total: u64,
    },
    /// A request was rejected; the text names the first error.
    Error {
        /// Human-readable reason.
        text: String,
    },
}

impl Message {
    /// This message's frame kind.
    pub fn kind(&self) -> u16 {
        match self {
            Message::Submit { .. } => 1,
            Message::Accepted { .. } => 2,
            Message::Poll { .. } => 3,
            Message::Status { .. } => 4,
            Message::Want { .. } => 5,
            Message::Shard { .. } => 6,
            Message::NoWork => 7,
            Message::Result { .. } => 8,
            Message::Ack { .. } => 9,
            Message::Error { .. } => 10,
        }
    }

    /// The JSON payload this message frames.
    pub fn to_json(&self) -> Json {
        match self {
            Message::Submit { spec, resume } => Json::obj()
                .field("spec", spec.clone())
                .field("resume", *resume),
            Message::Accepted { job, cells } => {
                Json::obj().field("job", *job).field("cells", *cells)
            }
            Message::Poll { job } => Json::obj().field("job", *job),
            Message::Status {
                job,
                state,
                done,
                total,
                artifact,
            } => {
                let mut j = Json::obj()
                    .field("job", *job)
                    .field("state", state.as_str())
                    .field("done", *done)
                    .field("total", *total);
                if let Some(a) = artifact {
                    j = j.field("artifact", a.as_str());
                }
                j
            }
            Message::Want { worker } => Json::obj().field("worker", worker.as_str()),
            Message::Shard {
                job,
                shard,
                lo,
                hi,
                total,
                spec,
            } => {
                let mut j = Json::obj()
                    .field("job", *job)
                    .field("shard", *shard)
                    .field("lo", *lo)
                    .field("hi", *hi)
                    .field("total", *total);
                if let Some(spec) = spec {
                    j = j.field("spec", spec.clone());
                }
                j
            }
            Message::NoWork => Json::obj(),
            Message::Result {
                job,
                shard,
                records,
            } => {
                let records: Vec<Json> = records
                    .iter()
                    .map(|r| journal::record_json(r.cell, r.seed, &r.report))
                    .collect();
                Json::obj()
                    .field("job", *job)
                    .field("shard", *shard)
                    .field("records", records)
            }
            Message::Ack { job, done, total } => Json::obj()
                .field("job", *job)
                .field("done", *done)
                .field("total", *total),
            Message::Error { text } => Json::obj().field("text", text.as_str()),
        }
    }

    /// Decodes a received frame.
    ///
    /// # Errors
    ///
    /// Returns a first-error message for an unknown kind, unparseable
    /// payload, or a missing/mis-typed field.
    pub fn decode(kind: u16, payload: &[u8]) -> Result<Message, String> {
        let j = std::str::from_utf8(payload)
            .ok()
            .and_then(json::parse)
            .ok_or("payload is not canonical JSON")?;
        let f = Fields::new(&j, "payload")?;
        f.end(match kind {
            1 => Message::Submit {
                spec: f.value("spec")?.clone(),
                resume: f.bool("resume")?,
            },
            2 => Message::Accepted {
                job: f.u64("job")?,
                cells: f.u64("cells")?,
            },
            3 => Message::Poll { job: f.u64("job")? },
            4 => Message::Status {
                job: f.u64("job")?,
                state: f.str("state")?,
                done: f.u64("done")?,
                total: f.u64("total")?,
                artifact: f.opt_str("artifact")?,
            },
            5 => Message::Want {
                worker: f.str("worker")?,
            },
            6 => Message::Shard {
                job: f.u64("job")?,
                shard: f.u64("shard")?,
                lo: f.u64("lo")?,
                hi: f.u64("hi")?,
                total: f.u64("total")?,
                spec: f.opt_value("spec").cloned(),
            },
            7 => Message::NoWork,
            8 => Message::Result {
                job: f.u64("job")?,
                shard: f.u64("shard")?,
                records: f
                    .array("records")?
                    .iter()
                    .enumerate()
                    .map(|(i, r)| journal::record_from_json(r, &format!("payload.records[{i}]")))
                    .collect::<Result<_, _>>()?,
            },
            9 => Message::Ack {
                job: f.u64("job")?,
                done: f.u64("done")?,
                total: f.u64("total")?,
            },
            10 => Message::Error {
                text: f.str("text")?,
            },
            other => return Err(format!("unknown frame kind {other}")),
        })
    }
}

/// Frames and sends one message.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn send(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    write_frame(w, msg.kind(), msg.to_json().render().as_bytes())
}

/// Receives and decodes one message.
///
/// # Errors
///
/// I/O errors propagate; a frame that decodes to no valid message maps
/// to [`std::io::ErrorKind::InvalidData`].
pub fn recv(r: &mut impl Read) -> io::Result<Message> {
    let (kind, payload) = read_frame(r)?;
    Message::decode(kind, &payload).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame kind {kind}: {e}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_names_the_first_error() {
        let err = Message::decode(3, b"{\"jobs\": 1}").unwrap_err();
        assert_eq!(err, "payload: missing field \"job\"");
        let err = Message::decode(3, b"{\"job\": 1, \"jobs\": 1}").unwrap_err();
        assert_eq!(err, "payload: unknown field \"jobs\"");
        let err = Message::decode(99, b"{}").unwrap_err();
        assert_eq!(err, "unknown frame kind 99");
        let err = Message::decode(1, b"not json").unwrap_err();
        assert_eq!(err, "payload is not canonical JSON");
        let err = Message::decode(7, b"{\"done\": true}").unwrap_err();
        assert_eq!(err, "payload: unknown field \"done\"");
    }

    #[test]
    fn a_spec_less_shard_and_a_field_less_no_work_round_trip() {
        let shard = Message::Shard {
            job: 9,
            shard: 1,
            lo: 4,
            hi: 8,
            total: 16,
            spec: None,
        };
        for (msg, payload) in [
            (
                shard,
                "{\"job\": 9, \"shard\": 1, \"lo\": 4, \"hi\": 8, \"total\": 16}",
            ),
            (Message::NoWork, "{}"),
        ] {
            assert_eq!(msg.to_json().render(), payload);
            let mut buf = Vec::new();
            send(&mut buf, &msg).unwrap();
            assert_eq!(recv(&mut buf.as_slice()).unwrap(), msg);
        }
    }

    #[test]
    fn a_version_2_frame_is_refused() {
        let mut buf = Vec::new();
        send(&mut buf, &Message::NoWork).unwrap();
        buf[4..6].copy_from_slice(&2u16.to_be_bytes());
        let err = recv(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "frame version 2 (this build speaks 3)");
    }
}
