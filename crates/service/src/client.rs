//! The submitting client: sends a spec, polls until done, returns the
//! merged artifact bytes.
//!
//! The server answers each `Poll` when the job next merges a shard (or
//! at once when it is done), so the client loops without sleeping and
//! prints one progress line per merged shard.

use oraclesize_runtime::SweepSpec;

use crate::connect_with_retries;
use crate::proto::{recv, send, Message};

/// Submits a rendered [`SweepSpec`] to the server at `addr` and polls
/// until the merged artifact arrives. `resume` lets the server prefill
/// from its job journal. `poll_ms` is the pause between connect attempts
/// while the server is not yet listening; polls themselves do not sleep.
///
/// The returned string is the artifact file's exact contents —
/// byte-identical to what a local run of the same spec writes.
///
/// # Errors
///
/// Returns a message for an unparseable spec (validated locally before
/// anything is sent), an unreachable server, or a server-side rejection.
pub fn submit(addr: &str, spec_text: &str, resume: bool, poll_ms: u64) -> Result<String, String> {
    let spec = SweepSpec::parse(spec_text)?;
    let mut stream =
        connect_with_retries(addr, 50, poll_ms).map_err(|e| format!("connect {addr}: {e}"))?;
    send(
        &mut stream,
        &Message::Submit {
            spec: spec.to_json(),
            resume,
        },
    )
    .map_err(|e| format!("submit: {e}"))?;
    let job = match recv(&mut stream).map_err(|e| format!("submit: {e}"))? {
        Message::Accepted { job, cells } => {
            eprintln!(
                "submit: job {job:016x} \"{}\" accepted ({cells} cells)",
                spec.name
            );
            job
        }
        Message::Error { text } => return Err(text),
        other => return Err(format!("unexpected message kind {}", other.kind())),
    };
    loop {
        send(&mut stream, &Message::Poll { job }).map_err(|e| format!("poll: {e}"))?;
        match recv(&mut stream).map_err(|e| format!("poll: {e}"))? {
            Message::Status {
                state, artifact, ..
            } if state == "done" => {
                return artifact.ok_or_else(|| "done status carried no artifact".to_string());
            }
            Message::Status { done, total, .. } => {
                eprintln!("submit: job {job:016x} running: {done}/{total} cells");
            }
            Message::Error { text } => return Err(text),
            other => return Err(format!("unexpected message kind {}", other.kind())),
        }
    }
}
