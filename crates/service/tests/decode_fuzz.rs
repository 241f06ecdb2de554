//! Codec round trips and decoder fuzzing: every reader of untrusted bytes — wire frames and
//! messages, submitted specs, checkpoint journals — is fed flipped,
//! truncated and spliced copies of valid renders. Nothing may panic, and
//! a journal keeps every record that ends before the first damaged byte.

use oraclesize_bench::experiments::{t10_spec, t20_corruption_spec};
use oraclesize_bench::grid::CellGrid;
use oraclesize_runtime::journal::{self, Journal, JournalRecord};
use oraclesize_runtime::{json, run_supervised_batch, Pool, RunReport, SweepOptions, SweepSpec};
use oraclesize_service::frame::read_frame;
use oraclesize_service::proto::{recv, send, Message};
use proptest::prelude::*;

/// One edit: `(position, byte, op)`; `op % 3` picks flip, truncate or
/// splice.
type Edit = (usize, u8, u8);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((0usize..1 << 20, 0u8..=255, 0u8..3), 1..4)
}

/// Applies `edits` in order and returns the mutated bytes plus the
/// offset of the first byte that may differ from the original.
fn mutate(mut bytes: Vec<u8>, edits: &[Edit]) -> (Vec<u8>, usize) {
    let mut first = bytes.len();
    for &(pos, byte, op) in edits {
        if bytes.is_empty() {
            break;
        }
        let at = pos % bytes.len();
        first = first.min(at);
        match op % 3 {
            // Flip: xor at least one bit.
            0 => bytes[at] ^= byte.max(1),
            // Truncate: cut the tail off at `at`.
            1 => bytes.truncate(at),
            // Splice: re-insert a short window of the document at `at`.
            _ => {
                let from = usize::from(byte) % bytes.len();
                let window = bytes[from..bytes.len().min(from + 9)].to_vec();
                bytes.splice(at..at, window);
            }
        }
    }
    (bytes, first)
}

/// A few real cell reports plus a failure whose text is multi-byte, so
/// length prefixes can land inside a character.
fn sample_records() -> Vec<JournalRecord> {
    let spec = t10_spec();
    let grid = CellGrid::from_spec(&spec).unwrap();
    let opts = SweepOptions::from_spec(&spec);
    let mut reports = run_supervised_batch(&Pool::new(1), &grid.requests()[..3], &opts).reports();
    reports.push(RunReport {
        cell: 3,
        result: Err("budget exhausted — ε ≤ 2⁻⁸ ✓".to_string()),
    });
    reports
        .into_iter()
        .map(|report| JournalRecord {
            cell: report.cell,
            seed: spec.cells[report.cell].seed,
            report,
        })
        .collect()
}

fn every_message() -> Vec<Message> {
    let spec = t20_corruption_spec().to_json();
    vec![
        Message::Submit {
            spec: spec.clone(),
            resume: true,
        },
        Message::Accepted { job: 9, cells: 16 },
        Message::Poll { job: 9 },
        Message::Status {
            job: 9,
            state: "running".to_string(),
            done: 3,
            total: 16,
            artifact: None,
        },
        Message::Status {
            job: 9,
            state: "done".to_string(),
            done: 16,
            total: 16,
            artifact: Some("{\"experiment\": \"t0\"}\n".to_string()),
        },
        Message::Want {
            worker: "w-ü".to_string(),
        },
        Message::Shard {
            job: 9,
            shard: 2,
            lo: 0,
            hi: 4,
            total: 16,
            spec: Some(spec),
        },
        Message::Shard {
            job: 9,
            shard: 3,
            lo: 4,
            hi: 8,
            total: 16,
            spec: None,
        },
        Message::NoWork,
        Message::Result {
            job: 9,
            shard: 2,
            records: sample_records(),
        },
        Message::Ack {
            job: 9,
            done: 8,
            total: 16,
        },
        Message::Error {
            text: "spec.version: unsupported".to_string(),
        },
    ]
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("oraclesize-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn every_message_round_trips() {
    for msg in every_message() {
        let mut buf = Vec::new();
        send(&mut buf, &msg).unwrap();
        assert_eq!(recv(&mut buf.as_slice()).unwrap(), msg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Damaged frame streams and damaged payloads decode to an error or
    /// to some message, never to a panic.
    #[test]
    fn frames_and_messages_never_panic(which in 0usize..12, edits in edits()) {
        let msg = &every_message()[which];
        let mut framed = Vec::new();
        send(&mut framed, msg).unwrap();
        let (bytes, _) = mutate(framed, &edits);
        let mut r = bytes.as_slice();
        while let Ok((kind, payload)) = read_frame(&mut r) {
            let _ = Message::decode(kind, &payload);
        }
        // The digest stops most damaged frames at the header, so also
        // hit the decoder with damaged payloads directly.
        let (payload, _) = mutate(msg.to_json().render().into_bytes(), &edits);
        let _ = Message::decode(msg.kind(), &payload);
    }

    #[test]
    fn specs_never_panic(edits in edits()) {
        let (bytes, _) = mutate(t20_corruption_spec().render().into_bytes(), &edits);
        let _ = SweepSpec::parse(&String::from_utf8_lossy(&bytes));
    }

    /// A damaged journal loads without error, and every record that ends
    /// before the first damaged byte survives intact.
    #[test]
    fn journals_keep_records_before_the_damage(edits in edits()) {
        let path = temp_path("fuzz.journal");
        let records = sample_records();
        let mut ends = Vec::new();
        let mut j = Journal::create(&path, 8).unwrap();
        for rec in &records {
            j.append(rec.cell, rec.seed, &rec.report).unwrap();
            ends.push(std::fs::metadata(&path).unwrap().len() as usize);
        }
        let (bytes, first) = mutate(std::fs::read(&path).unwrap(), &edits);
        std::fs::write(&path, &bytes).unwrap();
        let loaded = journal::load(&path, 8).unwrap();
        let intact = ends.iter().filter(|&&end| end <= first).count();
        prop_assert!(loaded.records.len() >= intact);
        prop_assert_eq!(&loaded.records[..intact], &records[..intact]);
    }
}

/// `[[[[…` 100 000 deep once aborted the process with a stack overflow;
/// every reader now refuses it with an error or a warning.
#[test]
fn deep_nesting_is_refused_by_every_reader() {
    let deep = "[".repeat(100_000);
    assert_eq!(json::parse(&deep), None);
    assert!(SweepSpec::parse(&deep).is_err());
    let submit = format!("{{\"spec\": {deep}, \"resume\": true}}");
    assert!(Message::decode(1, submit.as_bytes()).is_err());
    let path = temp_path("deep.journal");
    Journal::create(&path, 1).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(format!("{}\n{deep}\n", deep.len()).as_bytes());
    std::fs::write(&path, bytes).unwrap();
    let loaded = journal::load(&path, 1).unwrap();
    assert!(loaded.records.is_empty());
    assert!(
        loaded.warnings[0].contains("corrupt record"),
        "{:?}",
        loaded.warnings
    );
}
