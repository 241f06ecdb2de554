//! The checkpoint journal: crash-safe partial progress for sweeps.
//!
//! A sweep that dies at cell 9,500 of 10,000 should not lose everything.
//! The journal is an append-only file of completed-cell records; on
//! restart the batch dispatcher loads it, skips every journaled cell, and
//! the merge step produces an artifact **byte-identical** to an
//! uninterrupted run — the crate's determinism contract extended across
//! crash/resume boundaries.
//!
//! # File format
//!
//! A header line, then one length-prefixed record per completed cell:
//!
//! ```text
//! oraclesize-journal v1 cells=<N>\n
//! <decimal byte length of the JSON line>\n
//! {"cell": 3, "seed": 17, "digest": 12345, "report": {...}}\n
//! ```
//!
//! The length prefix makes torn final records detectable without any
//! delimiter scanning: if the file ends mid-record, the trailing bytes are
//! shorter than the announced length and the loader drops the record with
//! a warning — the cell simply re-runs. Each record also carries an
//! FNV-1a 64 digest of its rendered `report` object, so bit rot inside a
//! record is caught the same way. The file is framed as bytes and each
//! record is UTF-8-checked on its own, so a flipped byte costs one
//! record; the warning names the record's first error with its path.
//!
//! [`record_json`] / [`record_from_json`] are the one codec for a cell
//! result: the sweep service ships the same records in its result frames.
//! A record holds the whole [`RunReport`]: sweep cells are never traced,
//! so there is no event stream to lose.

use std::io::Write;
use std::path::{Path, PathBuf};

use oraclesize_sim::faults::FaultCounts;
use oraclesize_sim::RunMetrics;

use crate::batch::{CellOutcome, RunReport};
use crate::json::{self, Fields, Json};

/// The exact header line (without newline) of a `cells`-cell sweep's
/// journal; pinning the cell count means a journal from a differently
/// shaped sweep is never silently replayed.
fn header_for(cells: usize) -> String {
    format!("oraclesize-journal v1 cells={cells}")
}

/// FNV-1a 64-bit hash — the record integrity digest. Not cryptographic;
/// it guards against truncation and bit rot, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// One replayable completed-cell record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The cell index within the sweep.
    pub cell: usize,
    /// The seed the cell ran under; a resume with a different seed
    /// discards the record instead of replaying a stale result.
    pub seed: u64,
    /// The reconstructed report.
    pub report: RunReport,
}

/// Everything a journal load produces: the replayable records plus the
/// human-readable warnings explaining anything that was dropped.
#[derive(Debug, Default)]
pub struct LoadedJournal {
    /// Valid records, in file order.
    pub records: Vec<JournalRecord>,
    /// One line per anomaly (torn tail, digest mismatch, shape mismatch).
    pub warnings: Vec<String>,
}

fn metrics_json(m: &RunMetrics) -> Json {
    Json::obj()
        .field("messages", m.messages)
        .field("informed_messages", m.informed_messages)
        .field("payload_bits", m.payload_bits)
        .field("max_message_bits", m.max_message_bits)
        .field("rounds", m.rounds)
        .field("steps", m.steps)
        .field("informed_nodes", m.informed_nodes)
        .field("dropped", m.faults.dropped)
        .field("duplicated", m.faults.duplicated)
        .field("payload_flips", m.faults.payload_flips)
        .field("suppressed_sends", m.faults.suppressed_sends)
        .field("to_crashed", m.faults.to_crashed)
        .field("advice_mutations", m.faults.advice_mutations)
        .field("payload_copies", m.faults.payload_copies)
        .field("queue_allocs", m.faults.queue_allocs)
}

fn metrics_from_json(f: Fields) -> Result<RunMetrics, String> {
    f.end(RunMetrics {
        messages: f.u64("messages")?,
        informed_messages: f.u64("informed_messages")?,
        payload_bits: f.u64("payload_bits")?,
        max_message_bits: f.u64("max_message_bits")?,
        rounds: f.u64("rounds")?,
        steps: f.u64("steps")?,
        informed_nodes: f.u64("informed_nodes")?,
        faults: FaultCounts {
            dropped: f.u64("dropped")?,
            duplicated: f.u64("duplicated")?,
            payload_flips: f.u64("payload_flips")?,
            suppressed_sends: f.u64("suppressed_sends")?,
            to_crashed: f.u64("to_crashed")?,
            advice_mutations: f.u64("advice_mutations")?,
            payload_copies: f.u64("payload_copies")?,
            queue_allocs: f.u64("queue_allocs")?,
        },
    })
}

/// A report as a record body: `{"ok": {…}}` for completed runs,
/// `{"err": "…"}` for failures.
fn report_json(report: &RunReport) -> Json {
    match &report.result {
        Ok(o) => Json::obj().field(
            "ok",
            Json::obj()
                .field("oracle_bits", o.oracle_bits)
                .field("completed", o.completed)
                .field("uninformed", o.uninformed)
                .field("crashed_nodes", o.crashed_nodes)
                .field("metrics", metrics_json(&o.metrics)),
        ),
        Err(e) => Json::obj().field("err", e.as_str()),
    }
}

fn report_from_json(cell: usize, f: Fields) -> Result<RunReport, String> {
    let result = match f.opt_object("ok")? {
        Some(o) => Ok(o.end(CellOutcome {
            oracle_bits: o.u64("oracle_bits")?,
            completed: o.bool("completed")?,
            uninformed: o.usize("uninformed")?,
            crashed_nodes: o.usize("crashed_nodes")?,
            metrics: metrics_from_json(o.object("metrics")?)?,
        })?),
        None => Err(f.str("err")?),
    };
    f.end(RunReport { cell, result })
}

/// One completed-cell record: `{"cell", "seed", "digest", "report"}`,
/// where `digest` is the FNV-1a 64 of the rendered `report` body. This
/// is the single codec for a cell result, on disk (one journal line) and
/// on the wire (the sweep service's result batches).
pub fn record_json(cell: usize, seed: u64, report: &RunReport) -> Json {
    let body = report_json(report);
    let digest = fnv1a64(body.render().as_bytes());
    Json::obj()
        .field("cell", cell)
        .field("seed", seed)
        .field("digest", digest)
        .field("report", body)
}

/// Decodes a [`record_json`] value at `path`, checking the body against
/// its digest.
///
/// # Errors
///
/// The first bad field, with its path, or a digest mismatch.
pub fn record_from_json(j: &Json, path: &str) -> Result<JournalRecord, String> {
    let f = Fields::new(j, path)?;
    let cell = f.usize("cell")?;
    let seed = f.u64("seed")?;
    let digest = f.u64("digest")?;
    if fnv1a64(f.value("report")?.render().as_bytes()) != digest {
        return Err(format!("{path}.report: digest mismatch"));
    }
    let report = report_from_json(cell, f.object("report")?)?;
    f.end(JournalRecord { cell, seed, report })
}

fn decode_record(line: &[u8]) -> Result<JournalRecord, String> {
    let j = std::str::from_utf8(line).ok().and_then(json::parse);
    record_from_json(&j.ok_or("record: not canonical JSON")?, "record")
}

/// An open journal accepting appends, from [`open`] (or, for a fresh
/// file, [`Journal::create`]).
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
    path: PathBuf,
}

impl Journal {
    /// Starts a fresh journal for a sweep of `cells` cells, truncating
    /// any existing file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable path, full disk).
    pub fn create(path: &Path, cells: usize) -> std::io::Result<Journal> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(format!("{}\n", header_for(cells)).as_bytes())?;
        file.sync_all()?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Appends one completed-cell record and flushes it to disk.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the caller decides whether a failed
    /// checkpoint degrades the sweep or merely warns.
    pub fn append(&mut self, cell: usize, seed: u64, report: &RunReport) -> std::io::Result<()> {
        let line = record_json(cell, seed, report).render();
        let framed = format!("{}\n{line}\n", line.len());
        self.file.write_all(framed.as_bytes())?;
        self.file.flush()
    }

    /// The path this journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Opens the journal at `path` for appends to a `cells`-cell sweep, and
/// returns it with the records to replay. Every checkpointing path (local
/// sweeps, worker shards, the server's job journals) opens its journal
/// here.
///
/// Without `resume` the file starts fresh. With it, the file is
/// [loaded](load) first and the records whose seed is `seed(cell)` are
/// returned for replay; every other record gets a warning and its cell
/// re-runs. The file is then rewritten with exactly the replayed records,
/// so a torn final record (or any corrupt suffix) is physically discarded
/// before new appends land — appending after torn bytes would corrupt
/// every later record's framing.
///
/// A filesystem error is a warning, never a failure: the sweep runs
/// without checkpoints (`None`), replaying whatever loaded before it.
pub fn open(
    path: &Path,
    cells: usize,
    resume: bool,
    seed: impl Fn(usize) -> u64,
) -> (Option<Journal>, LoadedJournal) {
    let mut loaded = LoadedJournal::default();
    let mut reopen = || -> std::io::Result<Journal> {
        if resume {
            loaded = load(path, cells)?;
            let LoadedJournal { records, warnings } = &mut loaded;
            records.retain(|rec| {
                let expected = seed(rec.cell);
                if rec.seed != expected {
                    warnings.push(format!(
                        "journal {}: cell {} was journaled under seed {}, expected {expected}; \
                         re-running it",
                        path.display(),
                        rec.cell,
                        rec.seed
                    ));
                }
                rec.seed == expected
            });
        }
        let mut journal = Journal::create(path, cells)?;
        for rec in &loaded.records {
            journal.append(rec.cell, rec.seed, &rec.report)?;
        }
        Ok(journal)
    };
    match reopen() {
        Ok(journal) => (Some(journal), loaded),
        Err(e) => {
            let display = path.display();
            let warning = format!("journal {display}: {e}; running without checkpoints");
            loaded.warnings.push(warning);
            (None, loaded)
        }
    }
}

/// Reads and validates the journal of a `cells`-cell sweep at `path`,
/// without opening it for appends. The header must match the one [`open`]
/// writes. Missing file → empty journal; corrupt records and records for
/// cells `>= cells` → dropped with warnings;
/// everything after the first framing error is discarded (the length
/// prefixes downstream can no longer be trusted).
///
/// # Errors
///
/// Propagates filesystem read errors other than "not found".
pub fn load(path: &Path, cells: usize) -> std::io::Result<LoadedJournal> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(LoadedJournal::default());
        }
        Err(e) => return Err(e),
    };
    let mut out = LoadedJournal::default();
    let display = path.display();
    let Some((header, mut rest)) = split_line(&bytes) else {
        out.warnings
            .push(format!("journal {display}: missing header; starting fresh"));
        return Ok(out);
    };
    if header != header_for(cells).as_bytes() {
        out.warnings.push(format!(
            "journal {display}: header {:?} does not match a {cells}-cell sweep; ignoring journal",
            String::from_utf8_lossy(header)
        ));
        return Ok(out);
    }
    // Framing is by byte length and each record is UTF-8-checked on its
    // own, so a flipped byte costs one record, never the whole load.
    while !rest.is_empty() {
        let Some((len_line, tail)) = split_line(rest) else {
            out.warnings.push(format!(
                "journal {display}: torn length prefix {} at end of file; dropping it",
                excerpt(rest)
            ));
            break;
        };
        let Some(len) = std::str::from_utf8(len_line)
            .ok()
            .and_then(|l| l.trim().parse::<usize>().ok())
        else {
            out.warnings.push(format!(
                "journal {display}: bad length prefix {}; dropping it and the rest of the file",
                excerpt(len_line)
            ));
            break;
        };
        let Some(after) = tail.get(len..).and_then(|a| a.strip_prefix(b"\n")) else {
            out.warnings.push(format!(
                "journal {display}: torn or misframed record ({len} bytes announced, {} left); \
                 dropping the rest of the file",
                tail.len()
            ));
            break;
        };
        let line = &tail[..len];
        rest = after;
        match decode_record(line) {
            Ok(rec) if rec.cell < cells => out.records.push(rec),
            Ok(rec) => out.warnings.push(format!(
                "journal {display}: record for cell {} outside cells 0..{cells}; dropping it",
                rec.cell
            )),
            Err(e) => out.warnings.push(format!(
                "journal {display}: corrupt record {} ({e}); dropping it",
                excerpt(line)
            )),
        }
    }
    Ok(out)
}

/// Splits off the first `\n`-terminated line.
fn split_line(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    Some((&bytes[..nl], &bytes[nl + 1..]))
}

/// A quoted, length-capped rendering of raw bytes for a warning line.
fn excerpt(bytes: &[u8]) -> String {
    const LIMIT: usize = 48;
    let text = String::from_utf8_lossy(&bytes[..bytes.len().min(LIMIT)]);
    let more = if bytes.len() > LIMIT { "…" } else { "" };
    format!("{text:?}{more}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(cell: usize) -> RunReport {
        RunReport {
            cell,
            result: Ok(CellOutcome {
                oracle_bits: 7,
                metrics: RunMetrics {
                    messages: 12,
                    informed_messages: 9,
                    payload_bits: 36,
                    max_message_bits: 3,
                    rounds: 2,
                    steps: 12,
                    informed_nodes: 5,
                    faults: FaultCounts {
                        dropped: 1,
                        ..Default::default()
                    },
                },
                completed: true,
                uninformed: 0,
                crashed_nodes: 0,
            }),
        }
    }

    fn err_report(cell: usize) -> RunReport {
        RunReport {
            cell,
            result: Err("step limit 5 exhausted".to_string()),
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("oraclesize-journal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("sweep.journal")
    }

    #[test]
    fn roundtrips_ok_and_err_reports() {
        let path = temp_path("roundtrip");
        let mut j = Journal::create(&path, 4).unwrap();
        j.append(0, 100, &sample_report(0)).unwrap();
        j.append(2, 102, &err_report(2)).unwrap();
        let loaded = load(&path, 4).unwrap();
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[0].seed, 100);
        assert_eq!(loaded.records[0].report, sample_report(0));
        assert_eq!(loaded.records[1].report, err_report(2));
    }

    #[test]
    fn missing_file_is_empty() {
        let loaded = load(Path::new("/nonexistent/never/sweep.journal"), 3).unwrap();
        assert!(loaded.records.is_empty());
        assert!(loaded.warnings.is_empty());
    }

    #[test]
    fn cell_count_mismatch_ignores_journal() {
        let path = temp_path("cellcount");
        let mut j = Journal::create(&path, 4).unwrap();
        j.append(0, 1, &sample_report(0)).unwrap();
        let loaded = load(&path, 5).unwrap();
        assert!(loaded.records.is_empty());
        assert_eq!(loaded.warnings.len(), 1);
        assert!(
            loaded.warnings[0].contains("does not match"),
            "{}",
            loaded.warnings[0]
        );
    }

    #[test]
    fn torn_final_record_is_dropped_with_warning() {
        let path = temp_path("torn");
        let mut j = Journal::create(&path, 4).unwrap();
        j.append(0, 1, &sample_report(0)).unwrap();
        j.append(1, 2, &sample_report(1)).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Tear 10 bytes off the final record, mid-JSON.
        std::fs::write(&path, &full[..full.len() - 10]).unwrap();
        let loaded = load(&path, 4).unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].cell, 0);
        assert_eq!(loaded.warnings.len(), 1);
        assert!(
            loaded.warnings[0].contains("torn"),
            "{}",
            loaded.warnings[0]
        );
    }

    #[test]
    fn digest_mismatch_drops_record() {
        let path = temp_path("digest");
        let mut j = Journal::create(&path, 4).unwrap();
        j.append(0, 1, &sample_report(0)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a metric inside the record without touching the digest.
        // The framing length must stay the same: swap "messages": 12 to 13.
        let tampered = text.replace("\"messages\": 12", "\"messages\": 13");
        assert_ne!(tampered, text, "tamper target must exist");
        std::fs::write(&path, tampered).unwrap();
        let loaded = load(&path, 4).unwrap();
        assert!(loaded.records.is_empty());
        assert_eq!(loaded.warnings.len(), 1);
        assert!(
            loaded.warnings[0].contains("corrupt"),
            "{}",
            loaded.warnings[0]
        );
    }

    #[test]
    fn invalid_utf8_drops_only_its_record() {
        let path = temp_path("utf8");
        let mut j = Journal::create(&path, 4).unwrap();
        for cell in 0..3 {
            j.append(cell, 1, &sample_report(cell)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // One high-bit flip inside the middle record's ASCII.
        let at = bytes.windows(9).position(|w| w == b"\"cell\": 1").unwrap();
        bytes[at + 2] ^= 0x80;
        std::fs::write(&path, bytes).unwrap();
        let loaded = load(&path, 4).unwrap();
        let cells: Vec<usize> = loaded.records.iter().map(|r| r.cell).collect();
        assert_eq!(cells, [0, 2]);
        assert_eq!(loaded.warnings.len(), 1);
        assert!(
            loaded.warnings[0].contains("corrupt record"),
            "{:?}",
            loaded.warnings
        );
    }

    #[test]
    fn length_prefix_inside_a_multibyte_char_is_a_warning() {
        let path = temp_path("multibyte");
        let mut j = Journal::create(&path, 2).unwrap();
        let mut report = err_report(0);
        report.result = Err("budget ééé".to_string());
        j.append(0, 1, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let (header, rest) = text.split_once('\n').unwrap();
        let (len, line) = rest.split_once('\n').unwrap();
        // Announce a length that ends between the two bytes of an 'é'.
        let cut = line.find('é').unwrap() + 1;
        assert!(cut < len.parse().unwrap());
        std::fs::write(&path, format!("{header}\n{cut}\n{line}")).unwrap();
        let loaded = load(&path, 2).unwrap();
        assert!(loaded.records.is_empty());
        assert_eq!(loaded.warnings.len(), 1, "{:?}", loaded.warnings);
    }

    /// The cell's own index as its seed, as a sweep without spec seeds
    /// journals it.
    fn index_seed(cell: usize) -> u64 {
        cell as u64
    }

    #[test]
    fn resume_rewrites_out_torn_tail() {
        let path = temp_path("rewrite");
        let mut j = Journal::create(&path, 4).unwrap();
        j.append(0, 0, &sample_report(0)).unwrap();
        j.append(1, 1, &sample_report(1)).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let (journal, loaded) = open(&path, 4, true, index_seed);
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.warnings.len(), 1);
        // The rewritten file is clean: a second load sees one record and
        // no warnings, and appends continue from valid framing.
        journal.unwrap().append(3, 3, &err_report(3)).unwrap();
        let again = load(&path, 4).unwrap();
        assert!(again.warnings.is_empty(), "{:?}", again.warnings);
        assert_eq!(again.records.len(), 2);
    }

    #[test]
    fn open_replays_only_records_under_the_expected_seed() {
        let path = temp_path("seeds");
        let mut j = Journal::create(&path, 4).unwrap();
        for cell in 0..3 {
            j.append(cell, cell as u64, &sample_report(cell)).unwrap();
        }
        // The spec now runs cell 1 under seed 99.
        let seed = |cell: usize| if cell == 1 { 99 } else { cell as u64 };
        let (journal, loaded) = open(&path, 4, true, seed);
        let replayed: Vec<usize> = loaded.records.iter().map(|r| r.cell).collect();
        assert_eq!(replayed, [0, 2]);
        assert_eq!(loaded.warnings.len(), 1, "{:?}", loaded.warnings);
        assert!(
            loaded.warnings[0].contains("cell 1 was journaled under seed 1, expected 99"),
            "{}",
            loaded.warnings[0]
        );
        // The stale record is gone from the rewritten file.
        drop(journal);
        let again = load(&path, 4).unwrap();
        let kept: Vec<usize> = again.records.iter().map(|r| r.cell).collect();
        assert_eq!(kept, [0, 2]);
    }

    #[test]
    fn an_unwritable_path_runs_without_checkpoints() {
        // A regular file where the journal's directory should be: no user,
        // root included, can create the journal beneath it.
        let blocker = temp_path("unwritable").with_file_name("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let path = blocker.join("sweep.journal");
        for resume in [false, true] {
            let (journal, loaded) = open(&path, 4, resume, index_seed);
            assert!(journal.is_none());
            assert!(loaded.records.is_empty());
            assert_eq!(loaded.warnings.len(), 1, "{:?}", loaded.warnings);
            assert!(
                loaded.warnings[0].ends_with("; running without checkpoints"),
                "{}",
                loaded.warnings[0]
            );
        }
    }

    #[test]
    fn open_without_resume_starts_fresh_under_the_header() {
        let path = temp_path("fresh");
        let mut j = Journal::create(&path, 8).unwrap();
        j.append(2, 2, &sample_report(2)).unwrap();
        let (_, loaded) = open(&path, 8, false, index_seed);
        assert!(loaded.records.is_empty());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "oraclesize-journal v1 cells=8\n");
    }

    #[test]
    fn load_drops_records_past_the_cell_count() {
        let path = temp_path("past-the-end");
        let mut j = Journal::create(&path, 8).unwrap();
        j.append(2, 2, &sample_report(2)).unwrap();
        j.append(8, 8, &sample_report(8)).unwrap();
        let loaded = load(&path, 8).unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].cell, 2);
        assert!(
            loaded.warnings[0].contains("cell 8 outside cells 0..8"),
            "{:?}",
            loaded.warnings
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
