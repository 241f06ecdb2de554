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

/// Magic prefix of the header line; the suffix pins the cell count so a
/// journal from a differently-shaped sweep is never silently replayed.
/// Segment journals (one shard of a larger sweep) additionally pin their
/// cell range: `oraclesize-journal v1 cells=<N> range=<LO>..<HI>`.
const HEADER_PREFIX: &str = "oraclesize-journal v1 cells=";

/// The exact header line (without newline) for a journal of `cells`
/// cells, optionally restricted to the `[lo, hi)` segment.
fn header_for(cells: usize, range: Option<(usize, usize)>) -> String {
    match range {
        None => format!("{HEADER_PREFIX}{cells}"),
        Some((lo, hi)) => format!("{HEADER_PREFIX}{cells} range={lo}..{hi}"),
    }
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

/// An open journal accepting appends. Create with [`Journal::create`]
/// (fresh file) or via [`Journal::resume`] (replay then continue).
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
        Journal::create_with(path, cells, None)
    }

    /// Starts a fresh *segment* journal: one shard's checkpoints for the
    /// `[lo, hi)` cells of a `cells`-cell sweep. Records carry sweep-wide
    /// cell indices, and the header pins the range so a segment is never
    /// replayed into the wrong shard.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable path, full disk).
    pub fn create_segment(
        path: &Path,
        cells: usize,
        lo: usize,
        hi: usize,
    ) -> std::io::Result<Journal> {
        Journal::create_with(path, cells, Some((lo, hi)))
    }

    fn create_with(
        path: &Path,
        cells: usize,
        range: Option<(usize, usize)>,
    ) -> std::io::Result<Journal> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(format!("{}\n", header_for(cells, range)).as_bytes())?;
        file.sync_all()?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Loads the journal at `path` and reopens it for appending.
    ///
    /// The file is rewritten with exactly the records that survived
    /// validation, so a torn final record (or any corrupt suffix) is
    /// physically discarded before new appends land — appending after torn
    /// bytes would corrupt every later record's framing.
    ///
    /// A missing file, or one whose header announces a different cell
    /// count, yields an empty journal (with a warning in the latter case):
    /// resuming against the wrong sweep must re-run everything rather than
    /// replay records from a different grid.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the rewrite; a merely *corrupt*
    /// journal is not an error.
    pub fn resume(path: &Path, cells: usize) -> std::io::Result<(Journal, LoadedJournal)> {
        Journal::resume_with(path, cells, None)
    }

    /// [`Journal::resume`] for a segment journal: loads, validates, and
    /// rewrites the `[lo, hi)` shard's checkpoints, then reopens the file
    /// for appends.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the rewrite.
    pub fn resume_segment(
        path: &Path,
        cells: usize,
        lo: usize,
        hi: usize,
    ) -> std::io::Result<(Journal, LoadedJournal)> {
        Journal::resume_with(path, cells, Some((lo, hi)))
    }

    fn resume_with(
        path: &Path,
        cells: usize,
        range: Option<(usize, usize)>,
    ) -> std::io::Result<(Journal, LoadedJournal)> {
        let loaded = load_with(path, cells, range)?;
        let mut journal = Journal::create_with(path, cells, range)?;
        for rec in &loaded.records {
            journal.append(rec.cell, rec.seed, &rec.report)?;
        }
        Ok((journal, loaded))
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

/// Reads and validates the journal at `path` without opening it for
/// appends. Missing file → empty journal; corrupt records → dropped with
/// warnings; everything after the first framing error is discarded (the
/// length prefixes downstream can no longer be trusted).
///
/// # Errors
///
/// Propagates filesystem read errors other than "not found".
pub fn load(path: &Path, cells: usize) -> std::io::Result<LoadedJournal> {
    load_with(path, cells, None)
}

/// [`load`] for a segment journal holding the `[lo, hi)` shard of a
/// `cells`-cell sweep: the header must pin the same range, and records
/// outside it are dropped with a warning.
///
/// # Errors
///
/// Propagates filesystem read errors other than "not found".
pub fn load_segment(
    path: &Path,
    cells: usize,
    lo: usize,
    hi: usize,
) -> std::io::Result<LoadedJournal> {
    load_with(path, cells, Some((lo, hi)))
}

/// Merges segment loads into one sweep-wide view: records sorted by cell
/// (first occurrence wins on duplicates), warnings concatenated in input
/// order. The sort is stable, so merging the segments of a sweep yields
/// exactly the records a single whole-sweep journal would hold.
pub fn merge_segments(segments: Vec<LoadedJournal>) -> LoadedJournal {
    let mut out = LoadedJournal::default();
    for seg in segments {
        out.records.extend(seg.records);
        out.warnings.extend(seg.warnings);
    }
    out.records.sort_by_key(|r| r.cell);
    out.records.dedup_by_key(|r| r.cell);
    out
}

fn load_with(
    path: &Path,
    cells: usize,
    range: Option<(usize, usize)>,
) -> std::io::Result<LoadedJournal> {
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
    if header != header_for(cells, range).as_bytes() {
        let shape = match range {
            None => format!("a {cells}-cell sweep"),
            Some((lo, hi)) => format!("segment {lo}..{hi} of a {cells}-cell sweep"),
        };
        out.warnings.push(format!(
            "journal {display}: header {:?} does not match {shape}; ignoring journal",
            String::from_utf8_lossy(header)
        ));
        return Ok(out);
    }
    let (lo, hi) = range.unwrap_or((0, cells));
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
            Ok(rec) if rec.cell >= lo && rec.cell < hi => out.records.push(rec),
            Ok(rec) => out.warnings.push(format!(
                "journal {display}: record for cell {} outside cells {lo}..{hi}; dropping it",
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

    #[test]
    fn resume_rewrites_out_torn_tail() {
        let path = temp_path("rewrite");
        let mut j = Journal::create(&path, 4).unwrap();
        j.append(0, 1, &sample_report(0)).unwrap();
        j.append(1, 2, &sample_report(1)).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let (mut journal, loaded) = Journal::resume(&path, 4).unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.warnings.len(), 1);
        // The rewritten file is clean: a second load sees one record and
        // no warnings, and appends continue from valid framing.
        journal.append(3, 4, &err_report(3)).unwrap();
        let again = load(&path, 4).unwrap();
        assert!(again.warnings.is_empty(), "{:?}", again.warnings);
        assert_eq!(again.records.len(), 2);
    }

    #[test]
    fn segment_roundtrip_and_range_validation() {
        let path = temp_path("segment");
        let mut j = Journal::create_segment(&path, 8, 2, 5).unwrap();
        j.append(2, 2, &sample_report(2)).unwrap();
        j.append(4, 4, &err_report(4)).unwrap();
        let loaded = load_segment(&path, 8, 2, 5).unwrap();
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
        assert_eq!(loaded.records.len(), 2);
        // A whole-sweep load refuses the segment header…
        let whole = load(&path, 8).unwrap();
        assert!(whole.records.is_empty());
        assert!(whole.warnings[0].contains("does not match"));
        // …and so does a differently-ranged segment load.
        let shifted = load_segment(&path, 8, 0, 5).unwrap();
        assert!(shifted.records.is_empty());
        assert!(shifted.warnings[0].contains("segment 0..5"));
    }

    #[test]
    fn segment_load_drops_out_of_range_records() {
        let path = temp_path("segment-range");
        let mut j = Journal::create_segment(&path, 8, 2, 5).unwrap();
        j.append(2, 2, &sample_report(2)).unwrap();
        j.append(7, 7, &sample_report(7)).unwrap();
        let loaded = load_segment(&path, 8, 2, 5).unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].cell, 2);
        assert!(loaded.warnings[0].contains("outside cells 2..5"));
    }

    #[test]
    fn merged_segments_match_a_whole_journal() {
        let whole_path = temp_path("merge-whole");
        let mut whole = Journal::create(&whole_path, 6).unwrap();
        for cell in 0..6 {
            whole
                .append(cell, cell as u64, &sample_report(cell))
                .unwrap();
        }
        let dir = whole_path.parent().unwrap().to_path_buf();
        let mut segs = Vec::new();
        for (lo, hi) in [(0usize, 2usize), (2, 4), (4, 6)] {
            let path = dir.join(format!("shard-{lo}-{hi}.journal"));
            let mut j = Journal::create_segment(&path, 6, lo, hi).unwrap();
            // Reverse order inside the shard: the merge re-sorts.
            for cell in (lo..hi).rev() {
                j.append(cell, cell as u64, &sample_report(cell)).unwrap();
            }
            segs.push(load_segment(&path, 6, lo, hi).unwrap());
        }
        let merged = merge_segments(segs);
        assert!(merged.warnings.is_empty(), "{:?}", merged.warnings);
        assert_eq!(merged.records, load(&whole_path, 6).unwrap().records);
    }

    #[test]
    fn merge_keeps_first_record_per_cell() {
        let a = LoadedJournal {
            records: vec![JournalRecord {
                cell: 1,
                seed: 10,
                report: sample_report(1),
            }],
            warnings: vec!["a".to_string()],
        };
        let b = LoadedJournal {
            records: vec![JournalRecord {
                cell: 1,
                seed: 99,
                report: err_report(1),
            }],
            warnings: vec!["b".to_string()],
        };
        let merged = merge_segments(vec![a, b]);
        assert_eq!(merged.records.len(), 1);
        assert_eq!(merged.records[0].seed, 10);
        assert_eq!(merged.warnings, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
