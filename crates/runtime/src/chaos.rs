//! The chaos harness: deterministic failure injection for the supervised
//! sweep path.
//!
//! Recovery code that is only ever exercised by real outages is recovery
//! code that does not work. This module injects the three failures the
//! supervision layer claims to survive — a worker panic at a chosen cell,
//! a kill mid-sweep, and a torn journal write — so the proptests can
//! drill the paths on every run. (The watchdog needs no injection: a
//! small [`cell_timeout`](crate::SuperviseConfig::cell_timeout) trips the
//! engine's real step limit.)
//!
//! **Test-only API.** Nothing here belongs in production call sites: the
//! only consumers are tests, the service worker's `--die-mid-shard`
//! drill, and the supervision layer's injection hook. Plans are inert by default, and an
//! inert plan costs one `BTreeSet` lookup per cell.
//!
//! Everything is keyed on the cell index — no randomness, no clocks —
//! so an injected failure schedule is exactly reproducible, which is what
//! lets the kill/resume proptests assert byte-identical artifacts.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::path::Path;

/// A deterministic failure schedule for one sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Cells that panic when they run.
    panic_cells: BTreeSet<usize>,
    /// Cells `>= die_at` never run: the "process killed mid-sweep"
    /// simulation the resume tests are built on.
    die_at: Option<usize>,
}

impl ChaosPlan {
    /// An inert plan (injects nothing).
    pub fn new() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// `cell` panics when it runs; the supervisor turns the panic into
    /// an `Aborted` report for that cell alone.
    #[must_use]
    pub fn panic_at(mut self, cell: usize) -> ChaosPlan {
        self.panic_cells.insert(cell);
        self
    }

    /// Kill the sweep before `cell` runs: cells `>= cell` are marked
    /// `Aborted` without executing and the sweep reports itself
    /// interrupted. Resume with an inert plan to finish the job.
    #[must_use]
    pub fn die_before(mut self, cell: usize) -> ChaosPlan {
        self.die_at = Some(cell);
        self
    }

    /// `true` iff this plan never interferes.
    pub fn is_inert(&self) -> bool {
        self.panic_cells.is_empty() && self.die_at.is_none()
    }

    /// `true` when `cell` panics inside the worker (exercising
    /// `catch_unwind` isolation).
    pub fn panics(&self, cell: usize) -> bool {
        self.panic_cells.contains(&cell)
    }

    /// `true` when the simulated kill point precedes `cell`.
    pub fn dies_before(&self, cell: usize) -> bool {
        self.die_at.is_some_and(|at| cell >= at)
    }
}

/// The deliberate panic behind [`ChaosPlan::panics`]. Lives here (not in
/// the supervisor) so the one sanctioned panic site sits inside the chaos
/// harness itself.
#[expect(
    clippy::panic,
    reason = "the chaos harness exists to inject this panic; it only fires under a non-inert plan, inside catch_unwind"
)]
pub(crate) fn trigger_panic(cell: usize) -> ! {
    panic!("chaos: injected panic at cell {cell}")
}

/// Simulates a torn final write by cutting `bytes` bytes off the end of
/// the file at `path`. Returns the file's new length.
///
/// # Errors
///
/// Propagates filesystem errors (missing file, unwritable path).
pub fn tear_tail(path: &Path, bytes: u64) -> std::io::Result<u64> {
    let mut content = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut content)?;
    let keep = content
        .len()
        .saturating_sub(usize::try_from(bytes).unwrap_or(usize::MAX));
    let mut f = std::fs::File::create(path)?;
    f.write_all(&content[..keep])?;
    f.sync_all()?;
    Ok(keep as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_injects_nothing() {
        let plan = ChaosPlan::new();
        assert!(plan.is_inert());
        assert!(!plan.panics(0));
        assert!(!plan.dies_before(usize::MAX));
    }

    #[test]
    fn injections_hit_only_their_cell() {
        let plan = ChaosPlan::new().panic_at(3);
        assert!(plan.panics(3));
        assert!(!plan.panics(4));
    }

    #[test]
    fn die_before_is_a_suffix() {
        let plan = ChaosPlan::new().die_before(7);
        assert!(!plan.dies_before(6));
        assert!(plan.dies_before(7));
        assert!(plan.dies_before(8));
    }

    #[test]
    fn tear_tail_shortens_the_file() {
        let dir = std::env::temp_dir().join(format!("oraclesize-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tear.bin");
        std::fs::write(&path, b"0123456789").unwrap();
        assert_eq!(tear_tail(&path, 4).unwrap(), 6);
        assert_eq!(std::fs::read(&path).unwrap(), b"012345");
        assert_eq!(tear_tail(&path, 100).unwrap(), 0);
    }
}
