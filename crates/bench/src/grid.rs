//! Declarative experiment grids over the runtime pool.
//!
//! An experiment here is a *grid of cells* described by a [`SweepSpec`]:
//! each cell names one `(instance, scheme, config)` combination,
//! [`CellGrid::from_spec`] materializes them, and [`CellGrid::dispatch`]
//! hands the whole grid to [`run_supervised_batch`] with the options
//! [`SweepOptions::from_spec`] lowers from the spec. The
//! pool executes cells on `--threads` workers while the grid keeps cell
//! order — reports, tables, and the emitted `BENCH_T*.json` artifacts are
//! byte-identical at any thread count (the runtime's determinism
//! contract).

use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use oraclesize_core::broadcast::{LightTreeOracle, SchemeB};
use oraclesize_core::oracle::EmptyOracle;
use oraclesize_core::robust::{RetryBroadcast, RobustTreeWakeup, RobustWakeupOracle};
use oraclesize_core::wakeup::{SpanningTreeOracle, TreeWakeup};
use oraclesize_graph::families::{self, Family};
use oraclesize_graph::PortGraph;
use oraclesize_runtime::spec::{artifact_json, from_ppm, grid_json};
use oraclesize_runtime::{
    run_supervised_batch, ChaosPlan, Json, Pool, RunReport, RunRequest, SchedStats, SweepOptions,
    SweepRun, SweepSpec,
};
use oraclesize_sim::protocol::{FloodOnce, Protocol};
use oraclesize_sim::Instance;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Protocol instances built so far while lowering a spec, keyed by
/// `(scheme, retries)` so identical cells share one `Arc`.
type ProtocolCache = Vec<((String, Option<u32>), Arc<dyn Protocol + Send + Sync>)>;

/// Options shared by every experiment invocation.
#[derive(Debug, Clone, Default)]
pub struct ExpOptions {
    /// Run the bigger (slower) sweeps.
    pub large: bool,
    /// Worker threads for grid dispatch (`0`/`1` ⇒ serial).
    pub threads: usize,
    /// Where to write `BENCH_<ID>.json` artifacts; `None` disables them.
    pub json_dir: Option<PathBuf>,
    /// Where checkpoint journals live (`<dir>/<spec name>.journal`, one
    /// per grid); `None` disables checkpointing.
    pub journal_dir: Option<PathBuf>,
    /// Resume from existing journals instead of starting fresh.
    pub resume: bool,
    /// Failure injection for chaos drills; inert outside tests.
    pub chaos: ChaosPlan,
    /// Merged scheduling telemetry for the grids dispatched under these
    /// options since the last [`ExpOptions::take_stats`]. Shared behind an
    /// `Arc` so the experiment driver can take the tally after an
    /// experiment returns — the report string
    /// itself must stay thread-count-invariant, so the stats travel out
    /// of band and only binaries render them (as footers).
    pub stats: Arc<Mutex<SchedStats>>,
}

impl ExpOptions {
    /// The pool these options describe.
    pub fn pool(&self) -> Pool {
        Pool::new(self.threads.max(1))
    }

    /// Folds one dispatch's scheduling telemetry into the shared tally.
    pub fn record_stats(&self, stats: &SchedStats) {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(stats);
    }

    /// Takes the scheduling telemetry accumulated since the last take,
    /// resetting the tally — one take per experiment gives that
    /// experiment's footer.
    pub fn take_stats(&self) -> SchedStats {
        std::mem::take(&mut *self.stats.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A labeled list of cells, built declaratively and dispatched in one
/// batch.
#[derive(Default)]
pub struct CellGrid {
    labels: Vec<String>,
    requests: Vec<RunRequest>,
    /// Per-cell scheduling cost hints, kept parallel to `requests` — the
    /// chunk planner batches cheap cells and isolates expensive ones.
    costs: Vec<u64>,
}

impl CellGrid {
    /// Appends one cell; its scheduling cost hint comes from the
    /// request's instance size ([`RunRequest::cost_hint`]).
    fn add_cell(&mut self, label: String, request: RunRequest) {
        self.labels.push(label);
        self.costs.push(request.cost_hint());
        self.requests.push(request);
    }

    /// Materializes the grid a [`SweepSpec`] describes: graphs are built
    /// (and `Arc`-shared between instances with identical construction
    /// parameters), oracles label them, and every cell becomes a
    /// [`RunRequest`] in spec order. This is the only construction path —
    /// the bench experiments, the `sweep` CLI, and the sweep service all
    /// funnel through it, which is what makes their artifacts comparable.
    ///
    /// # Errors
    ///
    /// Returns a first-error message naming the offending spec path for
    /// unknown family/oracle/scheme names, an out-of-range source node,
    /// or an invalid cell configuration.
    pub fn from_spec(spec: &SweepSpec) -> Result<CellGrid, String> {
        spec.validate()?;
        let mut graphs: Vec<(String, Arc<PortGraph>)> = Vec::new();
        let mut instances = Vec::with_capacity(spec.instances.len());
        for (i, inst) in spec.instances.iter().enumerate() {
            let key = format!("{}/{}/{}/{:?}", inst.family, inst.n, inst.seed, inst.p_ppm);
            let g = match graphs.iter().find(|(k, _)| *k == key) {
                Some((_, g)) => Arc::clone(g),
                None => {
                    let g = Arc::new(
                        build_family(&inst.family, inst.n as usize, inst.seed, inst.p_ppm)
                            .map_err(|e| format!("instances[{i}].{e}"))?,
                    );
                    graphs.push((key, Arc::clone(&g)));
                    g
                }
            };
            if inst.source >= g.num_nodes() as u64 {
                return Err(format!(
                    "instances[{i}].source: node {} out of range ({} nodes)",
                    inst.source,
                    g.num_nodes()
                ));
            }
            instances.push(
                build_instance(g, inst.source as usize, &inst.oracle)
                    .map_err(|e| format!("instances[{i}].{e}"))?,
            );
        }
        let mut protocols: ProtocolCache = Vec::new();
        let mut grid = CellGrid::default();
        for (i, cell) in spec.cells.iter().enumerate() {
            let pkey = (cell.scheme.clone(), cell.retries);
            let protocol = match protocols.iter().find(|(k, _)| *k == pkey) {
                Some((_, p)) => Arc::clone(p),
                None => {
                    let p = build_protocol(&cell.scheme, cell.retries)
                        .map_err(|e| format!("cells[{i}].{e}"))?;
                    protocols.push((pkey, Arc::clone(&p)));
                    p
                }
            };
            let config = cell.sim_config().map_err(|e| format!("cells[{i}]: {e}"))?;
            let instance = Arc::clone(&instances[cell.instance as usize]);
            grid.add_cell(
                cell.label.clone(),
                RunRequest::new(instance, protocol, config),
            );
        }
        Ok(grid)
    }

    /// The per-cell cost hints, in cell order.
    pub fn costs(&self) -> &[u64] {
        &self.costs
    }

    /// The cell labels, in cell order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The cell requests, in cell order.
    pub fn requests(&self) -> &[RunRequest] {
        &self.requests
    }

    /// Number of cells added so far.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when no cells were added.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Dispatches this grid — built from `spec` — across the options'
    /// pool under the spec's run options: cells already checkpointed in
    /// `<journal_dir>/<spec name>.journal` are skipped on resume, and every
    /// newly completed cell is checkpointed when the journal's in-order
    /// cursor reaches it. Reports come back in cell order.
    pub fn dispatch(&self, spec: &SweepSpec, opts: &ExpOptions) -> SweepRun {
        let sweep_opts = SweepOptions {
            journal: opts
                .journal_dir
                .as_ref()
                .map(|dir| dir.join(format!("{}.journal", spec.name))),
            resume: opts.resume,
            chaos: opts.chaos.clone(),
            ..SweepOptions::from_spec(spec)
        };
        let run = run_supervised_batch(&opts.pool(), &self.requests, &sweep_opts);
        opts.record_stats(&run.sched);
        run
    }

    /// Renders this grid's reports as a deterministic JSON fragment:
    /// one labeled record per cell plus an aggregate, all folded in cell
    /// order. Delegates to [`grid_json`], the single renderer shared with
    /// the sweep service's merged artifacts.
    pub fn to_json(&self, reports: &[RunReport]) -> Json {
        grid_json(&self.labels, reports)
    }
}

/// Builds a named graph family. Beyond [`Family::ALL`] two spec-only
/// names exist: `"random-connected"` (takes `p_ppm`) and
/// `"subdivided-clique"` (every edge of `K*_n` subdivided, no RNG) — the
/// constructions T10/T20 and the SCALE curve sweep. Sizes and
/// probabilities the constructors would panic on are errors here, since
/// specs arrive from untrusted clients — and so is a size the graph's
/// `u32` layout cannot index, found from the family's parameters before
/// anything is allocated.
fn build_family(
    family: &str,
    n: usize,
    seed: u64,
    p_ppm: Option<u64>,
) -> Result<PortGraph, String> {
    let fam = Family::ALL.into_iter().find(|f| f.name() == family);
    let min_n = match family {
        _ if fam.is_some() => 4,
        "random-connected" => 1,
        "subdivided-clique" => 2,
        other => return Err(format!("family: unknown family {other:?}")),
    };
    if n < min_n {
        return Err(format!("n: family {family:?} needs n >= {min_n}, got {n}"));
    }
    let size = match fam {
        Some(fam) => fam.size(n),
        None if family == "subdivided-clique" => families::subdivided_clique_size(n),
        None => families::clique_size(n),
    };
    if let Err(e) = size {
        return Err(format!("n: family {family:?} at n = {n} is too large: {e}"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(match fam {
        Some(fam) => fam.build(n, &mut rng),
        None if family == "subdivided-clique" => families::subdivided_clique(n),
        None => {
            let p = p_ppm
                .ok_or_else(|| "p_ppm: required by family \"random-connected\"".to_string())?;
            if p > 1_000_000 {
                return Err(format!("p_ppm: {p} exceeds 1000000 (probability 1)"));
            }
            families::random_connected(n, from_ppm(p), &mut rng)
        }
    })
}

/// Labels a graph with a named oracle and packages the shared instance.
fn build_instance(g: Arc<PortGraph>, source: usize, oracle: &str) -> Result<Arc<Instance>, String> {
    Ok(match oracle {
        "empty" => Instance::build(g, source, &EmptyOracle),
        "spanning-tree" => Instance::build(g, source, &SpanningTreeOracle::default()),
        "light-tree" => Instance::build(g, source, &LightTreeOracle),
        "robust-wakeup" => Instance::build(g, source, &RobustWakeupOracle::default()),
        other => return Err(format!("oracle: unknown oracle {other:?}")),
    })
}

/// Instantiates a named scheme.
fn build_protocol(
    scheme: &str,
    retries: Option<u32>,
) -> Result<Arc<dyn Protocol + Send + Sync>, String> {
    Ok(match scheme {
        "tree-wakeup" => Arc::new(TreeWakeup),
        "scheme-b" => Arc::new(SchemeB),
        "flood" => Arc::new(FloodOnce),
        "robust-tree-wakeup" => Arc::new(RobustTreeWakeup),
        "retry-broadcast" => {
            let retries = retries
                .ok_or_else(|| "retries: required by scheme \"retry-broadcast\"".to_string())?;
            Arc::new(RetryBroadcast { retries })
        }
        other => return Err(format!("scheme: unknown scheme {other:?}")),
    })
}

/// Writes `BENCH_<ID>.json` into the options' `json_dir` (no-op when the
/// directory is unset). The payload deliberately excludes thread count,
/// timing, and anything else that could differ between identical runs.
///
/// Returns the path written, if any.
///
/// # Errors
///
/// Returns a rendered message when the directory or file cannot be
/// written — artifact emission must never panic a finished sweep away.
pub fn emit_json(opts: &ExpOptions, id: &str, body: Json) -> Result<Option<PathBuf>, String> {
    let Some(dir) = opts.json_dir.as_deref() else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let json = artifact_json(id, crate::harness::MASTER_SEED, body);
    let path = dir.join(format!("BENCH_{}.json", id.to_uppercase()));
    std::fs::write(&path, format!("{}\n", json.render()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraclesize_runtime::{CellSpec, FaultSpec, InstanceSpec};

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("t0", 2006);
        spec.instances.push(InstanceSpec {
            family: "cycle".to_string(),
            n: 6,
            seed: 0,
            p_ppm: None,
            source: 0,
            oracle: "empty".to_string(),
        });
        for i in 0..4u64 {
            spec.cells.push(CellSpec {
                label: format!("cell-{i}"),
                instance: 0,
                scheme: "flood".to_string(),
                retries: None,
                mode: "broadcast".to_string(),
                scheduler: None,
                anonymous: false,
                max_message_bits: None,
                quiescence_polls: None,
                seed: i,
                faults: FaultSpec::default(),
            });
        }
        spec
    }

    /// Lowers and dispatches the tiny spec, returning the grid and its
    /// reports.
    fn tiny_run(opts: &ExpOptions) -> (CellGrid, Vec<RunReport>) {
        let spec = tiny_spec();
        let grid = CellGrid::from_spec(&spec).expect("tiny spec materializes");
        let reports = grid.dispatch(&spec, opts).reports();
        (grid, reports)
    }

    #[test]
    fn from_spec_names_bad_entries() {
        let mut spec = tiny_spec();
        spec.instances[0].family = "klein-bottle".to_string();
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(err, "instances[0].family: unknown family \"klein-bottle\"");

        let mut spec = tiny_spec();
        spec.instances[0].source = 6;
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(err, "instances[0].source: node 6 out of range (6 nodes)");

        // Sizes and probabilities the constructors assert on are spec
        // errors, not panics: specs come from untrusted clients.
        let mut spec = tiny_spec();
        spec.instances[0].n = 2;
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(err, "instances[0].n: family \"cycle\" needs n >= 4, got 2");

        let mut spec = tiny_spec();
        spec.instances[0].family = "subdivided-clique".to_string();
        spec.instances[0].n = 1;
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            "instances[0].n: family \"subdivided-clique\" needs n >= 2, got 1"
        );

        // Sizes the u32 graph layout cannot index are rejected before any
        // allocation, from the family's parameters alone.
        let mut spec = crate::experiments::t10_spec();
        for inst in &mut spec.instances {
            inst.family = "subdivided-clique".to_string();
            inst.n = 100_000_000;
        }
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            "instances[0].n: family \"subdivided-clique\" at n = 100000000 is too large: \
             node count 5000000050000000 exceeds the u32 index limit 4294967295"
        );

        let mut spec = crate::experiments::t10_spec();
        for inst in &mut spec.instances {
            inst.family = "complete".to_string();
            inst.n = 4_000_000_000;
        }
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            "instances[0].n: family \"complete\" at n = 4000000000 is too large: \
             arc count 15999999996000000000 exceeds the u32 index limit 4294967295"
        );

        // b(b−1) overflows usize itself.
        let mut spec = tiny_spec();
        spec.instances[0].family = "subdivided-clique".to_string();
        spec.instances[0].n = 1 << 33;
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            "instances[0].n: family \"subdivided-clique\" at n = 8589934592 is too large: \
             node count overflows usize, beyond the u32 limit 4294967295"
        );

        let mut spec = tiny_spec();
        spec.instances[0].family = "random-connected".to_string();
        spec.instances[0].p_ppm = Some(500_000);
        spec.instances[0].n = 0;
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            "instances[0].n: family \"random-connected\" needs n >= 1, got 0"
        );

        let mut spec = tiny_spec();
        spec.instances[0].family = "random-connected".to_string();
        spec.instances[0].p_ppm = Some(2_000_000);
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            "instances[0].p_ppm: 2000000 exceeds 1000000 (probability 1)"
        );

        let mut spec = tiny_spec();
        spec.cells[2].scheme = "telepathy".to_string();
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(err, "cells[2].scheme: unknown scheme \"telepathy\"");

        let mut spec = tiny_spec();
        spec.cells[0].scheme = "retry-broadcast".to_string();
        let err = CellGrid::from_spec(&spec).map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            "cells[0].retries: required by scheme \"retry-broadcast\""
        );
    }

    #[test]
    fn from_spec_shares_graphs_between_instances() {
        let mut spec = tiny_spec();
        // Same construction parameters, different oracle: one graph build.
        spec.instances.push(InstanceSpec {
            oracle: "spanning-tree".to_string(),
            ..spec.instances[0].clone()
        });
        spec.cells[1].instance = 1;
        spec.cells[1].scheme = "tree-wakeup".to_string();
        spec.cells[1].mode = "wakeup".to_string();
        let grid = CellGrid::from_spec(&spec).expect("spec materializes");
        assert!(Arc::ptr_eq(
            &grid.requests()[0].instance.graph,
            &grid.requests()[1].instance.graph
        ));
    }

    #[test]
    fn grid_json_is_thread_count_invariant() {
        let (grid, serial) = tiny_run(&ExpOptions::default());
        let (_, threaded) = tiny_run(&ExpOptions {
            threads: 4,
            ..Default::default()
        });
        let serial = grid.to_json(&serial);
        assert_eq!(serial.render(), grid.to_json(&threaded).render());
        assert!(oraclesize_runtime::json::parse(&serial.render()).is_some());
    }

    #[test]
    fn emit_json_respects_unset_dir() {
        let (grid, reports) = tiny_run(&ExpOptions::default());
        let json = grid.to_json(&reports);
        assert_eq!(emit_json(&ExpOptions::default(), "t0", json), Ok(None));
    }

    #[test]
    fn emit_json_writes_parseable_file() {
        let dir = std::env::temp_dir().join("oraclesize-grid-test");
        let opts = ExpOptions {
            json_dir: Some(dir.clone()),
            ..Default::default()
        };
        let (grid, reports) = tiny_run(&opts);
        let json = grid.to_json(&reports);
        let path = emit_json(&opts, "t0", json).expect("emit").expect("path");
        assert_eq!(path.file_name().unwrap(), "BENCH_T0.json");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(oraclesize_runtime::json::parse(&body).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn emit_json_reports_unwritable_dirs_as_errors() {
        let opts = ExpOptions {
            json_dir: Some(PathBuf::from("/proc/definitely/not/writable")),
            ..Default::default()
        };
        let err = emit_json(&opts, "t0", Json::obj()).unwrap_err();
        assert!(err.contains("/proc/definitely/not/writable"), "{err}");
    }

    #[test]
    fn dispatch_checkpoints_under_the_spec_name_and_resumes() {
        let dir = std::env::temp_dir().join(format!("oraclesize-grid-sup-{}", std::process::id()));
        let spec = tiny_spec();
        let grid = CellGrid::from_spec(&spec).expect("tiny spec materializes");
        let (_, baseline) = tiny_run(&ExpOptions::default());
        let killed = grid.dispatch(
            &spec,
            &ExpOptions {
                journal_dir: Some(dir.clone()),
                chaos: ChaosPlan::new().die_before(2),
                ..Default::default()
            },
        );
        assert!(killed.interrupted);
        assert!(dir.join("t0.journal").exists());
        let resumed = grid.dispatch(
            &spec,
            &ExpOptions {
                journal_dir: Some(dir.clone()),
                resume: true,
                ..Default::default()
            },
        );
        assert!(!resumed.interrupted);
        assert_eq!(resumed.reports(), baseline);
        std::fs::remove_dir_all(&dir).ok();
    }
}
