//! The four workloads: inputs generated from a seed, one timed operation
//! each, and the output gate every operation must pass.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use oraclesize_bench::experiments::{
    scale_spec, t10_spec, t20_corruption_spec, t20_crashes_spec, t20_drops_spec,
};
use oraclesize_bench::grid::CellGrid;
use oraclesize_bench::harness::MASTER_SEED;
use oraclesize_core::baselines::{FullMapOracle, MapWakeup};
use oraclesize_core::broadcast::{
    light_tree_oracle_bound, scheme_b_message_bound, LightTreeOracle,
};
use oraclesize_core::wakeup::SpanningTreeOracle;
use oraclesize_graph::{gadgets, PortGraph};
use oraclesize_runtime::spec::{artifact_json, grid_json};
use oraclesize_runtime::{
    run_supervised_batch, CellSpec, FaultSpec, InstanceSpec, Json, Pool, RunReport, RunRequest,
    SweepOptions, SweepSpec,
};
use oraclesize_service::{
    render_artifact, run_local, run_worker, submit, Server, ServerConfig, WorkerConfig,
    WorkerOutcome,
};
use oraclesize_sim::{advice_size, Instance, Oracle, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::span::{now, Tracer};

/// The canonical seed: at it every workload runs the committed specs,
/// so its outputs can be held against the committed `BENCH_*.json`.
pub const CANONICAL_SEED: u64 = MASTER_SEED;

/// Service poll interval (client and worker), in milliseconds.
pub const POLL_MS: u64 = 5;

/// Lowerings timed per service job for its set-up time.
const SETUP_REPS: usize = 5;

/// One benchmark workload; see `perf/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The million-node wakeup and flood cells of `BENCH_SCALE`.
    Scale,
    /// T10 plus the three T20 fault grids, supervised and journaled.
    GridFaults,
    /// The paper's measure: oracle sizes and message counts at n = 128.
    Separation,
    /// T10 and T20-corruption jobs through an in-process sweep service.
    ServiceLoopback,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Scale,
        Workload::GridFaults,
        Workload::Separation,
        Workload::ServiceLoopback,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scale => "scale-1e6",
            Workload::GridFaults => "grid-faults",
            Workload::Separation => "separation",
            Workload::ServiceLoopback => "service-loopback",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run length when `--seconds` is not given.
    pub fn default_seconds(self) -> f64 {
        match self {
            Workload::Scale | Workload::Separation => 30.0,
            Workload::GridFaults => 20.0,
            Workload::ServiceLoopback => 40.0,
        }
    }
}

/// Input size: `Full` is what the benchmark measures; `Reduced` keeps
/// debug-build tests short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's inputs.
    Full,
    /// Small inputs with the same structure.
    #[allow(dead_code)] // constructed by the tests
    Reduced,
}

/// `spec` with the seeds of its draws XORed by `seed ^ CANONICAL_SEED`:
/// the committed spec at the canonical seed, and at any other the same
/// graphs with fresh fault draws, random schedules and cell seeds (so a
/// fresh digest). Graphs stay fixed so that a run's work, and with it the
/// run-to-run spread, barely depends on the seed.
pub fn reseed(mut spec: SweepSpec, seed: u64) -> SweepSpec {
    let salt = seed ^ CANONICAL_SEED;
    spec.master_seed ^= salt;
    for cell in &mut spec.cells {
        cell.seed ^= salt;
        cell.faults.seed ^= salt;
        if let Some(s) = &mut cell.scheduler {
            s.seed ^= salt;
        }
    }
    spec
}

/// The sub-sweep of `spec` holding the cells `keep` selects, with only
/// the instances they use, renumbered. Labels and seeds are kept, so the
/// cells' artifact records match the full sweep's.
fn keep_cells(spec: SweepSpec, keep: impl Fn(&CellSpec) -> bool) -> SweepSpec {
    let SweepSpec {
        instances, cells, ..
    } = spec.clone();
    let mut out = SweepSpec {
        instances: Vec::new(),
        cells: Vec::new(),
        ..spec
    };
    let mut renumbered: Vec<Option<u64>> = vec![None; instances.len()];
    for cell in cells.into_iter().filter(|c| keep(c)) {
        let old = cell.instance as usize;
        let instance = *renumbered[old].get_or_insert_with(|| {
            out.instances.push(instances[old].clone());
            out.instances.len() as u64 - 1
        });
        out.cells.push(CellSpec { instance, ..cell });
    }
    out
}

/// Nodes in the scale cells: the committed million-node order, or the
/// smallest order of the same curve.
fn scale_nodes(size: Size) -> usize {
    match size {
        Size::Full => 1_000_405,
        Size::Reduced => 1035,
    }
}

fn scale_at(seed: u64, size: Size) -> SweepSpec {
    let suffix = format!("/n={}", scale_nodes(size));
    let curve = scale_spec(size == Size::Full);
    reseed(keep_cells(curve, |c| c.label.ends_with(&suffix)), seed)
}

fn grid_faults_at(seed: u64) -> Vec<SweepSpec> {
    [
        t10_spec(),
        t20_corruption_spec(),
        t20_drops_spec(),
        t20_crashes_spec(),
    ]
    .into_iter()
    .map(|s| reseed(s, seed))
    .collect()
}

/// Clique order of the separation workload.
fn separation_n(size: Size) -> usize {
    match size {
        Size::Full => 128,
        Size::Reduced => 16,
    }
}

/// The spec-expressible part of the F2 row: tree-wakeup, Scheme B and
/// flooding on the rotational clique, each with its oracle. (Map-wakeup
/// needs the full-map oracle, which specs cannot name.)
fn separation_at(seed: u64, size: Size) -> SweepSpec {
    let n = separation_n(size);
    let mut spec = SweepSpec::new("separation", CANONICAL_SEED);
    for (i, (oracle, scheme, mode)) in [
        ("spanning-tree", "tree-wakeup", "wakeup"),
        ("light-tree", "scheme-b", "broadcast"),
        ("empty", "flood", "broadcast"),
    ]
    .into_iter()
    .enumerate()
    {
        spec.instances.push(InstanceSpec {
            family: "complete".to_string(),
            n: n as u64,
            seed: 0,
            p_ppm: None,
            source: 0,
            oracle: oracle.to_string(),
        });
        spec.cells.push(CellSpec {
            label: format!("{scheme}/n={n}"),
            instance: i as u64,
            scheme: scheme.to_string(),
            retries: None,
            mode: mode.to_string(),
            scheduler: None,
            anonymous: false,
            max_message_bits: None,
            quiescence_polls: None,
            seed: i as u64,
            faults: FaultSpec::default(),
        });
    }
    reseed(spec, seed)
}

/// The service workload's `job`-th job: T10 and T20-corruption in turn,
/// each reseeded from `(seed, job)` so every job has its own digest.
/// Job 0 at the canonical seed is the committed T10 sweep.
pub fn service_job(seed: u64, job: u64) -> SweepSpec {
    let base = if job.is_multiple_of(2) {
        t10_spec()
    } else {
        t20_corruption_spec()
    };
    reseed(base, seed.wrapping_add(job))
}

/// The sweeps one operation runs at `seed`: the service workload's list
/// is the first round of jobs.
pub fn specs(workload: Workload, seed: u64, size: Size) -> Vec<SweepSpec> {
    match workload {
        Workload::Scale => vec![scale_at(seed, size)],
        Workload::GridFaults => grid_faults_at(seed),
        Workload::Separation => vec![separation_at(seed, size)],
        Workload::ServiceLoopback => (0..2).map(|j| service_job(seed, j)).collect(),
    }
}

/// Lowers a generated spec; the generators only emit lowerable specs.
pub fn lower(spec: &SweepSpec) -> CellGrid {
    CellGrid::from_spec(spec)
        .unwrap_or_else(|e| panic!("generated spec {} does not lower: {e}", spec.name))
}

/// Supervised-sweep options for `grid`, as the local service path uses.
pub fn sweep_options(spec: &SweepSpec, grid: &CellGrid, journal: Option<PathBuf>) -> SweepOptions {
    SweepOptions {
        journal,
        seeds: Some(spec.cells.iter().map(|c| c.seed).collect()),
        costs: Some(grid.costs().to_vec()),
        ..SweepOptions::default()
    }
}

/// The F1 row of the separation workload: the three oracles' sizes on a
/// randomly subdivided clique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleRow {
    /// Nodes of the subdivided clique.
    pub nodes: usize,
    /// Wakeup (spanning-tree) oracle size in bits.
    pub wakeup_bits: u64,
    /// Broadcast (light-tree) oracle size in bits.
    pub broadcast_bits: u64,
    /// Full-map oracle size in bits.
    pub fullmap_bits: u64,
}

impl OracleRow {
    fn to_json(self) -> Json {
        Json::obj()
            .field("nodes", self.nodes)
            .field("wakeup_bits", self.wakeup_bits)
            .field("broadcast_bits", self.broadcast_bits)
            .field("fullmap_bits", self.fullmap_bits)
    }
}

/// The subdivided clique the F1 row labels: `K_n` with `n` random edges
/// subdivided.
pub fn separation_graph(seed: u64, size: Size) -> PortGraph {
    let n = separation_n(size);
    gadgets::random_subdivided_complete(n, n, &mut StdRng::seed_from_u64(seed)).0
}

/// The three F1 oracles: wakeup, broadcast, full map.
pub fn f1_oracles() -> [Box<dyn Oracle>; 3] {
    [
        Box::new(SpanningTreeOracle::default()),
        Box::new(LightTreeOracle),
        Box::new(FullMapOracle),
    ]
}

fn oracle_row(g: &PortGraph) -> OracleRow {
    let [w, b, m] = f1_oracles().map(|o| advice_size(&o.advise(g, 0)));
    OracleRow {
        nodes: g.num_nodes(),
        wakeup_bits: w,
        broadcast_bits: b,
        fullmap_bits: m,
    }
}

/// The map-wakeup cell on the F2 clique: the full map as advice, `n − 1`
/// messages.
pub fn map_wakeup(graph: Arc<PortGraph>) -> RunRequest {
    RunRequest::new(
        Instance::build(graph, 0, &FullMapOracle),
        Arc::new(MapWakeup),
        SimConfig::wakeup(),
    )
}

/// The committed artifact `BENCH_<NAME>.json` at the repository root.
fn committed(name: &str) -> Result<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(format!("BENCH_{name}.json"));
    std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// The record of the cell labeled `label`, from its label to the end of
/// the record (the cell index before it depends on the enclosing sweep).
fn record<'a>(artifact: &'a str, label: &str) -> Option<&'a str> {
    let start = artifact.find(&format!("\"label\": \"{label}\""))?;
    let len = artifact[start..].find('}')?;
    Some(&artifact[start..=start + len])
}

/// The paper's predicates on one sweep's reports: no cell aborts, a cell
/// in which no fault fired completes, tree-wakeup uses exactly `n − 1`
/// messages and Scheme B at most `3(n − 1)` when fault-free, and the
/// light-tree oracle stays within `8n` bits.
pub fn check_sweep(
    spec: &SweepSpec,
    requests: &[RunRequest],
    reports: &[RunReport],
) -> Result<(), String> {
    for ((cell, request), report) in spec.cells.iter().zip(requests).zip(reports) {
        let label = format!("{}/{}", spec.name, cell.label);
        let out = report
            .result
            .as_ref()
            .map_err(|e| format!("{label}: aborted: {e}"))?;
        let n = request.instance.graph.num_nodes();
        let fault_free = out.metrics.faults.total() == 0 && out.crashed_nodes == 0;
        if fault_free && !out.completed {
            return Err(format!(
                "{label}: fault-free cell left {} uninformed",
                out.uninformed
            ));
        }
        let messages = out.metrics.messages;
        match cell.scheme.as_str() {
            "tree-wakeup" if fault_free && messages != n as u64 - 1 => {
                return Err(format!(
                    "{label}: {messages} messages, expected n - 1 = {}",
                    n - 1
                ));
            }
            "scheme-b" if fault_free && messages > scheme_b_message_bound(n) => {
                return Err(format!("{label}: {messages} messages exceed 3(n - 1)"));
            }
            _ => {}
        }
        if spec.instances[cell.instance as usize].oracle == "light-tree"
            && out.oracle_bits > light_tree_oracle_bound(&request.instance.graph)
        {
            return Err(format!(
                "{label}: light-tree oracle uses {} bits > 8n",
                out.oracle_bits
            ));
        }
    }
    Ok(())
}

/// Steps (deliveries) summed over a sweep's reports.
pub fn deliveries(reports: &[RunReport]) -> u64 {
    reports
        .iter()
        .filter_map(RunReport::outcome)
        .map(|o| o.metrics.steps)
        .sum()
}

/// What one operation measured.
#[derive(Debug, Clone)]
pub struct Op {
    /// Wall time of the whole operation.
    pub total: Duration,
    /// Graph build plus oracle labelling.
    pub setup: Duration,
    /// Cell execution (for a service job: the whole job).
    pub exec: Duration,
    /// Cells executed.
    pub cells: u64,
    /// Engine deliveries across those cells.
    pub deliveries: u64,
    /// The rendered outputs.
    pub artifacts: Vec<String>,
    /// The gate's verdict.
    pub verdict: Result<(), String>,
}

impl Op {
    fn empty() -> Op {
        Op {
            total: Duration::ZERO,
            setup: Duration::ZERO,
            exec: Duration::ZERO,
            cells: 0,
            deliveries: 0,
            artifacts: Vec::new(),
            verdict: Ok(()),
        }
    }
}

fn phase<T>(t: &mut Tracer, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Duration) {
    let start = now();
    let out = t.span(name, f);
    (out, start.elapsed())
}

/// An in-process sweep service on loopback: one server, one worker with
/// one pool thread.
pub struct Loopback {
    /// The server's bound address.
    pub addr: String,
    server: JoinHandle<std::io::Result<()>>,
    worker: JoinHandle<Result<WorkerOutcome, String>>,
}

impl Loopback {
    /// Starts a server that serves `jobs` jobs, and its worker.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start(jobs: usize) -> Result<Loopback, String> {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            journal_dir: None,
            jobs,
            workers_hint: 1,
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("bind: {e}"))?
            .to_string();
        let config = WorkerConfig {
            connect: addr.clone(),
            threads: 1,
            journal_dir: None,
            poll_ms: POLL_MS,
            die_mid_shard: None,
            name: "perf".to_string(),
        };
        // lint:allow(D003): the loopback server and its worker are the
        // system under test; both are joined in `Loopback::stop`.
        let server = std::thread::spawn(move || server.run());
        // lint:allow(D003): as above.
        let worker = std::thread::spawn(move || run_worker(&config));
        Ok(Loopback {
            addr,
            server,
            worker,
        })
    }

    /// Waits for the server to finish its jobs and the worker to leave.
    ///
    /// # Errors
    ///
    /// Returns the first error either side reported.
    pub fn stop(self) -> Result<(), String> {
        let worker = self.worker.join().map_err(|_| "worker panicked")?;
        let server = self.server.join().map_err(|_| "server panicked")?;
        worker?;
        server.map_err(|e| format!("server: {e}"))
    }
}

/// Runs one workload's operations at one seed.
pub struct Runner {
    /// The workload.
    pub workload: Workload,
    /// The seed its inputs come from.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    specs: Vec<SweepSpec>,
    journal_dir: PathBuf,
    /// Service jobs submitted so far.
    jobs: u64,
    first: Option<Vec<String>>,
}

impl Runner {
    /// A runner writing grid-faults journals under `out`.
    pub fn new(workload: Workload, seed: u64, size: Size, out: &Path) -> Runner {
        Runner {
            workload,
            seed,
            size,
            specs: specs(workload, seed, size),
            journal_dir: out.join("journal"),
            jobs: 0,
            first: None,
        }
    }

    /// The sweeps one operation runs (see [`specs`]).
    pub fn specs(&self) -> &[SweepSpec] {
        &self.specs
    }

    /// Runs one operation and gates its outputs.
    pub fn op(&mut self, t: &mut Tracer) -> Op {
        let mut op = t.span("op", |t| match self.workload {
            Workload::Scale | Workload::GridFaults => self.sweeps(t),
            Workload::Separation => self.separation(t),
            Workload::ServiceLoopback => self.service_round(t),
        });
        if op.verdict.is_ok() && self.workload != Workload::ServiceLoopback {
            // The same inputs must give the same bytes every time.
            match &self.first {
                None => self.first = Some(op.artifacts.clone()),
                Some(first) if *first != op.artifacts => {
                    op.verdict = Err("outputs differ from the first operation's".to_string());
                }
                Some(_) => {}
            }
        }
        op
    }

    /// Scale and grid-faults: lower, execute and render each spec.
    fn sweeps(&mut self, t: &mut Tracer) -> Op {
        let start = now();
        let journaled = self.workload == Workload::GridFaults;
        // One pool thread: on two cores a two-thread dispatch of these
        // tiny cells spread run to run about three times as wide. The
        // two-thread path is measured, and gated, by every trace.
        let pool = Pool::new(1);
        let mut op = Op::empty();
        let mut bodies = Vec::new();
        for spec in &self.specs {
            let (grid, setup) = phase(t, "setup", |_| lower(spec));
            let journal =
                journaled.then(|| self.journal_dir.join(format!("{}.journal", spec.name)));
            let opts = sweep_options(spec, &grid, journal);
            let (run, exec) = phase(t, "exec", |_| {
                run_supervised_batch(&pool, grid.requests(), &opts)
            });
            let reports = run.reports();
            op.setup += setup;
            op.exec += exec;
            op.cells += reports.len() as u64;
            op.deliveries += deliveries(&reports);
            if let Some(w) = run.warnings.first() {
                op.verdict = Err(format!("{}: {w}", spec.name));
            }
            if op.verdict.is_ok() {
                op.verdict = check_sweep(spec, grid.requests(), &reports);
            }
            bodies.push((spec, reports));
        }
        op.artifacts = t.span("render", |_| self.render_sweeps(&bodies));
        op.total = start.elapsed();
        if op.verdict.is_ok() && self.seed == CANONICAL_SEED {
            op.verdict = self.check_committed(&op.artifacts);
        }
        op
    }

    /// The artifacts the committed files hold: scale's own, and grid-
    /// faults' T10 and combined T20 files.
    fn render_sweeps(&self, bodies: &[(&SweepSpec, Vec<RunReport>)]) -> Vec<String> {
        match self.workload {
            Workload::GridFaults => {
                let [t10, corruption, drops, crashes] = bodies else {
                    unreachable!("grid-faults runs four sweeps");
                };
                let body = |(spec, reports): &(&SweepSpec, Vec<RunReport>)| {
                    let labels: Vec<String> = spec.cells.iter().map(|c| c.label.clone()).collect();
                    grid_json(&labels, reports)
                };
                let t20 = Json::obj()
                    .field("corruption", body(corruption))
                    .field("drops", body(drops))
                    .field("crashes", body(crashes));
                vec![
                    render_artifact(t10.0, &t10.1),
                    format!(
                        "{}\n",
                        artifact_json("t20", corruption.0.master_seed, t20).render()
                    ),
                ]
            }
            _ => bodies
                .iter()
                .map(|(spec, reports)| render_artifact(spec, reports))
                .collect(),
        }
    }

    fn check_committed(&self, artifacts: &[String]) -> Result<(), String> {
        match self.workload {
            Workload::GridFaults => {
                for (artifact, name) in artifacts.iter().zip(["T10", "T20"]) {
                    if *artifact != committed(name)? {
                        return Err(format!(
                            "artifact differs from the committed BENCH_{name}.json"
                        ));
                    }
                }
            }
            Workload::Scale => {
                let file = committed("SCALE")?;
                for cell in &self.specs[0].cells {
                    let ours = record(&artifacts[0], &cell.label);
                    if ours.is_none() || ours != record(&file, &cell.label) {
                        return Err(format!(
                            "cell {} differs from the committed BENCH_SCALE.json",
                            cell.label
                        ));
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Separation: the F2 row at n (four schemes with their oracles) and
    /// the F1 oracle row.
    fn separation(&mut self, t: &mut Tracer) -> Op {
        let start = now();
        let spec = &self.specs[0];
        let seed = self.seed;
        let size = self.size;
        let ((grid, map, row), setup) = phase(t, "setup", |_| {
            let grid = lower(spec);
            let map = map_wakeup(Arc::clone(&grid.requests()[0].instance.graph));
            let row = oracle_row(&separation_graph(seed, size));
            (grid, map, row)
        });
        let requests: Vec<RunRequest> = grid.requests().iter().cloned().chain([map]).collect();
        let opts = SweepOptions::default();
        let (run, exec) = phase(t, "exec", |_| {
            run_supervised_batch(&Pool::new(1), &requests, &opts)
        });
        let reports = run.reports();
        let mut labels = grid.labels().to_vec();
        labels.push(format!("map-wakeup/n={}", separation_n(size)));
        let artifact = t.span("render", |_| {
            let body = Json::obj()
                .field("f2", grid_json(&labels, &reports))
                .field("f1", row.to_json());
            format!(
                "{}\n",
                artifact_json(&spec.name, spec.master_seed, body).render()
            )
        });
        let verdict = check_sweep(spec, grid.requests(), &reports).and_then(|()| {
            let n = requests[0].instance.graph.num_nodes() as u64;
            let map = reports[3].outcome().ok_or("map-wakeup aborted")?;
            if !map.completed || map.metrics.messages != n - 1 {
                return Err(format!(
                    "map-wakeup used {} messages, expected n - 1",
                    map.metrics.messages
                ));
            }
            if row.broadcast_bits > 8 * row.nodes as u64 {
                return Err(format!(
                    "F1 light-tree oracle uses {} bits > 8n",
                    row.broadcast_bits
                ));
            }
            Ok(())
        });
        Op {
            total: start.elapsed(),
            setup,
            exec,
            cells: reports.len() as u64,
            deliveries: deliveries(&reports),
            artifacts: vec![artifact],
            verdict,
        }
    }

    /// Service: one round of jobs (T10 then T20-corruption), each on a
    /// fresh loopback server, held against `run_local`'s bytes.
    fn service_round(&mut self, t: &mut Tracer) -> Op {
        let mut op = Op::empty();
        for _ in 0..2 {
            let job = self.jobs;
            self.jobs += 1;
            let spec = service_job(self.seed, job);
            let text = spec.render();
            let job_result = Loopback::start(1).and_then(|svc| {
                let (artifact, latency) =
                    phase(t, "job", |_| submit(&svc.addr, &text, false, POLL_MS));
                // A server whose job failed never finishes; it is left
                // behind rather than joined.
                let artifact = artifact?;
                svc.stop()?;
                Ok((artifact, latency))
            });
            let (artifact, latency) = match job_result {
                Ok(done) => done,
                Err(e) => {
                    op.verdict = Err(format!("job {job}: {e}"));
                    continue;
                }
            };
            // The set-up server and worker each pay per job, timed outside
            // the job's latency; a lowering takes well under a millisecond,
            // so take the median of a few.
            let mut lowerings: Vec<Duration> = (0..SETUP_REPS)
                .map(|_| phase(t, "setup", |_| lower(&spec)).1)
                .collect();
            lowerings.sort_unstable();
            let setup = lowerings[SETUP_REPS / 2];
            op.total += latency;
            op.exec += latency;
            op.setup += setup;
            op.cells += spec.cells.len() as u64;
            op.deliveries += artifact_steps(&artifact).unwrap_or(0);
            let reference = run_local(&spec, 1);
            let verdict = if reference.as_ref() != Ok(&artifact) {
                Err(format!("job {job}: artifact differs from run_local's"))
            } else if self.seed == CANONICAL_SEED
                && job == 0
                && Ok(&artifact) != committed("T10").as_ref()
            {
                Err("job 0: artifact differs from the committed BENCH_T10.json".to_string())
            } else {
                Ok(())
            };
            if op.verdict.is_ok() {
                op.verdict = verdict;
            }
            op.artifacts.push(artifact);
        }
        op
    }
}

/// The aggregate step count of a rendered single-grid artifact.
pub fn artifact_steps(artifact: &str) -> Option<u64> {
    oraclesize_runtime::json::parse(artifact.trim_end())?
        .get("body")?
        .get("aggregate")?
        .get("steps")?
        .as_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("oraclesize-perf-{}-{name}", std::process::id()))
    }

    fn one_op(w: Workload, seed: u64) -> (Runner, Op) {
        let mut runner = Runner::new(w, seed, Size::Reduced, &scratch(w.name()));
        let op = runner.op(&mut Tracer::off());
        (runner, op)
    }

    #[test]
    fn every_workload_passes_its_gate_at_the_canonical_seed() {
        for w in Workload::ALL {
            let (_, op) = one_op(w, CANONICAL_SEED);
            assert_eq!(op.verdict, Ok(()), "{}", w.name());
            assert!(op.cells > 0 && op.deliveries > 0, "{}", w.name());
        }
    }

    #[test]
    fn canonical_outputs_are_the_committed_bytes() {
        let (grid, op) = one_op(Workload::GridFaults, CANONICAL_SEED);
        assert_eq!(
            op.artifacts,
            [committed("T10").unwrap(), committed("T20").unwrap()]
        );
        let mut flipped = op.artifacts.clone();
        flipped[1] = flipped[1].replacen("\"messages\": 95", "\"messages\": 96", 1);
        assert!(grid.check_committed(&flipped).is_err());

        let (scale, op) = one_op(Workload::Scale, CANONICAL_SEED);
        let file = committed("SCALE").unwrap();
        for cell in &scale.specs()[0].cells {
            assert!(record(&op.artifacts[0], &cell.label)
                .is_some_and(|r| Some(r) == record(&file, &cell.label)));
        }
        let wrong = op.artifacts[0].replacen("\"rounds\": 2", "\"rounds\": 9", 1);
        assert!(scale.check_committed(&[wrong]).is_err());
    }

    #[test]
    fn another_seed_changes_every_digest_and_still_passes() {
        for w in Workload::ALL {
            let canonical = specs(w, CANONICAL_SEED, Size::Reduced);
            for (a, b) in canonical.iter().zip(&specs(w, 7, Size::Reduced)) {
                assert_ne!(a.digest(), b.digest(), "{}", a.name);
            }
            assert_eq!(one_op(w, 7).1.verdict, Ok(()), "{}", w.name());
        }
    }

    #[test]
    fn service_jobs_alternate_and_never_repeat_a_digest() {
        let jobs: Vec<SweepSpec> = (0..6).map(|j| service_job(3, j)).collect();
        let mut digests: Vec<u64> = jobs.iter().map(SweepSpec::digest).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), jobs.len());
        assert!(jobs.iter().step_by(2).all(|s| s.name == "t10"));
        assert_eq!(service_job(CANONICAL_SEED, 0), t10_spec());
    }

    #[test]
    fn the_gate_rejects_a_broken_predicate() {
        let spec = scale_at(CANONICAL_SEED, Size::Reduced);
        let grid = lower(&spec);
        let run = run_supervised_batch(
            &Pool::new(1),
            grid.requests(),
            &sweep_options(&spec, &grid, None),
        );
        let mut reports = run.reports();
        assert_eq!(check_sweep(&spec, grid.requests(), &reports), Ok(()));
        if let Ok(out) = &mut reports[0].result {
            out.metrics.messages += 1;
        }
        assert!(check_sweep(&spec, grid.requests(), &reports).is_err());
    }
}
