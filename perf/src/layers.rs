//! The traced breakdown: one operation's work re-run layer by layer,
//! each call into a layer's public functions wrapped in a span, plus the
//! two-thread gate and a protocol-level service probe.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use oraclesize_core::broadcast::LightTreeOracle;
use oraclesize_core::oracle::EmptyOracle;
use oraclesize_core::robust::RobustWakeupOracle;
use oraclesize_core::wakeup::SpanningTreeOracle;
use oraclesize_graph::families::{self, Family};
use oraclesize_graph::{gadgets, PortGraph};
use oraclesize_runtime::spec::from_ppm;
use oraclesize_runtime::{
    run_cell_report, run_cell_supervised, run_supervised_batch, CellStatus, ChaosPlan, ChunkPlan,
    InstanceSpec, Journal, Pool, RunReport, RunRequest, SuperviseConfig, SweepSpec,
};
use oraclesize_service::frame::{read_frame, write_frame};
use oraclesize_service::proto::{recv, send, Message};
use oraclesize_service::{render_artifact, run_local};
use oraclesize_sim::protocol::{NodeBehavior, NodeView};
use oraclesize_sim::{Instance, Oracle};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::median;
use crate::span::{now, Span, Tracer};
use crate::workload::{self, Loopback, Runner, Workload, POLL_MS};

const MIB: f64 = 1024.0 * 1024.0;

/// Work counted during one layer pass (the timings live in its spans).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    nodes: u64,
    edges: u64,
    bits: u64,
    cells: u64,
    deliveries: u64,
    messages: u64,
    rounds: u64,
    payload_copies: u64,
    queue_allocs: u64,
    faults: u64,
    retries: u64,
    first_try: u64,
    appends: u64,
    journal_bytes: u64,
    spec_bytes: u64,
    artifact_bytes: u64,
    shards: u64,
    jobs: u64,
}

/// One layer pass: its counts, and the spans it recorded.
struct Pass {
    counts: Counts,
    spans: Vec<Span>,
}

impl Pass {
    fn ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .sum()
    }

    fn allocs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.alloc.allocs as f64)
            .sum()
    }

    fn alloc_mb(&self, name: &str) -> f64 {
        let bytes: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.alloc.bytes)
            .sum();
        bytes as f64 / MIB
    }

    /// The per-layer metrics this pass measured.
    fn values(&self) -> Values {
        let c = &self.counts;
        let cells = c.cells as f64;
        let deliveries = c.deliveries as f64;
        vec![
            ("graph.build_ms", self.ns("graph.build") / 1e6),
            ("graph.allocs", self.allocs("graph.build")),
            ("graph.alloc_mb", self.alloc_mb("graph.build")),
            ("graph.nodes", c.nodes as f64),
            ("graph.edges", c.edges as f64),
            ("oracle.ms", self.ns("oracle") / 1e6),
            ("oracle.bits", c.bits as f64),
            ("oracle.allocs", self.allocs("oracle")),
            ("oracle.alloc_mb", self.alloc_mb("oracle")),
            ("oracle.ns_per_bit", self.ns("oracle") / c.bits as f64),
            ("scheme.create_ms", self.ns("scheme.create") / 1e6),
            ("scheme.create_allocs", self.allocs("scheme.create")),
            ("engine.run_ms", self.ns("engine.run") / 1e6),
            ("engine.deliveries", deliveries),
            ("engine.messages", c.messages as f64),
            ("engine.rounds", c.rounds as f64),
            ("engine.ns_per_delivery", self.ns("engine.run") / deliveries),
            (
                "engine.allocs_per_delivery",
                self.allocs("engine.run") / deliveries,
            ),
            (
                "engine.alloc_mb_per_cell",
                self.alloc_mb("engine.run") / cells,
            ),
            ("engine.payload_copies", c.payload_copies as f64),
            ("engine.queue_allocs", c.queue_allocs as f64),
            ("engine.faults_injected", c.faults as f64),
            (
                "supervise.overhead_us_per_cell",
                (self.ns("supervise") - self.ns("engine.run")) / cells / 1e3,
            ),
            ("supervise.retries", c.retries as f64),
            ("supervise.first_try_frac", c.first_try as f64 / cells),
            (
                "journal.append_us",
                self.ns("journal.append") / c.appends as f64 / 1e3,
            ),
            ("journal.bytes_per_cell", c.journal_bytes as f64 / cells),
            ("spec.parse_us", self.ns("spec.parse") / 1e3),
            ("spec.render_us", self.ns("spec.render") / 1e3),
            ("spec.bytes", c.spec_bytes as f64),
            ("grid.from_spec_ms", self.ns("grid.from_spec") / 1e6),
            ("artifact.render_ms", self.ns("artifact.render") / 1e6),
            ("artifact.bytes", c.artifact_bytes as f64),
            (
                "frame.codec_us_per_mb",
                self.ns("frame.codec") / 1e3 / (c.artifact_bytes as f64 / MIB),
            ),
            ("service.shards_per_job", c.shards as f64 / c.jobs as f64),
        ]
    }
}

/// Builds an instance's graph the way `CellGrid::from_spec` does, so
/// graph construction can be timed apart from oracle labelling.
fn build_graph(inst: &InstanceSpec) -> PortGraph {
    let n = inst.n as usize;
    let mut rng = StdRng::seed_from_u64(inst.seed);
    match inst.family.as_str() {
        "random-connected" => {
            families::random_connected(n, from_ppm(inst.p_ppm.unwrap_or(0)), &mut rng)
        }
        "subdivided-clique" => {
            let base = families::complete_rotational(n);
            let edges: Vec<_> = base.edges().collect();
            gadgets::subdivide_edges(&base, &edges)
        }
        name => Family::ALL
            .iter()
            .find(|f| f.name() == name)
            .unwrap_or_else(|| panic!("generated specs name known families, not {name:?}"))
            .build(n, &mut rng),
    }
}

/// The oracle a spec names.
fn oracle(name: &str) -> Box<dyn Oracle> {
    match name {
        "empty" => Box::new(EmptyOracle),
        "spanning-tree" => Box::new(SpanningTreeOracle::default()),
        "light-tree" => Box::new(LightTreeOracle),
        "robust-wakeup" => Box::new(RobustWakeupOracle::default()),
        other => panic!("generated specs name known oracles, not {other:?}"),
    }
}

/// Every node's behavior for one cell, as the engine creates them.
fn create_all(req: &RunRequest) -> Vec<Box<dyn NodeBehavior>> {
    let inst = &req.instance;
    let g = &inst.graph;
    (0..g.num_nodes())
        .map(|v| {
            req.protocol.create(NodeView {
                advice: inst.advice[v].clone(),
                is_source: v == inst.source,
                id: (!req.config.anonymous).then(|| g.label(v)),
                degree: g.degree(v),
            })
        })
        .collect()
}

/// Graph builds, then oracle labellings, for every instance of `spec`;
/// returns each instance's oracle size.
fn graphs_and_oracles(spec: &SweepSpec, t: &mut Tracer, c: &mut Counts) -> Vec<u64> {
    let mut graphs: Vec<(&InstanceSpec, Arc<PortGraph>)> = Vec::new();
    let mut bits = Vec::new();
    for inst in &spec.instances {
        let same = |(i, _): &&(&InstanceSpec, Arc<PortGraph>)| {
            (&i.family, i.n, i.seed, i.p_ppm) == (&inst.family, inst.n, inst.seed, inst.p_ppm)
        };
        let g = match graphs.iter().find(same) {
            Some((_, g)) => Arc::clone(g),
            None => {
                let g = Arc::new(t.span("graph.build", |_| build_graph(inst)));
                c.nodes += g.num_nodes() as u64;
                c.edges += g.num_edges() as u64;
                graphs.push((inst, Arc::clone(&g)));
                g
            }
        };
        let o = oracle(&inst.oracle);
        let built = t.span("oracle", |_| {
            Instance::build(g, inst.source as usize, o.as_ref())
        });
        c.bits += built.oracle_bits;
        bits.push(built.oracle_bits);
    }
    bits
}

/// Scheme creation, the engine run and the supervised run of each cell.
fn cells(requests: &[RunRequest], t: &mut Tracer, c: &mut Counts) -> Vec<RunReport> {
    let mut reports = Vec::with_capacity(requests.len());
    for (cell, req) in requests.iter().enumerate() {
        let behaviors = t.span("scheme.create", |_| create_all(req));
        drop(behaviors);
        let engine = |t: &mut Tracer| t.span("engine.run", |_| run_cell_report(cell, req));
        let supervised = |t: &mut Tracer| {
            t.span("supervise", |_| {
                run_cell_supervised(
                    cell,
                    req,
                    &SuperviseConfig::default(),
                    &ChaosPlan::default(),
                )
            })
        };
        // The second run of a cell finds warm caches; alternating which
        // goes first keeps that out of the supervision overhead.
        let (report, sup) = if cell % 2 == 0 {
            let report = engine(t);
            (report, supervised(t))
        } else {
            let sup = supervised(t);
            (engine(t), sup)
        };
        c.cells += 1;
        c.first_try += u64::from(sup.status == CellStatus::Completed);
        c.retries += u64::from(sup.attempts.saturating_sub(1));
        if let Some(out) = report.outcome() {
            c.deliveries += out.metrics.steps;
            c.messages += out.metrics.messages;
            c.rounds += out.metrics.rounds;
            c.payload_copies += out.metrics.faults.payload_copies;
            c.queue_allocs += out.metrics.faults.queue_allocs;
            c.faults += out.metrics.faults.total();
        }
        reports.push(report);
    }
    reports
}

/// One spec through every layer.
fn spec_pass(
    spec: &SweepSpec,
    journal: &Path,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<(), String> {
    let text = t.span("spec.render", |_| spec.render());
    let parsed = t.span("spec.parse", |_| SweepSpec::parse(&text))?;
    if parsed != *spec {
        return Err(format!(
            "{}: spec does not survive render and parse",
            spec.name
        ));
    }
    c.spec_bytes += text.len() as u64;
    let bits = graphs_and_oracles(spec, t, c);
    let grid = t.span("grid.from_spec", |_| workload::lower(spec));
    for (cell, req) in spec.cells.iter().zip(grid.requests()) {
        if req.instance.oracle_bits != bits[cell.instance as usize] {
            return Err(format!(
                "{}: oracle sizes differ from the grid's",
                spec.name
            ));
        }
    }
    c.shards += ChunkPlan::from_costs(grid.costs(), 1).len() as u64;
    c.jobs += 1;
    let reports = cells(grid.requests(), t, c);
    workload::check_sweep(spec, grid.requests(), &reports)?;

    let path = journal.join(format!("trace-{}.journal", spec.name));
    let mut j =
        Journal::create(&path, reports.len()).map_err(|e| format!("{}: {e}", path.display()))?;
    for (report, cell) in reports.iter().zip(&spec.cells) {
        t.span("journal.append", |_| {
            j.append(report.cell, cell.seed, report)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
        c.appends += 1;
    }
    c.journal_bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();

    let artifact = t.span("artifact.render", |_| render_artifact(spec, &reports));
    c.artifact_bytes += artifact.len() as u64;
    let decoded = t.span("frame.codec", |_| {
        let mut buf = Vec::with_capacity(artifact.len() + 20);
        write_frame(&mut buf, 4, artifact.as_bytes())?;
        read_frame(&mut buf.as_slice())
    });
    if decoded.ok().map(|(_, payload)| payload) != Some(artifact.into_bytes()) {
        return Err(format!(
            "{}: artifact does not survive the frame codec",
            spec.name
        ));
    }
    Ok(())
}

/// The separation workload's work outside its spec: the map-wakeup cell
/// on the F2 clique and the F1 oracle row.
fn separation_extras(runner: &Runner, t: &mut Tracer, c: &mut Counts) -> Result<(), String> {
    let f2 = build_graph(&runner.specs()[0].instances[0]);
    let map = t.span("oracle", |_| workload::map_wakeup(Arc::new(f2)));
    c.bits += map.instance.oracle_bits;
    let reports = cells(std::slice::from_ref(&map), t, c);
    let n = map.instance.num_nodes() as u64;
    match reports[0].outcome() {
        Some(out) if out.completed && out.metrics.messages == n - 1 => {}
        _ => return Err("map-wakeup did not inform every node with n - 1 messages".to_string()),
    }
    let g = Arc::new(t.span("graph.build", |_| {
        workload::separation_graph(runner.seed, runner.size)
    }));
    c.nodes += g.num_nodes() as u64;
    c.edges += g.num_edges() as u64;
    for o in workload::f1_oracles() {
        let inst = t.span("oracle", |_| Instance::build(Arc::clone(&g), 0, o.as_ref()));
        c.bits += inst.oracle_bits;
    }
    Ok(())
}

/// One pass over everything an operation of `runner`'s workload does.
fn pass(runner: &Runner, journal: &Path, t: &mut Tracer) -> Result<Pass, String> {
    let from = t.spans().len();
    let mut counts = Counts::default();
    t.span("pass", |t| {
        for spec in runner.specs() {
            spec_pass(spec, journal, t, &mut counts)?;
        }
        if runner.workload == Workload::Separation {
            separation_extras(runner, t, &mut counts)?;
        }
        Ok::<(), String>(())
    })?;
    Ok(Pass {
        counts,
        spans: t.spans()[from..].to_vec(),
    })
}

/// Metric values by name.
type Values = Vec<(&'static str, f64)>;

/// Runs every spec serially and on a two-thread pool, holding the two
/// artifacts equal; returns the two-thread run's scheduling telemetry.
fn pooled(runner: &Runner) -> Result<Values, String> {
    let (mut chunks, mut steals, mut contended) = (0, 0, 0);
    let (mut serial_wall, mut pooled_wall) = (Duration::ZERO, Duration::ZERO);
    for spec in runner.specs() {
        let grid = workload::lower(spec);
        let opts = workload::sweep_options(spec, &grid, None);
        let run = |threads: usize, wall: &mut Duration| {
            let start = now();
            let run = run_supervised_batch(&Pool::new(threads), grid.requests(), &opts);
            *wall += start.elapsed();
            run
        };
        let serial = run(1, &mut serial_wall);
        let two = run(2, &mut pooled_wall);
        chunks += two.sched.chunks;
        steals += two.sched.steals;
        contended += two.sched.contended;
        if render_artifact(spec, &two.reports()) != render_artifact(spec, &serial.reports()) {
            return Err(format!(
                "{}: two-thread artifact differs from the serial one",
                spec.name
            ));
        }
    }
    Ok(vec![
        ("sched.chunks", chunks as f64),
        ("sched.steals", steals as f64),
        ("sched.contended", contended as f64),
        (
            "pool.busy_frac",
            serial_wall.as_secs_f64() / (pooled_wall.as_secs_f64() * 2.0),
        ),
    ])
}

/// Submits every spec to a loopback service over a raw protocol
/// connection, timing each exchange, then holds the artifacts against
/// `run_local`'s bytes.
fn probe(specs: &[SweepSpec], t: &mut Tracer) -> Result<Values, String> {
    let (mut submit_rtt, mut poll_rtt) = (Vec::new(), Vec::new());
    let (mut latency, mut local) = (Duration::ZERO, Duration::ZERO);
    let svc = Loopback::start(specs.len())?;
    let mut artifacts = Vec::new();
    {
        let mut stream = TcpStream::connect(&svc.addr).map_err(|e| format!("connect: {e}"))?;
        for spec in specs {
            let start = now();
            let submit = Message::Submit {
                spec: spec.to_json(),
                resume: false,
            };
            let job = t.span("service.submit", |_| {
                send(&mut stream, &submit)?;
                recv(&mut stream)
            });
            submit_rtt.push(start.elapsed());
            let job = match job.map_err(|e| format!("submit: {e}"))? {
                Message::Accepted { job, .. } => job,
                other => return Err(format!("submit answered with kind {}", other.kind())),
            };
            let artifact = loop {
                let sent = now();
                let status = t.span("service.poll", |_| {
                    send(&mut stream, &Message::Poll { job })?;
                    recv(&mut stream)
                });
                poll_rtt.push(sent.elapsed());
                match status.map_err(|e| format!("poll: {e}"))? {
                    Message::Status {
                        artifact: Some(a), ..
                    } => break a,
                    Message::Status { .. } => std::thread::sleep(Duration::from_millis(POLL_MS)),
                    Message::Error { text } => return Err(format!("poll: {text}")),
                    other => return Err(format!("poll answered with kind {}", other.kind())),
                }
            };
            latency += start.elapsed();
            artifacts.push(artifact);
        }
    }
    svc.stop()?;
    for (spec, artifact) in specs.iter().zip(&artifacts) {
        let start = now();
        let reference = run_local(spec, 1)?;
        local += start.elapsed();
        if reference != *artifact {
            return Err(format!(
                "{}: service artifact differs from run_local's",
                spec.name
            ));
        }
    }
    let ms =
        |ds: &[Duration]| median(&ds.iter().map(|d| d.as_secs_f64() * 1e3).collect::<Vec<_>>());
    Ok(vec![
        (
            "service.polls_per_job",
            poll_rtt.len() as f64 / specs.len() as f64,
        ),
        ("service.submit_rtt_ms", ms(&submit_rtt)),
        ("service.poll_rtt_ms", ms(&poll_rtt)),
        (
            "service.compute_frac",
            local.as_secs_f64() / latency.as_secs_f64(),
        ),
    ])
}

/// Everything a trace run measured beyond its operations.
pub struct Breakdown {
    /// Metric values, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Passes, gates and probe jobs attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
}

/// Layer passes until `budget` has elapsed (at least one, at most 25),
/// then the two-thread gate and the service probe.
pub fn breakdown(runner: &Runner, journal: &Path, budget: Duration, t: &mut Tracer) -> Breakdown {
    let mut out = Breakdown {
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    let fail = |out: &mut Breakdown, what: &str, e: String| {
        eprintln!("perf: {} {what}: {e}", runner.workload.name());
        out.failed += 1;
    };
    let start = now();
    let counting = crate::alloc::Counting::start();
    let mut passes = Vec::new();
    while passes.len() < 25 && (passes.is_empty() || start.elapsed() < budget) {
        out.attempted += 1;
        match pass(runner, journal, t) {
            Ok(p) => passes.push(p),
            Err(e) => {
                fail(&mut out, "layer pass", e);
                if out.failed > 2 {
                    break;
                }
            }
        }
    }
    drop(counting);
    let Some(first) = passes.first() else {
        return out;
    };
    if passes.iter().any(|p| p.counts != first.counts) {
        fail(
            &mut out,
            "layer pass",
            "work counts differ between passes".to_string(),
        );
    }
    let per_pass: Vec<Values> = passes.iter().map(Pass::values).collect();
    for (i, (name, _)) in per_pass[0].iter().enumerate() {
        let xs: Vec<f64> = per_pass.iter().map(|v| v[i].1).collect();
        out.values.insert(name, median(&xs));
    }
    for (what, values) in [
        ("two-thread gate", pooled(runner)),
        ("service probe", probe(runner.specs(), t)),
    ] {
        out.attempted += 1;
        match values {
            Ok(values) => out.values.extend(values),
            Err(e) => fail(&mut out, what, e),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Counting;
    use crate::metrics::PER_LAYER;
    use crate::workload::{Size, CANONICAL_SEED};

    #[test]
    fn traced_counts_repeat_exactly() {
        let dir =
            std::env::temp_dir().join(format!("oraclesize-perf-{}-layers", std::process::id()));
        let _counting = Counting::start();
        for w in Workload::ALL {
            let runner = Runner::new(w, CANONICAL_SEED, Size::Reduced, &dir);
            let mut t = Tracer::on();
            let passes: Vec<Vec<(&str, f64)>> = (0..3)
                .map(|_| pass(&runner, &dir, &mut t).expect("layer pass").values())
                .collect();
            // The first pass may pay one-time lazy initialisation.
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                let value =
                    |p: &[(&str, f64)]| p.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
                if let Some(v) = value(&passes[1]) {
                    assert_eq!(Some(v), value(&passes[2]), "{} {}", w.name(), m.name);
                }
            }
            let first = &passes[1];
            for name in [
                "graph.nodes",
                "oracle.bits",
                "engine.deliveries",
                "scheme.create_allocs",
            ] {
                assert!(
                    first.iter().any(|(n, v)| *n == name && *v > 0.0),
                    "{} {name}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn breakdown_measures_every_layer_and_gates_pooled_and_service_runs() {
        let dir =
            std::env::temp_dir().join(format!("oraclesize-perf-{}-breakdown", std::process::id()));
        let runner = Runner::new(Workload::Separation, CANONICAL_SEED, Size::Reduced, &dir);
        let b = breakdown(&runner, &dir, Duration::ZERO, &mut Tracer::on());
        assert_eq!(b.failed, 0);
        for m in PER_LAYER.iter().filter(|m| m.name != "trace_overhead_frac") {
            assert!(
                b.values.get(m.name).is_some_and(|v| v.is_finite()),
                "{}",
                m.name
            );
        }
    }
}
