//! The batch API: `RunRequest` in, `RunReport` out, cell order preserved.

use std::sync::Arc;

use oraclesize_sim::engine::{run_with_sink, Completion, RunOutcome, SimConfig, SimError};
use oraclesize_sim::protocol::Protocol;
use oraclesize_sim::trace::{NullSink, RingSink, TraceEvent, TraceSpec, TraceStats, VecSink};
use oraclesize_sim::{Instance, RunMetrics};

/// One cell of an experiment grid: which instance to run, with which
/// scheme, under which configuration.
///
/// Requests are cheap to build — the instance is `Arc`-shared and the
/// protocol is a (usually zero-sized) `Arc`ed factory — so grids with
/// thousands of cells cost nothing beyond their `SimConfig`s.
#[derive(Clone)]
pub struct RunRequest {
    /// The shared `(graph, advice)` instance.
    pub instance: Arc<Instance>,
    /// The scheme to execute. `Send + Sync` because one factory serves
    /// every worker thread.
    pub protocol: Arc<dyn Protocol + Send + Sync>,
    /// Engine configuration (task mode, scheduler, faults, limits).
    pub config: SimConfig,
}

impl RunRequest {
    /// Convenience constructor.
    pub fn new(
        instance: Arc<Instance>,
        protocol: Arc<dyn Protocol + Send + Sync>,
        config: SimConfig,
    ) -> Self {
        RunRequest {
            instance,
            protocol,
            config,
        }
    }

    /// A relative cost hint for scheduling: proportional to the
    /// instance's size (nodes + edges), which dominates both state setup
    /// and message traffic. Only the *ratio* between cells matters — the
    /// chunk planner ([`crate::pool::ChunkPlan::from_costs`]) uses hints
    /// to batch cheap cells together and isolate expensive ones, and a
    /// wrong hint can only cost throughput, never correctness.
    pub fn cost_hint(&self) -> u64 {
        (self.instance.graph.num_nodes() + self.instance.graph.num_edges()) as u64
    }
}

/// The comparable summary of one successful cell execution.
///
/// Everything here is plain old data with `Eq`, so whole report vectors
/// can be compared across thread counts — the determinism property the
/// runtime guarantees and the tests enforce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// Oracle size of the instance, in bits.
    pub oracle_bits: u64,
    /// Engine accounting (messages, bits, rounds, steps, fault counts).
    pub metrics: RunMetrics,
    /// `true` iff every *surviving* node ended informed
    /// ([`Completion::Completed`]).
    pub completed: bool,
    /// Surviving nodes left uninformed (0 when `completed`).
    pub uninformed: usize,
    /// Nodes that crash-stopped during the run.
    pub crashed_nodes: usize,
    /// Captured events when the request's config asked for
    /// [`TraceSpec::Full`]; empty otherwise (ring tails go to the report's
    /// post-mortem instead).
    pub trace: Vec<TraceEvent>,
    /// Constant-size trace tallies (zeroed when tracing was off).
    pub trace_stats: TraceStats,
}

/// The result of one cell: its index plus either an outcome or the
/// engine's abort error (stringified, keeping the report `Eq`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The sweep-wide cell index this report answers.
    pub cell: usize,
    /// Outcome, or the rendered [`SimError`] if the run aborted.
    pub result: Result<CellOutcome, String>,
    /// The last events before things went wrong: when the request asked
    /// for [`TraceSpec::Ring`] tracing and the cell degraded or aborted,
    /// this holds the ring's tail (oldest first). Empty for completed
    /// cells and untraced requests.
    pub post_mortem: Vec<TraceEvent>,
}

impl RunReport {
    /// The outcome, if the run did not abort.
    pub fn outcome(&self) -> Option<&CellOutcome> {
        self.result.as_ref().ok()
    }
}

fn cell_outcome(inst: &Instance, outcome: RunOutcome) -> CellOutcome {
    let (completed, uninformed) = match outcome.classify() {
        Completion::Completed => (true, 0),
        Completion::Degraded { uninformed } => (false, uninformed),
    };
    CellOutcome {
        oracle_bits: inst.oracle_bits,
        crashed_nodes: outcome.crashed.iter().filter(|&&c| c).count(),
        completed,
        uninformed,
        metrics: outcome.metrics,
        trace: outcome.trace,
        trace_stats: outcome.trace_stats,
    }
}

/// Executes a single request on the calling thread.
///
/// Traces are materialized with [`oraclesize_sim::engine::run`] semantics:
/// both [`TraceSpec::Full`] captures and [`TraceSpec::Ring`] tails land in
/// the outcome's `trace`. (Ring post-mortems for *aborted* cells are only
/// available through [`run_cell_report`], which keeps the sink across the
/// failure.)
///
/// # Errors
///
/// Propagates the engine's [`SimError`] on abort.
pub fn run_cell(request: &RunRequest) -> Result<CellOutcome, SimError> {
    let inst = &request.instance;
    let outcome = oraclesize_sim::engine::run(
        &inst.graph,
        inst.source,
        &inst.advice,
        request.protocol.as_ref(),
        &request.config,
    )?;
    Ok(cell_outcome(inst, outcome))
}

/// Executes a single request, capturing traces per the request's
/// `config.trace`: [`TraceSpec::Full`] events land in the outcome's
/// `trace`, a [`TraceSpec::Ring`] tail lands in `post_mortem` when (and
/// only when) the cell degrades or aborts.
pub fn run_cell_report(cell: usize, request: &RunRequest) -> RunReport {
    let inst = &request.instance;
    let run = |sink: &mut dyn oraclesize_sim::TraceSink| {
        run_with_sink(
            &inst.graph,
            inst.source,
            &inst.advice,
            request.protocol.as_ref(),
            &request.config,
            sink,
        )
    };
    let (result, post_mortem) = match request.config.trace {
        TraceSpec::Off => (run(&mut NullSink), Vec::new()),
        TraceSpec::Full => {
            let mut sink = VecSink::new();
            let result = run(&mut sink).map(|mut outcome| {
                outcome.trace = sink.into_events();
                outcome
            });
            (result, Vec::new())
        }
        TraceSpec::Ring { capacity } => {
            let mut sink = RingSink::new(capacity);
            let result = run(&mut sink);
            let went_wrong = match &result {
                Ok(outcome) => outcome.classify() != Completion::Completed,
                Err(_) => true,
            };
            let tail = if went_wrong { sink.tail() } else { Vec::new() };
            (result, tail)
        }
    };
    RunReport {
        cell,
        result: result
            .map(|outcome| cell_outcome(inst, outcome))
            .map_err(|e| e.to_string()),
        post_mortem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Pool;
    use crate::supervise::{run_supervised_batch, SweepOptions};
    use oraclesize_core::oracle::EmptyOracle;
    use oraclesize_graph::families;
    use oraclesize_sim::protocol::FloodOnce;
    use oraclesize_sim::{FaultPlan, SimConfig};

    /// A plain serial-or-pooled sweep: supervised with no retries and no
    /// journal.
    fn sweep(pool: &Pool, requests: &[RunRequest]) -> Vec<RunReport> {
        run_supervised_batch(pool, requests, &SweepOptions::default()).reports()
    }

    #[test]
    fn batch_reports_carry_cell_indices() {
        let inst = Instance::build(Arc::new(families::path(5)), 0, &EmptyOracle);
        let reqs: Vec<RunRequest> = (0..6)
            .map(|_| RunRequest::new(Arc::clone(&inst), Arc::new(FloodOnce), SimConfig::default()))
            .collect();
        let reports = sweep(&Pool::new(3), &reqs);
        assert_eq!(reports.len(), 6);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.cell, i);
            let out = r.outcome().expect("flooding completes");
            assert!(out.completed);
            assert_eq!(out.metrics.messages, 4);
        }
    }

    #[test]
    fn engine_errors_become_report_errors() {
        // Flooding in wakeup mode is legal, but a Silent source run in
        // wakeup mode quiesces — use an advice-count mismatch instead:
        // impossible through Instance. Use a wakeup violation: every node
        // floods spontaneously.
        struct AllStart;
        impl Protocol for AllStart {
            fn create(
                &self,
                view: oraclesize_sim::protocol::NodeView,
            ) -> Box<dyn oraclesize_sim::protocol::NodeBehavior> {
                struct S {
                    degree: usize,
                }
                impl oraclesize_sim::protocol::NodeBehavior for S {
                    fn on_start(&mut self) -> Vec<oraclesize_sim::protocol::Outgoing> {
                        (0..self.degree.min(1))
                            .map(|p| {
                                oraclesize_sim::protocol::Outgoing::new(
                                    p,
                                    oraclesize_sim::protocol::Message::empty(),
                                )
                            })
                            .collect()
                    }
                    fn on_receive(
                        &mut self,
                        _p: oraclesize_graph::Port,
                        _m: oraclesize_sim::protocol::Message,
                    ) -> Vec<oraclesize_sim::protocol::Outgoing> {
                        Vec::new()
                    }
                }
                Box::new(S {
                    degree: view.degree,
                })
            }
        }
        let inst = Instance::build(Arc::new(families::path(3)), 0, &EmptyOracle);
        let cfg = SimConfig::wakeup();
        let reports = sweep(
            &Pool::default(),
            &[RunRequest::new(inst, Arc::new(AllStart), cfg)],
        );
        let err = reports[0].result.as_ref().unwrap_err();
        assert!(err.contains("before being woken up"), "{err}");
    }

    #[test]
    fn full_trace_requests_fill_cell_outcomes() {
        let inst = Instance::build(Arc::new(families::cycle(5)), 0, &EmptyOracle);
        let cfg = SimConfig::broadcast().capture_trace(TraceSpec::Full);
        let reports = sweep(
            &Pool::new(2),
            &[RunRequest::new(inst, Arc::new(FloodOnce), cfg)],
        );
        let out = reports[0].outcome().unwrap();
        assert!(!out.trace.is_empty());
        assert_eq!(TraceStats::tally(&out.trace), out.trace_stats);
        assert_eq!(out.trace_stats.delivered, out.metrics.steps);
        assert!(reports[0].post_mortem.is_empty(), "completed: no tail");
    }

    #[test]
    fn ring_post_mortem_captured_only_when_cells_go_wrong() {
        // Total message loss: the run completes degraded, so the ring tail
        // must surface as the report's post-mortem.
        let g = Arc::new(families::path(4));
        let inst = Instance::build(Arc::clone(&g), 0, &EmptyOracle);
        let doomed = SimConfig::broadcast()
            .with_faults(FaultPlan::message_faults(3, 1.0, 0.0, 0.0))
            .capture_trace(TraceSpec::Ring { capacity: 8 });
        let clean = SimConfig::broadcast().capture_trace(TraceSpec::Ring { capacity: 8 });
        let reports = sweep(
            &Pool::new(1),
            &[
                RunRequest::new(Arc::clone(&inst), Arc::new(FloodOnce), doomed),
                RunRequest::new(inst, Arc::new(FloodOnce), clean),
            ],
        );
        assert!(!reports[0].outcome().unwrap().completed);
        assert!(!reports[0].post_mortem.is_empty());
        assert!(reports[0].outcome().unwrap().trace.is_empty());
        assert!(reports[1].outcome().unwrap().completed);
        assert!(reports[1].post_mortem.is_empty());
    }

    #[test]
    fn aborted_ring_cells_keep_their_tail() {
        let inst = Instance::build(Arc::new(families::path(3)), 0, &EmptyOracle);
        let cfg = SimConfig::broadcast()
            .with_max_steps(1)
            .capture_trace(TraceSpec::Ring { capacity: 4 });
        let report = run_cell_report(0, &RunRequest::new(inst, Arc::new(FloodOnce), cfg));
        assert!(report.result.is_err());
        assert!(!report.post_mortem.is_empty());
        assert!(report.post_mortem.len() <= 4);
    }
}
