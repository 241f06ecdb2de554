//! The batch API: `RunRequest` in, `RunReport` out, cell order preserved.

use std::sync::Arc;

use oraclesize_sim::engine::{self, Completion, RunOutcome, SimConfig};
use oraclesize_sim::protocol::Protocol;
use oraclesize_sim::{Instance, RunMetrics};

use crate::json::Json;

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
}

/// The result of one cell: its index plus either an outcome or the
/// engine's abort error (stringified, keeping the report `Eq`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The sweep-wide cell index this report answers.
    pub cell: usize,
    /// Outcome, or the rendered
    /// [`SimError`](oraclesize_sim::SimError) if the run aborted.
    pub result: Result<CellOutcome, String>,
}

impl RunReport {
    /// The outcome, if the run did not abort.
    pub fn outcome(&self) -> Option<&CellOutcome> {
        self.result.as_ref().ok()
    }
}

/// Sums every [`RunMetrics`] counter across a batch's reports, tracking
/// completions and errors — the totals behind the `BENCH_T*.json`
/// `"aggregate"` objects. Reports are folded front to back, in cell order
/// (never completion order), so an aggregate computed at `--threads 8` is
/// bit-identical to the serial one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Cells folded.
    pub cells: u64,
    /// Cells whose run completed (all surviving nodes informed).
    pub completed: u64,
    /// Cells whose run aborted with an engine error.
    pub errors: u64,
    /// Surviving-but-uninformed nodes, summed across degraded cells.
    pub uninformed: u64,
    /// Crash-stopped nodes, summed across cells.
    pub crashed_nodes: u64,
    /// Element-wise sum of successful cells' metrics.
    pub totals: RunMetrics,
    /// Maximum `messages` over successful cells.
    pub max_messages: u64,
    /// Maximum `rounds` over successful cells.
    pub max_rounds: u64,
    /// Sum of `oracle_bits` over successful cells.
    pub oracle_bits: u64,
}

impl Aggregate {
    /// The aggregate of `reports`, folded in order.
    pub fn of(reports: &[RunReport]) -> Self {
        let mut agg = Aggregate::default();
        for report in reports {
            agg.cells += 1;
            let Ok(out) = &report.result else {
                agg.errors += 1;
                continue;
            };
            if out.completed {
                agg.completed += 1;
            }
            agg.uninformed += out.uninformed as u64;
            agg.crashed_nodes += out.crashed_nodes as u64;
            agg.oracle_bits += out.oracle_bits;
            let m = &out.metrics;
            let t = &mut agg.totals;
            t.messages += m.messages;
            t.informed_messages += m.informed_messages;
            t.payload_bits += m.payload_bits;
            t.max_message_bits = t.max_message_bits.max(m.max_message_bits);
            t.rounds += m.rounds;
            t.steps += m.steps;
            t.informed_nodes += m.informed_nodes;
            t.faults.dropped += m.faults.dropped;
            t.faults.duplicated += m.faults.duplicated;
            t.faults.payload_flips += m.faults.payload_flips;
            t.faults.suppressed_sends += m.faults.suppressed_sends;
            t.faults.to_crashed += m.faults.to_crashed;
            t.faults.advice_mutations += m.faults.advice_mutations;
            t.faults.payload_copies += m.faults.payload_copies;
            agg.max_messages = agg.max_messages.max(m.messages);
            agg.max_rounds = agg.max_rounds.max(m.rounds);
        }
        agg
    }

    /// The aggregate as the artifacts' `"aggregate"` object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("cells", self.cells)
            .field("completed", self.completed)
            .field("errors", self.errors)
            .field("uninformed", self.uninformed)
            .field("crashed_nodes", self.crashed_nodes)
            .field("oracle_bits", self.oracle_bits)
            .field("messages", self.totals.messages)
            .field("informed_messages", self.totals.informed_messages)
            .field("payload_bits", self.totals.payload_bits)
            .field("max_message_bits", self.totals.max_message_bits)
            .field("rounds", self.totals.rounds)
            .field("steps", self.totals.steps)
            .field("informed_nodes", self.totals.informed_nodes)
            .field("max_messages", self.max_messages)
            .field("max_rounds", self.max_rounds)
            .field(
                "faults",
                Json::obj()
                    .field("dropped", self.totals.faults.dropped)
                    .field("duplicated", self.totals.faults.duplicated)
                    .field("payload_flips", self.totals.faults.payload_flips)
                    .field("suppressed_sends", self.totals.faults.suppressed_sends)
                    .field("to_crashed", self.totals.faults.to_crashed)
                    .field("advice_mutations", self.totals.faults.advice_mutations)
                    .field("payload_copies", self.totals.faults.payload_copies),
            )
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
    }
}

/// Executes a single request on the calling thread, untraced. (To trace
/// a cell, run its instance through
/// [`engine::run_with_sink`] with a sink of your choosing.)
pub fn run_cell_report(cell: usize, request: &RunRequest) -> RunReport {
    let inst = &request.instance;
    let result = engine::run(
        &inst.graph,
        inst.source,
        &inst.advice,
        request.protocol.as_ref(),
        &request.config,
    );
    RunReport {
        cell,
        result: result
            .map(|outcome| cell_outcome(inst, outcome))
            .map_err(|e| e.to_string()),
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
    use oraclesize_sim::SimConfig;

    /// A plain serial-or-pooled sweep: supervised with no watchdog and no
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

    fn report(cell: usize, messages: u64, completed: bool) -> RunReport {
        RunReport {
            cell,
            result: Ok(CellOutcome {
                oracle_bits: 3,
                metrics: RunMetrics {
                    messages,
                    rounds: messages / 2,
                    ..Default::default()
                },
                completed,
                uninformed: usize::from(!completed),
                crashed_nodes: 0,
            }),
        }
    }

    #[test]
    fn aggregate_sums_in_cell_order() {
        let reports = vec![report(0, 4, true), report(1, 10, false), report(2, 6, true)];
        let agg = Aggregate::of(&reports);
        assert_eq!(agg.cells, 3);
        assert_eq!(agg.completed, 2);
        assert_eq!(agg.uninformed, 1);
        assert_eq!(agg.totals.messages, 20);
        assert_eq!(agg.max_messages, 10);
        assert_eq!(agg.oracle_bits, 9);
        assert!(crate::json::parse(&agg.to_json().render()).is_some());
    }

    #[test]
    fn aggregate_counts_errors_without_metrics() {
        let agg = Aggregate::of(&[
            report(0, 2, true),
            RunReport {
                cell: 1,
                result: Err("boom".into()),
            },
        ]);
        assert_eq!(agg.cells, 2);
        assert_eq!(agg.errors, 1);
        assert_eq!(agg.totals.messages, 2);
    }
}
