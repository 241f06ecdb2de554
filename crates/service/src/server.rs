//! The sweep server: admits jobs, shards their grids by cost hints,
//! leases shards to workers, and merges results into artifacts that are
//! byte-identical to a local run's.
//!
//! # Shard lifecycle
//!
//! A submitted spec is validated ([`SweepSpec::from_json`] +
//! [`CellGrid::from_spec`]), cut into contiguous shards with
//! [`ChunkPlan::from_costs`] (the same cost hints the local pool
//! chunks by), and queued. Workers pull shards with `Want`, run them, and
//! return per-cell results. A lease carries the job's spec only when its
//! job differs from the job of the connection's previous lease, which is
//! the one lowered grid a worker caches. A shard whose connection drops
//! before its `Result` arrives is requeued at the front of the queue, so
//! a killed worker delays a sweep but never loses it. Results merge by
//! sweep-wide cell index through the runtime's [`OrderedCommitter`] —
//! completion order never touches the artifact, which is rendered by the
//! same [`crate::render_artifact`] path a local run uses.
//!
//! # Failure / resume model
//!
//! With a journal directory configured the server opens
//! `job-<digest>.journal` with [`journal::open`], the call a local sweep
//! uses, and checkpoints merged cells to it in cell order through the
//! committer, which journals only `Ok` reports. A restarted server
//! resumes a resubmitted job from that file and leases only the shards
//! whose cells it lacks, aborted cells included (worker shard segments
//! provide the finer-grained resume — see [`crate::worker`]). Duplicate
//! results (a requeued shard finishing twice) are dropped: the first
//! result per cell wins.
//!
//! # Waiting
//!
//! Nothing polls on a timer. Every connection handler waits on one
//! [`Condvar`] beside the state mutex, notified after each submit, merge
//! and requeue: a `Want` waits until some job has a pending shard (or
//! the server has finished its jobs, answered with `NoWork`), and a
//! `Poll` waits until its job merges another shard. [`Server::run`]
//! blocks in `accept`; the handler that delivers the last artifact
//! wakes it with one connection to the listener's own address.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use oraclesize_bench::grid::CellGrid;
use oraclesize_runtime::journal::{self, JournalRecord};
use oraclesize_runtime::{ChunkPlan, Json, OrderedCommitter, RunReport, SweepSpec};

use crate::proto::{recv, send, Message};
use crate::render_artifact;

/// Where and how a [`Server`] runs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7401` (`:0` picks a free port).
    pub addr: String,
    /// Directory for server-side job journals; `None` disables
    /// server-side checkpointing (worker segments are configured on the
    /// workers).
    pub journal_dir: Option<PathBuf>,
    /// Serve exactly this many jobs to completion (artifact delivered to
    /// a poller), then shut down. The CLI and CI smoke job serve 1.
    pub jobs: usize,
    /// Expected worker count — sizes shards via
    /// [`ChunkPlan::from_costs`], scheduling granularity only.
    pub workers_hint: usize,
}

/// One contiguous block of cells leased as a unit.
#[derive(Debug, Clone, Copy)]
struct Shard {
    id: u64,
    lo: usize,
    hi: usize,
}

/// One admitted sweep job.
struct Job {
    spec: SweepSpec,
    total: usize,
    pending: VecDeque<Shard>,
    leased: Vec<(u64, Shard)>,
    committer: OrderedCommitter,
    results: Vec<Option<RunReport>>,
    done_cells: usize,
    artifact: Option<String>,
    delivered: bool,
}

/// Server state; every connection handler funnels through one mutex
/// around it, so merges are serialized and deterministic per arrival
/// order (the artifact itself is arrival-order independent by
/// construction).
struct State {
    jobs: BTreeMap<u64, Job>,
    completed_jobs: usize,
    delivered_jobs: usize,
    target_jobs: usize,
}

impl State {
    fn finished(&self) -> bool {
        self.completed_jobs >= self.target_jobs
    }

    fn delivered(&self) -> bool {
        self.delivered_jobs >= self.target_jobs
    }

    /// Admits a job (idempotently — a spec's digest is its identity).
    fn submit(&mut self, spec_json: &Json, resume: bool, config: &ServerConfig) -> Message {
        let spec = match SweepSpec::from_json(spec_json) {
            Ok(s) => s,
            Err(text) => return Message::Error { text },
        };
        let job_id = spec.digest();
        let total = spec.cells.len();
        if self.jobs.contains_key(&job_id) {
            return Message::Accepted {
                job: job_id,
                cells: total as u64,
            };
        }
        // Materialize the grid once: full validation plus the per-cell
        // cost hints that size the shards. The requests themselves stay
        // with the workers.
        let grid = match CellGrid::from_spec(&spec) {
            Ok(g) => g,
            Err(text) => return Message::Error { text },
        };
        let (journal, loaded) = config
            .journal_dir
            .as_ref()
            .map_or_else(Default::default, |dir| {
                let path = dir.join(format!("job-{job_id:016x}.journal"));
                journal::open(&path, total, resume, |cell| spec.cells[cell].seed)
            });
        for w in &loaded.warnings {
            eprintln!("serve: {w}");
        }
        let mut results: Vec<Option<RunReport>> = vec![None; total];
        let mut committer = OrderedCommitter::new(journal);
        for rec in loaded.records {
            // Already durable in the rewritten journal — advance the
            // cursor without re-appending.
            committer.settle(rec.cell, None);
            results[rec.cell] = Some(rec.report);
        }
        let pending: VecDeque<Shard> = ChunkPlan::from_costs(grid.costs(), config.workers_hint)
            .chunks()
            .iter()
            .enumerate()
            .filter(|(_, c)| (c.start..c.end).any(|cell| results[cell].is_none()))
            .map(|(i, c)| Shard {
                id: i as u64,
                lo: c.start,
                hi: c.end,
            })
            .collect();
        let done_cells = results.iter().filter(|r| r.is_some()).count();
        eprintln!(
            "serve: job {job_id:016x} \"{}\" accepted: {total} cells, {} shards pending, \
             {done_cells} resumed",
            spec.name,
            pending.len()
        );
        let mut job = Job {
            spec,
            total,
            pending,
            leased: Vec::new(),
            committer,
            results,
            done_cells,
            artifact: None,
            delivered: false,
        };
        if finalize_if_done(&mut job, job_id) {
            self.completed_jobs += 1;
        }
        self.jobs.insert(job_id, job);
        Message::Accepted {
            job: job_id,
            cells: total as u64,
        }
    }

    /// Leases the next pending shard to connection `conn`, with the
    /// job's spec when the job differs from `last_job`, the job of the
    /// connection's previous lease. `NoWork` when nothing is pending.
    fn lease(&mut self, conn: u64, last_job: &mut Option<u64>) -> Message {
        for (&job_id, job) in self.jobs.iter_mut() {
            if let Some(shard) = job.pending.pop_front() {
                let reply = Message::Shard {
                    job: job_id,
                    shard: shard.id,
                    lo: shard.lo as u64,
                    hi: shard.hi as u64,
                    total: job.total as u64,
                    spec: (*last_job != Some(job_id)).then(|| job.spec.to_json()),
                };
                *last_job = Some(job_id);
                job.leased.push((conn, shard));
                return reply;
            }
        }
        Message::NoWork
    }

    /// Merges a returned shard's records (first result per cell wins).
    fn merge(&mut self, conn: u64, job_id: u64, shard: u64, recs: Vec<JournalRecord>) -> Message {
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return Message::Error {
                text: format!("unknown job {job_id:016x}"),
            };
        };
        job.leased.retain(|(c, s)| !(*c == conn && s.id == shard));
        for rec in recs {
            let cell = rec.cell;
            if cell >= job.total || job.results[cell].is_some() {
                continue;
            }
            job.committer.settle(cell, Some((rec.seed, &rec.report)));
            job.results[cell] = Some(rec.report);
            job.done_cells += 1;
        }
        let reply = Message::Ack {
            job: job_id,
            done: job.done_cells as u64,
            total: job.total as u64,
        };
        if finalize_if_done(job, job_id) {
            self.completed_jobs += 1;
        }
        reply
    }

    /// A job's progress; the second value asks the handler to mark the
    /// job delivered once the reply is actually on the wire.
    fn status(&self, job_id: u64) -> (Message, Option<u64>) {
        let Some(job) = self.jobs.get(&job_id) else {
            return (
                Message::Error {
                    text: format!("unknown job {job_id:016x}"),
                },
                None,
            );
        };
        match &job.artifact {
            Some(artifact) => (
                Message::Status {
                    job: job_id,
                    state: "done".to_string(),
                    done: job.total as u64,
                    total: job.total as u64,
                    artifact: Some(artifact.clone()),
                },
                Some(job_id),
            ),
            None => (
                Message::Status {
                    job: job_id,
                    state: "running".to_string(),
                    done: job.done_cells as u64,
                    total: job.total as u64,
                    artifact: None,
                },
                None,
            ),
        }
    }

    /// Marks a job delivered; `true` when this delivered the last job.
    fn mark_delivered(&mut self, job_id: u64) -> bool {
        match self.jobs.get_mut(&job_id) {
            Some(job) if !job.delivered => {
                job.delivered = true;
                self.delivered_jobs += 1;
                self.delivered()
            }
            _ => false,
        }
    }

    /// Requeues every shard the closed connection still held.
    fn release(&mut self, conn: u64) {
        for (&job_id, job) in self.jobs.iter_mut() {
            let mut dropped: Vec<Shard> = Vec::new();
            job.leased.retain(|(c, s)| {
                if *c == conn {
                    dropped.push(*s);
                    false
                } else {
                    true
                }
            });
            dropped.sort_by_key(|s| s.id);
            for shard in dropped.into_iter().rev() {
                eprintln!(
                    "serve: job {job_id:016x}: shard {} (cells {}..{}) requeued after \
                     its worker disconnected",
                    shard.id, shard.lo, shard.hi
                );
                job.pending.push_front(shard);
            }
        }
    }
}

/// Renders the artifact once every cell has merged. Returns `true` when
/// the job just completed.
fn finalize_if_done(job: &mut Job, job_id: u64) -> bool {
    if job.artifact.is_some() || job.done_cells != job.total {
        return false;
    }
    let reports: Vec<RunReport> = job.results.iter().filter_map(|r| r.clone()).collect();
    job.artifact = Some(render_artifact(&job.spec, &reports));
    eprintln!(
        "serve: job {job_id:016x} \"{}\" done: {} cells merged",
        job.spec.name, job.total
    );
    true
}

/// What every connection handler shares: the state, the condition
/// variable its waiters sleep on, and the address that wakes `accept`.
struct Shared {
    state: Mutex<State>,
    changed: Condvar,
    config: ServerConfig,
    wake: SocketAddr,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits on [`Shared::changed`] while `blocked` holds.
    fn wait_while<'a>(
        &self,
        state: MutexGuard<'a, State>,
        blocked: impl FnMut(&mut State) -> bool,
    ) -> MutexGuard<'a, State> {
        self.changed
            .wait_while(state, blocked)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// One protocol exchange. `last_job` is the job of the connection's
    /// previous lease; the second value is a job to mark delivered once
    /// the reply lands.
    fn reply(&self, conn: u64, msg: Message, last_job: &mut Option<u64>) -> (Message, Option<u64>) {
        let mut state = self.lock();
        match msg {
            Message::Submit { spec, resume } => {
                let reply = state.submit(&spec, resume, &self.config);
                self.changed.notify_all();
                (reply, None)
            }
            Message::Poll { job } => {
                // Answer at the job's next merge, or at once when it is
                // done or unknown.
                let seen = state.jobs.get(&job).map(|j| j.done_cells);
                let state = self.wait_while(state, |s| {
                    s.jobs
                        .get(&job)
                        .is_some_and(|j| j.artifact.is_none() && Some(j.done_cells) == seen)
                });
                state.status(job)
            }
            Message::Want { .. } => {
                let mut state = self.wait_while(state, |s| {
                    !s.finished() && s.jobs.values().all(|j| j.pending.is_empty())
                });
                (state.lease(conn, last_job), None)
            }
            Message::Result {
                job,
                shard,
                records,
            } => {
                let reply = state.merge(conn, job, shard, records);
                self.changed.notify_all();
                (reply, None)
            }
            other => (
                Message::Error {
                    text: format!("unexpected message kind {}", other.kind()),
                },
                None,
            ),
        }
    }

    /// Marks `job_id` delivered; the call that delivers the last job
    /// wakes [`Server::run`] out of `accept`.
    fn deliver(&self, job_id: u64) {
        if self.lock().mark_delivered(job_id) {
            // An error means the listener is already closed: `accept`
            // returned another connection, saw every job delivered and
            // stopped.
            drop(TcpStream::connect(self.wake));
        }
    }

    /// Requeues every shard the closed connection still held.
    fn release(&self, conn: u64) {
        self.lock().release(conn);
        self.changed.notify_all();
    }
}

/// Serves one connection (a worker, a submitting client, or both in
/// turn). Its only state is the job of its previous lease.
fn handle(conn: u64, mut stream: TcpStream, shared: Arc<Shared>) {
    let mut last_job = None;
    // EOF is the normal end of a session; any other recv error (a frame
    // or record that fails to decode) is logged. Either way the loop ends
    // and the leases come back.
    loop {
        let msg = match recv(&mut stream) {
            Ok(msg) => msg,
            Err(e) => {
                if e.kind() != io::ErrorKind::UnexpectedEof {
                    eprintln!("serve: conn {conn}: {e}; releasing its leases");
                }
                break;
            }
        };
        let (reply, delivered) = shared.reply(conn, msg, &mut last_job);
        if send(&mut stream, &reply).is_err() {
            break;
        }
        if let Some(job_id) = delivered {
            shared.deliver(job_id);
        }
    }
    shared.release(conn);
}

/// A bound sweep server. [`Server::run`] accepts connections until the
/// configured number of jobs has been served and delivered.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the configured address without accepting yet, so callers
    /// can learn the port (`:0` binds) before starting workers.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        // The address that wakes `accept`: the bound one, or loopback at
        // the same port when bound to every interface.
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let state = State {
            jobs: BTreeMap::new(),
            completed_jobs: 0,
            delivered_jobs: 0,
            target_jobs: config.jobs.max(1),
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                changed: Condvar::new(),
                config,
                wake,
            }),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections until every configured job has
    /// been completed and its artifact delivered to a poller.
    ///
    /// # Errors
    ///
    /// Propagates listener errors; per-connection errors only end that
    /// connection (releasing its shard leases).
    pub fn run(self) -> io::Result<()> {
        let mut next_conn = 0u64;
        loop {
            let (stream, _peer) = self.listener.accept()?;
            if self.shared.lock().delivered() {
                return Ok(());
            }
            next_conn += 1;
            let conn = next_conn;
            let shared = Arc::clone(&self.shared);
            #[expect(
                clippy::disallowed_methods,
                reason = "connection handlers are I/O-bound waiters, not compute parallelism; \
                          every engine cell still runs inside a worker's runtime::pool, and \
                          results merge through the OrderedCommitter in cell order"
            )]
            std::thread::spawn(move || handle(conn, stream, shared));
        }
    }
}
