//! End-to-end service tests: a real server and real workers on loopback,
//! pinned against the local execution path byte for byte.

#![expect(
    clippy::disallowed_methods,
    reason = "a server and its workers run on their own threads; artifacts merge by cell index"
)]

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use oraclesize_bench::grid::CellGrid;
use oraclesize_runtime::journal::{self, fnv1a64};
use oraclesize_runtime::{CellSpec, ChunkPlan, FaultSpec, InstanceSpec, Json, SweepSpec};
use oraclesize_service::frame::write_frame;
use oraclesize_service::proto::{recv, send, Message};
use oraclesize_service::{
    run_local, run_worker, submit, Server, ServerConfig, WorkerConfig, WorkerOutcome,
};
use proptest::prelude::*;

/// A small mixed sweep: two instances, two schemes, both task modes.
/// Cell seeds differ from the cell indices, so a worker that journals or
/// reports a shard-local index where a sweep-wide one belongs is caught.
fn tiny_spec(name: &str, cells: usize) -> SweepSpec {
    let mut spec = SweepSpec::new(name, 2006);
    spec.instances.push(InstanceSpec {
        family: "cycle".to_string(),
        n: 8,
        seed: 0,
        p_ppm: None,
        source: 0,
        oracle: "empty".to_string(),
    });
    spec.instances.push(InstanceSpec {
        family: "path".to_string(),
        n: 9,
        seed: 0,
        p_ppm: None,
        source: 0,
        oracle: "spanning-tree".to_string(),
    });
    for i in 0..cells {
        let wakeup = i % 2 == 1;
        spec.cells.push(CellSpec {
            label: format!("cell-{i}"),
            instance: u64::from(wakeup),
            scheme: if wakeup { "tree-wakeup" } else { "flood" }.to_string(),
            retries: None,
            mode: if wakeup { "wakeup" } else { "broadcast" }.to_string(),
            scheduler: None,
            anonymous: false,
            max_message_bits: None,
            quiescence_polls: None,
            seed: 1000 + 7 * i as u64,
            faults: FaultSpec::default(),
        });
    }
    spec
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("oraclesize-service-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn worker_config(addr: &str, name: &str, journal_dir: Option<PathBuf>) -> WorkerConfig {
    WorkerConfig {
        connect: addr.to_string(),
        threads: 2,
        journal_dir,
        poll_ms: 5,
        die_mid_shard: None,
        name: name.to_string(),
    }
}

/// Runs `spec` through a fresh server with `workers` concurrent workers
/// and returns the merged artifact.
fn run_distributed(spec: &SweepSpec, workers: usize, journal_dir: Option<PathBuf>) -> String {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: journal_dir.clone(),
        jobs: 1,
        workers_hint: workers,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run().unwrap());
    let spec_text = spec.render();
    let submit_addr = addr.clone();
    let client = thread::spawn(move || submit(&submit_addr, &spec_text, true, 5));
    let worker_threads: Vec<_> = (0..workers)
        .map(|i| {
            let cfg = worker_config(&addr, &format!("w-{i}"), journal_dir.clone());
            thread::spawn(move || run_worker(&cfg))
        })
        .collect();
    let artifact = client.join().unwrap().expect("submit");
    for t in worker_threads {
        let outcome = t.join().unwrap().expect("worker");
        assert!(
            matches!(outcome, WorkerOutcome::Finished { .. }),
            "{outcome:?}"
        );
    }
    server_thread.join().unwrap();
    artifact
}

#[test]
fn one_worker_matches_local_run() {
    let spec = tiny_spec("svc-one", 6);
    let local = run_local(&spec, 2).unwrap();
    let distributed = run_distributed(&spec, 1, None);
    assert_eq!(distributed, local);
    assert!(distributed.ends_with('\n'));
    assert!(distributed.contains("\"experiment\": \"svc-one\""));
}

#[test]
fn three_workers_match_local_run() {
    let spec = tiny_spec("svc-three", 11);
    let local = run_local(&spec, 2).unwrap();
    assert_eq!(run_distributed(&spec, 3, None), local);
}

/// One long-lived worker serves two jobs submitted together: it keeps
/// only the job it is serving and lowers the other job's spec when that
/// job's first shard arrives. The two grids differ in size, so a worker
/// that ran a shard against the wrong job's grid would fail the lease's
/// size check. Both artifacts equal the local path's.
#[test]
fn one_worker_serves_two_jobs_byte_identically() {
    let specs = [tiny_spec("svc-job-a", 5), tiny_spec("svc-job-b", 7)];
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: None,
        jobs: 2,
        workers_hint: 2,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run().unwrap());
    let clients: Vec<_> = specs
        .iter()
        .map(|spec| {
            let (addr, text) = (addr.clone(), spec.render());
            thread::spawn(move || submit(&addr, &text, true, 5))
        })
        .collect();
    let outcome = run_worker(&worker_config(&addr, "w-two-jobs", None)).expect("worker");
    assert!(
        matches!(outcome, WorkerOutcome::Finished { cells: 12, .. }),
        "{outcome:?}"
    );
    for (spec, client) in specs.iter().zip(clients) {
        let artifact = client.join().unwrap().expect("submit");
        assert_eq!(artifact, run_local(spec, 1).unwrap(), "{}", spec.name);
    }
    server_thread.join().unwrap();
}

/// The worker segment journals in `dir`, with the `lo..hi` range each
/// one's file name carries.
fn segments(dir: &std::path::Path) -> Vec<(PathBuf, usize, usize)> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let Some((_, range)) = name.split_once("-shard-") else {
            continue;
        };
        let (lo, hi) = range.trim_end_matches(".journal").split_once('-').unwrap();
        found.push((path.clone(), lo.parse().unwrap(), hi.parse().unwrap()));
    }
    found
}

#[test]
fn killed_worker_is_requeued_and_resumed_byte_identically() {
    let spec = tiny_spec("svc-kill", 24);
    let local = run_local(&spec, 2).unwrap();
    let dir = temp_dir("kill");

    // One expected worker cuts the 24 cells into multi-cell shards, so the
    // drill's midpoint lies past the shard's first cell.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: Some(dir.clone()),
        jobs: 1,
        workers_hint: 1,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run().unwrap());
    let spec_text = spec.render();
    let submit_addr = addr.clone();
    let client = thread::spawn(move || submit(&submit_addr, &spec_text, true, 5));

    // Worker A finishes the first shard, then claims the second, journals
    // its first half, and "dies" (drops the connection without
    // reporting). The second shard starts past cell 0, so its sweep-wide
    // seeds differ from the shard-local ones.
    let mut doomed = worker_config(&addr, "w-doomed", Some(dir.clone()));
    doomed.die_mid_shard = Some(2);
    let outcome = run_worker(&doomed).expect("doomed worker");
    assert_eq!(outcome, WorkerOutcome::Died { shards: 1 });
    // Its partial segment journal is on disk for the successor: the
    // shard's cells before the midpoint, each under its spec seed. The
    // first shard's segment went when the server acknowledged it.
    let left = segments(&dir);
    assert_eq!(left.len(), 1, "{left:?}");
    let (path, lo, hi) = &left[0];
    assert!(*lo > 0 && hi - lo >= 2, "shard {lo}..{hi}");
    let loaded = journal::load(path, hi - lo).unwrap();
    assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
    assert!(!loaded.records.is_empty(), "the drill journaled no record");
    for rec in &loaded.records {
        assert_eq!(rec.seed, spec.cells[lo + rec.cell].seed, "{rec:?}");
    }

    // Worker B picks up the requeued shard (resuming A's checkpoints)
    // plus everything else.
    let survivor = worker_config(&addr, "w-survivor", Some(dir.clone()));
    let outcome = run_worker(&survivor).expect("survivor worker");
    assert!(
        matches!(outcome, WorkerOutcome::Finished { .. }),
        "{outcome:?}"
    );

    let artifact = client.join().unwrap().expect("submit");
    server_thread.join().unwrap();
    assert_eq!(artifact, local);
    // Every acknowledged shard's segment is gone; the job journal stays.
    assert_eq!(segments(&dir), []);
    let job = dir.join(format!("job-{:016x}.journal", spec.digest()));
    assert!(job.exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Serves `lease` to a worker's first `Want` from a raw listener and
/// returns the worker's error.
fn lease_error(lease: Message) -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        assert!(matches!(recv(&mut stream), Ok(Message::Want { .. })));
        send(&mut stream, &lease).unwrap();
    });
    let err = run_worker(&worker_config(&addr, "w-bad-lease", None)).unwrap_err();
    server.join().unwrap();
    err
}

/// A lease whose range does not fit the job's grid is refused with an
/// error before the worker slices anything.
#[test]
fn a_shard_past_the_grid_is_an_error_not_a_panic() {
    let spec = tiny_spec("svc-bad-lease", 4);
    let lease = Message::Shard {
        job: spec.digest(),
        shard: 0,
        lo: 2,
        hi: 5,
        total: 4,
        spec: Some(spec.to_json()),
    };
    assert_eq!(
        lease_error(lease),
        "shard 2..5 of 4 does not fit the 4-cell grid"
    );
}

/// A first lease of a job without the job's spec leaves the worker
/// nothing to run: a protocol error, reported, not a panic.
#[test]
fn a_spec_less_lease_of_an_unknown_job_is_an_error_not_a_panic() {
    let lease = Message::Shard {
        job: 0xab,
        shard: 3,
        lo: 0,
        hi: 2,
        total: 4,
        spec: None,
    };
    assert_eq!(
        lease_error(lease),
        "server leased shard 3 of job 00000000000000ab without its spec"
    );
}

/// Resubmits `spec` with `resume` to a fresh server on the job journals
/// in `dir`, with one worker that keeps no segments of its own, and
/// returns the artifact and the worker's outcome.
fn resubmit(spec: &SweepSpec, dir: PathBuf) -> (String, WorkerOutcome) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: Some(dir),
        jobs: 1,
        workers_hint: 1,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run().unwrap());
    let spec_text = spec.render();
    let submit_addr = addr.clone();
    let client = thread::spawn(move || submit(&submit_addr, &spec_text, true, 5));
    let outcome = run_worker(&worker_config(&addr, "w-resub", None)).expect("worker");
    let artifact = client.join().unwrap().expect("submit");
    server_thread.join().unwrap();
    (artifact, outcome)
}

#[test]
fn resubmitting_to_a_journaled_server_resumes_server_side() {
    let spec = tiny_spec("svc-resub", 5);
    let local = run_local(&spec, 1).unwrap();
    let dir = temp_dir("resub");
    // First pass populates the server's job journal…
    assert_eq!(run_distributed(&spec, 1, Some(dir.clone())), local);
    // …which the second server resumes: the job completes with zero
    // pending shards, so the worker only ever sees NoWork.
    let (artifact, outcome) = resubmit(&spec, dir.clone());
    assert_eq!(
        outcome,
        WorkerOutcome::Finished {
            shards: 0,
            cells: 0
        }
    );
    assert_eq!(artifact, local);
    std::fs::remove_dir_all(&dir).ok();
}

/// Aborted cells never reach the server's job journal, as they never
/// reach a local run's: a restarted server re-runs them instead of
/// replaying the failure.
#[test]
fn aborted_cells_are_not_journaled_and_rerun_after_a_restart() {
    let mut spec = tiny_spec("svc-abort", 4);
    spec.knobs.cell_timeout = Some(1);
    let local = run_local(&spec, 1).unwrap();
    let dir = temp_dir("abort");
    assert_eq!(run_distributed(&spec, 1, Some(dir.clone())), local);
    let path = dir.join(format!("job-{:016x}.journal", spec.digest()));
    let loaded = journal::load(&path, 4).unwrap();
    assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
    let failures = loaded.records.iter().filter(|r| r.report.result.is_err());
    assert_eq!(failures.count(), 0, "{:?}", loaded.records);
    // Every cell aborts at a one-step budget, so the journal is empty and
    // the restarted server leases all four cells again.
    assert!(loaded.records.is_empty());
    let (artifact, outcome) = resubmit(&spec, dir.clone());
    assert!(
        matches!(outcome, WorkerOutcome::Finished { cells: 4, .. }),
        "{outcome:?}"
    );
    assert_eq!(artifact, local);
    std::fs::remove_dir_all(&dir).ok();
}

/// One `Want` exchange on a raw protocol connection.
fn want(stream: &mut TcpStream) -> Message {
    let want = Message::Want {
        worker: "raw".to_string(),
    };
    send(stream, &want).unwrap();
    recv(stream).unwrap()
}

/// Leases one shard on a raw connection: its job and whether the lease
/// carried the spec.
fn lease(stream: &mut TcpStream) -> (u64, bool) {
    match want(stream) {
        Message::Shard { job, spec, .. } => (job, spec.is_some()),
        other => panic!("expected a shard, got kind {}", other.kind()),
    }
}

/// A `Result` frame holding a corrupt record ends the connection, and
/// the server re-leases the shard instead of dropping its cells.
#[test]
fn corrupt_result_record_requeues_the_shard() {
    let spec = tiny_spec("svc-corrupt", 6);
    let local = run_local(&spec, 2).unwrap();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: None,
        jobs: 1,
        workers_hint: 1,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run().unwrap());
    let (done_tx, done_rx) = mpsc::channel();
    let (spec_text, submit_addr) = (spec.render(), addr.clone());
    let client = thread::spawn(move || done_tx.send(submit(&submit_addr, &spec_text, true, 5)));

    // Lease a shard by hand (the server holds the `Want` until the job
    // is admitted), then return it with a malformed report.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let (job, shard, lo) = match want(&mut stream) {
        Message::Shard { job, shard, lo, .. } => (job, shard, lo),
        other => panic!("expected a shard, got kind {}", other.kind()),
    };
    let body = Json::obj().field("ok", 5u64);
    let record = Json::obj()
        .field("cell", lo)
        .field("seed", spec.cells[lo as usize].seed)
        .field("digest", fnv1a64(body.render().as_bytes()))
        .field("report", body);
    let payload = Json::obj()
        .field("job", job)
        .field("shard", shard)
        .field("records", vec![record])
        .render();
    write_frame(&mut stream, 8, payload.as_bytes()).unwrap();
    // The server refuses the frame by closing the connection.
    assert!(recv(&mut stream).is_err());

    let worker = thread::spawn(move || run_worker(&worker_config(&addr, "steady", None)));
    let artifact = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the job finishes after the shard is re-leased");
    assert_eq!(artifact.expect("submit"), local);
    client.join().unwrap().unwrap();
    worker.join().unwrap().expect("worker");
    server_thread.join().unwrap();
}

/// A lease carries the spec exactly when the connection's job changes,
/// including back to a job it served before: a worker caches one job.
/// The switch back is driven by a requeue, so the lease order is fixed.
#[test]
fn the_spec_travels_again_after_a_job_switch() {
    let specs = [tiny_spec("svc-switch-a", 6), tiny_spec("svc-switch-b", 7)];
    let (a, b) = if specs[0].digest() < specs[1].digest() {
        (&specs[0], &specs[1])
    } else {
        (&specs[1], &specs[0])
    };
    let shards = |spec: &SweepSpec| {
        let grid = CellGrid::from_spec(spec).unwrap();
        ChunkPlan::from_costs(grid.costs(), 1).chunks().len()
    };
    let (a_shards, b_shards) = (shards(a), shards(b));
    assert!(a_shards >= 2 && b_shards >= 2, "{a_shards} and {b_shards}");
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: None,
        jobs: 2,
        workers_hint: 1,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run().unwrap());
    // Admit both jobs before any lease; the server leases the job with
    // the lower digest first.
    let mut client = TcpStream::connect(&addr).unwrap();
    for spec in [a, b] {
        let submit = Message::Submit {
            spec: spec.to_json(),
            resume: false,
        };
        send(&mut client, &submit).unwrap();
        assert!(matches!(recv(&mut client), Ok(Message::Accepted { .. })));
    }
    let (a_id, b_id) = (a.digest(), b.digest());

    // R2 takes A's first shard; R1 takes the rest of A and B's first.
    let mut r2 = TcpStream::connect(&addr).unwrap();
    assert_eq!(lease(&mut r2), (a_id, true));
    let mut r1 = TcpStream::connect(&addr).unwrap();
    let mut r1_leases: Vec<(u64, bool)> = (0..a_shards).map(|_| lease(&mut r1)).collect();
    // R3 drains B, so nothing is pending until R2's shard comes back.
    let mut r3 = TcpStream::connect(&addr).unwrap();
    for _ in 1..b_shards {
        assert_eq!(lease(&mut r3).0, b_id);
    }
    // R2 disconnects: its shard of A is requeued, which answers R1's
    // waiting `Want`, and the lease carries A's spec again.
    drop(r2);
    r1_leases.push(lease(&mut r1));
    let mut expected = vec![(a_id, true)];
    expected.extend((2..a_shards).map(|_| (a_id, false)));
    expected.extend([(b_id, true), (a_id, true)]);
    assert_eq!(r1_leases, expected);

    // Every lease comes back when its connection drops; a real worker
    // then finishes both jobs, and submitting again attaches to them.
    drop((r1, r3, client));
    let clients: Vec<_> = [a, b]
        .iter()
        .map(|spec| {
            let (addr, text) = (addr.clone(), spec.render());
            thread::spawn(move || submit(&addr, &text, false, 5))
        })
        .collect();
    let outcome = run_worker(&worker_config(&addr, "w-switch", None)).expect("worker");
    assert!(
        matches!(outcome, WorkerOutcome::Finished { cells: 13, .. }),
        "{outcome:?}"
    );
    for (spec, client) in [a, b].into_iter().zip(clients) {
        assert_eq!(client.join().unwrap().unwrap(), run_local(spec, 1).unwrap());
    }
    server_thread.join().unwrap();
}

/// The worker and the client are answered when there is news, not on
/// their connect-retry pause: with a one-minute pause the job still
/// finishes in seconds.
#[test]
fn job_latency_does_not_depend_on_the_poll_interval() {
    let spec = tiny_spec("svc-no-sleep", 6);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: None,
        jobs: 1,
        workers_hint: 1,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run().unwrap());
    let mut config = worker_config(&addr, "w-patient", None);
    config.poll_ms = 60_000;
    let worker = thread::spawn(move || run_worker(&config));
    let (done_tx, done_rx) = mpsc::channel();
    let spec_text = spec.render();
    let client = thread::spawn(move || done_tx.send(submit(&addr, &spec_text, true, 60_000)));
    let artifact = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the artifact arrives without waiting out a poll interval");
    assert_eq!(artifact.expect("submit"), run_local(&spec, 1).unwrap());
    client.join().unwrap().unwrap();
    let outcome = worker.join().unwrap().expect("worker");
    assert!(
        matches!(outcome, WorkerOutcome::Finished { cells: 6, .. }),
        "{outcome:?}"
    );
    server_thread.join().unwrap();
}

#[test]
fn invalid_specs_are_rejected_with_the_first_error() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: None,
        jobs: 1,
        workers_hint: 1,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let _server_thread = thread::spawn(move || server.run());
    // Parse failure is caught locally, before anything is sent.
    let err = submit(&addr, "{\"version\": 2}", true, 5).unwrap_err();
    assert_eq!(
        err,
        "spec.version: unsupported version 2 (this build reads 1)"
    );
    // A structurally valid spec the grid cannot lower is rejected by the
    // server with the bench layer's first error.
    let mut spec = tiny_spec("svc-bad", 2);
    spec.cells[1].scheme = "psychic".to_string();
    let err = submit(&addr, &spec.render(), true, 5).unwrap_err();
    assert_eq!(err, "cells[1].scheme: unknown scheme \"psychic\"");
}

#[test]
fn specs_the_constructors_reject_get_errors_and_the_server_keeps_serving() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: None,
        jobs: 1,
        workers_hint: 1,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run().unwrap());
    // Each spec parses but names a graph a family constructor asserts
    // on; the server answers with the path instead of losing the
    // connection thread to a panic.
    let mut too_small = tiny_spec("svc-too-small", 2);
    too_small.instances[0].n = 2;
    let mut bad_p = tiny_spec("svc-bad-p", 2);
    bad_p.instances[1].family = "random-connected".to_string();
    bad_p.instances[1].p_ppm = Some(2_000_000);
    let mut stream = TcpStream::connect(&addr).unwrap();
    for (spec, expected) in [
        (
            &too_small,
            "instances[0].n: family \"cycle\" needs n >= 4, got 2",
        ),
        (
            &bad_p,
            "instances[1].p_ppm: 2000000 exceeds 1000000 (probability 1)",
        ),
    ] {
        let submit = Message::Submit {
            spec: spec.to_json(),
            resume: true,
        };
        send(&mut stream, &submit).unwrap();
        match recv(&mut stream).unwrap() {
            Message::Error { text } => assert_eq!(text, expected),
            other => panic!("expected an error, got kind {}", other.kind()),
        }
    }
    drop(stream);
    // The same server then runs a valid job to completion.
    let spec = tiny_spec("svc-after-errors", 4);
    let spec_text = spec.render();
    let submit_addr = addr.clone();
    let client = thread::spawn(move || submit(&submit_addr, &spec_text, true, 5));
    let outcome = run_worker(&worker_config(&addr, "w-after", None)).expect("worker");
    assert!(
        matches!(outcome, WorkerOutcome::Finished { .. }),
        "{outcome:?}"
    );
    assert_eq!(
        client.join().unwrap().unwrap(),
        run_local(&spec, 1).unwrap()
    );
    server_thread.join().unwrap();
}

#[test]
fn an_oversized_spec_gets_an_error_and_the_server_then_runs_t10() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_dir: None,
        jobs: 1,
        workers_hint: 1,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run().unwrap());
    // K*_b at b = 10^8 needs 5·10^15 nodes: the server rejects it from
    // the family's parameters instead of aborting on the allocation.
    let mut oversized = oraclesize_bench::experiments::t10_spec();
    for inst in &mut oversized.instances {
        inst.family = "subdivided-clique".to_string();
        inst.n = 100_000_000;
    }
    let err = submit(&addr, &oversized.render(), true, 5).unwrap_err();
    assert_eq!(
        err,
        "instances[0].n: family \"subdivided-clique\" at n = 100000000 is too large: \
         node count 5000000050000000 exceeds the u32 index limit 4294967295"
    );
    // The same server then runs T10 to completion.
    let spec = oraclesize_bench::experiments::t10_spec();
    let spec_text = spec.render();
    let submit_addr = addr.clone();
    let client = thread::spawn(move || submit(&submit_addr, &spec_text, true, 5));
    let outcome = run_worker(&worker_config(&addr, "w-t10", None)).expect("worker");
    assert!(
        matches!(outcome, WorkerOutcome::Finished { .. }),
        "{outcome:?}"
    );
    assert_eq!(
        client.join().unwrap().unwrap(),
        run_local(&spec, 1).unwrap()
    );
    server_thread.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole invariant: local, 1-worker, and 3-worker runs of a
    /// random small sweep produce byte-identical merged artifacts.
    #[test]
    fn local_one_worker_and_three_workers_agree(cells in 1usize..9, threads in 1usize..4) {
        let spec = tiny_spec("svc-prop", cells);
        let local = run_local(&spec, threads).unwrap();
        prop_assert_eq!(&run_distributed(&spec, 1, None), &local);
        prop_assert_eq!(&run_distributed(&spec, 3, None), &local);
    }
}
