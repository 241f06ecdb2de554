//! `perf`: the oraclesize benchmark.
//!
//! ```text
//! perf [run] [--workload W]... [--seed S] [--seconds T]   end-to-end metrics
//! perf trace [--workload W]... [--seed S] [--seconds T]  per-layer metrics
//! perf --workload W --seed S --seconds T --trace 0|1      either, one workload
//! perf compare --base FILE... --change FILE...            judge a change
//! ```
//!
//! Every run prints its metrics by name with their units, then, as its
//! last line, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`, and writes that line with the run's machine facts to
//! `<target>/perf/`. It exits non-zero when any output fails its gate.
//! `perf/README.md` describes the workloads and metrics.

#![deny(unsafe_code)]

mod alloc;
mod compare;
mod json;
mod layers;
mod metrics;
mod span;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use metrics::{median, Outcome, END_TO_END, PER_LAYER};
use span::{now, Tracer};
use workload::{Op, Runner, Size, Workload, CANONICAL_SEED};

const USAGE: &str = "usage: perf [run] [--workload W]... [--seed S] [--seconds T] [--trace 0|1]\n\
                     \x20      perf trace [--workload W]... [--seed S] [--seconds T]\n\
                     \x20      perf compare --base FILE... --change FILE...\n\
                     workloads: scale-1e6 grid-faults separation service-loopback";

/// A parsed command line.
#[derive(Debug, PartialEq)]
enum Cli {
    Measure {
        workloads: Vec<Workload>,
        seed: u64,
        seconds: Option<f64>,
        trace: bool,
    },
    Compare {
        base: Vec<String>,
        change: Vec<String>,
    },
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("run" | "trace" | "compare")) => (m, &args[1..]),
        _ => ("run", args),
    };
    if mode == "compare" {
        let (mut base, mut change) = (Vec::new(), Vec::new());
        let mut into: Option<&mut Vec<String>> = None;
        for a in rest {
            match a.as_str() {
                "--base" => into = Some(&mut base),
                "--change" => into = Some(&mut change),
                file => into
                    .as_deref_mut()
                    .ok_or_else(|| format!("{file}: name --base or --change first"))?
                    .push(file.to_string()),
            }
        }
        return Ok(Cli::Compare { base, change });
    }
    let mut workloads = Vec::new();
    let mut seed = CANONICAL_SEED;
    let mut seconds = None;
    let mut trace = mode == "trace";
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workloads
                .push(Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, not {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    Ok(Cli::Measure {
        workloads,
        seed,
        seconds,
        trace,
    })
}

/// Where results, spans and journals go: `perf/` under the cargo target
/// directory.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perf")
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit the benchmark was built from, when the checkout is a git
/// repository.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn note_failure(w: Workload, op: &Op) -> u64 {
    match &op.verdict {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perf: {}: {e}", w.name());
            1
        }
    }
}

/// Operations from `next` until `budget` has elapsed (at least `min`).
fn repeat(budget: Duration, min: usize, mut next: impl FnMut() -> Op) -> Vec<Op> {
    let start = now();
    let mut ops = Vec::new();
    while ops.len() < min || start.elapsed() < budget {
        ops.push(gated(next()));
    }
    ops
}

/// Drops an operation's outputs once gated: keeping every operation's
/// bytes would grow the very memory peak the run reports.
fn gated(mut op: Op) -> Op {
    op.artifacts = Vec::new();
    op
}

/// The median over `ops` of `f`.
fn median_by(ops: &[Op], f: impl Fn(&Op) -> f64) -> f64 {
    median(&ops.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(ops: &[Op]) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("sweep_s", median_by(ops, |o| o.total.as_secs_f64()));
    m.insert("setup_s", median_by(ops, |o| o.setup.as_secs_f64()));
    m.insert(
        "cells_per_s",
        median_by(ops, |o| o.cells as f64 / o.exec.as_secs_f64()),
    );
    m.insert(
        "deliveries_per_s",
        median_by(ops, |o| o.deliveries as f64 / o.exec.as_secs_f64()),
    );
    if let Some(rss) = peak_rss_mb() {
        m.insert("peak_rss_mb", rss);
    }
    m
}

/// One workload in this process: a warm-up operation, then operations
/// for `seconds` (untraced), or the traced breakdown.
fn measure(w: Workload, seed: u64, seconds: f64, trace: bool, out: &Path) -> Outcome {
    let mut runner = Runner::new(w, seed, Size::Full, out);
    let warm = runner.op(&mut Tracer::off());
    let mut failed = note_failure(w, &warm);
    let mut attempted = 1;
    let (table, values) = if trace {
        let third = Duration::from_secs_f64(seconds / 3.0);
        // Untraced and traced operations alternate, so drift in machine
        // speed cancels out of the overhead.
        let mut tracer = Tracer::on();
        let mut untraced = Vec::new();
        let traced = repeat(third * 2, 2, || {
            untraced.push(gated(runner.op(&mut Tracer::off())));
            let _counting = alloc::Counting::start();
            runner.op(&mut tracer)
        });
        let breakdown = layers::breakdown(&runner, &out.join("journal"), third, &mut tracer);
        for op in untraced.iter().chain(&traced) {
            failed += note_failure(w, op);
        }
        attempted += (untraced.len() + traced.len()) as u64 + breakdown.attempted;
        failed += breakdown.failed;
        let mut values = breakdown.values;
        let sweep = |ops: &[Op]| median_by(ops, |o| o.total.as_secs_f64());
        values.insert(
            "trace_overhead_frac",
            sweep(&traced) / sweep(&untraced) - 1.0,
        );
        let spans = out.join(format!("{}-seed{seed}-spans.json", w.name()));
        if let Err(e) = std::fs::write(&spans, tracer.to_json()) {
            eprintln!("perf: write {}: {e}", spans.display());
        }
        (PER_LAYER, values)
    } else {
        let ops = repeat(Duration::from_secs_f64(seconds), 1, || {
            runner.op(&mut Tracer::off())
        });
        attempted += ops.len() as u64;
        failed += ops.iter().map(|op| note_failure(w, op)).sum::<u64>();
        (END_TO_END, end_to_end(&ops))
    };
    let mut outcome = Outcome {
        attempted,
        failed,
        values: Vec::new(),
    };
    for m in table {
        match values.get(m.name) {
            Some(v) if v.is_finite() => outcome.values.push((*m, *v)),
            _ => {
                eprintln!("perf: {}: metric {} was not measured", w.name(), m.name);
                outcome.failed += 1;
            }
        }
    }
    outcome
}

fn record(w: Workload, seed: u64, seconds: f64, trace: bool, out: &Path, outcome: &Outcome) {
    let mode = if trace { "trace" } else { "run" };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let body = format!(
        "{{\"workload\": \"{}\", \"mode\": \"{mode}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"cores\": {cores}, \"profile\": \"{profile}\", \"commit\": \"{}\", \"result\": {}}}\n",
        w.name(),
        commit(),
        outcome.to_json()
    );
    let path = out.join(format!("{}-seed{seed}-{mode}.json", w.name()));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("perf: write {}: {e}", path.display());
    }
}

/// Runs every workload in a child process of its own, so each reports
/// its own peak memory.
fn run_children(
    workloads: &[Workload],
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for w in workloads {
        let mut cmd = Command::new(&exe);
        let trace = if trace { "1" } else { "0" };
        cmd.args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--trace",
            trace,
        ]);
        if let Some(s) = seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        let child = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        for line in stdout.lines() {
            println!("{}: {line}", w.name());
        }
        ok &= child.status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli {
        Cli::Compare { base, change } => match compare::compare(&base, &change) {
            Ok((report, regressed)) => {
                print!("{report}");
                if regressed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("perf: {e}");
                ExitCode::from(2)
            }
        },
        Cli::Measure {
            workloads,
            seed,
            seconds,
            trace,
        } if workloads.len() == 1 => {
            let w = workloads[0];
            let seconds = seconds.unwrap_or(w.default_seconds());
            let out = out_dir();
            if let Err(e) = std::fs::create_dir_all(&out) {
                eprintln!("perf: create {}: {e}", out.display());
                return ExitCode::from(2);
            }
            let outcome = measure(w, seed, seconds, trace, &out);
            for (m, v) in &outcome.values {
                if m.exact {
                    println!("{:<32} {v:>16} {}", m.name, m.unit);
                } else {
                    println!("{:<32} {v:>16.6} {}", m.name, m.unit);
                }
            }
            record(w, seed, seconds, trace, &out, &outcome);
            println!("{}", outcome.to_json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Cli::Measure {
            workloads,
            seed,
            seconds,
            trace,
        } => match run_children(&workloads, seed, seconds, trace) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perf: {e}");
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_and_human_command_lines() {
        assert_eq!(
            parse_args(&args(
                "--workload separation --seed 9 --seconds 10 --trace 1"
            )),
            Ok(Cli::Measure {
                workloads: vec![Workload::Separation],
                seed: 9,
                seconds: Some(10.0),
                trace: true,
            })
        );
        assert_eq!(
            parse_args(&args("run")),
            Ok(Cli::Measure {
                workloads: Workload::ALL.to_vec(),
                seed: CANONICAL_SEED,
                seconds: None,
                trace: false,
            })
        );
        assert_eq!(
            parse_args(&args("compare --base a b --change c")),
            Ok(Cli::Compare {
                base: args("a b"),
                change: args("c"),
            })
        );
        for bad in [
            "trace --workload",
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "compare x",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_lists_these_workloads_and_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            _ => panic!("{key} is not an array"),
        };
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
        let workloads: Vec<_> = list("workloads").iter().map(|w| text(w, "name")).collect();
        let ours: Vec<_> = Workload::ALL
            .iter()
            .map(|w| Some(w.name().to_string()))
            .collect();
        assert_eq!(workloads, ours);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = list(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, m) in listed.iter().zip(table) {
                assert_eq!(text(entry, "name").as_deref(), Some(m.name));
                assert_eq!(text(entry, "unit").as_deref(), Some(m.unit), "{}", m.name);
                let better = if m.better == metrics::Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                assert_eq!(text(entry, "better").as_deref(), Some(better), "{}", m.name);
                let bound = entry.get("bound").and_then(Value::as_f64);
                assert_eq!(
                    bound,
                    (key == "end_to_end").then_some(m.bound),
                    "{}",
                    m.name
                );
            }
        }
        assert_eq!(list("paths"), [Value::Str("perf".to_string())]);
    }
}
