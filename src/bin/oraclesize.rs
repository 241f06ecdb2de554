//! Thin binary wrapper around [`oraclesize::cli`].
//!
//! Exit status: `0` healthy, `1` sweep completed but degraded (without
//! `--allow-degraded`), `2` usage or execution errors.

use std::time::Instant;

use oraclesize::cli::{self, Command, ExperimentsArgs};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall clock lives at the binary edge only; the library never reads it, \
                  and the rate and timing lines are telemetry, not artifacts"
    )]
    let started = Instant::now();
    let parsed = cli::parse_args(&args);
    let sweep_runs = match &parsed {
        Ok(Command::Sweep(a)) => Some(a.runs),
        _ => None,
    };
    let result = parsed.and_then(|cmd| match cmd {
        Command::Experiments(a) => experiments(&a, started),
        cmd => cli::run_command_status(&cmd),
    });
    match result {
        Ok((report, healthy)) => {
            print!("{report}");
            if let Some(runs) = sweep_runs {
                let secs = started.elapsed().as_secs_f64();
                if secs > 0.0 {
                    println!("rate:         {:.1} runs/sec", runs as f64 / secs);
                }
            }
            if !healthy {
                eprintln!("sweep degraded; pass --allow-degraded to tolerate this");
                std::process::exit(1);
            }
        }
        Err(message) => {
            eprintln!("error: {message}\n");
            eprint!("{}", cli::usage());
            std::process::exit(2);
        }
    }
}

/// Prints each experiment's section as it finishes, followed by its
/// scheduling-throughput and wall-time footer lines (which the CI smoke
/// jobs strip before diffing reports).
fn experiments(args: &ExperimentsArgs, started: Instant) -> Result<(String, bool), String> {
    let mut mark = started.elapsed();
    cli::run_experiments(args, &mut |s| print!("{s}"), &mut |id, stats| {
        let secs = (started.elapsed() - mark).as_secs_f64();
        let mut footer = String::new();
        if stats.tasks > 0 {
            let rate = (secs > 0.0).then(|| stats.tasks as f64 / secs);
            footer = format!("_({id} throughput: {})_\n", stats.footer(rate));
        }
        footer.push_str(&format!("_({id} completed in {secs:.2}s)_\n"));
        mark = started.elapsed();
        footer
    })?;
    Ok((String::new(), true))
}
