//! `auditbench`: the audit daemon's end-to-end and per-layer benchmark.
//!
//! ```text
//! auditbench --workload <hot_mix|cold_bnb|cold_sos> --seed <n> --seconds <s> --trace <0|1>
//! auditbench catalogue            # regenerate catalogue.txt on stdout
//! auditbench sizing <case>        # reproduce a sizing finding (README)
//! auditbench daemon --wal-dir D   # the daemon process the benchmark starts
//! ```
//!
//! The last line of a run's standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when a check failed. See README.md.

mod catalogue;
mod daemon;
mod layers;
mod oracle;
mod run;
mod sizing;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;

// Counts heap allocations for `solve.allocs_per_box` (two relaxed
// atomic increments per allocation, in the daemon process too).
#[global_allocator]
static ALLOC: epi_bench::alloc::CountingAllocator = epi_bench::alloc::CountingAllocator;

fn usage() -> ExitCode {
    eprintln!(
        "usage: auditbench --workload <hot_mix|cold_bnb|cold_sos> --seed <n> --seconds <s> --trace <0|1>\n       auditbench catalogue\n       auditbench sizing <deadline|width|auto7>\n       auditbench daemon --wal-dir <dir>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("catalogue") => {
            catalogue::regenerate();
            return ExitCode::SUCCESS;
        }
        Some("sizing") => {
            let [_, case] = args.as_slice() else {
                return usage();
            };
            return match sizing::run(case) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("auditbench sizing: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("daemon") => {
            let [_, flag, dir] = args.as_slice() else {
                return usage();
            };
            if flag != "--wal-dir" {
                return usage();
            }
            return match daemon::serve(Path::new(dir)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("auditbench daemon: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = run::Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return usage();
    };
    let args = run::Args {
        workload,
        seed,
        seconds,
        traced,
    };
    match run::run(&args) {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("check failed: {problem}");
            }
            println!("{}", outcome.json());
            if outcome.correct && outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("auditbench: {e}");
            ExitCode::from(2)
        }
    }
}
