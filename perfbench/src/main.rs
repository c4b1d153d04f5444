//! `toss-perfbench` — one workload of the TOSS benchmark per process.
//!
//! ```text
//! toss-perfbench --workload <paper-queries|serve-rw|cold-restart>
//!                --seed <n> --seconds <s> --trace <0|1>
//!                --work-dir <dir> [--cli <toss-cli binary>] [--rev <git rev>]
//! ```
//!
//! `perfbench/run.py` builds this binary and `toss-cli`, then runs it in
//! a fresh process, so peak memory and cold caches belong to one
//! workload. The last stdout line is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it
//! stamps the run (nproc, git rev, seed, sample counts, tail percentiles).
//! See `perfbench/README.md` for the workloads and metrics.

mod common;
mod paper;
mod queries;
mod replay;
mod restart;
mod serve_rw;
mod store;

use common::Args;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("toss-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "paper-queries" => paper::run(&args),
        "serve-rw" => serve_rw::run(&args),
        "cold-restart" => restart::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match report {
        Ok(mut report) => {
            report.finish();
            report.print(&args);
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("toss-perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// Convenience so workloads can `?` any displayable error.
pub type BenchResult<T> = Result<T, String>;
