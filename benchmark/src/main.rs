//! The repository's one wall-clock benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! One invocation generates the workload's inputs from `--seed`, assembles
//! them repeatedly for `--seconds`, checks every output, prints each metric
//! by name with its unit and ends with one JSON line (see `run`). A **rep**
//! is a fresh child process — this binary re-executing itself with `--rep`
//! (see `rep`) — that goes from FASTQ files on disk to a FASTA file on disk
//! through the repository's public functions only, so every rep pays the
//! cold heap, thread start-up and teardown a CLI user pays.
//!
//! `--trace 0` reports the end-to-end metrics, its timings divided by the
//! host's measured slowdown (`host`); `--trace 1` runs *traced* reps whose
//! child calls the public stage functions itself and records a span around
//! each call, then the layer microbenches (`layers`) and the job-server row
//! (`serve_row`), and reports the per-layer metrics, in raw seconds.
//! `README.md` has the workload rationale and the metric-interaction table.

mod host;
mod layers;
mod rep;
mod run;
mod serve_row;
mod stats;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("--rep") {
        rep::main(&args[1..])
    } else {
        run::main(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hipmer-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The value following `name` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// A required, parsed flag value.
fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name).ok_or_else(|| format!("missing {name} <value>"))?;
    raw.parse()
        .map_err(|_| format!("{name}: cannot parse {raw:?}"))
}
