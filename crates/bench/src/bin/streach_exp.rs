//! Runs one experiment of the evaluation by name, or the whole suite:
//!
//! ```text
//! streach_exp <name> [flags]
//! ```
//!
//! `<name>` is one of [`reach_bench::experiments::EXPERIMENTS`] (`fig8`,
//! `table5`, `live`, …; an unknown or missing name prints the list) or
//! `all`, which runs them in paper order and reports the total suite time
//! on stderr. Flags, read by whichever experiment uses them:
//!
//! * `--full` — the recorded scales (default: the quick tier);
//! * `--json` — one JSON array of `{id, caption, headers, rows}` objects
//!   instead of markdown tables;
//! * `--backend=sim|file|mmap` — the storage backend of every device;
//! * `--trace=PATH` — a real trace for `trace` (see DATAFORMATS.md);
//! * `--build-budget=BYTES[k|m]` — the streaming builds' resident bound;
//! * `--warm-cache` — `serve`'s shared-cache tier;
//! * `--epoch-records=N` — the per-epoch record target of the live
//!   experiments.
//!
//! Other flags are ignored.

use reach_bench::experiments::{all, EXPERIMENTS};
use reach_bench::report::emit_all;
use reach_bench::Tier;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_default();
    let tier = Tier::from_args();
    if name == "all" {
        let started = Instant::now();
        emit_all(&all(tier));
        eprintln!("total suite time: {:?}", started.elapsed());
        return ExitCode::SUCCESS;
    }
    match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        Some((_, run)) => {
            emit_all(&run(tier));
            ExitCode::SUCCESS
        }
        None => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            eprintln!("usage: streach_exp <name> [flags]");
            eprintln!("names: {} all", names.join(" "));
            ExitCode::FAILURE
        }
    }
}
