//! Runs one experiment of the evaluation by name, or the whole suite:
//!
//! ```text
//! streach_exp <name> [flags]
//! ```
//!
//! `<name>` is one of [`reach_bench::experiments::EXPERIMENTS`] (`fig8`,
//! `table5`, `live`, …; an unknown or missing name prints the list) or
//! `all`, which runs them in paper order and reports the total suite time
//! on stderr. The flags are parsed once into a [`reach_bench::Run`] that
//! every experiment reads:
//!
//! * `--full` — the recorded scales (`--quick`, the default: the quick tier);
//! * `--json` — one JSON array of `{id, caption, headers, rows}` objects
//!   instead of markdown tables;
//! * `--backend=sim|file` — the storage backend of every device;
//! * `--trace=PATH` — a real trace for `trace` (see DATAFORMATS.md);
//! * `--build-budget=BYTES[k|m]` — the streaming builds' resident bound;
//! * `--warm-cache` — `serve`'s shared-cache tier.
//!
//! An unknown flag or a malformed value prints the usage and exits 1
//! before anything runs.

use reach_bench::experiments::{all, EXPERIMENTS};
use reach_bench::report::emit_all;
use reach_bench::Run;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let experiment = EXPERIMENTS.iter().find(|(n, _)| *n == name);
    let run = match Run::parse(args) {
        Ok(run) if name == "all" || experiment.is_some() => run,
        parsed => {
            if let Err(e) = parsed {
                eprintln!("streach_exp: {e}");
            }
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            eprintln!("usage: streach_exp <name> [--full] [--json] [--backend=sim|file] [--trace=PATH] [--build-budget=BYTES[k|m]] [--warm-cache]");
            eprintln!("names: {} all", names.join(" "));
            return ExitCode::FAILURE;
        }
    };
    match experiment {
        Some((_, exp)) => emit_all(&exp(&run), run.json),
        None => {
            let started = Instant::now();
            emit_all(&all(&run), run.json);
            eprintln!("total suite time: {:?}", started.elapsed());
        }
    }
    ExitCode::SUCCESS
}
