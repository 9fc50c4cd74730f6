//! `perfbench --workload <name|all> --seconds <s> [--seed <n>] [--trace <0|1>]`
//!
//! Prints readable lines, a per-round noise record, and, last, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when any
//! answer disagreed with the oracle or failed, or the live index did not
//! take its stream as given; 2 on a usage error.

use std::process::ExitCode;

/// The seed the benchmark is tuned on.
const DEFAULT_SEED: u64 = 1;

/// A seed never used while tuning: reserved for checking later claims.
const RESERVED_SEED: u64 = 7919;

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "perfbench: {problem}\n\
         usage: perfbench --workload <{}|all> --seconds S [--seed N] [--trace 0|1]\n\
         (tuning seed {DEFAULT_SEED}; seed {RESERVED_SEED} is reserved for checking claims)",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (DEFAULT_SEED, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = Some(v),
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(&format!("bad trace flag {value:?}")),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let Some(seconds) = seconds else {
        return usage("--seconds is required");
    };
    let names: Vec<&str> = if workload == "all" {
        perfbench::WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    println!(
        "# perfbench seed={seed} seconds={seconds} trace={} available_parallelism={}",
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut all_correct = true;
    for name in names {
        let Some(outcome) = perfbench::run(name, seed, seconds, traced) else {
            return usage(&format!("unknown workload {name:?}"));
        };
        all_correct &= outcome.correct();
        for line in outcome.render(name) {
            println!("{line}");
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an answer disagreed with the oracle or failed, or a check FAILED");
        ExitCode::from(1)
    }
}
