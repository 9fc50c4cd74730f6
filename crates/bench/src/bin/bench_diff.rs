//! The perf-regression comparator:
//! `bench_diff <baseline.json> <current.json> [--max-regress=5%]`
//! (or `--baseline=PATH --current=PATH` in any order).
//!
//! Compares two `bench_perf` reports counter by counter and exits nonzero
//! if any deterministic IO counter regressed beyond the tolerance, if a
//! baseline counter disappeared, or if the suites are not comparable
//! (different tier/backend/schema). **Improvements are first-class
//! output**: every shrunken counter is printed with its percentage and
//! summarized, so a PR claims its measured speedup straight from the diff
//! (ROADMAP: "future PRs claim measured speedups … by pointing at the
//! diff"). Improvements and new counters never fail the gate — regenerate
//! the baseline (`bench_perf --out=BENCH_quick.json`) to lock them in.

use reach_bench::perf::{diff, parse_max_regress, PerfReport};

fn load(path: &str) -> PerfReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    PerfReport::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut baseline: Option<String> = None;
    let mut current: Option<String> = None;
    let mut max_regress = 0.05f64;
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--max-regress=") {
            max_regress = parse_max_regress(v).unwrap_or_else(|e| {
                eprintln!("bench_diff: {e}");
                std::process::exit(2);
            });
        } else if let Some(v) = a.strip_prefix("--baseline=") {
            baseline = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--current=") {
            current = Some(v.to_string());
        } else if a.starts_with("--") {
            // This binary is a CI gate: a misspelled flag silently falling
            // back to defaults would loosen the gate, so unknown flags are
            // hard errors (unlike `streach_exp`, which ignores them).
            eprintln!("bench_diff: unknown flag {a:?}");
            std::process::exit(2);
        } else {
            positional.push(a);
        }
    }
    // Explicit flags win; positionals fill whatever is left, in order.
    let mut positional = positional.into_iter();
    let baseline = baseline.or_else(|| positional.next());
    let current = current.or_else(|| positional.next());
    if let Some(extra) = positional.next() {
        eprintln!("bench_diff: unexpected argument {extra:?}");
        std::process::exit(2);
    }
    let (Some(baseline), Some(current)) = (baseline, current) else {
        eprintln!(
            "usage: bench_diff <baseline.json> <current.json> \
             [--baseline=PATH] [--current=PATH] [--max-regress=5%]"
        );
        std::process::exit(2);
    };
    let (base_report, cur_report) = (load(&baseline), load(&current));
    let outcome = diff(&base_report, &cur_report, max_regress);
    for note in &outcome.notes {
        println!("note: {note}");
    }
    // Warm-cache tier, when the suite carries one: the shared-cache hit
    // rate of the repeated-serve workload, straight from the counters.
    let c = &cur_report.counters;
    if let (Some(&hits), Some(&pf_hits), Some(&misses)) = (
        c.get("rwp/cache/hits"),
        c.get("rwp/cache/prefetch_hits"),
        c.get("rwp/cache/misses"),
    ) {
        let total = hits + pf_hits + misses;
        if total > 0 {
            println!(
                "cache: {:.1}% hit rate ({} hits + {} prefetch hits / {} lookups)",
                100.0 * (hits + pf_hits) as f64 / total as f64,
                hits,
                pf_hits,
                total
            );
        }
    }
    if outcome.improved + outcome.new_counters > 0 {
        println!(
            "summary: {} improvement(s), {} new counter(s) \
             (regenerate the baseline to lock improvements in)",
            outcome.improved, outcome.new_counters
        );
    }
    if outcome.passed() {
        println!(
            "perf gate PASSED: no counter above the {:.1}% tolerance ({baseline} vs {current})",
            100.0 * max_regress
        );
    } else {
        for v in &outcome.violations {
            println!("REGRESSION: {v}");
        }
        println!(
            "perf gate FAILED: {} violation(s). If this change is intentional, regenerate the \
             baseline with `cargo run --release -p reach_bench --bin bench_perf -- \
             --out=BENCH_quick.json` and explain the regression in the PR.",
            outcome.violations.len()
        );
        std::process::exit(1);
    }
}
