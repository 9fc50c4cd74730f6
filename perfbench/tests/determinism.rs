//! Self-tests of the benchmark: counted metrics repeat exactly for a seed,
//! and the metric catalogue matches `BENCHMARK.json`.

use perfbench::layers::{END_TO_END, PER_LAYER};
use perfbench::report::Outcome;

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .value
}

#[test]
fn counted_metrics_repeat_exactly_for_a_seed() {
    for workload in ["graph_cold", "grid_cold"] {
        // The shortest run: minimum rounds, no time target.
        let first = perfbench::run(workload, 5, 1e-3, false).expect("known workload");
        let second = perfbench::run(workload, 5, 1e-3, false).expect("known workload");
        for name in [
            "norm_io_per_query",
            "index_bytes_per_contact",
            "verified_frac",
        ] {
            assert_eq!(
                value(&first, name),
                value(&second, name),
                "{workload} {name} differs between two runs of seed 5"
            );
        }
        assert_eq!(value(&first, "verified_frac"), 1.0, "{workload} answers");
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json: String = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists metrics the benchmark does not report"
    );
    for workload in perfbench::WORKLOADS {
        assert!(json.contains(&format!("\"name\":\"{workload}\",\"why\":")));
    }
}
