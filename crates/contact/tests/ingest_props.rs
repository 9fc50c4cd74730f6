//! Ingestion round-trip properties: serializing a contact network to either
//! trace format and re-ingesting it must reproduce the *exact* reduced DAG —
//! the loaders' correctness contract (ISSUE 3 acceptance criterion).

use proptest::prelude::*;
use reach_contact::ingest::{embed, write_events, write_intervals, EMBED_THRESHOLD};
use reach_contact::{ContactTrace, DnGraph, IngestError, IngestOptions};
use reach_core::{ContactAccumulator, ContactEvent, ObjectId, Time};

/// Random event script: `script[t]` = pairs in contact at tick `t`.
fn script_strategy(
    max_objects: usize,
    max_horizon: usize,
) -> impl Strategy<Value = (usize, Vec<Vec<(u32, u32)>>)> {
    (2..=max_objects, 1..=max_horizon).prop_flat_map(move |(n, h)| {
        let pair = (0..n as u32, 0..n as u32)
            .prop_filter_map("distinct", |(a, b)| (a != b).then(|| (a.min(b), a.max(b))));
        let tick = prop::collection::vec(pair, 0..4);
        prop::collection::vec(tick, h).prop_map(move |script| (n, script))
    })
}

fn trace_of_script(n: usize, script: &[Vec<(u32, u32)>]) -> ContactTrace {
    let mut acc = ContactAccumulator::new();
    for (t, pairs) in script.iter().enumerate() {
        for &(a, b) in pairs {
            acc.push(ContactEvent::new(t as Time, ObjectId(a), ObjectId(b)));
        }
    }
    ContactTrace::from_parts(n, script.len() as Time, acc.finish()).expect("script fits universe")
}

fn assert_same_dn(a: &DnGraph, b: &DnGraph, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.num_objects(), b.num_objects(), "{}: |O|", what);
    prop_assert_eq!(a.horizon(), b.horizon(), "{}: |T|", what);
    prop_assert_eq!(a.nodes(), b.nodes(), "{}: nodes", what);
    for v in 0..a.num_nodes() as u32 {
        prop_assert_eq!(a.fwd(v), b.fwd(v), "{}: out-edges of {}", what, v);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// write_events ∘ load and write_intervals ∘ load are both DN-identity.
    #[test]
    fn serialized_traces_rebuild_the_same_dn((n, script) in script_strategy(6, 20)) {
        let h = script.len() as Time;
        let reference = DnGraph::build_from_ticks(n, h, |t| script[t as usize].as_slice());
        reference.validate().map_err(TestCaseError::fail)?;
        let trace = trace_of_script(n, &script);
        assert_same_dn(&reference, &trace.build_dn(), "from_parts")?;

        let mut events = Vec::new();
        write_events(&trace, &mut events).expect("in-memory write");
        let back = ContactTrace::parse(std::str::from_utf8(&events).unwrap(), &IngestOptions::default())
            .expect("events re-ingest");
        prop_assert_eq!(back.contacts(), trace.contacts());
        assert_same_dn(&reference, &back.build_dn(), "events round trip")?;

        let mut intervals = Vec::new();
        write_intervals(&trace, &mut intervals).expect("in-memory write");
        let back = ContactTrace::parse(std::str::from_utf8(&intervals).unwrap(), &IngestOptions::default())
            .expect("intervals re-ingest");
        prop_assert_eq!(back.contacts(), trace.contacts());
        assert_same_dn(&reference, &back.build_dn(), "intervals round trip")?;
    }

    /// The component-colocation embedding preserves the DN exactly: building
    /// from the embedded trajectories through the full §4 spatial join gives
    /// the same DAG as the event-direct path.
    #[test]
    fn embedding_preserves_the_dn((n, script) in script_strategy(5, 12)) {
        let trace = trace_of_script(n, &script);
        let direct = trace.build_dn();
        let via_store = DnGraph::build(&embed(&trace), EMBED_THRESHOLD);
        via_store.validate().map_err(TestCaseError::fail)?;
        assert_same_dn(&direct, &via_store, "embedding")?;
    }

    /// Lossy ingestion of a clean trace skips nothing and strict ingestion
    /// of a dirtied trace pinpoints the first bad line.
    #[test]
    fn lossy_and_strict_agree_on_clean_input((n, script) in script_strategy(5, 10)) {
        let trace = trace_of_script(n, &script);
        let mut buf = Vec::new();
        write_events(&trace, &mut buf).expect("in-memory write");
        let text = String::from_utf8(buf).unwrap();
        let lossy = ContactTrace::parse(&text, &IngestOptions::lossy()).expect("clean trace");
        prop_assert_eq!(lossy.skipped(), 0);
        prop_assert_eq!(lossy.contacts(), trace.contacts());

        let dirty = format!("{text}garbage line\n");
        let strict = ContactTrace::parse(&dirty, &IngestOptions::default());
        prop_assert!(strict.is_err());
        let lossy = ContactTrace::parse(&dirty, &IngestOptions::lossy()).expect("lossy survives");
        prop_assert_eq!(lossy.skipped(), 1);
        prop_assert_eq!(lossy.contacts(), trace.contacts());
    }

    /// Strict mode reports the earliest failing line, whichever check
    /// fails it: a self-contact (rejected by normalization) on a random
    /// line of a written trace wins over an unparsable line after it.
    #[test]
    fn strict_reports_the_earliest_failing_line(
        (n, script) in script_strategy(5, 10),
        at in 0usize..1000,
        gap in 0usize..1000,
    ) {
        let trace = trace_of_script(n, &script);
        let mut buf = Vec::new();
        write_events(&trace, &mut buf).expect("in-memory write");
        let mut lines: Vec<String> =
            String::from_utf8(buf).unwrap().lines().map(String::from).collect();
        let self_contact = at % (lines.len() + 1);
        lines.insert(self_contact, "0 0 0".to_string());
        let garbage = self_contact + 1 + gap % (lines.len() - self_contact);
        lines.insert(garbage, "garbage line".to_string());
        let text = lines.join("\n") + "\n";
        match ContactTrace::parse(&text, &IngestOptions::default()) {
            Err(IngestError::Parse { line, .. }) => {
                prop_assert_eq!(line, self_contact as u64 + 1, "trace:\n{}", text);
            }
            other => prop_assert!(false, "expected a parse error, got {:?}", other),
        }
    }
}
