//! Live/batch ingestion agreement: one numeric feed, dirty lines included,
//! drained through `ShardedLive::append_source` and loaded by
//! `ContactTrace::parse` with the same origin and time scale, must accept
//! the same contacts and skip the same lines in lossy mode, and fail on the
//! same line in strict mode. Both paths convert a raw record through the one
//! `RecordMap`, so a drift in either shows here.

use proptest::prelude::*;
use reach_contact::ingest::{
    ContactSource, ContactTrace, EdgeListSource, IngestError, IngestOptions,
};
use reach_core::Contact;
use reach_graph::GraphParams;
use reach_live::{LiveConfig, LiveError, ShardedLive};
use reach_storage::BuildBudget;

/// Universe of the live index; clean record `i` uses the pair
/// `(2i, 2i + 1)`, so no two accepted records merge.
const OBJECTS: usize = 32;
const MAX_CLEAN: usize = 12;

/// The dirty line of kind `kind`, for a feed rebased at `origin` and
/// scaled by `scale`, and whether it is the self-contact (the one failure
/// the live path reports without a line number).
fn dirty_line(kind: usize, origin: u64, scale: u64) -> (String, bool) {
    match kind {
        0 => (format!("alice 1 {origin}"), false),
        1 => (format!("0 1 {}", origin - 1), false),
        2 => (format!("3 3 {origin}"), true),
        3 => ("0 1".to_string(), false),
        _ => {
            let past = origin + scale * (u64::from(u32::MAX) + 1);
            (format!("0 1 {past}"), false)
        }
    }
}

const DIRTY_KINDS: usize = 5;

/// `(origin, scale, clean records as (offset, duration), insertion point of
/// each dirty kind)`; a duration of 0 writes no duration column.
fn feed_strategy() -> impl Strategy<Value = (u64, u64, Vec<(u64, u64)>, Vec<usize>)> {
    (1u64..200, 1u64..=20, 1..=MAX_CLEAN).prop_flat_map(|(origin, scale, clean)| {
        let records = prop::collection::vec((0u64..400, 0u64..4), clean);
        let points = prop::collection::vec(0..=clean, DIRTY_KINDS);
        (records, points).prop_map(move |(records, points)| (origin, scale, records, points))
    })
}

/// The feed text and the 1-based line of its self-contact.
fn feed_of(origin: u64, scale: u64, records: &[(u64, u64)], points: &[usize]) -> (String, u64) {
    let mut lines = Vec::new();
    let mut self_contact_line = 0;
    for i in 0..=records.len() {
        for (kind, _) in points.iter().enumerate().filter(|&(_, &p)| p == i) {
            let (line, is_self_contact) = dirty_line(kind, origin, scale);
            lines.push(line);
            if is_self_contact {
                self_contact_line = lines.len() as u64;
            }
        }
        if let Some(&(offset, duration)) = records.get(i) {
            let (a, t) = (2 * i, origin + offset);
            lines.push(match duration {
                0 => format!("{a} {} {t}", a + 1),
                d => format!("{a} {} {t} {d}", a + 1),
            });
        }
    }
    (lines.join("\n") + "\n", self_contact_line)
}

fn live_index(config: LiveConfig) -> ShardedLive {
    config
        .manual_compaction()
        .builder()
        .build_sharded(OBJECTS)
        .expect("live index creates")
}

fn graph_config() -> LiveConfig {
    LiveConfig::graph(GraphParams::default(), BuildBudget::bytes(1 << 20))
}

fn batch_options(base: IngestOptions, origin: u64, scale: u64) -> IngestOptions {
    base.with_origin(origin)
        .with_time_scale(scale)
        .with_numeric_ids(true)
}

fn sorted(mut contacts: Vec<Contact>) -> Vec<Contact> {
    contacts.sort_unstable_by_key(|c| (c.interval.start, c.a, c.b, c.interval.end));
    contacts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn append_source_and_batch_load_agree((origin, scale, records, points) in feed_strategy()) {
        let (text, self_contact_line) = feed_of(origin, scale, &records, &points);

        // Lossy: the same accepted contacts and the same skips.
        let live = live_index(graph_config());
        let report = live
            .append_source(EdgeListSource::new(text.as_bytes()), origin, scale)
            .expect("lossy feed drains");
        let batch = ContactTrace::parse(&text, &batch_options(IngestOptions::lossy(), origin, scale))
            .expect("lossy load succeeds");
        let accepted = sorted(live.replay_log().expect("log replays"));
        prop_assert_eq!(accepted.as_slice(), batch.contacts(), "feed:\n{}", text);
        prop_assert_eq!(report.appended, records.len() as u64);
        prop_assert_eq!(report.skipped, batch.skipped(), "feed:\n{}", text);
        prop_assert_eq!(batch.skipped(), DIRTY_KINDS as u64);

        // Strict: both stop at the same, earliest dirty line.
        let live = live_index(graph_config().strict());
        let live_line = match live.append_source(EdgeListSource::new(text.as_bytes()), origin, scale) {
            Err(LiveError::Ingest(IngestError::Parse { line, .. })) => line,
            Err(LiveError::SelfContact(_)) => self_contact_line,
            other => return Err(TestCaseError::fail(format!("live strict: {other:?}"))),
        };
        let batch_line = match ContactTrace::parse(&text, &batch_options(IngestOptions::strict(), origin, scale)) {
            Err(IngestError::Parse { line, .. }) => line,
            other => return Err(TestCaseError::fail(format!("batch strict: {other:?}"))),
        };
        prop_assert_eq!(live_line, batch_line, "feed:\n{}", text);
    }
}

/// A reader whose first `failures` reads fail, then reports end of input.
struct FailingReader {
    failures: u32,
}

impl std::io::Read for FailingReader {
    fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
        if self.failures == 0 {
            return Ok(0);
        }
        self.failures -= 1;
        Err(std::io::Error::other("device gone"))
    }
}

fn failing_source() -> EdgeListSource<std::io::BufReader<FailingReader>> {
    EdgeListSource::new(std::io::BufReader::new(FailingReader { failures: 1000 }))
}

#[test]
fn a_failing_reader_ends_the_drain_in_both_modes() {
    for options in [IngestOptions::lossy(), IngestOptions::strict()] {
        let batch = ContactTrace::load(failing_source(), &options);
        assert!(
            matches!(batch, Err(IngestError::Io(_))),
            "{options:?}: {batch:?}"
        );
    }
    for config in [graph_config(), graph_config().strict()] {
        let live = live_index(config).append_source(failing_source(), 0, 1);
        assert!(
            matches!(live, Err(LiveError::Ingest(IngestError::Io(_)))),
            "{live:?}"
        );
    }
}

#[test]
fn a_line_that_is_not_utf8_is_one_malformed_line() {
    let feed: &[u8] = b"0 1 5\n\xff\n2 3 7\nbad\n";
    let mut source = EdgeListSource::new(feed);
    let lines: Vec<Result<u64, u64>> = std::iter::from_fn(|| source.next_record())
        .map(|r| match r {
            Ok(rec) => Ok(rec.line),
            Err(IngestError::Parse { line, .. }) => Err(line),
            Err(e) => panic!("{e}"),
        })
        .collect();
    assert_eq!(lines, [Ok(1), Err(2), Ok(3), Err(4)]);

    let options = batch_options(IngestOptions::lossy(), 0, 1);
    let batch = ContactTrace::load(EdgeListSource::new(feed), &options).unwrap();
    assert_eq!((batch.records(), batch.skipped()), (2, 2));
    let report = live_index(graph_config())
        .append_source(EdgeListSource::new(feed), 0, 1)
        .unwrap();
    assert_eq!((report.appended, report.skipped), (2, 2));

    let options = batch_options(IngestOptions::strict(), 0, 1);
    let batch = ContactTrace::load(EdgeListSource::new(feed), &options);
    assert!(
        matches!(batch, Err(IngestError::Parse { line: 2, .. })),
        "{batch:?}"
    );
    let live = live_index(graph_config().strict()).append_source(EdgeListSource::new(feed), 0, 1);
    assert!(
        matches!(
            live,
            Err(LiveError::Ingest(IngestError::Parse { line: 2, .. }))
        ),
        "{live:?}"
    );
}
