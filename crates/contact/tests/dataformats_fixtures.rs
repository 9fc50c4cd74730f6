//! The worked examples of `DATAFORMATS.md`, parsed verbatim as fixtures.
//!
//! Every fenced block tagged ```` ```trace ```` in the document is extracted
//! and fed to the loader; the assertions below mirror the tables printed
//! next to each example. If the document and the parsers drift apart, this
//! test fails — the format contract is executable.

use reach_contact::{ContactTrace, IngestOptions, Oracle};
use reach_core::{ObjectId, Query, TimeInterval};

const DOC: &str = include_str!("../../../DATAFORMATS.md");

/// Extracts the contents of every ```` ```trace ```` fenced block, in order.
fn trace_blocks() -> Vec<String> {
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in DOC.lines() {
        match &mut current {
            None if line.trim() == "```trace" => current = Some(String::new()),
            None => {}
            Some(buf) => {
                if line.trim() == "```" {
                    blocks.push(current.take().expect("block open"));
                } else {
                    buf.push_str(line);
                    buf.push('\n');
                }
            }
        }
    }
    assert!(current.is_none(), "unterminated ```trace block");
    blocks
}

fn contact(trace: &ContactTrace, i: usize) -> (u32, u32, TimeInterval) {
    let c = trace.contacts()[i];
    (c.a.0, c.b.0, c.interval)
}

#[test]
fn document_has_exactly_two_worked_examples() {
    assert_eq!(trace_blocks().len(), 2);
}

#[test]
fn example_1_is_the_papers_figure_1() {
    let text = &trace_blocks()[0];
    let trace = ContactTrace::parse(text, &IngestOptions::default()).expect("example 1 parses");
    assert_eq!(trace.num_objects(), 4);
    assert_eq!(trace.horizon(), 4);
    assert_eq!(trace.skipped(), 0);
    assert!(trace.numeric_identity());
    // The paper's four contacts c1..c4, sorted by (start, a, b).
    assert_eq!(trace.contacts().len(), 4);
    assert_eq!(contact(&trace, 0), (0, 1, TimeInterval::new(0, 0)));
    assert_eq!(contact(&trace, 1), (1, 3, TimeInterval::new(1, 1)));
    assert_eq!(contact(&trace, 2), (2, 3, TimeInterval::new(1, 2)));
    assert_eq!(contact(&trace, 3), (0, 1, TimeInterval::new(2, 3)));
    // The running reachability example: o4 from o1 during [0,1], not vice
    // versa — checked on the DN-backed oracle events and the DN itself.
    let dn = trace.build_dn();
    dn.validate().expect("valid DN");
    assert_eq!(dn.num_nodes(), 9, "the Figure 4/5 reduction");
    let oracle = Oracle::from_contacts(trace.num_objects(), trace.horizon(), trace.contacts());
    let q = |s: u32, d: u32| Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(0, 1));
    assert!(oracle.evaluate(&q(0, 3)).reachable);
    assert!(!oracle.evaluate(&q(3, 0)).reachable);
}

#[test]
fn example_2_scales_time_and_merges_abutting_records() {
    let text = &trace_blocks()[1];
    let trace = ContactTrace::parse(text, &IngestOptions::default()).expect("example 2 parses");
    assert_eq!(trace.num_objects(), 4);
    assert_eq!(trace.horizon(), 8);
    assert_eq!(trace.records(), 4);
    // Lexicographic dense mapping.
    assert_eq!(trace.label(ObjectId(0)), "alice");
    assert_eq!(trace.label(ObjectId(1)), "bob");
    assert_eq!(trace.label(ObjectId(2)), "carol");
    assert_eq!(trace.label(ObjectId(3)), "dave");
    // Three contacts after the alice–bob merge.
    assert_eq!(trace.contacts().len(), 3);
    assert_eq!(contact(&trace, 0), (0, 1, TimeInterval::new(0, 4)));
    assert_eq!(contact(&trace, 1), (1, 2, TimeInterval::new(5, 7)));
    assert_eq!(contact(&trace, 2), (2, 3, TimeInterval::new(6, 6)));
    // dave reachable from alice over [0,7]; not the other way.
    let oracle = Oracle::from_contacts(4, trace.horizon(), trace.contacts());
    let alice = trace.resolve("alice").unwrap();
    let dave = trace.resolve("dave").unwrap();
    let window = TimeInterval::new(0, 7);
    assert!(oracle.evaluate(&Query::new(alice, dave, window)).reachable);
    assert!(!oracle.evaluate(&Query::new(dave, alice, window)).reachable);
}
