//! Contact-trace ingestion: loaders for *real* contact datasets.
//!
//! The paper evaluates on contact networks extracted from trajectories, but
//! the public contact datasets used by follow-up work (Ali et al., *An
//! Efficient Index for Contact Tracing Query*; Brito et al., *Timed
//! Transitive Closures on Disk*) arrive as **timestamped edge lists** — there
//! are no trajectories to join. This module closes that gap: it parses the
//! two dominant text formats into a normalized [`ContactTrace`], from which
//! the reduced DAG is built *event-directly* via [`DnGraph::from_contacts`],
//! bypassing `TrajectoryStore` and the spatial join of §4 entirely.
//!
//! The pieces, in pipeline order:
//!
//! * [`ContactSource`] — anything that yields raw contact records
//!   ([`RawRecord`]) plus the [`Directives`] it saw;
//! * [`EdgeListSource`] — whitespace/CSV temporal edge lists
//!   `u v t [duration]` (SNAP style) or `t u v` (SocioPatterns style);
//! * [`IntervalSource`] — interval contact records `u v start end`;
//! * [`RecordMap`] — the one raw-record conversion (time rebasing and
//!   scaling, numeric ids), shared with the live engine's `append_source`;
//! * [`ContactTrace::load`] — normalization: id mapping, time rebasing and
//!   scaling, merging into maximal [`Contact`]s, universe/horizon
//!   resolution, with [`ErrorMode::Strict`] (the earliest malformed line
//!   aborts with its line number) or [`ErrorMode::Lossy`] (malformed lines
//!   are skipped and counted) semantics;
//! * [`write_events`] / [`write_intervals`] — the synthetic-trace writers
//!   that make round-trip testing (and CI without network access) possible;
//! * [`embed`] — a component-colocation embedding of a trace into a
//!   [`TrajectoryStore`](reach_traj::TrajectoryStore), so the
//!   trajectory-based index (ReachGrid, §4.1) can answer queries over traces
//!   too.
//!
//! The on-disk format contract — field order, units, comment and directive
//! rules, and how records map to [`Contact`]s — lives in `DATAFORMATS.md` at
//! the repository root; its worked examples are parsed verbatim as test
//! fixtures.

mod edge_list;
mod embed_impl;
mod intervals;
mod writer;

pub use edge_list::EdgeListSource;
pub use embed_impl::{embed, EMBED_SPACING, EMBED_THRESHOLD};
pub use intervals::IntervalSource;
pub use writer::{write_events, write_intervals};

use crate::dag::DnGraph;
use reach_core::{Contact, ObjectId, Time, TimeInterval};
use std::collections::HashMap;
use std::fmt;
use std::io::BufRead;
use std::path::Path;

/// Errors surfaced while ingesting a contact trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// An operating-system IO failure while reading the source.
    Io(String),
    /// One malformed line, with its 1-based line number.
    Parse {
        /// 1-based line number in the source.
        line: u64,
        /// What was wrong with the line.
        msg: String,
    },
    /// The trace as a whole contradicts itself or its declared metadata
    /// (e.g. an id beyond the declared universe, an event past the declared
    /// horizon).
    Inconsistent(String),
}

impl IngestError {
    /// A per-line parse error (1-based line number). Public so custom
    /// [`ContactSource`] implementations — and the live append path — can
    /// report record problems in the standard shape.
    pub fn parse(line: u64, msg: impl Into<String>) -> Self {
        IngestError::Parse {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(msg) => write!(f, "trace IO failure: {msg}"),
            IngestError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            IngestError::Inconsistent(msg) => write!(f, "inconsistent trace: {msg}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// What to do with malformed lines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ErrorMode {
    /// Abort on the first malformed line, reporting its line number.
    #[default]
    Strict,
    /// Skip malformed lines (and records that fail normalization), counting
    /// them in [`ContactTrace::skipped`].
    Lossy,
}

/// The two trace layouts this module parses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Temporal edge list: one (possibly instantaneous) contact per line,
    /// `u v t [duration]`.
    Events,
    /// Interval contact records: `u v start end` (both ends inclusive).
    Intervals,
}

/// Metadata declared by `#!` directive lines inside a trace (all optional).
///
/// Directives make bare edge lists self-describing: a trace that names its
/// universe and horizon round-trips to the *exact* same DN, including
/// objects that never appear in any contact and silent ticks after the last
/// event. See `DATAFORMATS.md` for the syntax.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Directives {
    /// `kind=events|intervals` — layout of the data lines.
    pub kind: Option<TraceKind>,
    /// `cols=uvt|tuv` — edge-list column order (`tuv` = SocioPatterns
    /// time-first).
    pub time_first: Option<bool>,
    /// `ids=numeric|dense` — id-mapping policy (see [`ContactTrace::load`]).
    pub ids_numeric: Option<bool>,
    /// `num_objects=N` — universe size `|O|`.
    pub num_objects: Option<usize>,
    /// `horizon=H` — horizon in **ticks** (after time scaling).
    pub horizon: Option<Time>,
    /// `origin=T` — raw timestamp mapped to tick 0.
    pub origin: Option<u64>,
    /// `time_scale=S` — raw time units per tick.
    pub time_scale: Option<u64>,
}

impl Directives {
    /// Parses the payload of one `#!` line (everything after `#!`),
    /// merging recognized `key=value` tokens into `self`. Unknown keys and
    /// bare tokens (e.g. the `streach-trace v1` banner) are ignored for
    /// forward compatibility; recognized keys with unparsable values are
    /// errors.
    pub fn apply(&mut self, line: u64, payload: &str) -> Result<(), IngestError> {
        for token in payload.split_whitespace() {
            let Some((key, value)) = token.split_once('=') else {
                continue;
            };
            let bad = |what: &str| {
                IngestError::parse(line, format!("directive {key}={value}: expected {what}"))
            };
            match key {
                "kind" => {
                    self.kind = Some(match value {
                        "events" => TraceKind::Events,
                        "intervals" => TraceKind::Intervals,
                        _ => return Err(bad("events|intervals")),
                    })
                }
                "cols" => {
                    self.time_first = Some(match value {
                        "uvt" => false,
                        "tuv" => true,
                        _ => return Err(bad("uvt|tuv")),
                    })
                }
                "ids" => {
                    self.ids_numeric = Some(match value {
                        "numeric" => true,
                        "dense" => false,
                        _ => return Err(bad("numeric|dense")),
                    })
                }
                "num_objects" => {
                    self.num_objects = Some(value.parse().map_err(|_| bad("a count"))?)
                }
                "horizon" => self.horizon = Some(value.parse().map_err(|_| bad("ticks"))?),
                "origin" => self.origin = Some(value.parse().map_err(|_| bad("a timestamp"))?),
                "time_scale" => {
                    self.time_scale = Some(value.parse().map_err(|_| bad("time units"))?)
                }
                _ => {} // unknown directive keys are reserved, not errors
            }
        }
        Ok(())
    }
}

/// One raw contact record in *source* units: ids as textual labels, times as
/// raw (unscaled, unrebased) timestamps, both ends inclusive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawRecord {
    /// 1-based source line the record came from (for error reporting).
    pub line: u64,
    /// First endpoint label, verbatim.
    pub u: String,
    /// Second endpoint label, verbatim.
    pub v: String,
    /// Raw start timestamp.
    pub start: u64,
    /// Raw end timestamp (inclusive; equals `start` for instantaneous
    /// events).
    pub end: u64,
}

/// A producer of raw contact records — the parser half of the ingestion
/// pipeline. Implemented by [`EdgeListSource`] and [`IntervalSource`];
/// implement it yourself to ingest from anything else (a database cursor, a
/// binary log, a network stream).
///
/// Per-record errors are reported inline so [`ContactTrace::load`] can apply
/// [`ErrorMode`] semantics: `Strict` aborts on the first `Err`, `Lossy`
/// counts and skips it.
pub trait ContactSource {
    /// The next record, `None` at end of input.
    fn next_record(&mut self) -> Option<Result<RawRecord, IngestError>>;

    /// The `#!` directives seen so far. Called after the source is drained,
    /// so directives may appear anywhere in the file.
    fn directives(&self) -> Directives;

    /// Short human name for error messages.
    fn name(&self) -> &'static str {
        "contact source"
    }
}

/// Knobs for [`ContactTrace::load`]. Every `Option` field overrides the
/// corresponding trace directive when set; unset fields fall back to the
/// directive, then to the documented default.
#[derive(Clone, Debug, Default)]
pub struct IngestOptions {
    /// Malformed-line handling (default: [`ErrorMode::Strict`]).
    pub mode: ErrorMode,
    /// Force the trace layout (needed by [`ContactTrace::load_path`] when
    /// the file has no `kind=` directive and is not an edge list).
    pub kind: Option<TraceKind>,
    /// Force the edge-list column order: `true` = SocioPatterns `t i j`
    /// (directive `cols=tuv`), `false` = `u v t [duration]` (default).
    pub time_first: Option<bool>,
    /// Raw time units per tick (directive `time_scale`, default 1).
    pub time_scale: Option<u64>,
    /// Raw timestamp mapped to tick 0 (directive `origin`, default: the
    /// smallest timestamp in the trace).
    pub origin: Option<u64>,
    /// Universe size `|O|` (directive `num_objects`, default: observed).
    pub num_objects: Option<usize>,
    /// Horizon in ticks (directive `horizon`, default: last event tick + 1).
    pub horizon: Option<Time>,
    /// Id policy: `true` = labels are the dense ids themselves, `false` =
    /// labels are mapped to dense ids in sorted order (directive `ids`,
    /// default `false`).
    pub numeric_ids: Option<bool>,
}

impl IngestOptions {
    /// Strict options with every override unset — the right default for
    /// curated files.
    pub fn strict() -> Self {
        Self::default()
    }

    /// Lossy options: malformed lines are skipped and counted.
    pub fn lossy() -> Self {
        Self {
            mode: ErrorMode::Lossy,
            ..Self::default()
        }
    }

    /// Forces the trace layout.
    pub fn with_kind(mut self, kind: TraceKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Selects the SocioPatterns `t i j` edge-list column order (equivalent
    /// to a `cols=tuv` directive in the file).
    pub fn sociopatterns(mut self) -> Self {
        self.time_first = Some(true);
        self
    }

    /// Sets raw time units per tick.
    pub fn with_time_scale(mut self, scale: u64) -> Self {
        self.time_scale = Some(scale);
        self
    }

    /// Sets the raw timestamp mapped to tick 0.
    pub fn with_origin(mut self, origin: u64) -> Self {
        self.origin = Some(origin);
        self
    }

    /// Selects the id-mapping policy.
    pub fn with_numeric_ids(mut self, numeric: bool) -> Self {
        self.numeric_ids = Some(numeric);
        self
    }
}

/// The one raw-record conversion of the ingestion layer, shared by batch
/// [`ContactTrace::load`] and the live engine's `append_source`:
/// `tick = (raw − origin) / time_scale` (floor division), with timestamps
/// before the origin and ticks past the [`Time`] range rejected as per-line
/// errors, and — under the numeric id policy — a label *is* its dense id.
/// Self-contacts are left to the caller, which reports them in its own
/// shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordMap {
    origin: u64,
    time_scale: u64,
}

impl RecordMap {
    /// Rebases raw timestamps at `origin` and buckets `time_scale` raw
    /// units per tick; a zero scale is [`IngestError::Inconsistent`].
    pub fn new(origin: u64, time_scale: u64) -> Result<Self, IngestError> {
        if time_scale == 0 {
            return Err(IngestError::Inconsistent("time_scale must be ≥ 1".into()));
        }
        Ok(Self { origin, time_scale })
    }

    /// The tick interval of the inclusive raw interval `[start, end]` read
    /// from source line `line`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`, which [`RawRecord`] rules out (the
    /// built-in sources reject reversed intervals as malformed lines).
    pub fn interval(&self, line: u64, start: u64, end: u64) -> Result<TimeInterval, IngestError> {
        if start < self.origin {
            return Err(IngestError::parse(
                line,
                format!("timestamp {start} precedes the origin {}", self.origin),
            ));
        }
        let tick = |raw: u64| {
            Time::try_from((raw - self.origin) / self.time_scale).map_err(|_| {
                IngestError::parse(line, format!("timestamp {raw} overflows the tick range"))
            })
        };
        Ok(TimeInterval::new(tick(start)?, tick(end)?))
    }

    /// Converts a record whose labels are numeric ids into its endpoints
    /// (in source order, possibly equal) and tick interval.
    pub fn numeric(
        &self,
        line: u64,
        u: &str,
        v: &str,
        start: u64,
        end: u64,
    ) -> Result<(u32, u32, TimeInterval), IngestError> {
        let id = |label: &str| {
            label.parse::<u32>().map_err(|_| {
                IngestError::parse(line, format!("id {label:?} is not numeric (ids=numeric)"))
            })
        };
        Ok((id(u)?, id(v)?, self.interval(line, start, end)?))
    }
}

/// First-seen-order string interner: a pending record stores two `u32`s
/// instead of two heap strings.
#[derive(Default)]
struct Interner {
    map: HashMap<String, u32>,
    labels: Vec<String>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.map.get(s) {
            return i;
        }
        let i = self.labels.len() as u32;
        self.map.insert(s.to_string(), i);
        self.labels.push(s.to_string());
        i
    }
}

/// One compact pending record: interned labels, raw times, source line.
struct Pending {
    line: u64,
    a: u32,
    b: u32,
    start: u64,
    end: u64,
}

/// A normalized contact dataset: dense object ids, tick times, maximal
/// per-pair contact intervals sorted by `(start, a, b)` — exactly the
/// invariants [`extract_contacts`](crate::extract::extract_contacts)
/// guarantees for trajectory datasets, so everything downstream of the
/// contact network treats loaded traces and extracted networks identically.
#[derive(Clone, PartialEq)]
pub struct ContactTrace {
    contacts: Vec<Contact>,
    labels: Vec<String>,
    num_objects: usize,
    horizon: Time,
    records: u64,
    skipped: u64,
}

impl fmt::Debug for ContactTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContactTrace")
            .field("num_objects", &self.num_objects)
            .field("horizon", &self.horizon)
            .field("contacts", &self.contacts.len())
            .field("records", &self.records)
            .field("skipped", &self.skipped)
            .finish()
    }
}

impl ContactTrace {
    /// Drains `source` in a single pass and normalizes its records into a
    /// trace.
    ///
    /// Normalization steps, in order:
    ///
    /// 1. **Drain** — records are kept as interned labels and raw
    ///    timestamps (never as [`RawRecord`]s), because `#!` directives may
    ///    appear anywhere and decide how every record is read. A line the
    ///    source cannot parse is counted and skipped ([`ErrorMode::Lossy`])
    ///    or ends the drain ([`ErrorMode::Strict`]); a failed read
    ///    ([`IngestError::Io`]) ends it in both modes.
    /// 2. **Resolution** — origin, time scale and id policy come from the
    ///    options, then the directives, then the defaults (the smallest
    ///    timestamp, 1, dense).
    /// 3. **Conversion** — every record goes through one [`RecordMap`]:
    ///    `tick = (raw − origin) / time_scale`, records before the origin
    ///    are malformed; numeric policy: a label *is* its dense id. A
    ///    self-contact is malformed. In strict mode the earliest failing
    ///    line wins, whether the source could not parse it or the
    ///    conversion rejected it.
    /// 4. **Id mapping** — dense policy: distinct labels of the surviving
    ///    records are sorted (numerically when every label is a number,
    ///    else lexicographically) and numbered `0..`.
    /// 5. **Merge** — overlapping or abutting records of one pair fuse into
    ///    maximal [`Contact`]s (the paper's §3.1 contact definition; two
    ///    meetings separated by a gap stay distinct).
    /// 6. **Universe/horizon resolution** — declared values (options, then
    ///    directives) must cover the observed data, and extend it with
    ///    silent objects/ticks when larger.
    pub fn load<S: ContactSource>(
        mut source: S,
        options: &IngestOptions,
    ) -> Result<Self, IngestError> {
        let mut interner = Interner::default();
        let mut pending: Vec<Pending> = Vec::new();
        let mut skipped = 0u64;
        let mut source_err = None;
        while let Some(r) = source.next_record() {
            match (r, options.mode) {
                (Ok(rec), _) => pending.push(Pending {
                    line: rec.line,
                    a: interner.intern(&rec.u),
                    b: interner.intern(&rec.v),
                    start: rec.start,
                    end: rec.end,
                }),
                (Err(e @ IngestError::Io(_)), _) | (Err(e), ErrorMode::Strict) => {
                    source_err = Some(e);
                    break;
                }
                (Err(_), ErrorMode::Lossy) => skipped += 1,
            }
        }
        let dir = source.directives();
        let map = RecordMap::new(
            options
                .origin
                .or(dir.origin)
                .or_else(|| pending.iter().map(|r| r.start).min())
                .unwrap_or(0),
            options.time_scale.or(dir.time_scale).unwrap_or(1),
        )?;
        let numeric = options.numeric_ids.or(dir.ids_numeric).unwrap_or(false);

        // Conversion in line order; every pending record precedes the
        // source error, if any, so a failure here is the earlier line. Only
        // surviving records contribute downstream. (Dense ids map distinct
        // labels to distinct ids, so a dense self-contact is interned-id
        // equality; numeric ids compare after parsing — "01" and "1" are
        // the same object.)
        let mut tuples: Vec<(u32, u32, TimeInterval)> = Vec::with_capacity(pending.len());
        for r in &pending {
            let label = |i: u32| interner.labels[i as usize].as_str();
            let converted = if numeric {
                map.numeric(r.line, label(r.a), label(r.b), r.start, r.end)
            } else {
                map.interval(r.line, r.start, r.end)
                    .map(|iv| (r.a, r.b, iv))
            };
            let tuple = converted.and_then(|(a, b, iv)| {
                if a == b {
                    let msg = format!("self-contact of {:?}", label(r.a));
                    Err(IngestError::parse(r.line, msg))
                } else {
                    Ok((a.min(b), a.max(b), iv))
                }
            });
            match (tuple, options.mode) {
                (Ok(t), _) => tuples.push(t),
                (Err(_), ErrorMode::Lossy) => skipped += 1,
                (Err(e), ErrorMode::Strict) => return Err(e),
            }
        }
        if let Some(e) = source_err {
            return Err(e);
        }
        let records = tuples.len() as u64;

        let (mut labels, observed_objects) = if numeric {
            let observed = tuples.iter().map(|&(_, b, _)| b as usize + 1).max();
            (Vec::new(), observed.unwrap_or(0))
        } else {
            let labels = dense_rank(&interner, &mut tuples);
            let observed = labels.len();
            (labels, observed)
        };
        let num_objects = options
            .num_objects
            .or(dir.num_objects)
            .unwrap_or(observed_objects);
        if num_objects < observed_objects {
            return Err(IngestError::Inconsistent(format!(
                "declared num_objects={num_objects} but the trace references {observed_objects} objects"
            )));
        }
        if numeric {
            labels = (0..num_objects).map(|i| i.to_string()).collect();
        } else {
            // Silent extra objects get reserved placeholder labels.
            labels.extend((labels.len()..num_objects).map(|i| format!("#{i}")));
        }

        let observed_horizon = tuples
            .iter()
            .map(|&(_, _, iv)| iv.end + 1)
            .max()
            .unwrap_or(0);
        let horizon = options.horizon.or(dir.horizon).unwrap_or(observed_horizon);
        if horizon < observed_horizon {
            return Err(IngestError::Inconsistent(format!(
                "declared horizon={horizon} but the trace has events up to tick {}",
                observed_horizon - 1
            )));
        }

        Ok(Self {
            contacts: merge_tuples(tuples),
            labels,
            num_objects,
            horizon,
            records,
            skipped,
        })
    }

    /// Loads a trace from a file, sniffing the layout: an explicit
    /// [`IngestOptions::kind`] wins, then a `kind=` directive anywhere in
    /// the file, then the edge-list default (interval files without a
    /// directive need the explicit option).
    pub fn load_path(path: impl AsRef<Path>, options: &IngestOptions) -> Result<Self, IngestError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| IngestError::Io(format!("read {}: {e}", path.display())))?;
        Self::parse(&text, options)
    }

    /// [`ContactTrace::load_path`] over an in-memory string (doctests,
    /// fixtures, tests).
    pub fn parse(text: &str, options: &IngestOptions) -> Result<Self, IngestError> {
        let sniffed = sniff_directives(text);
        let kind = options.kind.or(sniffed.kind).unwrap_or(TraceKind::Events);
        let time_first = options.time_first.or(sniffed.time_first).unwrap_or(false);
        match (kind, time_first) {
            (TraceKind::Events, false) => Self::load(EdgeListSource::new(text.as_bytes()), options),
            (TraceKind::Events, true) => {
                Self::load(EdgeListSource::sociopatterns(text.as_bytes()), options)
            }
            (TraceKind::Intervals, _) => Self::load(IntervalSource::new(text.as_bytes()), options),
        }
    }

    /// Builds a trace directly from in-memory contacts over a known universe
    /// — the bridge from the synthetic generators to the trace writers.
    /// Labels are the decimal ids. Overlapping/abutting contacts of one pair
    /// are merged; ids and intervals must fit the declared universe.
    pub fn from_parts(
        num_objects: usize,
        horizon: Time,
        contacts: impl IntoIterator<Item = Contact>,
    ) -> Result<Self, IngestError> {
        let mut tuples: Vec<(u32, u32, TimeInterval)> = Vec::new();
        for c in contacts {
            if c.a.index() >= num_objects || c.b.index() >= num_objects {
                return Err(IngestError::Inconsistent(format!(
                    "contact {c:?} references an object outside the universe of {num_objects}"
                )));
            }
            if c.interval.end >= horizon {
                return Err(IngestError::Inconsistent(format!(
                    "contact {c:?} extends beyond the horizon {horizon}"
                )));
            }
            tuples.push((c.a.0, c.b.0, c.interval));
        }
        let contacts = merge_tuples(tuples);
        let records = contacts.len() as u64;
        Ok(Self {
            contacts,
            labels: (0..num_objects).map(|i| i.to_string()).collect(),
            num_objects,
            horizon,
            records,
            skipped: 0,
        })
    }

    /// The maximal contacts, sorted by `(interval.start, a, b)`.
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// Universe size `|O|` (including objects that never appear in a
    /// contact).
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Horizon `|T|` in ticks; every contact lies inside `[0, horizon)`.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Raw contact records accepted during loading (before merging).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Lines/records skipped in [`ErrorMode::Lossy`] (always 0 in strict
    /// mode).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Source label of a dense id.
    ///
    /// # Panics
    ///
    /// Panics if `o` is outside the universe.
    pub fn label(&self, o: ObjectId) -> &str {
        &self.labels[o.index()]
    }

    /// Dense id of a source label (linear scan — resolve ids up front, not
    /// per query).
    pub fn resolve(&self, label: &str) -> Option<ObjectId> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| ObjectId(i as u32))
    }

    /// Whether every label is the decimal rendering of its id — the
    /// condition under which [`write_events`]/[`write_intervals`] emit an
    /// `ids=numeric` directive and the trace round-trips exactly.
    pub fn numeric_identity(&self) -> bool {
        self.labels
            .iter()
            .enumerate()
            .all(|(i, l)| l.as_str() == i.to_string())
    }

    /// Builds the reduced contact-network DAG (paper §5.1.2) directly from
    /// the trace — the event-direct path, no trajectories involved.
    pub fn build_dn(&self) -> DnGraph {
        DnGraph::from_contacts(self.num_objects, self.horizon, &self.contacts)
    }

    /// Embeds the trace into a synthetic [`TrajectoryStore`]
    /// (see [`embed`]), enabling the trajectory-based ReachGrid index over
    /// traces.
    ///
    /// [`TrajectoryStore`]: reach_traj::TrajectoryStore
    pub fn to_store(&self) -> reach_traj::TrajectoryStore {
        embed(self)
    }
}

/// Dense-id ranking over the labels of the surviving records: renumbers
/// `tuples` (interned ids in, final dense ids out, each pair ordered) and
/// returns the sorted label list — numerically when every used label
/// parses as a number, lexicographically otherwise.
fn dense_rank(interner: &Interner, tuples: &mut [(u32, u32, TimeInterval)]) -> Vec<String> {
    let mut used = vec![false; interner.labels.len()];
    for &(a, b, _) in tuples.iter() {
        used[a as usize] = true;
        used[b as usize] = true;
    }
    let mut distinct: Vec<&str> = interner
        .labels
        .iter()
        .zip(&used)
        .filter(|&(_, &u)| u)
        .map(|(l, _)| l.as_str())
        .collect();
    distinct.sort_unstable();
    if distinct.iter().all(|l| l.parse::<u64>().is_ok()) {
        distinct.sort_unstable_by_key(|l| l.parse::<u64>().expect("checked numeric"));
    }
    let mut final_of = vec![u32::MAX; interner.labels.len()];
    for (rank, &l) in distinct.iter().enumerate() {
        final_of[interner.map[l] as usize] = rank as u32;
    }
    for (a, b, _) in tuples.iter_mut() {
        let (fa, fb) = (final_of[*a as usize], final_of[*b as usize]);
        (*a, *b) = (fa.min(fb), fa.max(fb));
    }
    distinct.iter().map(|l| l.to_string()).collect()
}

/// Merges per-pair overlapping/abutting intervals into maximal contacts and
/// sorts them the way `extract_contacts` does.
fn merge_tuples(mut tuples: Vec<(u32, u32, TimeInterval)>) -> Vec<Contact> {
    tuples.sort_unstable_by_key(|&(a, b, iv)| (a, b, iv.start, iv.end));
    let mut out: Vec<Contact> = Vec::with_capacity(tuples.len());
    let mut open: Option<(u32, u32, TimeInterval)> = None;
    for (a, b, iv) in tuples {
        match open {
            Some((oa, ob, mut oiv))
                if oa == a && ob == b && iv.start <= oiv.end.saturating_add(1) =>
            {
                oiv.end = oiv.end.max(iv.end);
                open = Some((oa, ob, oiv));
            }
            Some((oa, ob, oiv)) => {
                out.push(Contact::new(ObjectId(oa), ObjectId(ob), oiv));
                open = Some((a, b, iv));
            }
            None => open = Some((a, b, iv)),
        }
    }
    if let Some((a, b, iv)) = open {
        out.push(Contact::new(ObjectId(a), ObjectId(b), iv));
    }
    out.sort_unstable_by_key(|c| (c.interval.start, c.a, c.b, c.interval.end));
    out
}

/// Scans `text` for layout directives (`kind=`, `cols=`) without fully
/// parsing it — they decide which parser to construct before the real load.
fn sniff_directives(text: &str) -> Directives {
    let mut d = Directives::default();
    for line in text.lines() {
        let t = line.trim_start();
        if let Some(payload) = t.strip_prefix("#!") {
            // Sniffing ignores directive errors; load reports them.
            let _ = d.apply(0, payload);
        }
    }
    d
}

/// Shared line scanner: skips blanks and comments, accumulates `#!`
/// directives, splits data lines on whitespace / `,` / `;`. A line that is
/// not UTF-8 is a malformed line; a failed read is an [`IngestError::Io`]
/// that ends the drain in either [`ErrorMode`].
pub(crate) struct LineCursor<R: BufRead> {
    reader: R,
    line: u64,
    buf: Vec<u8>,
    directives: Directives,
}

impl<R: BufRead> LineCursor<R> {
    pub(crate) fn new(reader: R) -> Self {
        Self {
            reader,
            line: 0,
            buf: Vec::new(),
            directives: Directives::default(),
        }
    }

    pub(crate) fn directives(&self) -> Directives {
        self.directives.clone()
    }

    /// The next data line as `(line_number, fields)`, with comment and
    /// directive lines consumed along the way.
    pub(crate) fn next_fields(&mut self) -> Option<Result<(u64, Vec<String>), IngestError>> {
        loop {
            self.buf.clear();
            match self.reader.read_until(b'\n', &mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    return Some(Err(IngestError::Io(format!(
                        "read line {}: {e}",
                        self.line + 1
                    ))))
                }
            }
            self.line += 1;
            let Ok(text) = std::str::from_utf8(&self.buf) else {
                return Some(Err(IngestError::parse(self.line, "line is not UTF-8")));
            };
            let t = text.trim();
            if t.is_empty() {
                continue;
            }
            if let Some(payload) = t.strip_prefix("#!") {
                if let Err(e) = self.directives.apply(self.line, payload) {
                    return Some(Err(e));
                }
                continue;
            }
            if t.starts_with('#') || t.starts_with('%') {
                continue;
            }
            let fields: Vec<String> = t
                .split(|c: char| c.is_whitespace() || c == ',' || c == ';')
                .filter(|f| !f.is_empty())
                .map(String::from)
                .collect();
            return Some(Ok((self.line, fields)));
        }
    }
}

/// Parses one numeric time field.
pub(crate) fn parse_time_field(line: u64, name: &str, field: &str) -> Result<u64, IngestError> {
    field
        .parse::<u64>()
        .map_err(|_| IngestError::parse(line, format!("{name} {field:?} is not a timestamp")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_events_minimal() {
        let trace = ContactTrace::parse("0 1 0\n1 2 1\n", &IngestOptions::default()).unwrap();
        assert_eq!(trace.num_objects(), 3);
        assert_eq!(trace.horizon(), 2);
        assert_eq!(trace.records(), 2);
        assert_eq!(trace.skipped(), 0);
        assert_eq!(trace.contacts().len(), 2);
    }

    #[test]
    fn adjacent_events_merge_into_one_contact() {
        let trace =
            ContactTrace::parse("0 1 0\n0 1 1\n0 1 2\n0 1 5\n", &IngestOptions::default()).unwrap();
        assert_eq!(trace.contacts().len(), 2, "gap at t=3,4 splits the pair");
        assert_eq!(trace.contacts()[0].interval, TimeInterval::new(0, 2));
        assert_eq!(trace.contacts()[1].interval, TimeInterval::new(5, 5));
    }

    #[test]
    fn duration_column_expands_to_interval() {
        let trace = ContactTrace::parse("0 1 3 4\n", &IngestOptions::default()).unwrap();
        assert_eq!(trace.contacts()[0].interval, TimeInterval::new(0, 3));
        // Auto-rebase: first timestamp (3) became tick 0.
        assert_eq!(trace.horizon(), 4);
    }

    #[test]
    fn origin_directive_disables_rebase() {
        let trace = ContactTrace::parse(
            "#! streach-trace origin=0\n0 1 3\n",
            &IngestOptions::default(),
        )
        .unwrap();
        assert_eq!(trace.contacts()[0].interval, TimeInterval::new(3, 3));
        assert_eq!(trace.horizon(), 4);
    }

    #[test]
    fn time_scale_buckets_raw_timestamps() {
        // SocioPatterns-style 20-second sampling: raw 0,20,40 → ticks 0,1,2.
        let text = "#! streach-trace time_scale=20 origin=0\n0 1 0\n0 1 20\n0 1 40\n2 3 45\n";
        let trace = ContactTrace::parse(text, &IngestOptions::default()).unwrap();
        assert_eq!(trace.contacts()[0].interval, TimeInterval::new(0, 2));
        assert_eq!(trace.contacts()[1].interval, TimeInterval::new(2, 2));
    }

    #[test]
    fn dense_ids_sort_numerically_when_possible() {
        let trace = ContactTrace::parse("10 2 0\n2 7 1\n", &IngestOptions::default()).unwrap();
        // labels sorted numerically: 2, 7, 10 → ids 0, 1, 2.
        assert_eq!(trace.label(ObjectId(0)), "2");
        assert_eq!(trace.label(ObjectId(1)), "7");
        assert_eq!(trace.label(ObjectId(2)), "10");
        assert_eq!(trace.resolve("10"), Some(ObjectId(2)));
        assert_eq!(trace.resolve("99"), None);
        assert!(!trace.numeric_identity());
    }

    #[test]
    fn dense_ids_fall_back_to_lexicographic() {
        let trace = ContactTrace::parse("bob alice 0\n", &IngestOptions::default()).unwrap();
        assert_eq!(trace.label(ObjectId(0)), "alice");
        assert_eq!(trace.label(ObjectId(1)), "bob");
    }

    #[test]
    fn numeric_ids_preserve_values_and_holes() {
        let text = "#! streach-trace ids=numeric num_objects=6\n0 4 0\n";
        let trace = ContactTrace::parse(text, &IngestOptions::default()).unwrap();
        assert_eq!(trace.num_objects(), 6);
        assert_eq!(trace.contacts()[0].a, ObjectId(0));
        assert_eq!(trace.contacts()[0].b, ObjectId(4));
        assert!(trace.numeric_identity());
    }

    #[test]
    fn declared_universe_too_small_is_inconsistent() {
        let text = "#! streach-trace ids=numeric num_objects=3\n0 4 0\n";
        let err = ContactTrace::parse(text, &IngestOptions::default()).unwrap_err();
        assert!(matches!(err, IngestError::Inconsistent(_)), "{err}");
    }

    #[test]
    fn declared_horizon_too_small_is_inconsistent() {
        let err = ContactTrace::parse(
            "0 1 9\n",
            &IngestOptions {
                horizon: Some(5),
                ..IngestOptions::default()
            }
            .with_origin(0),
        )
        .unwrap_err();
        assert!(matches!(err, IngestError::Inconsistent(_)), "{err}");
    }

    #[test]
    fn strict_mode_reports_line_numbers() {
        let err = ContactTrace::parse("0 1 0\n\n# fine\n0 1 zz\n", &IngestOptions::default())
            .unwrap_err();
        assert!(matches!(err, IngestError::Parse { line: 4, .. }), "{err}");
        let err = ContactTrace::parse("0 1 0\nbroken\n", &IngestOptions::default()).unwrap_err();
        assert!(matches!(err, IngestError::Parse { line: 2, .. }), "{err}");
        // The earliest failing line wins, whether normalization rejects it
        // (the self-contact on line 2) or the parser does (line 3), under
        // either id policy.
        for opts in [
            IngestOptions::strict(),
            IngestOptions::strict().with_numeric_ids(true),
        ] {
            let err = ContactTrace::parse("0 1 5\n1 1 7\nbroken\n", &opts).unwrap_err();
            assert!(matches!(err, IngestError::Parse { line: 2, .. }), "{err}");
        }
    }

    #[test]
    fn lossy_mode_counts_skips() {
        let text = "0 1 0\nbroken\n1 1 2\n2 3 nope\n1 2 3\n";
        let trace = ContactTrace::parse(text, &IngestOptions::lossy()).unwrap();
        assert_eq!(trace.records(), 2, "two well-formed records");
        assert_eq!(trace.skipped(), 3, "short line, self-contact, bad time");
    }

    #[test]
    fn empty_trace_is_valid() {
        let trace = ContactTrace::parse("# nothing here\n", &IngestOptions::default()).unwrap();
        assert_eq!(trace.num_objects(), 0);
        assert_eq!(trace.horizon(), 0);
        assert!(trace.contacts().is_empty());
        let dn = trace.build_dn();
        assert_eq!(dn.num_nodes(), 0);
    }

    #[test]
    fn from_parts_merges_and_validates() {
        let c = |a: u32, b: u32, s: Time, e: Time| {
            Contact::new(ObjectId(a), ObjectId(b), TimeInterval::new(s, e))
        };
        let trace =
            ContactTrace::from_parts(3, 10, [c(0, 1, 0, 2), c(1, 0, 3, 4), c(1, 2, 8, 9)]).unwrap();
        assert_eq!(trace.contacts().len(), 2, "abutting intervals merged");
        assert_eq!(trace.contacts()[0].interval, TimeInterval::new(0, 4));
        assert!(trace.numeric_identity());
        assert!(ContactTrace::from_parts(2, 10, [c(0, 5, 0, 1)]).is_err());
        assert!(ContactTrace::from_parts(3, 5, [c(0, 1, 0, 7)]).is_err());
    }

    #[test]
    fn build_dn_matches_figure_1() {
        // The paper's Figure 1 as an edge list (o1..o4 → 0..3).
        let text = "#! streach-trace kind=events ids=numeric num_objects=4 horizon=4 origin=0\n\
                    0 1 0\n1 3 1\n2 3 1\n0 1 2\n2 3 2\n0 1 3\n";
        let trace = ContactTrace::parse(text, &IngestOptions::default()).unwrap();
        let dn = trace.build_dn();
        dn.validate().expect("valid DN");
        assert_eq!(dn.num_nodes(), 9, "matches the dag.rs Figure 4/5 test");
    }

    #[test]
    fn sociopatterns_order_selectable_by_directive_and_option() {
        // A real tij-style file: time first, trailing metadata columns.
        let body = "20 1148 1201 A B\n40 1148 1201\n60 1201 1300\n";
        let with_directive = format!("#! streach-trace cols=tuv time_scale=20\n{body}");
        let trace = ContactTrace::parse(&with_directive, &IngestOptions::default()).unwrap();
        assert_eq!(trace.num_objects(), 3);
        assert_eq!(trace.label(ObjectId(0)), "1148");
        assert_eq!(trace.contacts()[0].interval, TimeInterval::new(0, 1));
        // Same body, selected by option instead of directive.
        let by_option = ContactTrace::parse(
            body,
            &IngestOptions::default().sociopatterns().with_time_scale(20),
        )
        .unwrap();
        assert_eq!(by_option.contacts(), trace.contacts());
        // Without either, uvt mode rejects the 5-column metadata line, and
        // the well-formed lines would transpose: u=40, v=1148, t=1201.
        assert!(ContactTrace::parse(body, &IngestOptions::default()).is_err());
        let transposed = ContactTrace::parse("40 1148 1201\n", &IngestOptions::default()).unwrap();
        assert_ne!(transposed.contacts(), trace.contacts());
    }

    #[test]
    fn lossy_mode_skips_overflowing_timestamps() {
        let text = "#! streach-trace origin=0\n0 1 0\n0 1 99999999999\n0 1 2\n";
        let err = ContactTrace::parse(text, &IngestOptions::default()).unwrap_err();
        assert!(matches!(err, IngestError::Parse { line: 3, .. }), "{err}");
        let lossy = ContactTrace::parse(text, &IngestOptions::lossy()).unwrap();
        assert_eq!(lossy.skipped(), 1);
        assert_eq!(lossy.records(), 2);
        assert_eq!(lossy.horizon(), 3);
    }

    #[test]
    fn skipped_records_do_not_inflate_the_dense_universe() {
        // The self-contact of "z" is skipped; "z" must not become an object.
        let lossy = ContactTrace::parse("a b 0\nz z 1\n", &IngestOptions::lossy()).unwrap();
        assert_eq!(lossy.num_objects(), 2);
        assert_eq!(lossy.skipped(), 1);
        assert_eq!(lossy.resolve("z"), None);
    }

    #[test]
    fn options_and_directives_agree() {
        // Dirty input: short line, self-contact, bad time, plus mergeable
        // adjacent records — the same parameters set by options or by
        // directives must produce the same trace (contacts, labels, counts)
        // under both id policies.
        let dirty = "0 1 0\nbroken\n1 1 2\n2 3 nope\n1 2 3\n0 1 4\n0 1 5 3\n";
        for numeric in [false, true] {
            let ids = if numeric { "numeric" } else { "dense" };
            let with_directives =
                format!("#! streach-trace origin=0 time_scale=1 ids={ids}\n{dirty}");
            let set = IngestOptions::lossy()
                .with_origin(0)
                .with_time_scale(1)
                .with_numeric_ids(numeric);
            let by_options = ContactTrace::parse(dirty, &set).unwrap();
            let by_directives =
                ContactTrace::parse(&with_directives, &IngestOptions::lossy()).unwrap();
            assert_eq!(by_options, by_directives, "ids={ids}");
            assert_eq!(by_options.records(), by_directives.records(), "ids={ids}");
            assert_eq!(by_options.skipped(), by_directives.skipped(), "ids={ids}");
            assert!(by_options.skipped() > 0, "dirty input must count skips");
        }
    }

    #[test]
    fn skipped_records_do_not_inflate_the_numeric_universe() {
        // The second record references id 9 but precedes the declared
        // origin, so it is skipped in lossy mode — the universe must stay
        // at the ids of the surviving records, however the origin is set.
        let body = "10 1 12\n0 9 5\n";
        let by_options = ContactTrace::parse(
            body,
            &IngestOptions::lossy()
                .with_origin(10)
                .with_time_scale(1)
                .with_numeric_ids(true),
        )
        .unwrap();
        let by_directives = ContactTrace::parse(
            &format!("#! streach-trace origin=10 time_scale=1 ids=numeric\n{body}"),
            &IngestOptions::lossy(),
        )
        .unwrap();
        assert_eq!(
            by_options.num_objects(),
            11,
            "ids 0..=10 observed via id 10"
        );
        assert_eq!(by_options, by_directives);
        assert_eq!(by_options.skipped(), 1);
        // And with only small surviving ids, the skipped 9 must vanish.
        let small = ContactTrace::parse(
            "0 1 12\n0 9 5\n",
            &IngestOptions::lossy()
                .with_origin(10)
                .with_time_scale(1)
                .with_numeric_ids(true),
        )
        .unwrap();
        assert_eq!(small.num_objects(), 2, "skipped record must not add id 9");
    }

    #[test]
    fn options_and_directives_report_the_same_first_error() {
        // One trace, parameters identical by directive and by option:
        // strict mode must fail on the same line either way.
        let text = "#! streach-trace ids=numeric\n0 1 5\n1 1 7\n";
        let by_directives = ContactTrace::parse(text, &IngestOptions::strict()).unwrap_err();
        let by_options = ContactTrace::parse(
            text,
            &IngestOptions::strict()
                .with_origin(5)
                .with_time_scale(1)
                .with_numeric_ids(true),
        )
        .unwrap_err();
        assert_eq!(by_directives, by_options);
        assert!(matches!(by_directives, IngestError::Parse { line: 3, .. }));
    }

    #[test]
    fn zero_time_scale_is_inconsistent() {
        let opts = IngestOptions::strict().with_time_scale(0);
        let err = ContactTrace::parse("0 1 0\n", &opts).unwrap_err();
        assert!(matches!(err, IngestError::Inconsistent(_)), "{err}");
        assert_eq!(RecordMap::new(0, 0), Err(err));
    }

    #[test]
    fn sorted_trace_with_set_options_merges_runs() {
        // A SocioPatterns-ish sorted stream of repeated snapshots: each
        // pair's run folds into maximal contacts.
        let mut text = String::new();
        for t in 0..50u32 {
            text.push_str(&format!("0 1 {t}\n"));
            if t % 2 == 0 {
                text.push_str(&format!("2 3 {t}\n"));
            }
        }
        let trace = ContactTrace::parse(
            &text,
            &IngestOptions::strict()
                .with_origin(0)
                .with_time_scale(1)
                .with_numeric_ids(true),
        )
        .unwrap();
        assert_eq!(trace.records(), 75);
        // 0-1 is one unbroken contact; 2-3 breaks every other tick.
        assert_eq!(trace.contacts()[0].interval, TimeInterval::new(0, 49));
        assert_eq!(trace.contacts().len(), 1 + 25);
    }

    #[test]
    fn directive_errors_carry_lines() {
        let err = ContactTrace::parse("#! streach-trace kind=nope\n", &IngestOptions::default())
            .unwrap_err();
        assert!(matches!(err, IngestError::Parse { line: 1, .. }), "{err}");
    }
}
