//! Dataset presets mirroring the paper's three families (§6), scaled to a
//! single machine.
//!
//! The paper evaluates on `RWP10k/20k/40k` (random waypoint individuals,
//! 100 km², Bluetooth `d_T` = 25 m), `VN1k/2k/4k` (Brinkhoff vehicles over
//! San Francisco, DSRC `d_T` = 300 m) and a real Beijing taxi day (`VNR`).
//! We keep three sizes per family and the paper's contact thresholds.
//!
//! Scaling note: what makes the paper's guided expansion pay off is
//! *spatial locality* — an item travels `speed · |Tp|` metres during a query
//! window, and that reach must stay well below the environment size (in the
//! paper: ≈3 km of walking in a 10 km world). Shrinking a dataset by
//! dropping objects at the paper's density shrinks the environment until a
//! single window covers it and there is nothing left to prune. We therefore
//! scale RWP by *density* (6·10⁻⁵ obj/m² instead of 2·10⁻⁴) and *speed*
//! (0.5–1.5 m/s), which keeps the paper's reach-to-environment ratio while
//! leaving enough contact churn for a realistic reachable fraction in the
//! query workloads, and scale the simulated page size with the dataset so
//! grid cells and graph partitions still span several pages
//! ([`Tier::page_size`]).

use reach_contact::ingest::{ContactTrace, IngestError, IngestOptions, EMBED_THRESHOLD};
use reach_contact::{DnGraph, MultiRes, DEFAULT_LEVELS};
use reach_core::{Contact, Coord, Environment, Time};
use reach_live::{LiveConfig, ShardedLive};
use reach_mobility::{sparsify, RwpConfig, VehicleConfig, BEIJING_KEEP_EVERY};
use reach_storage::{BlockDevice, StorageConfig};
use reach_traj::TrajectoryStore;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Dataset family, matching the paper's naming.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// Random waypoint individuals (paper `RWP*`).
    Rwp,
    /// Network-constrained vehicles (paper `VN*`).
    Vn,
    /// Sparse-GPS interpolated vehicles (paper `VNR`, Beijing substitute).
    Vnr,
    /// A loaded contact trace (no generator; see `reach_contact::ingest`).
    Trace,
}

/// A reproducible dataset specification.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Report name (e.g. `rwp-1k`).
    pub name: String,
    /// Family the generator belongs to.
    pub family: Family,
    /// Number of objects.
    pub num_objects: usize,
    /// Horizon in ticks.
    pub horizon: Time,
    /// Contact threshold `d_T` in metres.
    pub threshold: Coord,
    /// Generator seed.
    pub seed: u64,
    /// The loaded trace when `family == Family::Trace` (shared, the specs
    /// are cloned freely).
    trace: Option<Arc<ContactTrace>>,
}

impl DatasetSpec {
    /// Random-waypoint spec (6·10⁻⁵ obj/m², see the scaling note above).
    pub fn rwp(name: &str, num_objects: usize, horizon: Time, seed: u64) -> Self {
        Self {
            name: name.into(),
            family: Family::Rwp,
            num_objects,
            horizon,
            threshold: 25.0,
            seed,
            trace: None,
        }
    }

    /// Vehicle-network spec at the paper's density (≈6.7·10⁻⁶ obj/m²).
    pub fn vn(name: &str, num_objects: usize, horizon: Time, seed: u64) -> Self {
        Self {
            name: name.into(),
            family: Family::Vn,
            num_objects,
            horizon,
            threshold: 300.0,
            seed,
            trace: None,
        }
    }

    /// Sparse-GPS spec (Beijing-like).
    pub fn vnr(name: &str, num_objects: usize, horizon: Time, seed: u64) -> Self {
        Self {
            name: name.into(),
            family: Family::Vnr,
            num_objects,
            horizon,
            threshold: 300.0,
            seed,
            trace: None,
        }
    }

    /// Loads a contact trace from `path` (strict mode, format sniffed — see
    /// `DATAFORMATS.md`) and wraps it as a dataset spec: `generate` embeds
    /// the trace into trajectories for ReachGrid, `build_dn` takes the
    /// event-direct path.
    pub fn trace(name: &str, path: impl AsRef<Path>) -> Result<Self, IngestError> {
        let trace = ContactTrace::load_path(path, &IngestOptions::default())?;
        Ok(Self::from_trace(name, trace))
    }

    /// Wraps an already-loaded trace as a dataset spec.
    pub fn from_trace(name: &str, trace: ContactTrace) -> Self {
        Self {
            name: name.into(),
            family: Family::Trace,
            num_objects: trace.num_objects(),
            horizon: trace.horizon(),
            threshold: EMBED_THRESHOLD,
            seed: 0,
            trace: Some(Arc::new(trace)),
        }
    }

    /// The loaded trace of a [`Family::Trace`] spec.
    pub fn contact_trace(&self) -> Option<&ContactTrace> {
        self.trace.as_deref()
    }

    /// Environment side length implied by the family's target density (for
    /// traces: the embedding's home-point grid).
    pub fn env_side(&self) -> Coord {
        match self.family {
            Family::Rwp => (self.num_objects as f64 / 6.0e-5).sqrt() as Coord,
            Family::Vn | Family::Vnr => (self.num_objects as f64 / 6.7e-6).sqrt() as Coord,
            Family::Trace => self
                .trace
                .as_ref()
                .map(|t| embed_side(t.num_objects()))
                .unwrap_or(0.0),
        }
    }

    /// Generates the trajectory store (for traces: the component-colocation
    /// embedding of `reach_contact::ingest::embed`).
    pub fn generate(&self) -> TrajectoryStore {
        let side = self.env_side();
        match self.family {
            Family::Rwp => RwpConfig {
                env: Environment::square(side),
                num_objects: self.num_objects,
                horizon: self.horizon,
                tick_seconds: 6.0,
                speed_min: 0.5,
                speed_max: 1.5,
                pause_ticks_max: 4,
            }
            .generate(self.seed),
            Family::Vn => {
                let mut cfg =
                    VehicleConfig::default_city(self.num_objects, self.horizon, self.seed);
                cfg.network = reach_mobility::RoadNetwork::city_grid(
                    Environment::square(side),
                    grid_dim(side),
                    grid_dim(side),
                    self.seed ^ 0xC17,
                );
                cfg.generate(self.seed)
            }
            Family::Vnr => {
                let mut cfg =
                    VehicleConfig::default_city(self.num_objects, self.horizon, self.seed);
                cfg.network = reach_mobility::RoadNetwork::city_grid(
                    Environment::square(side),
                    grid_dim(side),
                    grid_dim(side),
                    self.seed ^ 0xBE1,
                );
                sparsify(&cfg.generate(self.seed), BEIJING_KEEP_EVERY)
            }
            Family::Trace => self
                .trace
                .as_ref()
                .expect("trace specs always carry their trace")
                .to_store(),
        }
    }

    /// Builds the reduced DAG for this dataset. Generator families extract
    /// contacts from `store` (threshold applied); trace specs take the
    /// event-direct `DnGraph::from_contacts` path — `store` is not touched —
    /// which yields the identical DAG (see the ingestion round-trip tests).
    pub fn build_dn(&self, store: &TrajectoryStore) -> DnGraph {
        match &self.trace {
            Some(trace) => trace.build_dn(),
            None => DnGraph::build(store, self.threshold),
        }
    }

    /// The contacts of `store` at this spec's threshold over the whole
    /// horizon.
    pub fn contacts(&self, store: &TrajectoryStore) -> Vec<Contact> {
        reach_contact::extract_contacts(store, store.horizon_interval(), self.threshold)
    }

    /// Builds the default multi-resolution bundles for a DN.
    pub fn build_multires(&self, dn: &DnGraph) -> MultiRes {
        MultiRes::build(dn, &DEFAULT_LEVELS)
    }
}

/// Road-grid dimension for an environment side: ~700 m block spacing.
fn grid_dim(side: Coord) -> usize {
    ((side / 700.0).round() as usize).clamp(4, 40)
}

/// Side length of the trace embedding's home-point grid (mirrors
/// `reach_contact::ingest::embed`).
fn embed_side(num_objects: usize) -> Coord {
    let cols = (num_objects as f64).sqrt().ceil().max(1.0) as Coord;
    cols * reach_contact::ingest::EMBED_SPACING
}

/// Truncates a store to its first `horizon` ticks (the growing-`|T|` sweeps
/// of Figures 9–11 share one generated dataset and index its prefixes).
pub fn prefix_store(store: &TrajectoryStore, horizon: Time) -> TrajectoryStore {
    assert!(horizon >= 1 && horizon <= store.horizon());
    let trajs = store
        .iter()
        .map(|t| reach_traj::Trajectory::new(t.object, 0, t.positions[..horizon as usize].to_vec()))
        .collect();
    TrajectoryStore::new(store.environment(), trajs).expect("prefix preserves shape")
}

/// The benchmark tier: `quick` keeps the full suite under a few minutes,
/// `full` matches the scales reported in EXPERIMENTS.md.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Tier {
    /// Small datasets for smoke runs (the default).
    #[default]
    Quick,
    /// The scales used for the recorded results.
    Full,
}

impl Tier {
    /// Simulated device page size for this tier. The paper uses 4 KB pages
    /// against hundreds of GB of data; scaling the page with the dataset
    /// keeps structures (grid cells, graph partitions) spanning several
    /// pages, which is what the placement optimizations act on.
    pub fn page_size(self) -> usize {
        match self {
            Tier::Quick => 512,
            Tier::Full => 2048,
        }
    }
}

/// Storage backend the experiment harness builds its indexes on
/// (`--backend=sim|file`). `sim` — the paper's measurement model — is the
/// default; `file` runs the identical experiments against real files so
/// wall-clock numbers reflect actual IO.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Backend {
    /// Memory-backed simulator (default; the paper's IO-count model).
    #[default]
    Sim,
    /// Real file with positioned IO, one temp file per index build.
    File,
}

impl Backend {
    fn parse(v: &str) -> Result<Backend, String> {
        [Backend::Sim, Backend::File]
            .into_iter()
            .find(|b| b.name() == v)
            .ok_or_else(|| format!("unknown storage backend {v:?} (expected sim|file)"))
    }

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::File => "file",
        }
    }

    /// Creates a fresh device for one index build. File-backed devices land
    /// in a per-process directory under the system temp dir, one uniquely
    /// named file per build. On Unix the path (and the then-empty directory)
    /// is unlinked as soon as the device holds its descriptor, so bench runs
    /// leave nothing behind no matter how they exit; elsewhere the files
    /// live until the OS clears its temp dir.
    pub fn device(self, page_size: usize) -> Box<dyn BlockDevice> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = match self {
            Backend::Sim => {
                return StorageConfig::sim(page_size)
                    .create()
                    .expect("sim device creates")
            }
            Backend::File => {
                let dir =
                    std::env::temp_dir().join(format!("streach-bench-{}", std::process::id()));
                std::fs::create_dir_all(&dir).expect("temp device dir creates");
                dir.join(format!(
                    "dev-{}.pages",
                    NEXT.fetch_add(1, Ordering::Relaxed)
                ))
            }
        };
        let device = StorageConfig::file(&path, page_size)
            .create()
            .expect("experiment device creates");
        // Benchmark devices are never reopened, so the anonymous-file trick
        // applies: with the descriptor held, the name can go away now (and
        // removing the directory succeeds exactly when it is empty).
        if cfg!(unix) {
            let _ = std::fs::remove_file(&path);
            if let Some(dir) = path.parent() {
                let _ = std::fs::remove_dir(dir);
            }
        }
        device
    }
}

/// One `streach_exp` run's settings, parsed once from the flags after the
/// experiment name and handed to every experiment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Run {
    /// `--full`: the recorded scales (default: the quick tier).
    pub tier: Tier,
    /// `--backend=sim|file`: the storage backend of every device.
    pub backend: Backend,
    /// `--json`: one JSON array of tables instead of markdown.
    pub json: bool,
    /// `--trace=PATH`: the contact trace `exp_trace` loads (default: a
    /// synthetic one).
    pub trace: Option<PathBuf>,
    /// `--build-budget=BYTES[k|m]`: the resident-byte cap of the
    /// memory-bounded streaming builds (KiB / MiB suffixes).
    pub build_budget: Option<usize>,
    /// `--warm-cache`: `exp_serve`'s shared-cache tier.
    pub warm_cache: bool,
}

impl Run {
    /// Parses the flags; an unknown flag or a malformed value is an error.
    pub fn parse<S: AsRef<str>>(args: impl IntoIterator<Item = S>) -> Result<Run, String> {
        let mut run = Run::default();
        for arg in args {
            let arg = arg.as_ref();
            match arg.split_once('=') {
                None if arg == "--quick" => run.tier = Tier::Quick,
                None if arg == "--full" => run.tier = Tier::Full,
                None if arg == "--json" => run.json = true,
                None if arg == "--warm-cache" => run.warm_cache = true,
                Some(("--backend", v)) => run.backend = Backend::parse(v)?,
                Some(("--trace", v)) => run.trace = Some(PathBuf::from(v)),
                Some(("--build-budget", v)) => run.build_budget = Some(parse_bytes(v)?),
                _ => return Err(format!("unknown flag {arg:?}")),
            }
        }
        Ok(run)
    }
}

/// `BYTES[k|m]` (KiB / MiB suffixes, case-insensitive).
fn parse_bytes(raw: &str) -> Result<usize, String> {
    let lower = raw.trim().to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = lower.strip_suffix('k') {
        (d, 1024)
    } else if let Some(d) = lower.strip_suffix('m') {
        (d, 1024 * 1024)
    } else {
        (lower.as_str(), 1)
    };
    digits
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("--build-budget expects BYTES[k|m], got {raw:?}"))
}

/// A [`ShardedLive`] on a run's backend that owns its storage directory
/// (`file`: a fresh path under the system temp dir; `sim`: none).
/// Shards are reopened by name, so unlike [`Backend::device`]'s files they
/// stay linked until the guard drops and removes the directory — also when
/// an experiment's assertion panics. Derefs to the index;
/// [`ScratchLive::shared`] hands out the `Arc` a server or thread needs.
pub struct ScratchLive {
    live: Arc<ShardedLive>,
    // Declared after `live`, so the directory goes after the index closes.
    dir: RemoveOnDrop,
}

/// Removes a scratch path (a directory tree or a file) when dropped, also
/// while a panic unwinds. `None` guards nothing.
pub struct RemoveOnDrop(Option<PathBuf>);

impl RemoveOnDrop {
    /// The guarded path.
    pub fn path(&self) -> Option<&Path> {
        self.0.as_deref()
    }
}

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        if let Some(path) = &self.0 {
            let _ = if path.is_dir() {
                std::fs::remove_dir_all(path)
            } else {
                std::fs::remove_file(path)
            };
        }
    }
}

impl ScratchLive {
    /// Creates an empty live index for `num_objects` objects from `config`
    /// on `backend`.
    pub fn new(backend: Backend, config: LiveConfig, num_objects: usize) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let page_size = config.params.page_size;
        let path = std::env::temp_dir().join(format!(
            "streach-bench-shard-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let (storage, dir) = match backend {
            Backend::Sim => (StorageConfig::sim(page_size), None),
            Backend::File => (StorageConfig::file(&path, page_size), Some(path)),
        };
        // The guard exists before the build, so a failed build cleans up too.
        let dir = RemoveOnDrop(dir);
        let live = config
            .builder()
            .backend(storage)
            .build_sharded(num_objects)
            .expect("live index creates");
        Self {
            live: Arc::new(live),
            dir,
        }
    }

    /// Appends `contacts` in order, asserting no inline seal failed;
    /// returns how many were logged.
    pub fn append_all(&self, contacts: &[Contact]) -> u64 {
        let mut logged = 0;
        for &c in contacts {
            let outcome = self.append(c).expect("lossy appends never error");
            let failed = outcome.compaction_error;
            assert!(failed.is_none(), "inline seal failed: {failed:?}");
            logged += u64::from(outcome.logged);
        }
        logged
    }

    /// The storage directory (`None` on `sim`).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.path()
    }

    /// A shared handle to the index (it outlives the directory if held
    /// past this guard's drop).
    pub fn shared(&self) -> Arc<ShardedLive> {
        Arc::clone(&self.live)
    }
}

impl std::ops::Deref for ScratchLive {
    type Target = ShardedLive;
    fn deref(&self) -> &ShardedLive {
        &self.live
    }
}

/// The three RWP sizes of the tier (paper: RWP10k/20k/40k).
pub fn rwp_series(tier: Tier) -> Vec<DatasetSpec> {
    match tier {
        Tier::Quick => vec![
            DatasetSpec::rwp("rwp-500", 500, 2000, 11),
            DatasetSpec::rwp("rwp-1k", 1000, 2000, 12),
            DatasetSpec::rwp("rwp-2k", 2000, 2000, 13),
        ],
        Tier::Full => vec![
            DatasetSpec::rwp("rwp-1k", 1000, 6000, 11),
            DatasetSpec::rwp("rwp-2k", 2000, 6000, 12),
            DatasetSpec::rwp("rwp-4k", 4000, 6000, 13),
        ],
    }
}

/// The three VN sizes of the tier (paper: VN1k/2k/4k).
pub fn vn_series(tier: Tier) -> Vec<DatasetSpec> {
    match tier {
        Tier::Quick => vec![
            DatasetSpec::vn("vn-50", 50, 2000, 21),
            DatasetSpec::vn("vn-100", 100, 2000, 22),
            DatasetSpec::vn("vn-200", 200, 2000, 23),
        ],
        Tier::Full => vec![
            DatasetSpec::vn("vn-100", 100, 6000, 21),
            DatasetSpec::vn("vn-200", 200, 6000, 22),
            DatasetSpec::vn("vn-400", 400, 6000, 23),
        ],
    }
}

/// The middle dataset of a series (the paper's workhorse configuration,
/// e.g. RWP20k / VN2k).
///
/// # Panics
///
/// Panics with a descriptive message on an empty series (every built-in
/// series has three entries; the experiment binaries in `src/bin` all call
/// this through `rwp_series`/`vn_series`, which are never empty).
pub fn middle(series: &[DatasetSpec]) -> &DatasetSpec {
    assert!(
        !series.is_empty(),
        "middle() needs a non-empty dataset series"
    );
    &series[series.len() / 2]
}

/// The Beijing-like sparse dataset (paper `VNR`).
pub fn vnr(tier: Tier) -> DatasetSpec {
    match tier {
        Tier::Quick => DatasetSpec::vnr("vnr", 120, 2000, 31),
        Tier::Full => DatasetSpec::vnr("vnr", 250, 6000, 31),
    }
}

/// Builds a synthetic contact trace *through the full text pipeline* and
/// returns it as a trace spec: an RWP dataset is generated, its contacts
/// extracted, written to `dir` with the edge-list writer, and re-ingested
/// from the file. `exp_trace` uses this as its no-network fallback, so CI
/// exercises writer, parser, and the event-direct DN build end to end.
///
/// Returns the spec and a guard that removes the written trace file when
/// dropped, also if the caller panics.
pub fn synthetic_trace(tier: Tier, dir: &Path) -> (DatasetSpec, RemoveOnDrop) {
    let source = match tier {
        Tier::Quick => DatasetSpec::rwp("trace-rwp", 500, 1500, 77),
        Tier::Full => DatasetSpec::rwp("trace-rwp", 1000, 4000, 77),
    };
    write_trace(&source, dir)
}

/// Writes `source`'s contacts to a fresh trace file in `dir` and re-ingests
/// it (see [`synthetic_trace`]).
fn write_trace(source: &DatasetSpec, dir: &Path) -> (DatasetSpec, RemoveOnDrop) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let store = source.generate();
    let contacts = source.contacts(&store);
    let trace = ContactTrace::from_parts(store.num_objects(), store.horizon(), contacts)
        .expect("extracted contacts fit their own universe");
    let path = dir.join(format!(
        "streach-synth-{}-{}.trace",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let guard = RemoveOnDrop(Some(path.clone()));
    let file = std::fs::File::create(&path).expect("synthetic trace file creates");
    reach_contact::ingest::write_events(&trace, std::io::BufWriter::new(file))
        .expect("synthetic trace writes");
    let spec = DatasetSpec::trace(&source.name, &path).expect("own trace re-ingests");
    (spec, guard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_core::{ObjectId, TimeInterval};

    #[test]
    fn specs_generate_expected_shapes() {
        let spec = DatasetSpec::rwp("t", 40, 100, 1);
        let store = spec.generate();
        assert_eq!(store.num_objects(), 40);
        assert_eq!(store.horizon(), 100);
    }

    #[test]
    fn density_scaling_keeps_env_reasonable() {
        let small = DatasetSpec::rwp("a", 250, 10, 1).env_side();
        let big = DatasetSpec::rwp("b", 1000, 10, 1).env_side();
        assert!((big / small - 2.0).abs() < 0.01, "4× objects → 2× side");
        // VN densities are far lower → larger environments.
        let vn = DatasetSpec::vn("c", 250, 10, 1).env_side();
        assert!(vn > big);
    }

    #[test]
    fn vnr_is_interpolated() {
        let spec = DatasetSpec::vnr("t", 20, 60, 5);
        let store = spec.generate();
        assert_eq!(store.horizon(), 60);
        // Between anchors the motion is piecewise linear: second differences
        // within an anchor gap vanish.
        let tr = store.iter().next().unwrap();
        let p = &tr.positions;
        let mut linear_triples = 0;
        let mut total = 0;
        for k in (0..48).step_by(12) {
            for j in k + 1..k + 10 {
                let ax = p[j].x - p[j - 1].x;
                let bx = p[j + 1].x - p[j].x;
                total += 1;
                if (ax - bx).abs() < 1e-3 {
                    linear_triples += 1;
                }
            }
        }
        assert!(linear_triples * 10 >= total * 9, "interpolation not linear");
    }

    #[test]
    fn backend_devices() {
        for be in [Backend::Sim, Backend::File] {
            let mut dev = be.device(128);
            assert_eq!(dev.backend(), be.name());
            assert_eq!(dev.page_size(), 128);
            let p = dev.allocate(1).unwrap();
            dev.write_page(p, b"ok").unwrap();
        }
    }

    #[test]
    fn run_flags_parse_and_unknown_ones_are_rejected() {
        assert_eq!(Run::parse(Vec::<String>::new()), Ok(Run::default()));
        let run = Run::parse([
            "--full",
            "--json",
            "--backend=file",
            "--trace=t.txt",
            "--build-budget=64k",
            "--warm-cache",
        ]);
        let want = Run {
            tier: Tier::Full,
            backend: Backend::File,
            json: true,
            trace: Some(PathBuf::from("t.txt")),
            build_budget: Some(64 << 10),
            warm_cache: true,
        };
        assert_eq!(run, Ok(want));
        assert_eq!(Run::parse(["--full", "--quick"]).unwrap().tier, Tier::Quick);
        for (flag, bytes) in [("=2m", 2 << 20), ("=2M", 2 << 20), ("=4096", 4096)] {
            let run = Run::parse([format!("--build-budget{flag}")]).unwrap();
            assert_eq!(run.build_budget, Some(bytes));
        }
        let bad = [
            "--backend-file",
            "--backend=disk",
            "--backend=mmap",
            "--build-budget=x",
            "--help",
        ];
        for bad in bad
            .into_iter()
            .chain(["--epoch-records=10", "--json=1", "fig8"])
        {
            assert!(Run::parse([bad]).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn scratch_live_removes_its_directory_on_drop_and_unwind() {
        let params = reach_graph::GraphParams {
            page_size: 256,
            ..Default::default()
        };
        let config = LiveConfig::graph(params, reach_storage::BuildBudget::unbounded());
        let fill = |live: &ScratchLive| {
            let c = Contact::new(ObjectId(0), ObjectId(1), TimeInterval::new(0, 3));
            live.append(c).unwrap();
            live.compact().unwrap();
            let dir = live.dir().expect("file backend has a directory");
            assert!(dir.read_dir().unwrap().count() > 0, "shard files exist");
            dir.to_path_buf()
        };
        let live = ScratchLive::new(Backend::File, config.clone(), 2);
        let dir = fill(&live);
        drop(live);
        assert!(!dir.exists(), "{} left behind", dir.display());

        let mut seen = None;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let live = ScratchLive::new(Backend::File, config, 2);
            seen = Some(fill(&live));
            panic!("an experiment assertion fails");
        }));
        assert!(unwound.is_err());
        let dir = seen.expect("the closure ran up to its panic");
        assert!(!dir.exists(), "{} left behind after a panic", dir.display());
    }

    #[test]
    fn series_are_ordered_and_named() {
        let r = rwp_series(Tier::Quick);
        assert_eq!(r.len(), 3);
        assert!(r[0].num_objects < r[1].num_objects);
        assert_eq!(middle(&r).name, r[1].name);
        let v = vn_series(Tier::Quick);
        assert!(v.iter().all(|s| s.threshold == 300.0));
    }

    #[test]
    #[should_panic(expected = "non-empty dataset series")]
    fn middle_of_empty_series_panics_with_message() {
        let _ = middle(&[]);
    }

    #[test]
    fn trace_specs_embed_and_build_event_direct() {
        let trace = ContactTrace::parse(
            "#! streach-trace kind=events ids=numeric num_objects=5 horizon=40 origin=0\n\
             0 1 0 3\n1 2 10 5\n3 4 20\n",
            &IngestOptions::default(),
        )
        .unwrap();
        let spec = DatasetSpec::from_trace("t", trace);
        assert_eq!(spec.family, Family::Trace);
        assert_eq!(spec.num_objects, 5);
        assert_eq!(spec.horizon, 40);
        let store = spec.generate();
        assert_eq!(store.num_objects(), 5);
        assert_eq!(store.horizon(), 40);
        // Event-direct DN equals the DN extracted from the embedding.
        let direct = spec.build_dn(&store);
        let via_store = DnGraph::build(&store, spec.threshold);
        assert_eq!(direct.nodes(), via_store.nodes());
        assert_eq!(direct.size(), via_store.size());
    }

    #[test]
    fn synthetic_trace_round_trips_through_a_file() {
        let tiny = DatasetSpec::rwp("tiny", 40, 120, 9);
        let (spec, guard) = write_trace(&tiny, &std::env::temp_dir());
        let path = guard.path().expect("a file is guarded").to_path_buf();
        assert!(path.is_file());
        let direct = spec.build_dn(&spec.generate());
        let reference = tiny.build_dn(&tiny.generate());
        assert_eq!(direct.nodes(), reference.nodes());
        drop(guard);
        assert!(!path.exists(), "dropping the guard removes the trace");
    }

    #[test]
    fn a_panic_removes_the_synthetic_trace() {
        let tiny = DatasetSpec::rwp("tiny", 20, 40, 3);
        let written = std::sync::Mutex::new(None);
        let unwound = std::panic::catch_unwind(|| {
            let (_spec, guard) = write_trace(&tiny, &std::env::temp_dir());
            *written.lock().unwrap() = guard.path().map(Path::to_path_buf);
            panic!("experiment failed while the trace was in use");
        });
        assert!(unwound.is_err());
        let path = written.into_inner().unwrap().expect("a file was written");
        assert!(!path.exists(), "{} outlived the panic", path.display());
    }
}
