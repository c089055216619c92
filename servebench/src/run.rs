//! Set-up, serving and checking of each workload.
//!
//! Each runner sets its workload up, serves the seeded stream through
//! the service, reads the layer counters, and checks the kept answers
//! after the measured windows; [`run`] then times the further set-ups.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use allfp::{
    BoundaryLb, Engine, EngineConfig, EpochManager, EstimatorKind, LiveBackend,
    LowerBoundEstimator, MaxEstimator, NaiveLb, PathfindBackend, QueryBudget, QueryOutcome,
    QuerySpec, WeightMode,
};
use ccam::{build_bulk, BulkBuildConfig, CcamStore, ChecksummedStore, FileStore, MmapStore};
use hierarchy::{HierarchyConfig, HierarchyEngine};
use pwl::Interval;
use roadnet::generators::{suffolk_like, ContinentalConfig, ContinentalNet, MetroConfig};
use roadnet::{NetworkSource, NodeId, Point, RoadNetwork};
use traffic::DayCategory;

use crate::check;
use crate::serve::{serve, Incidents, Kept, Live, Served};
use crate::trace::{TracedEstimator, TracedSource, TracedStore};
use crate::workload::{mix, Pairs, Stream, Workload, RUSH_MINUTES, RUSH_START};

/// Seed of every generated network (the query stream takes `--seed`).
pub const NETWORK_SEED: u64 = 42;

/// Grid of live-deltas' boundary estimator (the fig9 default).
pub const GRID: usize = 8;

/// Partition target of the continental tier's boundary estimator.
pub const HUGE_GROUPS: usize = 64;

/// Raw on-disk page size of the continental store (the paper's 2048
/// bytes, checksum header included).
pub const PAGE_SIZE: usize = ccam::DEFAULT_PAGE_SIZE;

/// Buffer-pool frames of the continental store (bypassed under mmap).
pub const POOL_FRAMES: usize = 256;

/// Expansion cap of the screen that chose the continental pair list:
/// a candidate pair whose 3-hour search needs more was left out.
pub const SCREEN_BUDGET: usize = 20_000;

/// Pairs per band in the continental pair list.
pub const SCREEN_PER_BAND: usize = 1024;

/// Key of the screen's candidate draws (independent of `--seed`).
const SCREEN_KEY: u64 = 0x5C4E_E000;

/// The continental stream's fixed pair list, written by
/// `servebench screen-pairs` (see [`screen_pairs`]).
const HUGE_PAIRS: &str = include_str!("../pairs/huge-mmap.txt");

/// live-deltas: share of edges one delta re-patterns, in percent.
pub const LIVE_EDGE_PERCENT: usize = 2;

/// Set-ups per run with `repeat_setup`: at least `MIN_SETUPS`, and
/// more, up to `MAX_SETUPS`, until they have taken `SETUP_SECONDS`.
pub const MIN_SETUPS: usize = 5;
pub const MAX_SETUPS: usize = 25;
pub const SETUP_SECONDS: f64 = 3.0;

/// At most this many kept answers are checked.
pub const MAX_CHECKED: usize = 48;

/// Where the benchmark writes its transient files (relative to the
/// working directory, the checkout root).
pub const DATA_DIR: &str = ".servebench";

/// The continental tier: 8 x 8 cells of 32 x 32 nodes (65,536 nodes),
/// built like the million-node metro-huge tier.
pub fn huge_config() -> ContinentalConfig {
    ContinentalConfig {
        cells_x: 8,
        cells_y: 8,
        cell_w: 32,
        cell_h: 32,
        ..ContinentalConfig::metro_huge(NETWORK_SEED)
    }
}

/// How to run one phase.
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Repeat the set-up after serving (see [`run`]).
    pub repeat_setup: bool,
}

/// Wall times of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub network_s: f64,
    pub estimator_s: f64,
    pub store_build_s: f64,
    pub contraction_s: f64,
}

impl Setup {
    /// Start to ready-to-serve.
    pub fn total(&self) -> f64 {
        self.network_s + self.estimator_s + self.store_build_s + self.contraction_s
    }
}

/// Sizes and counters a workload's layers report.
#[derive(Debug, Clone, Copy, Default)]
pub struct Facts {
    pub graph_mb: f64,
    pub overlay_mb: f64,
    pub shortcuts: f64,
}

/// What one phase measured.
pub struct Phase {
    pub setups: Vec<Setup>,
    pub served: Served,
    pub facts: Facts,
    /// `VmHWM` when serving ended, MiB.
    pub peak_rss_mb: f64,
    /// Answers checked and comparisons made.
    pub checked: usize,
    pub comparisons: u64,
    /// The first mismatch, if any.
    pub mismatch: Option<String>,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

const MIB: f64 = 1024.0 * 1024.0;

fn peak_rss_mb() -> f64 {
    fpbench::metro_huge::peak_rss_bytes() as f64 / MIB
}

/// Pairs drawn afresh over `src`'s nodes in `w`'s distance bands.
fn drawn<S: NetworkSource>(w: Workload, src: &S) -> Pairs {
    Pairs::Drawn {
        bands: w.bands(),
        locs: locs(src),
    }
}

fn locs<S: NetworkSource>(src: &S) -> Vec<Point> {
    (0..src.n_nodes() as u32)
        .map(|i| {
            src.find_node(NodeId(i))
                .expect("every node id has a location")
        })
        .collect()
}

fn no_counters() -> [u64; 2] {
    [0, 0]
}

fn full_metro() -> RoadNetwork {
    suffolk_like(&MetroConfig {
        seed: NETWORK_SEED,
        ..MetroConfig::default()
    })
    .expect("metro generator succeeds")
}

fn flat_config() -> EngineConfig {
    EngineConfig {
        estimator: EstimatorKind::Boundary { grid: GRID },
        ..EngineConfig::default()
    }
}

/// Check kept answers against `net` until the first mismatch.
fn check_kept<'k, S: NetworkSource>(
    net: &S,
    kept: impl Iterator<Item = &'k Kept>,
    phase: &mut Phase,
) {
    for k in kept {
        if phase.mismatch.is_some() {
            return;
        }
        match check::check(net, k) {
            Ok(n) => {
                phase.checked += 1;
                phase.comparisons += n;
            }
            Err(e) => phase.mismatch = Some(e),
        }
    }
}

fn phase(setups: Vec<Setup>, served: Served, facts: Facts) -> Phase {
    Phase {
        setups,
        served,
        facts,
        peak_rss_mb: peak_rss_mb(),
        checked: 0,
        comparisons: 0,
        mismatch: None,
    }
}

/// Run one phase of the workload `p` names.
pub fn run(p: &Params) -> Phase {
    let mut ph = match p.workload {
        Workload::ChRush => ch_rush(p),
        Workload::HugeMmap => huge_mmap(p),
        Workload::LiveDeltas => live_deltas(p),
    };
    // The other set-ups run after serving and checking: at least
    // `MIN_SETUPS` in all, and more until they have taken
    // `SETUP_SECONDS`, so the short ones (about 0.1 s on the metro) are
    // timed often enough for a steady median.
    let mut spent: f64 = ph.setups.iter().map(Setup::total).sum();
    while p.repeat_setup
        && (ph.setups.len() < MIN_SETUPS || (spent < SETUP_SECONDS && ph.setups.len() < MAX_SETUPS))
    {
        ph.setups.push(match p.workload {
            Workload::ChRush => ch_setup(),
            Workload::HugeMmap => {
                let path = huge_path();
                let s = huge_setup(&path).3;
                let _ = std::fs::remove_file(&path);
                s
            }
            Workload::LiveDeltas => live_setup().1,
        });
        spent += ph.setups.last().map_or(0.0, Setup::total);
    }
    ph
}

/// Where the continental store is built.
fn huge_path() -> PathBuf {
    std::fs::create_dir_all(DATA_DIR).expect("data directory creates");
    Path::new(DATA_DIR).join(format!("huge-{}.ccam", std::process::id()))
}

/// Serve `stream` from a flat engine over `src` and `est`.
fn serve_flat<S: NetworkSource + Sync>(
    p: &Params,
    stream: &Stream,
    src: &S,
    est: Box<dyn LowerBoundEstimator + '_>,
    config: EngineConfig,
    counters: &dyn Fn() -> [u64; 2],
) -> Served {
    let engine = Engine::with_estimator(src, est, config);
    serve(&engine, p, stream, None, counters)
}

fn medium_metro() -> RoadNetwork {
    suffolk_like(&MetroConfig::medium(NETWORK_SEED)).expect("metro generator succeeds")
}

/// A ch-rush set-up, timed and dropped.
fn ch_setup() -> Setup {
    let (net, network_s) = timed(medium_metro);
    let (h, contraction_s) = timed(|| {
        HierarchyEngine::with_flat(
            Engine::new(&net, EngineConfig::default()),
            HierarchyConfig::default(),
        )
        .expect("hierarchy builds")
    });
    drop(h);
    Setup {
        network_s,
        contraction_s,
        ..Setup::default()
    }
}

/// Contract a hierarchy over a flat engine on `src` with the naive
/// estimator `est`, and serve `stream` from it.
fn serve_ch<S: NetworkSource + Sync>(
    p: &Params,
    stream: &Stream,
    src: &S,
    est: Box<dyn LowerBoundEstimator + '_>,
) -> (Served, Facts, f64) {
    let flat = Engine::with_estimator(src, est, EngineConfig::default());
    let (h, contraction_s) = timed(|| {
        HierarchyEngine::with_flat(flat, HierarchyConfig::default()).expect("hierarchy builds")
    });
    let served = serve(&h, p, stream, None, &no_counters);
    let r = h.report();
    let facts = Facts {
        overlay_mb: r.bytes_estimate as f64 / MIB,
        shortcuts: r.n_shortcuts as f64,
        ..Facts::default()
    };
    (served, facts, contraction_s)
}

fn ch_rush(p: &Params) -> Phase {
    let (net, network_s) = timed(medium_metro);
    let stream = Stream::new(p.seed, drawn(p.workload, &net));
    let naive = Box::new(NaiveLb::new(net.max_speed()));
    let (served, facts, contraction_s) = if p.traced {
        serve_ch(
            p,
            &stream,
            &TracedSource(&net),
            Box::new(TracedEstimator(naive)),
        )
    } else {
        serve_ch(p, &stream, &net, naive)
    };
    let s = Setup {
        network_s,
        contraction_s,
        ..Setup::default()
    };
    let mut ph = phase(vec![s], served, facts);
    let kept = std::mem::take(&mut ph.served.kept);
    check_kept(&net, kept.iter().take(MAX_CHECKED), &mut ph);
    ph
}

/// The continental store at `path`, bulk-built through a checksumming
/// layer and mapped read-only: every page is verified on first touch.
fn build_store(lazy: &ContinentalNet, path: &Path) -> MmapStore {
    let _ = std::fs::remove_file(path);
    let file = Arc::new(FileStore::create(path, PAGE_SIZE).expect("store file creates"));
    let store = Arc::new(ChecksummedStore::new(file));
    let cfg = BulkBuildConfig {
        threads: 1,
        pool_frames: POOL_FRAMES,
    };
    let (built, _) = build_bulk(lazy, lazy.patterns(), store, &cfg).expect("bulk build succeeds");
    drop(built);
    MmapStore::open_checksummed(path, PAGE_SIZE).expect("store maps")
}

type HugeParts = (
    ContinentalNet,
    MmapStore,
    Arc<dyn LowerBoundEstimator>,
    Setup,
);

fn huge_setup(path: &Path) -> HugeParts {
    let (lazy, network_s) =
        timed(|| ContinentalNet::new(huge_config()).expect("tier config is valid"));
    let (store, store_build_s) = timed(|| build_store(&lazy, path));
    let (est, estimator_s) = timed(|| {
        let bd = BoundaryLb::build_partitioned_auto(&lazy, HUGE_GROUPS, WeightMode::Distance)
            .expect("partitioned estimator builds");
        let naive = NaiveLb::new(lazy.max_speed());
        Arc::new(MaxEstimator::new(naive, bd, "bdLB-part")) as Arc<dyn LowerBoundEstimator>
    });
    let s = Setup {
        network_s,
        estimator_s,
        store_build_s,
        ..Setup::default()
    };
    (lazy, store, est, s)
}

/// Serve `stream` from a flat engine over the CCAM store on `block`.
fn serve_huge<B: ccam::BlockStore + 'static>(
    p: &Params,
    stream: &Stream,
    block: B,
    est: &Arc<dyn LowerBoundEstimator>,
) -> (Served, f64) {
    let (disk, open_s) =
        timed(|| CcamStore::open(Arc::new(block), POOL_FRAMES).expect("store opens"));
    let counters = || {
        [
            disk.pool().stats().mapped(),
            disk.pool().store().io_stats().mmap_faults(),
        ]
    };
    let est = Box::new(Arc::clone(est));
    let config = EngineConfig::default();
    let served = if p.traced {
        let est = Box::new(TracedEstimator(est));
        serve_flat(p, stream, &TracedSource(&disk), est, config, &counters)
    } else {
        serve_flat(p, stream, &disk, est, config, &counters)
    };
    (served, open_s)
}

fn huge_mmap(p: &Params) -> Phase {
    let path = huge_path();
    let (lazy, mmap, est, mut s) = huge_setup(&path);
    let stream = Stream::new(p.seed, Pairs::parse_fixed(HUGE_PAIRS));
    let graph_mb = std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64 / MIB);
    let (served, open_s) = if p.traced {
        serve_huge(p, &stream, TracedStore(mmap), &est)
    } else {
        serve_huge(p, &stream, mmap, &est)
    };
    s.store_build_s += open_s;
    let _ = std::fs::remove_file(&path);
    let facts = Facts {
        graph_mb,
        ..Facts::default()
    };
    let mut ph = phase(vec![s], served, facts);
    let kept = std::mem::take(&mut ph.served.kept);
    check_kept(&lazy, kept.iter().take(MAX_CHECKED), &mut ph);
    ph
}

/// The continental tier's pair list: for each distance band, the first
/// [`SCREEN_PER_BAND`] distinct candidate pairs, drawn with a fixed key,
/// whose allFP and singleFP searches over the whole 3-hour rush finish
/// within [`SCREEN_BUDGET`] expanded paths on the generator itself.
/// The list is decided once and kept in `pairs/huge-mmap.txt`, so the
/// program under test does not choose the stream it is measured on.
pub fn screen_pairs() -> String {
    let lazy = ContinentalNet::new(huge_config()).expect("tier config is valid");
    let bd = BoundaryLb::build_partitioned_auto(&lazy, HUGE_GROUPS, WeightMode::Distance)
        .expect("partitioned estimator builds");
    let est = MaxEstimator::new(NaiveLb::new(lazy.max_speed()), bd, "bdLB-part");
    let engine = Engine::with_estimator(&lazy, Box::new(est), EngineConfig::default());
    let bands = Workload::HugeMmap.bands();
    let candidates = Pairs::Drawn {
        bands,
        locs: locs(&lazy),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# servebench huge-mmap pair list: <band> <source> <target>.\n\
         # Written by `servebench screen-pairs`: per band, the first {SCREEN_PER_BAND} distinct\n\
         # candidates whose allFP and singleFP searches over 7:00-10:00 stay within\n\
         # {SCREEN_BUDGET} expanded paths."
    );
    for (b, band) in bands.iter().enumerate() {
        let mut kept: Vec<(u32, u32)> = Vec::new();
        let mut left_out = 0usize;
        let mut i = 0u64;
        while kept.len() < SCREEN_PER_BAND {
            let (s, t) = candidates.pair(b, mix(SCREEN_KEY, b as u64 * 1_000_000 + i));
            i += 1;
            if kept.contains(&(s, t)) {
                continue;
            }
            let spec = QuerySpec::new(
                NodeId(s),
                NodeId(t),
                Interval::of(RUSH_START, RUSH_START + RUSH_MINUTES),
                DayCategory::WORKDAY,
            )
            .with_budget(QueryBudget::default().with_max_expansions(SCREEN_BUDGET));
            let all = matches!(engine.run_robust(&spec), Ok(QueryOutcome::Exact(_)));
            if all && engine.single_fastest_path(&spec).is_ok() {
                kept.push((s, t));
            } else {
                left_out += 1;
            }
        }
        let _ = writeln!(
            out,
            "# band {b}: {}-{} miles, {left_out} candidates left out",
            band.0, band.1
        );
        for (s, t) in kept {
            let _ = writeln!(out, "{b} {s} {t}");
        }
    }
    out
}

/// [`LiveBackend`] rebuilt from the same public parts, with the
/// epoch's network and estimator behind the tracing wrappers.
struct TracedLive<'m>(&'m EpochManager);

impl PathfindBackend for TracedLive<'_> {
    fn backend_name(&self) -> &'static str {
        "live"
    }

    fn cache_session(&self) -> allfp::CacheSession<'_> {
        self.0.cache().session()
    }

    fn cache_counters(&self) -> allfp::CacheCounters {
        self.0.cache().counters()
    }

    fn all_fastest_paths(&self, query: &allfp::QuerySpec) -> allfp::Result<allfp::AllFpAnswer> {
        self.with_engine(query, |e| e.all_fastest_paths(query))?
    }

    fn single_fastest_path(
        &self,
        query: &allfp::QuerySpec,
    ) -> allfp::Result<allfp::SingleFpAnswer> {
        self.with_engine(query, |e| e.single_fastest_path(query))?
    }

    fn robust_with_session(
        &self,
        query: &allfp::QuerySpec,
        session: &mut allfp::CacheSession<'_>,
        cancel: Option<&allfp::CancelToken>,
    ) -> Result<QueryOutcome, allfp::EngineError> {
        self.with_engine(query, |e| e.robust_with_session(query, session, cancel))
            .map_err(allfp::EngineError::from)?
    }
}

impl TracedLive<'_> {
    /// Run `f` on a flat engine over the query's pinned epoch, exactly
    /// as `LiveBackend` assembles it, with the tracing wrappers added.
    fn with_engine<R>(
        &self,
        query: &allfp::QuerySpec,
        f: impl FnOnce(&Engine<'_, TracedSource<'_, RoadNetwork>>) -> R,
    ) -> allfp::Result<R> {
        let epoch = self
            .0
            .pin(query.epoch)
            .ok_or(allfp::AllFpError::EpochRetired {
                epoch: query.epoch.map_or(0, |e| e.0),
            })?;
        let src = TracedSource(epoch.network().as_ref());
        let est: Arc<dyn LowerBoundEstimator> =
            Arc::new(TracedEstimator(Box::new(Arc::clone(epoch.estimator()))));
        let engine = Engine::with_shared(
            &src,
            est,
            Arc::clone(self.0.cache()),
            self.0.config().clone(),
        );
        Ok(f(&engine))
    }
}

fn live_setup() -> (EpochManager, Setup) {
    let (net, network_s) = timed(full_metro);
    let (mgr, estimator_s) =
        timed(|| EpochManager::new(net, flat_config()).expect("seed epoch builds"));
    let s = Setup {
        network_s,
        estimator_s,
        ..Setup::default()
    };
    (mgr, s)
}

fn live_deltas(p: &Params) -> Phase {
    let (mgr, s) = live_setup();
    let base = Arc::clone(mgr.current().network());
    let stream = Stream::new(p.seed, drawn(p.workload, base.as_ref()));
    let edges = base.n_edges() * LIVE_EDGE_PERCENT / 100;
    let live = Live {
        manager: &mgr,
        base: &base,
        edges,
        seed: p.seed,
    };
    let backend: Box<dyn PathfindBackend + Sync> = if p.traced {
        Box::new(TracedLive(&mgr))
    } else {
        Box::new(LiveBackend::new(&mgr))
    };
    let served = serve(backend.as_ref(), p, &stream, Some(&live), &no_counters);
    drop(backend);
    let mut ph = phase(vec![s], served, Facts::default());
    drop(mgr);
    drop(base);
    // Rebuild each kept answer's epoch by regenerating the applied
    // deltas and replaying them on a freshly generated network, in
    // epoch order.
    let mut kept = std::mem::take(&mut ph.served.kept);
    kept.sort_by_key(|k| k.epoch.unwrap_or(0));
    let base = full_metro();
    let mut incidents = Incidents::new(&base, edges, p.seed);
    let mut net = full_metro();
    let mut at_epoch = 0u64;
    for k in &kept {
        let want = k.epoch.unwrap_or(0);
        while at_epoch < want {
            let d = incidents.next().expect("incidents never end");
            net = net.apply_delta(&d).expect("regenerated delta applies").0;
            at_epoch += 1;
        }
        check_kept(&net, std::iter::once(k), &mut ph);
    }
    ph
}
