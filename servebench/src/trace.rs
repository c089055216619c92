//! Layer-boundary tracing from outside the program.
//!
//! The benchmark wraps the program's public traits in its own types:
//! [`TracedSource`] around a `NetworkSource`, [`TracedEstimator`]
//! around a `LowerBoundEstimator` and [`TracedStore`] around a
//! `BlockStore`. The service → backend boundary is traced by the
//! backend wrapper in `serve.rs`. These inner boundaries are hot
//! (thousands of calls per query), so every call is counted exactly
//! but only one call in [`SAMPLE`] reads the clock; a layer's time is
//! its sampled time scaled by `calls / sampled`.
//!
//! Tallies are thread-local: a query runs on one service worker, so
//! the backend wrapper attributes everything its thread tallied during
//! the call to that query's span.

use std::cell::Cell;
use std::time::Instant;

use allfp::LowerBoundEstimator;
use ccam::{BlockStore, IoStats};
use roadnet::{Edge, NetworkSource, NodeId, PatternId, Point};
use traffic::CapeCodPattern;

/// One call in `SAMPLE` at a hot boundary is timed.
pub const SAMPLE: u64 = 16;

/// The hot inner boundaries, children of the backend span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hot {
    /// `LowerBoundEstimator::travel_lower_bound`.
    Estimator = 0,
    /// `NetworkSource` calls (find_node, successors, pattern, ...).
    Source = 1,
    /// `BlockStore` page reads and borrows (child of `Source`).
    Page = 2,
}

impl Hot {
    /// Every hot boundary, in tally order.
    pub const ALL: [Hot; 3] = [Hot::Estimator, Hot::Source, Hot::Page];

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Hot::Estimator => "estimator",
            Hot::Source => "source",
            Hot::Page => "page",
        }
    }

    /// Name of the span this boundary's calls are made from.
    pub fn parent(self) -> &'static str {
        match self {
            Hot::Estimator | Hot::Source => "backend",
            Hot::Page => "source",
        }
    }
}

/// Calls at one boundary and the clock-sampled part of their time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Calls made (exact).
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Nanoseconds spent in the timed calls.
    pub sampled_ns: u64,
}

impl Tally {
    /// Estimated nanoseconds over all calls.
    pub fn est_ns(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.sampled_ns as f64 * self.calls as f64 / self.sampled as f64
        }
    }

    /// Add another tally into this one.
    pub fn add(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }
}

thread_local! {
    static TALLIES: [Cell<Tally>; 3] = Default::default();
}

/// Run `f` as one call at boundary `hot`: counted always, timed one
/// call in [`SAMPLE`].
pub fn at<R>(hot: Hot, f: impl FnOnce() -> R) -> R {
    let timed = TALLIES.with(|t| {
        let cell = &t[hot as usize];
        let mut tally = cell.get();
        tally.calls += 1;
        cell.set(tally);
        tally.calls % SAMPLE == 0
    });
    if !timed {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    TALLIES.with(|t| {
        let cell = &t[hot as usize];
        let mut tally = cell.get();
        tally.sampled += 1;
        tally.sampled_ns += ns;
        cell.set(tally);
    });
    out
}

/// Read and reset this thread's tallies.
pub fn take() -> [Tally; 3] {
    TALLIES.with(|t| [t[0].take(), t[1].take(), t[2].take()])
}

/// One recorded span. Hot boundaries are recorded as one aggregate
/// span per query and boundary (`calls` > 0, duration estimated).
#[derive(Debug, Clone)]
pub struct Span {
    /// Query id shared by every span of one query.
    pub qid: u64,
    /// Layer boundary.
    pub name: &'static str,
    /// Name of the span that caused this one (`None` for the root).
    pub parent: Option<&'static str>,
    /// Start, nanoseconds since the serving phase began.
    pub start_ns: u64,
    /// Duration in nanoseconds (estimated for hot boundaries).
    pub dur_ns: f64,
    /// Calls aggregated into this span (1 for a plain span).
    pub calls: u64,
}

impl Span {
    /// The span as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"qid\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{:.0},\"calls\":{}}}",
            self.qid,
            self.name,
            self.parent
                .map_or("null".to_string(), |p| format!("\"{p}\"")),
            self.start_ns,
            self.dur_ns,
            self.calls
        )
    }
}

/// A traced [`NetworkSource`].
pub struct TracedSource<'a, S: ?Sized>(pub &'a S);

impl<S: NetworkSource + ?Sized> NetworkSource for TracedSource<'_, S> {
    fn n_nodes(&self) -> usize {
        self.0.n_nodes()
    }

    fn find_node(&self, node: NodeId) -> roadnet::Result<Point> {
        at(Hot::Source, || self.0.find_node(node))
    }

    fn successors(&self, node: NodeId) -> roadnet::Result<Vec<Edge>> {
        at(Hot::Source, || self.0.successors(node))
    }

    fn successors_into(&self, node: NodeId, buf: &mut Vec<Edge>) -> roadnet::Result<()> {
        at(Hot::Source, || self.0.successors_into(node, buf))
    }

    fn pattern(&self, id: PatternId) -> roadnet::Result<&CapeCodPattern> {
        at(Hot::Source, || self.0.pattern(id))
    }

    fn max_speed(&self) -> f64 {
        self.0.max_speed()
    }

    fn euclidean(&self, a: NodeId, b: NodeId) -> roadnet::Result<f64> {
        at(Hot::Source, || self.0.euclidean(a, b))
    }
}

/// A traced [`LowerBoundEstimator`].
pub struct TracedEstimator<'a>(pub Box<dyn LowerBoundEstimator + 'a>);

impl LowerBoundEstimator for TracedEstimator<'_> {
    fn travel_lower_bound(&self, from: NodeId, from_loc: Point, to: NodeId, to_loc: Point) -> f64 {
        at(Hot::Estimator, || {
            self.0.travel_lower_bound(from, from_loc, to, to_loc)
        })
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A traced [`BlockStore`].
pub struct TracedStore<B>(pub B);

impl<B: BlockStore> BlockStore for TracedStore<B> {
    fn page_size(&self) -> usize {
        self.0.page_size()
    }

    fn n_pages(&self) -> u64 {
        self.0.n_pages()
    }

    fn allocate(&self) -> ccam::Result<u64> {
        self.0.allocate()
    }

    fn read_page(&self, id: u64, buf: &mut [u8]) -> ccam::Result<()> {
        at(Hot::Page, || self.0.read_page(id, buf))
    }

    fn write_page(&self, id: u64, buf: &[u8]) -> ccam::Result<()> {
        self.0.write_page(id, buf)
    }

    fn page_ref(&self, id: u64) -> ccam::Result<Option<&[u8]>> {
        at(Hot::Page, || self.0.page_ref(id))
    }

    fn io_stats(&self) -> &IoStats {
        self.0.io_stats()
    }
}
