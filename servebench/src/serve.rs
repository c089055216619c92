//! The closed-loop serving phase.
//!
//! Queries go through `allfp::service::QueryService` on [`WORKERS`]
//! worker threads. The submitting thread plays [`WORKERS`] clients
//! (one, since two threads fit the 2-core reference host): it submits
//! a query, waits for its terminal outcome, and only then submits the
//! next. Client and worker are pinned to one CPU while serving.
//! Latency runs from just before `submit` to the moment the client
//! sees the outcome.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use allfp::service::{QueryService, ServiceConfig, ServiceOutcome, Submission, WallClock};
use allfp::{
    AllFpAnswer, CacheCounters, CacheSession, CancelToken, EngineError, EpochManager, FastestPath,
    PathfindBackend, QueryBudget, QueryOutcome, QuerySpec, QueryStats, SingleFpAnswer,
};
use pwl::Envelope;
use roadnet::{NetworkSource, RoadNetwork};
use traffic::{PatternUpdate, TrafficDelta};

use crate::run::{Params, MAX_CHECKED};
use crate::trace::{self, Hot, Span, Tally};
use crate::workload::{mix, Kind, Query, Stream, RUSH_POOL};

/// Service worker threads, and so closed-loop clients.
pub const WORKERS: usize = 1;

/// The expansion budget every query carries. It sits far above the
/// largest search any ch-rush or live-deltas query needs
/// (the largest seen is about 60k paths), so a query that trips it is
/// a blow-up, not a slow answer.
pub const BUDGET: usize = 400_000;

/// live-deltas: one delta every `LIVE_PERIOD` of serving, whatever the
/// serving speed, so a run applies the same number of deltas on a slow
/// host as on a fast one.
pub const LIVE_PERIOD: Duration = Duration::from_millis(100);

/// Measured queries a run serves at least, so that its p99 latency has
/// at least ten samples beyond it.
pub const MIN_QUERIES: u64 = 1000;

/// One answered query in `KEEP_EVERY` (seeded) is kept for the checker.
pub const KEEP_EVERY: u64 = 12;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("benchmark lock poisoned by a panicked thread")
}

/// What the backend wrapper saw of one query.
pub struct Done {
    /// Query id.
    pub qid: u64,
    /// Epoch the service pinned the query to (live workloads).
    pub epoch: Option<u64>,
    /// Backend call start and end.
    pub start: Instant,
    /// End of the backend call.
    pub end: Instant,
    /// The singleFP answer, for singleFP queries that succeeded.
    pub single: Option<SingleFpAnswer>,
    /// Hot-boundary tallies of the call (traced runs only).
    pub tallies: [Tally; 3],
}

/// The service's primary backend: the workload's backend behind the
/// benchmark's own [`PathfindBackend`].
///
/// `QueryService` only serves allFP (`robust_with_session`). A singleFP
/// query is sent to the inner backend's `single_fastest_path`, and its
/// path comes back to the service as a one-path answer; the
/// `SingleFpAnswer` itself reaches the client through [`Done`].
pub struct Backend<'b, B: ?Sized> {
    inner: &'b B,
    traced: bool,
    pending: Mutex<Vec<(QuerySpec, u64, Kind)>>,
    done: Mutex<Vec<Done>>,
    signal: Condvar,
}

/// Two specs name the same submission whatever epoch the service
/// stamped on one of them.
fn same_submission(a: &QuerySpec, b: &QuerySpec) -> bool {
    a.source == b.source
        && a.target == b.target
        && a.interval == b.interval
        && a.category == b.category
        && a.budget == b.budget
}

impl<'b, B: PathfindBackend + ?Sized> Backend<'b, B> {
    /// Wrap `inner`; `traced` collects hot-boundary tallies per call.
    pub fn new(inner: &'b B, traced: bool) -> Self {
        Backend {
            inner,
            traced,
            pending: Mutex::new(Vec::new()),
            done: Mutex::new(Vec::new()),
            signal: Condvar::new(),
        }
    }

    fn register(&self, spec: &QuerySpec, qid: u64, kind: Kind) {
        lock(&self.pending).push((spec.clone(), qid, kind));
    }

    fn claim(&self, spec: &QuerySpec) -> Option<(u64, Kind)> {
        let mut p = lock(&self.pending);
        let at = p.iter().position(|(s, _, _)| same_submission(s, spec))?;
        let (_, qid, kind) = p.remove(at);
        Some((qid, kind))
    }

    /// Wait until the backend has finished some call, or `timeout`.
    fn wait_done(&self, timeout: Duration) -> Option<Done> {
        let guard = lock(&self.done);
        let (mut guard, _) = self
            .signal
            .wait_timeout_while(guard, timeout, |d| d.is_empty())
            .expect("benchmark lock poisoned by a panicked thread");
        guard.pop()
    }
}

/// A singleFP answer as the one-path allFP answer the service carries.
fn one_path_answer(query: &QuerySpec, s: &SingleFpAnswer) -> AllFpAnswer {
    AllFpAnswer {
        paths: vec![FastestPath {
            nodes: s.path.nodes.clone(),
            travel: s.path.travel.clone(),
        }],
        partition: vec![(query.interval, 0)],
        lower_border: Envelope::new(s.path.travel.clone(), 0usize),
        stats: s.stats,
    }
}

impl<B: PathfindBackend + ?Sized> PathfindBackend for Backend<'_, B> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn cache_session(&self) -> CacheSession<'_> {
        self.inner.cache_session()
    }

    fn cache_counters(&self) -> CacheCounters {
        self.inner.cache_counters()
    }

    fn all_fastest_paths(&self, query: &QuerySpec) -> allfp::Result<AllFpAnswer> {
        self.inner.all_fastest_paths(query)
    }

    fn single_fastest_path(&self, query: &QuerySpec) -> allfp::Result<SingleFpAnswer> {
        self.inner.single_fastest_path(query)
    }

    fn robust_with_session(
        &self,
        query: &QuerySpec,
        session: &mut CacheSession<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<QueryOutcome, EngineError> {
        let (qid, kind) = self
            .claim(query)
            .expect("every submitted query is registered first");
        if self.traced {
            trace::take();
        }
        let start = Instant::now();
        let mut single = None;
        let out = match kind {
            Kind::All => self.inner.robust_with_session(query, session, cancel),
            Kind::Single => match self.inner.single_fastest_path(query) {
                Ok(s) => {
                    let a = one_path_answer(query, &s);
                    single = Some(s);
                    Ok(QueryOutcome::Exact(a))
                }
                Err(e) => Err(EngineError::from(e)),
            },
        };
        let end = Instant::now();
        let tallies = if self.traced {
            trace::take()
        } else {
            [Tally::default(); 3]
        };
        lock(&self.done).push(Done {
            qid,
            epoch: query.epoch.map(|e| e.0),
            start,
            end,
            single,
            tallies,
        });
        self.signal.notify_all();
        out
    }
}

/// An answered query kept for the checker.
pub struct Kept {
    /// The query.
    pub query: Query,
    /// The epoch it was pinned to (live workloads).
    pub epoch: Option<u64>,
    /// The allFP answer (allFP queries).
    pub all: Option<Box<AllFpAnswer>>,
    /// The singleFP answer (singleFP queries).
    pub single: Option<SingleFpAnswer>,
}

/// Sums of per-query search counters over measured, answered queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatSums {
    pub expanded_paths: f64,
    pub pushed: f64,
    pub pruned_by_border: f64,
    pub pruned_dominated: f64,
    pub border_merges: f64,
    pub cache_lookups: f64,
    pub cache_hits: f64,
    pub pieces_total: f64,
    pub pieces_max: f64,
    pub bytes_allocated: f64,
    pub compositions_saved: f64,
}

impl StatSums {
    fn add(&mut self, s: &QueryStats) {
        self.expanded_paths += s.expanded_paths as f64;
        self.pushed += s.pushed as f64;
        self.pruned_by_border += s.pruned_by_border as f64;
        self.pruned_dominated += s.pruned_dominated as f64;
        self.border_merges += s.border_merges as f64;
        self.cache_lookups += s.cache_lookups as f64;
        self.cache_hits += s.cache_hits as f64;
        self.pieces_total += s.pieces_total as f64;
        self.pieces_max += s.pieces_max as f64;
        self.bytes_allocated += s.bytes_allocated as f64;
        self.compositions_saved += s.compositions_saved as f64;
    }
}

/// Per-query traced timings (traced runs only).
#[derive(Debug, Clone, Copy)]
pub struct QueryTrace {
    /// Submit to backend-call start.
    pub queue_wait_ns: f64,
    /// Latency minus the backend span.
    pub overhead_ns: f64,
    /// Backend span minus its estimator and source children.
    pub engine_self_ns: f64,
    /// Hot-boundary tallies.
    pub tallies: [Tally; 3],
}

/// Live traffic: one delta of `edges` edges every [`LIVE_PERIOD`],
/// applied on a writer thread beside the serving. See [`Incidents`] for the deltas' shape.
pub struct Live<'m> {
    pub manager: &'m EpochManager,
    pub base: &'m RoadNetwork,
    pub edges: usize,
    pub seed: u64,
}

/// One applied delta, for the epoch layer's metrics. The delta itself
/// is not kept: the checker regenerates it with [`Incidents`].
pub struct Applied {
    /// Queries submitted when it was applied.
    pub after_query: u64,
    /// `apply_delta` wall time.
    pub apply_ns: u64,
    /// Superseded epochs still pinned after the apply.
    pub retire_lag: u64,
    /// Cache entries the apply's sweep flushed.
    pub flushed: u64,
}

/// Everything one serving phase measured.
#[derive(Default)]
pub struct Served {
    /// Measured queries submitted.
    pub attempted: u64,
    /// Measured outcomes: exact, degraded, failed, rejected at
    /// admission, cancelled.
    pub answered: u64,
    pub degraded: u64,
    pub failed: u64,
    pub rejected: u64,
    pub cancelled: u64,
    /// Latency of each measured answered query, nanoseconds.
    pub latency_ns: Vec<u64>,
    /// Serving wall time summed over the measured windows.
    pub wall: Duration,
    /// Search counters over measured answered queries.
    pub sums: StatSums,
    /// Allocation events and bytes over the measured windows.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Queries kept for the checker.
    pub kept: Vec<Kept>,
    /// Traced timings of measured answered queries.
    pub traces: Vec<QueryTrace>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
    /// Deltas applied (live workloads).
    pub applied: Vec<Applied>,
    /// Whether the service's counters reconciled at the end.
    pub reconciles: bool,
    /// Largest expansion count of any measured query.
    pub max_expanded: usize,
    /// Growth of the caller's layer counters over the measured windows.
    pub counters: [u64; 2],
}

/// Serve rounds of `stream` through a `QueryService` over `backend`
/// until at least `p.seconds` of measured serving time have passed, at
/// least [`MIN_QUERIES`] measured queries were attempted, and the
/// measured rounds make whole cycles of [`RUSH_POOL`] rounds.
/// Round 0 warms caches up and is not measured. `counters()` reads
/// layer counters whose growth is summed over measured windows.
pub fn serve<B: PathfindBackend + Sync + ?Sized>(
    backend: &B,
    p: &Params,
    stream: &Stream,
    live: Option<&Live<'_>>,
    counters: &dyn Fn() -> [u64; 2],
) -> Served {
    let traced = p.traced;
    let keep = |q: &Query| mix(p.seed ^ 0xC4EC, q.id).is_multiple_of(KEEP_EVERY);
    let wrapper = Backend::new(backend, traced);
    let clock = WallClock::new();
    let config = ServiceConfig {
        shed_expired: false,
        ..ServiceConfig::default()
    };
    let mut svc = QueryService::new(&wrapper, &clock, config);
    if let Some(l) = live {
        svc = svc.with_epochs(l.manager);
    }
    let t0 = Instant::now();
    let mut out = Served::default();
    let submitted = &AtomicU64::new(0);
    let applied = std::thread::scope(|scope| {
        let (stop, stopped) = mpsc::channel::<()>();
        let writer = live.map(|l| scope.spawn(move || write_deltas(l, stopped, submitted)));
        // Client and worker share one CPU (see `pin.rs`); the delta
        // writer, spawned before, keeps the other.
        let _pinned = crate::pin::here();
        svc.serve(WORKERS, |svc| {
            let mut round = 0u64;
            loop {
                let queries = stream.round(round);
                let measured = round > 0;
                let counters0 = counters();
                let alloc0 = fpbench::alloc::snapshot();
                let w0 = Instant::now();
                for q in queries {
                    let spec = q
                        .spec
                        .clone()
                        .with_budget(QueryBudget::default().with_max_expansions(BUDGET));
                    wrapper.register(&spec, q.id, q.kind);
                    let t_sub = Instant::now();
                    let admitted = svc.submit(Submission::new(spec)).is_ok();
                    submitted.fetch_add(1, Ordering::Relaxed);
                    let (outcome, done) = if admitted {
                        wait_outcome(svc, &wrapper)
                    } else {
                        (None, None)
                    };
                    let seen = Instant::now();
                    if measured {
                        record(&mut out, q, outcome, done, t_sub, seen, t0, traced, &keep);
                    }
                }
                if measured {
                    out.wall += w0.elapsed();
                    let d = fpbench::alloc::snapshot().since(&alloc0);
                    out.allocs += d.allocs;
                    out.alloc_bytes += d.bytes;
                    let c = counters();
                    for i in 0..2 {
                        out.counters[i] += c[i] - counters0[i];
                    }
                }
                if out.wall.as_secs_f64() >= p.seconds
                    && out.attempted >= MIN_QUERIES
                    && round.is_multiple_of(RUSH_POOL as u64)
                {
                    break;
                }
                round += 1;
            }
        });
        drop(stop);
        writer.map(|w| w.join().expect("delta writer panicked"))
    });
    out.applied = applied.unwrap_or_default();
    let stats = svc.stats();
    out.reconciles = stats.reconciles();
    out
}

/// Block until the one in-flight query resolves.
fn wait_outcome<B: PathfindBackend + ?Sized>(
    svc: &QueryService<'_, Backend<'_, B>>,
    wrapper: &Backend<'_, B>,
) -> (Option<ServiceOutcome>, Option<Done>) {
    let mut done = None;
    loop {
        if let Some((_, o)) = svc.take_outcomes().pop() {
            if done.is_none() {
                done = lock(&wrapper.done).pop();
            }
            return (Some(o), done);
        }
        if done.is_none() {
            done = wrapper.wait_done(Duration::from_millis(5));
        } else {
            std::thread::yield_now();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn record(
    out: &mut Served,
    q: Query,
    outcome: Option<ServiceOutcome>,
    done: Option<Done>,
    t_sub: Instant,
    seen: Instant,
    t0: Instant,
    traced: bool,
    keep: &dyn Fn(&Query) -> bool,
) {
    out.attempted += 1;
    let latency = seen.duration_since(t_sub);
    // A degraded answer is not the exact answer asked for: it counts as
    // a failed operation.
    match &outcome {
        None => out.rejected += 1,
        Some(ServiceOutcome::Answered(_)) => out.answered += 1,
        Some(ServiceOutcome::Degraded(_)) => out.degraded += 1,
        Some(ServiceOutcome::Failed(_)) => out.failed += 1,
        Some(ServiceOutcome::Cancelled(_)) => out.cancelled += 1,
    }
    if let Some(ServiceOutcome::Degraded(d)) = &outcome {
        out.max_expanded = out.max_expanded.max(d.stats.expanded_paths);
    }
    let Some(ServiceOutcome::Answered(answer)) = outcome else {
        return;
    };
    out.latency_ns.push(latency.as_nanos() as u64);
    out.sums.add(&answer.stats);
    out.max_expanded = out.max_expanded.max(answer.stats.expanded_paths);
    let Some(done) = done.filter(|d| d.qid == q.id) else {
        return;
    };
    if traced {
        let backend_ns = done.end.duration_since(done.start).as_nanos() as f64;
        let est = done.tallies[Hot::Estimator as usize].est_ns();
        let src = done.tallies[Hot::Source as usize].est_ns();
        out.traces.push(QueryTrace {
            queue_wait_ns: done.start.saturating_duration_since(t_sub).as_nanos() as f64,
            overhead_ns: (latency.as_nanos() as f64 - backend_ns).max(0.0),
            engine_self_ns: (backend_ns - est - src).max(0.0),
            tallies: done.tallies,
        });
        let at = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
        out.spans.push(Span {
            qid: q.id,
            name: "service",
            parent: None,
            start_ns: at(t_sub),
            dur_ns: latency.as_nanos() as f64,
            calls: 1,
        });
        out.spans.push(Span {
            qid: q.id,
            name: "backend",
            parent: Some("service"),
            start_ns: at(done.start),
            dur_ns: backend_ns,
            calls: 1,
        });
        for hot in Hot::ALL {
            let t = done.tallies[hot as usize];
            if t.calls > 0 {
                out.spans.push(Span {
                    qid: q.id,
                    name: hot.name(),
                    parent: Some(hot.parent()),
                    start_ns: at(done.start),
                    dur_ns: t.est_ns(),
                    calls: t.calls,
                });
            }
        }
    }
    // The checker reads the first `MAX_CHECKED` kept answers; keeping
    // more would only grow the process.
    if keep(&q) && out.kept.len() < MAX_CHECKED {
        let all = match q.kind {
            Kind::All => Some(answer),
            Kind::Single => None,
        };
        out.kept.push(Kept {
            epoch: done.epoch,
            single: done.single,
            all,
            query: q,
        });
    }
}

/// The seeded deltas live-deltas applies, in order. Each is an
/// incident that replaces the previous one: it restores the base
/// patterns of the edges the previous delta touched and rescales a
/// fresh seeded set of `edges` edges (`RoadNetwork::seeded_delta` over
/// the base network). The network thus always differs from the base by
/// one delta's edges, instead of drifting further with every delta.
pub struct Incidents<'n> {
    base: &'n RoadNetwork,
    edges: usize,
    seed: u64,
    seq: u64,
    previous: Vec<PatternUpdate>,
}

impl<'n> Incidents<'n> {
    /// The deltas over `base` that `seed` draws, `edges` edges each.
    pub fn new(base: &'n RoadNetwork, edges: usize, seed: u64) -> Self {
        Incidents {
            base,
            edges,
            seed,
            seq: 0,
            previous: Vec::new(),
        }
    }
}

impl Iterator for Incidents<'_> {
    type Item = TrafficDelta;

    fn next(&mut self) -> Option<TrafficDelta> {
        self.seq += 1;
        let seq = self.seq;
        let fresh = self
            .base
            .seeded_delta(self.seed ^ seq.wrapping_mul(0x9E37_79B9), self.edges, seq)
            .expect("seeded delta builds")
            .updates;
        let mut updates: Vec<PatternUpdate> = self
            .previous
            .iter()
            .map(|u| PatternUpdate {
                pattern: base_pattern(self.base, u.from, u.to),
                ..u.clone()
            })
            .collect();
        updates.extend(fresh.iter().cloned());
        self.previous = fresh;
        Some(TrafficDelta::new(seq, updates))
    }
}

/// The writer thread: the next delta of [`Incidents`] every
/// [`LIVE_PERIOD`] while the worker serves, until `stop` disconnects.
fn write_deltas(live: &Live<'_>, stop: mpsc::Receiver<()>, submitted: &AtomicU64) -> Vec<Applied> {
    let mut applied = Vec::new();
    let mut incidents = Incidents::new(live.base, live.edges, live.seed);
    let start = Instant::now();
    loop {
        let due = start + LIVE_PERIOD * (applied.len() as u32 + 1);
        match stop.recv_timeout(due.saturating_duration_since(Instant::now())) {
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            _ => break,
        }
        let after_query = submitted.load(Ordering::Relaxed);
        let delta = incidents.next().expect("incidents never end");
        let t = Instant::now();
        let report = live.manager.apply_delta(&delta).expect("delta applies");
        let apply_ns = t.elapsed().as_nanos() as u64;
        applied.push(Applied {
            after_query,
            apply_ns,
            retire_lag: report.sweep.epoch_retire_lag,
            flushed: report.sweep.cache_entries_flushed,
        });
    }
    applied
}

/// The pattern `base` gives edge `from -> to`.
fn base_pattern(base: &RoadNetwork, from: u32, to: u32) -> traffic::CapeCodPattern {
    let edges = base
        .successors(roadnet::NodeId(from))
        .expect("delta edges exist in the base network");
    let e = edges
        .iter()
        .find(|e| e.to.0 == to)
        .expect("delta edges exist in the base network");
    base.pattern(e.pattern)
        .expect("base edges name base patterns")
        .clone()
}
