//! The answer checker: served answers against computations that do
//! not use the interval search.
//!
//! For each kept answer, at [`PROBES`] evenly spaced instants of its
//! interval:
//! * allFP: the lower border equals the fixed-instant oracle
//!   (`baseline::astar_at`); driving the path the partition tags there
//!   (`baseline::evaluate_path`) reproduces the border; the partition
//!   covers the interval contiguously with adjacent sub-intervals on
//!   different paths; arrival time never decreases with leaving time.
//! * singleFP: the optimum equals the oracle at its reported leaving
//!   instant and is no worse than the oracle at every probe.

use allfp::baseline::{astar_at, evaluate_path};
use allfp::{AllFpAnswer, NaiveLb, SingleFpAnswer};
use pwl::{Interval, Pwl};
use roadnet::NetworkSource;

use crate::serve::Kept;
use crate::workload::Kind;

/// Probe instants per answer.
pub const PROBES: usize = 7;

/// Instants at which arrival times are compared for FIFO.
const FIFO_STEPS: usize = 64;

/// Relative tolerance against the oracle.
pub const REL_TOL: f64 = 1e-6;

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * want.abs().max(1.0)
}

fn instants(iv: Interval, n: usize) -> impl Iterator<Item = f64> {
    let (lo, hi) = (iv.lo(), iv.hi());
    (0..n).map(move |i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
}

/// Check one kept answer against `net`, the network version it was
/// answered on. Returns the number of comparisons made.
pub fn check<S: NetworkSource>(net: &S, k: &Kept) -> Result<u64, String> {
    let spec = &k.query.spec;
    let est = NaiveLb::new(net.max_speed());
    let ctx = |what: String| format!("query {} ({:?}): {what}", k.query.id, spec);
    let oracle = |l: f64| {
        astar_at(net, spec.source, spec.target, l, spec.category, &est)
            .map(|a| a.travel_minutes)
            .map_err(|e| ctx(format!("oracle failed at {l}: {e}")))
    };
    let drive = |nodes: &[roadnet::NodeId], l: f64| {
        evaluate_path(net, nodes, l, spec.category)
            .map_err(|e| ctx(format!("evaluate_path failed at {l}: {e}")))
    };
    match k.query.kind {
        Kind::All => {
            let a = k
                .all
                .as_deref()
                .ok_or_else(|| ctx("allFP answer missing".into()))?;
            let mut n = check_partition(a, spec.interval).map_err(ctx)?;
            for l in instants(spec.interval, PROBES) {
                let border = a
                    .travel_at(l)
                    .ok_or_else(|| ctx(format!("border undefined at {l}")))?;
                let want = oracle(l)?;
                if !close(border, want) {
                    return Err(ctx(format!("border {border} != oracle {want} at {l}")));
                }
                let path = a
                    .path_at(l)
                    .ok_or_else(|| ctx(format!("no path tagged at {l}")))?;
                check_ends(&path.nodes, spec).map_err(ctx)?;
                let driven = drive(&path.nodes, l)?;
                if !close(driven, border) {
                    return Err(ctx(format!(
                        "tagged path drives {driven} != border {border} at {l}"
                    )));
                }
                n += 3;
            }
            n += check_fifo(a.lower_border.as_pwl(), spec.interval).map_err(ctx)?;
            Ok(n)
        }
        Kind::Single => {
            let s: &SingleFpAnswer = k
                .single
                .as_ref()
                .ok_or_else(|| ctx("singleFP answer missing".into()))?;
            check_ends(&s.path.nodes, spec).map_err(ctx)?;
            let at = s.best_leaving.lo();
            if !spec.interval.contains_approx(at) {
                return Err(ctx(format!("best leaving {at} outside the interval")));
            }
            let want = oracle(at)?;
            if !close(s.travel_minutes, want) {
                return Err(ctx(format!(
                    "optimum {} != oracle {want} at its leaving instant {at}",
                    s.travel_minutes
                )));
            }
            let driven = drive(&s.path.nodes, at)?;
            if !close(driven, s.travel_minutes) {
                return Err(ctx(format!(
                    "path drives {driven} != optimum {} at {at}",
                    s.travel_minutes
                )));
            }
            let mut n = 2;
            for l in instants(spec.interval, PROBES) {
                let o = oracle(l)?;
                if s.travel_minutes > o + REL_TOL * o.abs().max(1.0) {
                    return Err(ctx(format!(
                        "optimum {} worse than oracle {o} at {l}",
                        s.travel_minutes
                    )));
                }
                n += 1;
            }
            n += check_fifo(&s.path.travel, spec.interval).map_err(ctx)?;
            Ok(n)
        }
    }
}

fn check_ends(nodes: &[roadnet::NodeId], spec: &allfp::QuerySpec) -> Result<(), String> {
    if nodes.first() != Some(&spec.source) || nodes.last() != Some(&spec.target) {
        return Err(format!("path {nodes:?} does not run source to target"));
    }
    Ok(())
}

/// The partition covers `iv` contiguously, each entry names a path of
/// the answer, and adjacent entries name different paths.
fn check_partition(a: &AllFpAnswer, iv: Interval) -> Result<u64, String> {
    let p = &a.partition;
    let (Some(first), Some(last)) = (p.first(), p.last()) else {
        return Err("empty partition".into());
    };
    if !pwl::approx_eq(first.0.lo(), iv.lo()) || !pwl::approx_eq(last.0.hi(), iv.hi()) {
        return Err(format!(
            "partition spans [{}, {}], interval is [{}, {}]",
            first.0.lo(),
            last.0.hi(),
            iv.lo(),
            iv.hi()
        ));
    }
    for (sub, idx) in p {
        if *idx >= a.paths.len() {
            return Err(format!("partition names path {idx} of {}", a.paths.len()));
        }
        if sub.lo() > sub.hi() {
            return Err(format!("empty sub-interval [{}, {}]", sub.lo(), sub.hi()));
        }
    }
    for w in p.windows(2) {
        if !pwl::approx_eq(w[0].0.hi(), w[1].0.lo()) {
            return Err(format!(
                "gap or overlap between {} and {}",
                w[0].0.hi(),
                w[1].0.lo()
            ));
        }
        if w[0].1 == w[1].1 {
            return Err(format!("adjacent sub-intervals share path {}", w[0].1));
        }
    }
    Ok(p.len() as u64)
}

/// Arrival `l + T(l)` never decreases in `l` (FIFO).
fn check_fifo(travel: &Pwl, iv: Interval) -> Result<u64, String> {
    let mut prev = f64::NEG_INFINITY;
    for l in instants(iv, FIFO_STEPS) {
        let arrival = l + travel.eval_clamped(l);
        if arrival < prev - 1e-9 {
            return Err(format!("arrival falls to {arrival} from {prev} at {l}"));
        }
        prev = arrival;
    }
    Ok(FIFO_STEPS as u64)
}
