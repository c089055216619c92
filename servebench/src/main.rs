//! `servebench`: served fastest-path queries, measured end to end and
//! layer by layer.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! servebench screen-pairs > servebench/pairs/huge-mmap.txt
//! ```
//!
//! Runs one workload (`ch-rush`, `huge-mmap`, `live-deltas`) in this
//! process: sets it up, serves a seeded closed-loop query stream
//! through `allfp::service::QueryService`, checks a seeded sample of
//! the answers against the fixed-instant oracle, and prints its
//! metrics. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` serves half
//! the time untraced and half traced behind the benchmark's wrapper
//! types, and prints the per-layer metrics, the layers' self times and
//! the tracing overhead; its spans go to
//! `.servebench/trace-<workload>-<seed>.jsonl`. `screen-pairs` writes
//! huge-mmap's fixed pair list (see `run::screen_pairs`). See README.md.

mod check;
mod pin;
mod run;
mod serve;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

use run::{Params, Phase, DATA_DIR};
use trace::Hot;
use workload::{Workload, ROUND};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("servebench: {msg}");
    eprintln!(
        "usage: servebench --workload <ch-rush|huge-mmap|live-deltas> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or(false),
    }
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn qps(ph: &Phase) -> f64 {
    ph.served.answered as f64 / ph.served.wall.as_secs_f64().max(1e-9)
}

fn end_to_end(ph: &Phase) -> Metrics {
    let mut lat = ph.served.latency_ns.clone();
    lat.sort_unstable();
    let mut setup: Vec<f64> = ph.setups.iter().map(|s| s.total()).collect();
    vec![
        ("qps", qps(ph), "1/s"),
        ("latency_p50_ms", percentile(&lat, 50.0) / 1e6, "ms"),
        ("latency_p99_ms", percentile(&lat, 99.0) / 1e6, "ms"),
        ("setup_s", median(&mut setup), "s"),
        ("peak_rss_mb", ph.peak_rss_mb, "MiB"),
    ]
}

/// Per-layer metrics of a traced phase `t`, with set-up times and the
/// tracing overhead taken against the untraced phase `u`.
fn per_layer(w: Workload, u: &Phase, t: &Phase) -> Metrics {
    let s = &t.served;
    let n = s.answered.max(1) as f64;
    let sums = &s.sums;
    let traces = &s.traces;
    let med_ms = |f: &dyn Fn(&serve::QueryTrace) -> f64| {
        let mut v: Vec<f64> = traces.iter().map(f).collect();
        median(&mut v) / 1e6
    };
    let queue_wait = med_ms(&|q| q.queue_wait_ns);
    let overhead = med_ms(&|q| q.overhead_ns);
    let mut hot = [trace::Tally::default(); 3];
    let mut engine_self_ns = 0.0;
    for q in traces {
        for h in Hot::ALL {
            hot[h as usize].add(&q.tallies[h as usize]);
        }
        engine_self_ns += q.engine_self_ns;
    }
    let per_q_ms = |ns: f64| ns / n / 1e6;
    let page_ns = hot[Hot::Page as usize].est_ns();
    let source_self_ns = (hot[Hot::Source as usize].est_ns() - page_ns).max(0.0);
    let setup_med = |f: fn(&run::Setup) -> f64| {
        let mut v: Vec<f64> = u.setups.iter().map(f).collect();
        median(&mut v)
    };
    let measured_deltas: Vec<&serve::Applied> = s
        .applied
        .iter()
        .filter(|a| a.after_query >= ROUND as u64)
        .collect();
    let mut apply_ms: Vec<f64> = measured_deltas
        .iter()
        .map(|a| a.apply_ns as f64 / 1e6)
        .collect();
    let flushed: u64 = measured_deltas.iter().map(|a| a.flushed).sum();
    let retire_lag = measured_deltas
        .iter()
        .map(|a| a.retire_lag)
        .max()
        .unwrap_or(0);
    let is_ch = w == Workload::ChRush;
    let hier = |v: f64| if is_ch { v } else { 0.0 };
    let overhead_pct = (qps(u) / qps(t) - 1.0) * 100.0;
    vec![
        ("service.queue_wait_ms", queue_wait, "ms"),
        ("service.overhead_ms", overhead, "ms"),
        (
            "engine.expanded_paths",
            sums.expanded_paths / n,
            "count/query",
        ),
        ("engine.pushed", sums.pushed / n, "count/query"),
        (
            "engine.pruned_by_border",
            sums.pruned_by_border / n,
            "count/query",
        ),
        (
            "engine.pruned_dominated",
            sums.pruned_dominated / n,
            "count/query",
        ),
        (
            "engine.border_merges",
            sums.border_merges / n,
            "count/query",
        ),
        ("engine.self_ms", per_q_ms(engine_self_ns), "ms/query"),
        ("pwl.pieces_total", sums.pieces_total / n, "count/query"),
        ("pwl.pieces_max", sums.pieces_max / n, "count/query"),
        (
            "pwl.composed_bytes",
            sums.bytes_allocated / n,
            "bytes/query",
        ),
        (
            "cache.hit_rate",
            sums.cache_hits / sums.cache_lookups.max(1.0),
            "ratio",
        ),
        ("cache.lookups", sums.cache_lookups / n, "count/query"),
        ("cache.flushed", flushed as f64 / n, "count/query"),
        (
            "estimator.calls",
            hot[Hot::Estimator as usize].calls as f64 / n,
            "count/query",
        ),
        (
            "estimator.ms",
            per_q_ms(hot[Hot::Estimator as usize].est_ns()),
            "ms/query",
        ),
        ("setup.estimator_s", setup_med(|x| x.estimator_s), "s"),
        (
            "source.calls",
            hot[Hot::Source as usize].calls as f64 / n,
            "count/query",
        ),
        ("source.ms", per_q_ms(source_self_ns), "ms/query"),
        ("ccam.mapped_reads", s.counters[0] as f64 / n, "count/query"),
        ("ccam.mmap_faults", s.counters[1] as f64 / n, "count/query"),
        ("ccam.page_ms", per_q_ms(page_ns), "ms/query"),
        ("ccam.graph_mb", t.facts.graph_mb, "MiB"),
        ("setup.store_build_s", setup_med(|x| x.store_build_s), "s"),
        (
            "hier.expanded_paths",
            hier(sums.expanded_paths / n),
            "count/query",
        ),
        (
            "hier.compositions_saved",
            hier(sums.compositions_saved / n),
            "count/query",
        ),
        ("hier.overlay_mb", t.facts.overlay_mb, "MiB"),
        ("hier.shortcuts", t.facts.shortcuts, "count"),
        ("setup.contraction_s", setup_med(|x| x.contraction_s), "s"),
        ("epoch.apply_ms", median(&mut apply_ms), "ms"),
        ("epoch.deltas", measured_deltas.len() as f64, "count"),
        ("epoch.retire_lag", retire_lag as f64, "count"),
        ("alloc.per_query", s.allocs as f64 / n, "count/query"),
        (
            "alloc.bytes_per_query",
            s.alloc_bytes as f64 / n,
            "bytes/query",
        ),
        ("setup.network_s", setup_med(|x| x.network_s), "s"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]
}

/// Print a phase's operation accounting; returns (attempted, failed).
fn accounting(label: &str, ph: &Phase) -> (u64, u64) {
    let s = &ph.served;
    let failed = s.degraded + s.failed + s.rejected + s.cancelled;
    println!(
        "{label}: attempted {} answered {} degraded {} failed {} rejected {} cancelled {} | service stats reconcile: {} | largest search {} paths",
        s.attempted, s.answered, s.degraded, s.failed, s.rejected, s.cancelled, s.reconciles, s.max_expanded
    );
    println!(
        "{label}: checked {} answers ({} comparisons) against the fixed-instant oracle",
        ph.checked, ph.comparisons
    );
    (s.attempted, failed)
}

/// A phase is correct when every checked answer matched, the service's
/// books reconciled, and it answered something.
fn verdict(ph: &Phase) -> bool {
    if let Some(m) = &ph.mismatch {
        eprintln!("servebench: answer mismatch: {m}");
    }
    if !ph.served.reconciles {
        eprintln!("servebench: ServiceStats::reconciles() is false");
    }
    ph.mismatch.is_none() && ph.served.reconciles && ph.served.answered > 0 && ph.checked > 0
}

fn write_spans(args: &Args, spans: &[trace::Span]) {
    let path = PathBuf::from(DATA_DIR).join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut text = String::new();
    for s in spans {
        let _ = writeln!(text, "{}", s.to_json());
    }
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("servebench: could not write {}: {e}", path.display());
    } else {
        println!("spans: {} written to {}", spans.len(), path.display());
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("screen-pairs") {
        print!("{}", run::screen_pairs());
        return;
    }
    let args = parse_args();
    let params = |seconds: f64, traced: bool, repeat_setup: bool| Params {
        workload: args.workload,
        seed: args.seed,
        seconds,
        traced,
        repeat_setup,
    };
    std::fs::create_dir_all(DATA_DIR).expect("data directory creates");
    let (metrics, attempted, failed, correct) = if args.trace {
        let u = run::run(&params(args.seconds / 2.0, false, false));
        let ok_u = verdict(&u);
        let (au, fu) = accounting("untraced half", &u);
        let t = run::run(&params(args.seconds / 2.0, true, false));
        let ok_t = verdict(&t);
        let (at, ft) = accounting("traced half", &t);
        write_spans(&args, &t.served.spans);
        (
            per_layer(args.workload, &u, &t),
            au + at,
            fu + ft,
            ok_u && ok_t,
        )
    } else {
        let ph = run::run(&params(args.seconds, false, true));
        let ok = verdict(&ph);
        let (a, f) = accounting("run", &ph);
        (end_to_end(&ph), a, f, ok)
    };
    let _ = std::fs::remove_dir(DATA_DIR);
    let mut json = String::new();
    for (name, value, unit) in &metrics {
        println!("{name:<26} {value:>14.6} {unit}");
        if !json.is_empty() {
            json.push(',');
        }
        let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{json}}}}}"
    );
    let _ = std::io::stdout().flush();
    if !correct {
        std::process::exit(1);
    }
}
