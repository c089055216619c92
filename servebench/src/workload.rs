//! Workloads and the seeded query stream.
//!
//! Every workload poses the same query make-up, modelled on the
//! paper's §6 evaluation: source–target pairs in three Euclidean
//! distance bands, singleFP and allFP queries half and half, workday
//! category, and leaving intervals of 15 minutes, 1 hour and the full
//! 3-hour morning rush (7:00–10:00). The stream comes in rounds of
//! [`ROUND`] queries, stratified so each round holds every
//! (band, kind, width) slot exactly once; the pairs, the interval
//! starts and the order within a round are drawn from the seed.
//!
//! One slot per band is the exception: 3-hour allFP queries take their
//! pairs from a fixed list of [`RUSH_POOL`] pairs per band, drawn once
//! independently of the seed and served in turn, starting at a
//! seed-chosen entry; a run serves whole cycles of [`RUSH_POOL`]
//! rounds, so it serves each fixed pair equally often. Their search
//! work spans two orders of magnitude
//! (on the full metro's long band, 1k to 80k expanded paths), and the
//! few a run holds decide its throughput, its p99 latency and its peak
//! memory; drawn afresh per seed, they made those figures depend on
//! which few the seed picked rather than on the program.
//!
//! Pairs are drawn from the network's nodes by band ([`Pairs::Drawn`]),
//! except on huge-mmap, whose pairs come from a fixed, pre-screened
//! list ([`Pairs::Fixed`]; see `run::screen_pairs`).

use allfp::QuerySpec;
use pwl::Interval;
use roadnet::{NodeId, Point};
use traffic::DayCategory;

/// Leaving-interval widths in minutes, one round slot each.
pub const WIDTHS: [f64; 4] = [15.0, 15.0, 60.0, 180.0];

/// Start of the morning rush, minutes since midnight (7:00).
pub const RUSH_START: f64 = 420.0;

/// Length of the morning rush, minutes.
pub const RUSH_MINUTES: f64 = 180.0;

/// Queries per round: 3 bands x 2 kinds x 4 widths.
pub const ROUND: usize = 3 * 2 * WIDTHS.len();

/// Fixed pairs per band for the 3-hour allFP slot, and so the rounds
/// in one cycle of the stream.
pub const RUSH_POOL: usize = 6;

/// Key of the fixed 3-hour allFP pairs (independent of `--seed`).
const RUSH_POOL_KEY: u64 = 0x3_0000_0700;

/// Which fastest-path query a stream entry poses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// singleFP: the best leaving instant and its path.
    Single,
    /// allFP: the partition of the interval by fastest path.
    All,
}

/// One query of the stream.
#[derive(Debug, Clone)]
pub struct Query {
    /// Position in the stream (`round * ROUND + slot`).
    pub id: u64,
    /// The query as the program receives it.
    pub spec: QuerySpec,
    /// singleFP or allFP.
    pub kind: Kind,
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Medium metro, contraction hierarchy.
    ChRush,
    /// Continental tier served from a checksummed mmap CCAM store.
    HugeMmap,
    /// The full-scale metro, flat engine and grid boundary estimator,
    /// with live traffic deltas.
    LiveDeltas,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::ChRush, Workload::HugeMmap, Workload::LiveDeltas];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChRush => "ch-rush",
            Workload::HugeMmap => "huge-mmap",
            Workload::LiveDeltas => "live-deltas",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Euclidean distance bands in miles. The continental tier's
    /// nodes sit 0.05 miles apart, four times denser than the metro's
    /// core, so its bands are a quarter as long: a query then spans
    /// about as many nodes as on the metro.
    pub fn bands(self) -> [(f64, f64); 3] {
        match self {
            Workload::HugeMmap => [(0.25, 0.5), (0.5, 1.0), (1.0, 2.0)],
            _ => [(1.0, 2.0), (2.0, 4.0), (4.0, 8.0)],
        }
    }
}

/// SplitMix64 over `(seed, v)`: every draw of the stream is a pure
/// function of the seed and its position.
pub fn mix(seed: u64, v: u64) -> u64 {
    let mut z = seed ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a stream's source–target pairs come from.
pub enum Pairs {
    /// Drawn afresh per query from the nodes at `locs` (indexed by
    /// node id), by Euclidean distance band in miles.
    Drawn {
        bands: [(f64, f64); 3],
        locs: Vec<Point>,
    },
    /// Taken from a fixed list per band.
    Fixed(Vec<Vec<(u32, u32)>>),
}

impl Pairs {
    /// The pair for `band` that `key` selects.
    pub fn pair(&self, band: usize, key: u64) -> (u32, u32) {
        match self {
            Pairs::Fixed(lists) => {
                let list = &lists[band];
                list[(key % list.len() as u64) as usize]
            }
            Pairs::Drawn { bands, locs } => draw_pair(locs, bands[band], key),
        }
    }

    /// Parse a pair list: one `<band> <source> <target>` per line;
    /// blank lines and lines starting with `#` are skipped.
    pub fn parse_fixed(text: &str) -> Pairs {
        let mut lists = vec![Vec::new(); 3];
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<u32> = line
                .split_whitespace()
                .map(|x| x.parse().expect("pair list holds numbers"))
                .collect();
            assert_eq!(f.len(), 3, "pair list line {line:?}");
            lists[f[0] as usize].push((f[1], f[2]));
        }
        assert!(
            lists.iter().all(|l| !l.is_empty()),
            "pair list has every band"
        );
        Pairs::Fixed(lists)
    }
}

/// A pair of distinct nodes whose distance lies in `(lo, hi)`, drawn
/// from `key`.
fn draw_pair(locs: &[Point], (lo, hi): (f64, f64), key: u64) -> (u32, u32) {
    let n = locs.len() as u64;
    for attempt in 0..1_000_000u64 {
        let a = mix(key, 2 * attempt) % n;
        let b = mix(key, 2 * attempt + 1) % n;
        let d = locs[a as usize].distance(&locs[b as usize]);
        if a != b && d >= lo && d <= hi {
            return (a as u32, b as u32);
        }
    }
    panic!("no pair in band {lo}-{hi} miles");
}

/// The seeded, stratified query stream over one network.
pub struct Stream {
    seed: u64,
    pairs: Pairs,
    /// The fixed 3-hour allFP pairs, per band.
    rush: Vec<Vec<(u32, u32)>>,
}

impl Stream {
    /// A stream whose pairs come from `pairs`.
    pub fn new(seed: u64, pairs: Pairs) -> Stream {
        let rush = (0..3u64)
            .map(|b| {
                (0..RUSH_POOL as u64)
                    .map(|i| pairs.pair(b as usize, mix(RUSH_POOL_KEY, b * 1000 + i)))
                    .collect()
            })
            .collect();
        Stream { seed, pairs, rush }
    }

    /// Round `r`: [`ROUND`] queries, every slot once, in seeded order.
    pub fn round(&self, r: u64) -> Vec<Query> {
        let mut out: Vec<Query> = (0..ROUND)
            .map(|slot| {
                let band = slot / 8;
                let kind = if (slot / 4) % 2 == 0 {
                    Kind::Single
                } else {
                    Kind::All
                };
                let width = WIDTHS[slot % 4];
                let id = r * ROUND as u64 + slot as u64;
                let key = mix(self.seed, id);
                let (s, t) = if kind == Kind::All && width == RUSH_MINUTES {
                    let pool = &self.rush[band];
                    pool[((r + self.seed % RUSH_POOL as u64) % RUSH_POOL as u64) as usize]
                } else {
                    self.pairs.pair(band, key)
                };
                let slack = (RUSH_MINUTES - width) as u64;
                let start = RUSH_START + (mix(key, u64::MAX) % (slack + 1)) as f64;
                Query {
                    id,
                    spec: QuerySpec::new(
                        NodeId(s),
                        NodeId(t),
                        Interval::of(start, start + width),
                        DayCategory::WORKDAY,
                    ),
                    kind,
                }
            })
            .collect();
        // Seeded order within the round, so no slot always runs first.
        for i in (1..out.len()).rev() {
            let j = (mix(self.seed ^ 0x5EED, r * 64 + i as u64) % (i as u64 + 1)) as usize;
            out.swap(i, j);
        }
        out
    }
}
