//! Inputs: the database, the update windows, and each workload's fixed
//! request sequence. The windows, the key pools and the request order
//! derive from the `--seed` argument; the database is the generator's
//! default dataset at the benchmark's size, the same on every seed (see
//! `NOTES.md`, "Seeds"). The fleet only ever sees the generated files and
//! requests.

use std::collections::BTreeSet;

use graphmine_datagen::{generate, plan_windows, GenParams, UpdateKind, UpdateParams};
use graphmine_graph::enumerate::connected_subgraph_codes;
use graphmine_graph::{DbUpdate, DfsCode, GraphDb, PatternSet, Support};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only, Zipf-skewed over a small hot set: the router cache
    /// answers nearly everything.
    ReadHot,
    /// Read-only, no key repeats: every request misses the router cache
    /// and scatters to every shard.
    ReadCold,
    /// One writer committing churn windows through the router's 2PC
    /// beside one reader running the `read-hot` mix.
    Churn,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "read-hot" => Some(Workload::ReadHot),
            "read-cold" => Some(Workload::ReadCold),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }
}

/// How big the inputs are and how much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Graphs in the database (`D`).
    pub d: usize,
    /// Relative global minimum support.
    pub minsup: f64,
    /// Reads per `read-hot` run, split over two clients.
    pub hot_reads: usize,
    /// Reads per `read-cold` run, split over two clients.
    pub cold_reads: usize,
    /// Windows the churn writer commits.
    pub windows: usize,
    /// Reads the churn reader sends beside the writer.
    pub churn_reads: usize,
    /// Windows committed after the read phase of a read-only workload,
    /// so it reports update latency too (outside its read metrics).
    pub probe_windows: usize,
    /// Ops per update window.
    pub ops_per_window: usize,
}

/// `T`, `N`, `L`, `I` of the generator (paper Table 1 defaults of the CLI).
const GEN_T: usize = 20;
const GEN_N: u32 = 20;
const GEN_L: usize = 200;
const GEN_I: usize = 5;

/// Largest `top` a `read-cold` `patterns` request asks for. Shards hold
/// about a thousand locally frequent patterns, so tops above a quarter of
/// that get an untruncated (exactly checked) SON answer and smaller ones
/// a `"truncated":1` answer.
const COLD_TOP_MAX: usize = 400;

/// The hot set: `patterns` tops, and how many of the most frequent codes
/// `support` asks about.
const HOT_TOPS: [usize; 4] = [5, 10, 20, 50];
const HOT_CODES: usize = 8;

/// One request of a client's sequence.
#[derive(Debug, Clone)]
pub enum Op {
    /// `patterns` with a `top` and an optional support floor.
    Patterns {
        /// Rows asked for.
        top: usize,
        /// Support floor, when the request sets one.
        min_support: Option<Support>,
    },
    /// `support` of one pattern, by DFS code.
    Support(DfsCode),
    /// `update` with the churn window at this index.
    Update(usize),
}

impl Op {
    /// The verb, as the metric names spell it.
    pub fn verb(&self) -> &'static str {
        match self {
            Op::Patterns { .. } => "patterns",
            Op::Support(_) => "support",
            Op::Update(_) => "update",
        }
    }
}

/// Generates the database: the generator's default seed, so every run
/// serves the same standing database and a run-to-run spread is the
/// program's, not the dataset's.
pub fn database(size: &Size) -> GraphDb {
    generate(&GenParams::new(size.d, GEN_T, GEN_N, GEN_L, GEN_I))
}

/// The churn windows for `seed`; empty windows (every op skipped by the
/// planner) are dropped, since the router refuses an empty window.
pub fn windows(db: &GraphDb, size: &Size, seed: u64, n: usize) -> Vec<Vec<DbUpdate>> {
    let params = UpdateParams::new(0.0, size.ops_per_window, UpdateKind::Churn, GEN_N)
        .with_seed(seed ^ 0x0c4u64.rotate_left(40));
    plan_windows(db, &params, n).into_iter().filter(|w| !w.is_empty()).collect()
}

/// The hot keys: a few `patterns` tops and `support` on the most frequent
/// codes, most popular first.
fn hot_keys(frequent: &PatternSet) -> (Vec<Op>, Vec<Op>) {
    let mut by_support: Vec<_> = frequent.iter().collect();
    by_support.sort_by(|a, b| b.support.cmp(&a.support).then_with(|| a.code.cmp(&b.code)));
    let supports = by_support.iter().take(HOT_CODES).map(|p| Op::Support(p.code.clone())).collect();
    let patterns = HOT_TOPS.iter().map(|&top| Op::Patterns { top, min_support: None }).collect();
    (patterns, supports)
}

/// Draws an index in `0..n` with probability proportional to `1/(i+1)`.
fn zipf(rng: &mut StdRng, n: usize) -> usize {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut x = rng.random::<f64>() * total;
    for i in 0..n {
        x -= 1.0 / (i + 1) as f64;
        if x <= 0.0 {
            return i;
        }
    }
    n - 1
}

/// `n` reads of the hot mix: half `patterns`, half `support`, each key
/// Zipf-skewed within its verb, in a seeded order.
fn hot_reads(frequent: &PatternSet, rng: &mut StdRng, n: usize) -> Vec<Op> {
    let (patterns, supports) = hot_keys(frequent);
    let mut ops: Vec<Op> = (0..n)
        .map(|i| {
            let keys = if i % 2 == 0 { &patterns } else { &supports };
            keys[zipf(rng, keys.len())].clone()
        })
        .collect();
    shuffle(&mut ops, rng);
    ops
}

/// Distinct canonical codes of connected subgraphs of DB graphs, visited
/// in a seeded graph order: `n` below the global minimum support and `n`
/// at or above it. `frequent` is the complete `P(D)`, so a code is below
/// the threshold exactly when it is absent from it.
pub fn cold_codes(
    db: &GraphDb,
    frequent: &PatternSet,
    rng: &mut StdRng,
    n: usize,
) -> Result<Vec<DfsCode>, String> {
    let mut gids: Vec<u32> = (0..db.len() as u32).collect();
    shuffle(&mut gids, rng);
    let (mut rare, mut common) = (BTreeSet::new(), BTreeSet::new());
    let (mut rare_order, mut common_order) = (Vec::new(), Vec::new());
    for gid in gids {
        if rare_order.len() >= n && common_order.len() >= n {
            break;
        }
        let mut codes: Vec<DfsCode> =
            connected_subgraph_codes(db.graph(gid), 4).into_iter().collect();
        codes.sort();
        shuffle(&mut codes, rng);
        for code in codes {
            if frequent.contains(&code) {
                if common_order.len() < n && common.insert(code.clone()) {
                    common_order.push(code);
                }
            } else if rare_order.len() < n && rare.insert(code.clone()) {
                rare_order.push(code);
            }
        }
    }
    if rare_order.len() < n || common_order.len() < n {
        return Err(format!(
            "database yields {} rare and {} frequent distinct codes; {n} of each needed",
            rare_order.len(),
            common_order.len()
        ));
    }
    let mut out: Vec<DfsCode> = rare_order.into_iter().chain(common_order).collect();
    shuffle(&mut out, rng);
    Ok(out)
}

/// `n` reads with no repeated key: half `support` over [`cold_codes`],
/// half `patterns` over distinct `(top, min_support)` pairs whose floors
/// all sit at or above the global threshold (so no two share a router
/// cache key).
fn cold_reads(
    db: &GraphDb,
    frequent: &PatternSet,
    min_support: Support,
    rng: &mut StdRng,
    n: usize,
) -> Result<Vec<Op>, String> {
    let n_support = n / 2;
    let codes = cold_codes(db, frequent, rng, n_support.div_ceil(2))?;
    let mut pairs = BTreeSet::new();
    let mut ops: Vec<Op> = codes.into_iter().take(n_support).map(Op::Support).collect();
    while ops.len() < n {
        let top = rng.random_range(1..=COLD_TOP_MAX);
        let floor = min_support + rng.random_range(0..=40u32);
        if pairs.insert((top, floor)) {
            ops.push(Op::Patterns { top, min_support: Some(floor) });
        }
    }
    shuffle(&mut ops, rng);
    Ok(ops)
}

/// Fisher–Yates with the benchmark's seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Each client's request sequence for `workload`: two read streams for
/// the read-only mixes, a writer stream and a reader stream for `churn`.
pub fn streams(
    workload: Workload,
    size: &Size,
    seed: u64,
    db: &GraphDb,
    frequent: &PatternSet,
    min_support: Support,
    n_windows: usize,
) -> Result<Vec<Vec<Op>>, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005e_ed0f_7e57);
    let split = |ops: Vec<Op>| {
        let mut out = vec![Vec::new(), Vec::new()];
        for (i, op) in ops.into_iter().enumerate() {
            out[i % 2].push(op);
        }
        out
    };
    Ok(match workload {
        Workload::ReadHot => split(hot_reads(frequent, &mut rng, size.hot_reads)),
        Workload::ReadCold => {
            split(cold_reads(db, frequent, min_support, &mut rng, size.cold_reads)?)
        }
        Workload::Churn => vec![
            (0..n_windows).map(Op::Update).collect(),
            hot_reads(frequent, &mut rng, size.churn_reads),
        ],
    })
}
