//! `fleetbench` — the repository's end-to-end benchmark.
//!
//! Boots a real fleet from seeded inputs (`graphmine shard-plan`, two
//! `graphmine serve --shard-from` daemons, `graphmine router`), drives it
//! with a closed loop of two clients over real sockets, checks every
//! answer against a single-process reference, and prints one JSON result
//! line. `--trace 1` instead runs the traced passes of [`layers`] and
//! prints the per-layer metrics. See `NOTES.md` for the workloads and
//! metrics, and `run.sh` for the build.

mod fleet;
mod layers;
mod load;
mod trace;
mod verify;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use graphmine_graph::io as gio;
use graphmine_serve::Client;
use graphmine_telemetry::JsonValue;

use crate::fleet::{Fleet, FleetSpec};
use crate::load::{PhaseResult, Target};
use crate::verify::{Read, Reference, Update, Verdict};
use crate::workload::{Op, Size, Workload};

const USAGE: &str = "usage: fleetbench --graphmine BIN --workload read-hot|read-cold|churn \
    --seed N --seconds S --trace 0|1 [--work-dir DIR] [--size full|tiny]";

/// Fleets booted per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Shards in the fleet (one replica each).
const SHARDS: usize = 2;

/// Parsed command line.
struct Args {
    bin: PathBuf,
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        raw.iter().position(|a| a == name).and_then(|i| raw.get(i + 1)).map(String::as_str)
    };
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    let num = |name: &str| -> Result<u64, String> {
        need(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    let workload_name = need("--workload")?.to_string();
    let workload = Workload::parse(&workload_name)
        .ok_or_else(|| format!("unknown workload `{workload_name}`"))?;
    let tiny = match get("--size").unwrap_or("full") {
        "full" => false,
        "tiny" => true,
        other => return Err(format!("unknown size `{other}`")),
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        bin: PathBuf::from(need("--graphmine")?),
        workload,
        workload_name,
        seed: num("--seed")?,
        seconds,
        trace,
        work_dir: PathBuf::from(get("--work-dir").unwrap_or(".fleetbench")),
        tiny,
    })
}

/// The work one run does. Request counts scale with `--seconds` but never
/// with measured time, so two commits run with the same arguments do the
/// same work. At full size each read verb gets at least 200 samples (10
/// beyond its p95) and the churn writer at least 100 windows (10 beyond
/// its p90). The tiny size is for the package's own test; `read-hot` keeps
/// enough repeats there for its cache hit ratio to mean something.
fn size(tiny: bool, seconds: u64) -> Size {
    let s = seconds as usize;
    if tiny {
        return Size {
            d: 60,
            minsup: 0.1,
            hot_reads: 480,
            cold_reads: 40,
            windows: 6,
            churn_reads: 20,
            probe_windows: 3,
            ops_per_window: 3,
        };
    }
    Size {
        d: 400,
        minsup: 0.05,
        hot_reads: (10 * s).max(400),
        cold_reads: (10 * s).max(400),
        windows: (5 * s / 2).max(100),
        churn_reads: (10 * s).max(400),
        probe_windows: (s / 2).max(20),
        ops_per_window: 4,
    }
}

/// A scratch directory under the work dir, removed on drop.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The run's inputs and the reference that checks the answers.
pub struct Inputs {
    /// The database file the fleet is planned from.
    pub db_path: PathBuf,
    /// The database itself.
    pub db: graphmine_graph::GraphDb,
    /// Absolute global minimum support.
    pub min_support: graphmine_graph::Support,
    /// Update windows: the churn stream, or the post-read probe.
    pub windows: Vec<Vec<graphmine_graph::DbUpdate>>,
    /// One request sequence per client.
    pub streams: Vec<Vec<Op>>,
    /// The post-read update probe (empty for `churn`).
    pub probe: Vec<Op>,
    /// The single-process reference, at epoch 0.
    pub reference: Reference,
}

fn inputs(args: &Args, size: &Size, dir: &Path) -> Result<Inputs, String> {
    let db = workload::database(size);
    let db_path = dir.join("db.txt");
    let file =
        std::fs::File::create(&db_path).map_err(|e| format!("{}: {e}", db_path.display()))?;
    gio::write_db(std::io::BufWriter::new(file), &db).map_err(|e| e.to_string())?;
    let min_support = db.abs_support(size.minsup);
    let reference = Reference::boot(&db, min_support, &dir.join("reference"))?;
    let frequent = reference.engine().current().patterns.clone();
    let churn = args.workload == Workload::Churn;
    let n_windows = if churn { size.windows } else { size.probe_windows };
    let windows = workload::windows(&db, size, args.seed, n_windows);
    let streams = workload::streams(
        args.workload,
        size,
        args.seed,
        &db,
        &frequent,
        min_support,
        windows.len(),
    )?;
    let probe = if churn { Vec::new() } else { (0..windows.len()).map(Op::Update).collect() };
    Ok(Inputs { db_path, db, min_support, windows, streams, probe, reference })
}

/// Boots [`SETUPS`] fleets one after another, keeping only the last alive;
/// returns it with every setup time.
fn boot_fleets(args: &Args, inputs: &Inputs, dir: &Path) -> Result<(Fleet, Vec<f64>), String> {
    let spec = FleetSpec {
        bin: &args.bin,
        db: &inputs.db_path,
        minsup: size(args.tiny, args.seconds).minsup,
        shards: SHARDS,
    };
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..SETUPS {
        drop(last.take());
        let fleet = Fleet::boot(&spec, &dir.join(format!("fleet-{k}")), args.seed << 8 | k as u64)?;
        times.push(fleet.setup.as_secs_f64());
        last = Some(fleet);
    }
    Ok((last.expect("SETUPS > 0"), times))
}

/// Nearest-rank percentile of `values` (`q` in `0..=1`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Latencies in ms of the successful samples whose op has `verb`.
pub fn latencies(streams: &[Vec<Op>], phase: &PhaseResult, verb: &str) -> Vec<f64> {
    streams
        .iter()
        .zip(&phase.samples)
        .flat_map(|(ops, samples)| ops.iter().zip(samples))
        .filter(|(op, s)| op.verb() == verb && !s.failed())
        .map(|(_, s)| s.latency.as_secs_f64() * 1e3)
        .collect()
}

/// `(attempted, failed)` over a phase.
pub fn outcome(phase: &PhaseResult) -> (usize, usize) {
    let all = phase.samples.iter().flatten();
    (all.clone().count(), all.filter(|s| s.failed()).count())
}

/// Reads per second of read-client wall time: reads over the slowest
/// stream that sent any.
fn read_rate(streams: &[Vec<Op>], phase: &PhaseResult) -> f64 {
    let mut reads = 0;
    let mut wall = Duration::ZERO;
    for (ops, w) in streams.iter().zip(&phase.wall) {
        let n = ops.iter().filter(|op| op.verb() != "update").count();
        if n > 0 {
            reads += n;
            wall = wall.max(*w);
        }
    }
    reads as f64 / wall.as_secs_f64()
}

/// A router or shard `status` counter table.
pub fn status_counters(
    addr: &str,
    report: bool,
) -> Result<(JsonValue, Vec<(String, u64)>), String> {
    let mut c =
        Client::connect_with(addr, Some(Duration::from_secs(5)), Some(Duration::from_secs(60)))?;
    let status = c.status(report)?;
    let counters = status
        .field("counters")
        .and_then(JsonValue::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(k, v)| (k.clone(), v.as_num().unwrap_or(0)))
        .collect();
    Ok((status, counters))
}

/// Checks a phase (and its update probe) against `reference`.
pub fn verify_phase(
    reference: &mut Reference,
    inputs_streams: &[Vec<Op>],
    phase: &PhaseResult,
    probe: Option<(&[Op], &PhaseResult)>,
    windows: &[Vec<graphmine_graph::DbUpdate>],
) -> Result<Verdict, String> {
    let mut reads = Vec::new();
    let mut updates = Vec::new();
    let pairs = inputs_streams
        .iter()
        .zip(&phase.samples)
        .map(|(ops, samples)| (ops.as_slice(), samples.as_slice()))
        .chain(probe.map(|(ops, p)| (ops, p.samples[0].as_slice())));
    for (ops, samples) in pairs {
        for (op, sample) in ops.iter().zip(samples) {
            match op {
                Op::Update(window) => updates.push(Update { window: *window, sample }),
                _ => reads.push(Read { op, sample }),
            }
        }
    }
    verify::check(reference, &reads, &updates, windows)
}

/// Prints the result line.
fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[(String, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:.6}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn run(args: &Args) -> Result<bool, String> {
    let size = size(args.tiny, args.seconds);
    let run_dir = RunDir(args.work_dir.join(format!("run-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&run_dir.0);
    std::fs::create_dir_all(&run_dir.0).map_err(|e| format!("{}: {e}", run_dir.0.display()))?;
    let mut inputs = inputs(args, &size, &run_dir.0)?;
    eprintln!(
        "fleetbench: workload {} seed {} | {} graphs, minsup {}, {} windows, streams {:?}",
        args.workload_name,
        args.seed,
        inputs.db.len(),
        inputs.min_support,
        inputs.windows.len(),
        inputs.streams.iter().map(Vec::len).collect::<Vec<_>>()
    );
    if args.trace {
        let trace_path =
            args.work_dir.join(format!("trace-{}-seed{}.json", args.workload_name, args.seed));
        let report = layers::traced(args, &mut inputs, &run_dir.0, &trace_path)?;
        for (name, value, unit) in &report.metrics {
            eprintln!("  {name:<34} {value:>12.4} {unit}");
        }
        print_result(true, report.attempted, report.failed, &report.metrics);
        return Ok(true);
    }

    let (fleet, setups) = boot_fleets(args, &inputs, &run_dir.0)?;
    let phase =
        load::run(Target::Wire(&fleet.router_addr), &inputs.streams, &inputs.windows, None)?;
    let probe = if inputs.probe.is_empty() {
        None
    } else {
        let streams = [inputs.probe.clone()];
        Some(load::run(Target::Wire(&fleet.router_addr), &streams, &inputs.windows, None)?)
    };
    let rss_kib: u64 = fleet.pids().into_iter().map(fleet::peak_rss_kib).sum::<Result<_, _>>()?;
    drop(fleet);

    let verdict = verify_phase(
        &mut inputs.reference,
        &inputs.streams,
        &phase,
        probe.as_ref().map(|p| (inputs.probe.as_slice(), p)),
        &inputs.windows,
    );
    let (mut attempted, mut failed) = outcome(&phase);
    let mut updates = latencies(&inputs.streams, &phase, "update");
    if let Some(p) = &probe {
        let (a, f) = outcome(p);
        attempted += a;
        failed += f;
        updates.extend(latencies(std::slice::from_ref(&inputs.probe), p, "update"));
    }
    let support = latencies(&inputs.streams, &phase, "support");
    let patterns = latencies(&inputs.streams, &phase, "patterns");
    let metrics = vec![
        ("setup_s".to_string(), percentile(&setups, 0.5), "s"),
        ("support_p50_ms".to_string(), percentile(&support, 0.5), "ms"),
        ("support_p95_ms".to_string(), percentile(&support, 0.95), "ms"),
        ("patterns_p50_ms".to_string(), percentile(&patterns, 0.5), "ms"),
        ("patterns_p95_ms".to_string(), percentile(&patterns, 0.95), "ms"),
        ("update_p50_ms".to_string(), percentile(&updates, 0.5), "ms"),
        ("update_p90_ms".to_string(), percentile(&updates, 0.9), "ms"),
        ("read_ops_per_s".to_string(), read_rate(&inputs.streams, &phase), "1/s"),
        ("fleet_rss_mb".to_string(), rss_kib as f64 / 1024.0, "MB"),
    ];
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    eprintln!(
        "  samples: {} support, {} patterns, {} update; setups {:?} s",
        support.len(),
        patterns.len(),
        updates.len(),
        setups
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<18} {value:>12.4} {unit}");
    }
    eprintln!("  {:<18} {failed_ratio:>12.4} ratio", "failed_ratio");
    let correct = match &verdict {
        Ok(v) => {
            eprintln!(
                "  verified {} replies against the reference ({} truncated)",
                v.checked, v.truncated
            );
            true
        }
        Err(e) => {
            eprintln!("fleetbench: WRONG ANSWER: {e}");
            false
        }
    };
    print_result(correct, attempted, failed, &metrics);
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::from(1)
        }
    }
}
