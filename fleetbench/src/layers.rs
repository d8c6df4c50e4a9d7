//! The traced run: per-layer metrics.
//!
//! Three fleets, each running the first third of every client stream:
//!
//! * pass A — untraced, over the wire (the baseline for the overhead);
//! * pass B — the same requests over the wire with a span around each
//!   client call, bracketed by `status` counter reads on the router and
//!   every shard;
//! * pass C — the same requests through an in-process [`Router`] over the
//!   fleet's shard daemons, timing `Router::handle` alone.
//!
//! After pass B, on its live fleet, the router's shard sub-requests are
//! replayed straight to one shard; an in-process [`ServeEngine`] booted
//! from the same shard database answers the same sub-requests and folds
//! shard 0's part of the first update windows. Every span is written to
//! the trace file when the run ends.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use graphmine_graph::{DfsCode, DEFAULT_EMBEDDING_BUDGET};
use graphmine_router::{plan_shards, PlanConfig, Router, RouterConfig, ShardTopology};
use graphmine_serve::protocol::code_to_json;
use graphmine_serve::{Client, EngineConfig, Request, ServeEngine};
use graphmine_telemetry::{JsonValue, RunReport, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fleet::{self, Fleet, FleetSpec};
use crate::load::{self, PhaseResult, Target};
use crate::trace::{self, Span, Tracer};
use crate::verify::Reference;
use crate::workload::{self, Op};
use crate::{latencies, outcome, percentile, status_counters, verify_phase, Args, Inputs};

/// Each pass runs the first `1/TRACE_SHARE` of every stream, so the three
/// passes together cost about one untraced run.
const TRACE_SHARE: usize = 3;

/// Distinct sub-requests replayed per shape.
const PROBE_REQUESTS: usize = 30;

/// Windows folded by the in-process shard engine.
const PROBE_WINDOWS: usize = 10;

/// The router's phase-1 overprovision factor (its default config).
const OVERPROVISION: usize = 4;

/// Per-layer metrics of one traced run.
pub struct LayerReport {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Client requests attempted over the three passes.
    pub attempted: usize,
    /// Of those, failed.
    pub failed: usize,
}

type Counters = Vec<(String, u64)>;

fn get(counters: &Counters, name: &str) -> u64 {
    counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
}

fn delta(before: &Counters, after: &Counters, name: &str) -> f64 {
    get(after, name).saturating_sub(get(before, name)) as f64
}

/// Sum of [`delta`] over several tables (one per shard).
fn delta_sum(before: &[Counters], after: &[Counters], name: &str) -> f64 {
    before.iter().zip(after).map(|(b, a)| delta(b, a, name)).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(values: &[f64]) -> f64 {
    let m = percentile(values, 0.5);
    if m.is_nan() {
        0.0
    } else {
        m
    }
}

/// `stage -> total ms` from a `status` reply with `report:1`.
fn stage_ms(status: &JsonValue, stage: &str) -> f64 {
    status
        .field("report")
        .and_then(|r| r.field("stages"))
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|s| s.field("name").and_then(JsonValue::as_str) == Some(stage))
        .filter_map(|s| s.field("total_ns").and_then(JsonValue::as_num))
        .sum::<u64>() as f64
        / 1e6
}

/// Total ms over every stage of a report.
fn all_stages_ms(report: &RunReport) -> f64 {
    report.stages.iter().map(|s| s.total_ns).sum::<u64>() as f64 / 1e6
}

fn max_over_mean(values: &[f64]) -> f64 {
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    ratio(values.iter().copied().fold(0.0, f64::max), mean)
}

/// The phase-1 `patterns` line the router sends each shard for `top`.
fn phase1_line(top: usize) -> String {
    format!("{{\"cmd\":\"patterns\",\"top\":{}}}", top.saturating_mul(OVERPROVISION))
}

/// The owner-restricted `support-batch` line the router sends each shard
/// for one `support` request.
fn support_batch_line(code: &DfsCode) -> String {
    JsonValue::Obj(vec![
        ("cmd".to_string(), JsonValue::Str("support-batch".to_string())),
        ("codes".to_string(), JsonValue::Arr(vec![code_to_json(code)])),
        ("owned".to_string(), JsonValue::Num(1)),
    ])
    .to_json()
}

/// Up to [`PROBE_REQUESTS`] distinct `patterns` tops and `support` codes
/// from the streams, in stream order.
fn probe_keys(streams: &[Vec<Op>]) -> (Vec<usize>, Vec<DfsCode>) {
    let (mut tops, mut codes) = (Vec::new(), Vec::new());
    let (mut seen_tops, mut seen_codes) = (BTreeSet::new(), BTreeSet::new());
    for op in streams.iter().flatten() {
        match op {
            Op::Patterns { top, .. } if tops.len() < PROBE_REQUESTS && seen_tops.insert(*top) => {
                tops.push(*top);
            }
            Op::Support(code)
                if codes.len() < PROBE_REQUESTS && seen_codes.insert(code.clone()) =>
            {
                codes.push(code.clone());
            }
            _ => {}
        }
    }
    (tops, codes)
}

/// Sends `line` to `client` twice and times the second (warm) answer.
fn timed_rtt(
    client: &mut Client,
    line: &str,
    tracer: &Tracer,
    spans: &mut Vec<Span>,
    name: &str,
    req: u64,
) -> Result<(), String> {
    client.request_line(line)?;
    tracer.time(spans, name, req, || client.request_line(line)).map(|_| ())
}

fn traced_ms(spans: &[Span], name: &str) -> f64 {
    median(&trace::durations_ms(spans, name))
}

/// Runs the traced passes and computes every per-layer metric.
pub fn traced(
    args: &Args,
    inputs: &mut Inputs,
    dir: &Path,
    out: &Path,
) -> Result<LayerReport, String> {
    let tracer = Tracer::new();
    let mut spans: Vec<Span> = Vec::new();
    let share = |ops: &Vec<Op>| ops[..ops.len().div_ceil(TRACE_SHARE)].to_vec();
    let streams: Vec<Vec<Op>> = inputs.streams.iter().map(share).collect();
    let probe = share(&inputs.probe);
    let windows = inputs.windows.clone();
    let minsup = crate::size(args.tiny, args.seconds).minsup;
    let spec = FleetSpec { bin: &args.bin, db: &inputs.db_path, minsup, shards: crate::SHARDS };
    let salt = |k: u64| args.seed << 8 | 0x80 | k;

    // graph: the counting kernel alone, on the read-cold code pool.
    let frequent = inputs.reference.engine().current().patterns.clone();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x6a09_e667);
    let cold = workload::cold_codes(&inputs.db, &frequent, &mut rng, PROBE_REQUESTS)?;
    let ep = inputs.reference.engine().current();
    let kernel_tel = Telemetry::new();
    let support_us: Vec<f64> = cold
        .iter()
        .map(|code| {
            let graph = code.to_graph();
            let t0 = Instant::now();
            std::hint::black_box(ep.support_of(&graph, &kernel_tel, DEFAULT_EMBEDDING_BUDGET));
            let d = t0.elapsed();
            spans.push(tracer.span("graph.support_of".to_string(), t0, d, None, 0));
            d.as_secs_f64() * 1e6
        })
        .collect();
    drop(ep);

    // Pass A: untraced.
    let fleet_a = Fleet::boot(&spec, &dir.join("fleet-a"), salt(0))?;
    let pass_a = load::run(Target::Wire(&fleet_a.router_addr), &streams, &windows, None)?;
    drop(fleet_a);

    // Pass B: traced, with counters and CPU time around it.
    let fleet_b = Fleet::boot(&spec, &dir.join("fleet-b"), salt(1))?;
    let mut shard_status = Vec::new();
    let mut shard_before = Vec::new();
    for addr in &fleet_b.shard_addrs {
        let (status, counters) = status_counters(addr, true)?;
        shard_status.push(status);
        shard_before.push(counters);
    }
    let (_, router_before) = status_counters(&fleet_b.router_addr, false)?;
    let cpu =
        |pids: &[u32]| -> Result<f64, String> { pids.iter().map(|&p| fleet::cpu_ms(p)).sum() };
    let (router_pid, shard_pids) = (fleet_b.router_pid(), fleet_b.shard_pids());
    let (router_cpu0, shard_cpu0) = (cpu(&[router_pid])?, cpu(&shard_pids)?);
    let mut pass_b =
        load::run(Target::Wire(&fleet_b.router_addr), &streams, &windows, Some(&tracer))?;
    let (router_cpu1, shard_cpu1) = (cpu(&[router_pid])?, cpu(&shard_pids)?);
    let (_, router_after) = status_counters(&fleet_b.router_addr, false)?;
    let mut shard_after = Vec::new();
    for addr in &fleet_b.shard_addrs {
        shard_after.push(status_counters(addr, false)?.1);
    }

    // Sub-request replays on the live fleet, outside the timed pass.
    let (tops, codes) = probe_keys(&streams);
    let mut clients = fleet_b
        .shard_addrs
        .iter()
        .map(|a| Client::connect(a.as_str()))
        .collect::<Result<Vec<_>, _>>()?;
    let (mut candidates, mut reply_kb) = (Vec::new(), Vec::new());
    for &top in &tops {
        let line = phase1_line(top);
        let mut union = BTreeSet::new();
        let mut bytes = 0usize;
        for c in &mut clients {
            let reply = c.request_line(&line)?;
            bytes += reply.to_json().len() + 1;
            for p in reply.field("patterns").and_then(JsonValue::as_arr).unwrap_or(&[]) {
                if let Some(code) = p.field("code") {
                    union.insert(code.to_json());
                }
            }
        }
        candidates.push(union.len() as f64);
        reply_kb.push(bytes as f64 / 1024.0);
    }
    for (i, &top) in tops.iter().enumerate() {
        timed_rtt(
            &mut clients[0],
            &phase1_line(top),
            &tracer,
            &mut spans,
            "serve.rtt.patterns",
            i as u64,
        )?;
    }
    for (i, code) in codes.iter().enumerate() {
        let line = support_batch_line(code);
        timed_rtt(
            &mut clients[0],
            &line,
            &tracer,
            &mut spans,
            "serve.rtt.support_batch",
            i as u64,
        )?;
    }
    drop(clients);
    let shard_boot: Vec<f64> = fleet_b.shard_boot.iter().map(|d| d.as_secs_f64()).collect();
    drop(fleet_b);
    spans.append(&mut pass_b.spans);

    // Pass C: the same streams through an in-process router.
    let fleet_c = Fleet::boot(&spec, &dir.join("fleet-c"), salt(2))?;
    let topology = ShardTopology::load(&fleet_c.topology)?;
    let router = Router::new(topology, RouterConfig::default())?;
    let mut pass_c = load::run(Target::InProcess(&router), &streams, &windows, Some(&tracer))?;
    let mut probe_c = if probe.is_empty() {
        None
    } else {
        let streams = [probe.clone()];
        Some(load::run(Target::InProcess(&router), &streams, &windows, Some(&tracer))?)
    };
    drop(router);
    drop(fleet_c);
    spans.append(&mut pass_c.spans);
    if let Some(p) = &mut probe_c {
        spans.append(&mut p.spans);
    }

    // Shard 0 in-process: the planner, the engine's handlers, and the
    // update pipeline stage by stage.
    let plan_cfg = PlanConfig {
        k: 4.max(2 * crate::SHARDS),
        n_shards: crate::SHARDS,
        min_support: inputs.min_support,
        ..PlanConfig::default()
    };
    let plan =
        tracer.time(&mut spans, "partition.plan_shards", 0, || plan_shards(&inputs.db, &plan_cfg));
    let plan = plan?;
    let owned = plan.topology.shards[0].owned.clone();
    let engine_dir = dir.join("engine-0");
    std::fs::create_dir_all(&engine_dir).map_err(|e| format!("{}: {e}", engine_dir.display()))?;
    let cfg = EngineConfig {
        min_support: plan.topology.local_min_support,
        k: 4,
        owned: Some(owned.clone()),
        ..EngineConfig::default()
    };
    let (engine, _) = ServeEngine::boot(Some(&plan.shard_dbs[0]), &engine_dir, &cfg)?;
    for (i, &top) in tops.iter().enumerate() {
        let req = Request::Patterns { top: top.saturating_mul(OVERPROVISION), min_support: None };
        engine.handle(&req);
        tracer.time(&mut spans, "serve.engine.patterns", i as u64, || engine.handle(&req));
    }
    for (i, code) in codes.iter().enumerate() {
        let req = Request::SupportBatch { graphs: vec![code.to_graph()], owned: true };
        engine.handle(&req);
        tracer.time(&mut spans, "serve.engine.support_batch", i as u64, || engine.handle(&req));
    }
    let before = RunReport::capture("probe", engine.telemetry());
    let mut folded = 0u64;
    for window in windows.iter().take(PROBE_WINDOWS) {
        let sub: Vec<_> =
            window.iter().filter(|op| owned.binary_search(&op.gid).is_ok()).copied().collect();
        if sub.is_empty() {
            continue;
        }
        folded += 1;
        let req = folded;
        let t0 = Instant::now();
        let mut children = Vec::new();
        let valid =
            tracer.time(&mut children, "serve.validate", req, || engine.validate_window(&sub));
        valid.map_err(|e| format!("probe validate: {e}"))?;
        let ack = tracer.time(&mut children, "serve.durable", req, || engine.submit_window(&sub));
        let ack = ack.map_err(|e| format!("probe submit: {e}"))?;
        let applied =
            tracer.time(&mut children, "serve.fold", req, || engine.wait_applied(ack.seq));
        applied.map_err(|e| format!("probe fold: {e}"))?;
        let commit = tracer
            .time(&mut children, "serve.commit", req, || engine.commit_epoch(folded, ack.seq));
        commit.map_err(|e| format!("probe commit: {e}"))?;
        let parent = tracer.span("serve.update".to_string(), t0, t0.elapsed(), None, req);
        for mut child in children {
            child.parent = Some(parent.id);
            spans.push(child);
        }
        spans.push(parent);
    }
    let after = RunReport::capture("probe", engine.telemetry());
    drop(engine);
    trace::write(out, &spans)?;

    // Every pass answers correctly too.
    for (name, pass, extra) in [
        ("A", &pass_a, None),
        ("B", &pass_b, None),
        ("C", &pass_c, probe_c.as_ref().map(|p| (probe.as_slice(), p))),
    ] {
        let mut reference = Reference::boot(
            &inputs.db,
            inputs.min_support,
            &dir.join(format!("reference-{name}")),
        )?;
        verify_phase(&mut reference, &streams, pass, extra, &windows)
            .map_err(|e| format!("WRONG ANSWER in traced pass {name}: {e}"))?;
    }

    // Per verb: a median over both verbs would sit between their
    // latency clusters and jump between them.
    let overhead = ["support", "patterns"]
        .iter()
        .map(|verb| {
            let p50 = |p: &PhaseResult| median(&latencies(&streams, p, verb));
            p50(&pass_b) - p50(&pass_a)
        })
        .sum::<f64>()
        / 2.0;
    // Pair each read of pass B with the same read of pass C.
    let mut front = Vec::new();
    for ((ops, b), c) in streams.iter().zip(&pass_b.samples).zip(&pass_c.samples) {
        for ((op, sb), sc) in ops.iter().zip(b).zip(c) {
            if op.verb() != "update" && !sb.failed() && !sc.failed() {
                front.push((sb.latency.as_secs_f64() - sc.latency.as_secs_f64()) * 1e3);
            }
        }
    }
    let mut handle_update = latencies(&streams, &pass_c, "update");
    if let Some(p) = &probe_c {
        handle_update.extend(latencies(std::slice::from_ref(&probe), p, "update"));
    }
    let requests_b = pass_b.samples.iter().map(Vec::len).sum::<usize>() as f64;
    let patterns_b: Vec<bool> = streams
        .iter()
        .zip(&pass_b.samples)
        .flat_map(|(ops, s)| ops.iter().zip(s))
        .filter(|(op, _)| op.verb() == "patterns")
        .map(|(_, s)| s.reply.as_ref().is_ok_and(|r| r.field("truncated").is_some()))
        .collect();
    let hits = delta(&router_before, &router_after, "router_cache_hits");
    let misses = delta(&router_before, &router_after, "router_cache_misses");
    // The closing `status` scatters to every shard once; take it out.
    let fanout = delta(&router_before, &router_after, "scatter_fanout") - crate::SHARDS as f64;
    let retries: f64 = ["shard_retries", "hedged_reads", "gather_partial", "epoch_2pc_aborts"]
        .iter()
        .map(|c| delta(&router_before, &router_after, c))
        .sum();
    let sources: Vec<f64> =
        ["support_from_patterns", "support_from_embeddings", "support_from_search"]
            .iter()
            .map(|c| delta_sum(&shard_before, &shard_after, c))
            .collect();
    let source_total: f64 = sources.iter().sum();
    let refused: f64 = ["req_overloaded", "ingest_backpressure", "req_errors"]
        .iter()
        .map(|c| delta_sum(&shard_before, &shard_after, c))
        .sum();
    let stage_max =
        |stage: &str| shard_status.iter().map(|s| stage_ms(s, stage)).fold(0.0, f64::max);
    let boot_counter = |name: &str| shard_before.iter().map(|c| get(c, name)).sum::<u64>() as f64;
    let pattern_counts: Vec<f64> = shard_status
        .iter()
        .map(|s| s.field("pattern_count").and_then(JsonValue::as_num).unwrap_or(0) as f64)
        .collect();
    let probe_counter = |name: &str| {
        let get = |r: &RunReport| r.counters.iter().find(|(n, _)| n == name).map_or(0, |c| c.1);
        get(&after).saturating_sub(get(&before)) as f64
    };
    let group_commits = probe_counter("wal_group_commits");
    let rtt_patterns = traced_ms(&spans, "serve.rtt.patterns");
    let rtt_batch = traced_ms(&spans, "serve.rtt.support_batch");
    let engine_patterns = traced_ms(&spans, "serve.engine.patterns");
    let engine_batch = traced_ms(&spans, "serve.engine.support_batch");

    let (mut attempted, mut failed) = (0, 0);
    for p in [&pass_a, &pass_b, &pass_c].into_iter().chain(probe_c.as_ref()) {
        let (a, f) = outcome(p);
        attempted += a;
        failed += f;
    }
    let m = |name: &str, value: f64, unit: &'static str| (name.to_string(), value, unit);
    let metrics = vec![
        m("router.front_ms", median(&front), "ms"),
        m("router.handle_patterns_ms", median(&latencies(&streams, &pass_c, "patterns")), "ms"),
        m("router.handle_support_ms", median(&latencies(&streams, &pass_c, "support")), "ms"),
        m("router.handle_update_ms", median(&handle_update), "ms"),
        m("router.cache_hit_ratio", ratio(hits, hits + misses), "ratio"),
        m("router.fanout_per_req", ratio(fanout, requests_b), "count"),
        m("router.phase1_candidates", median(&candidates), "count"),
        m("router.phase1_reply_kb", median(&reply_kb), "KiB"),
        m(
            "router.truncated_ratio",
            ratio(patterns_b.iter().filter(|&&t| t).count() as f64, patterns_b.len() as f64),
            "ratio",
        ),
        m("router.retries", retries, "count"),
        m("router.cpu_ms_per_req", ratio(router_cpu1 - router_cpu0, requests_b), "ms"),
        m("serve.rtt_patterns_ms", rtt_patterns, "ms"),
        m("serve.rtt_support_batch_ms", rtt_batch, "ms"),
        m("serve.engine_patterns_ms", engine_patterns, "ms"),
        m("serve.engine_support_batch_ms", engine_batch, "ms"),
        m(
            "serve.wire_ms",
            ((rtt_patterns - engine_patterns) + (rtt_batch - engine_batch)) / 2.0,
            "ms",
        ),
        m("serve.validate_ms", traced_ms(&spans, "serve.validate"), "ms"),
        m("serve.durable_ms", traced_ms(&spans, "serve.durable"), "ms"),
        m("serve.fold_ms", traced_ms(&spans, "serve.fold"), "ms"),
        m("serve.commit_ms", traced_ms(&spans, "serve.commit"), "ms"),
        m("serve.support_source.patterns", ratio(sources[0], source_total), "ratio"),
        m("serve.support_source.embeddings", ratio(sources[1], source_total), "ratio"),
        m("serve.support_source.search", ratio(sources[2], source_total), "ratio"),
        m("serve.refused", refused, "count"),
        m("serve.cpu_ms_per_req", ratio(shard_cpu1 - shard_cpu0, requests_b), "ms"),
        m("storage.fsyncs_per_window", ratio(group_commits, folded as f64), "count"),
        m(
            "storage.frames_per_commit",
            ratio(probe_counter("wal_group_frames"), group_commits),
            "count",
        ),
        m("core.partition_ms", stage_max("partition"), "ms"),
        m("core.unit_mine_ms", stage_max("unit_mine"), "ms"),
        m("core.merge_join_ms", stage_max("merge_join"), "ms"),
        m(
            "core.fold_ms",
            ratio(all_stages_ms(&after) - all_stages_ms(&before), folded as f64),
            "ms",
        ),
        m(
            "core.verify_yield",
            ratio(boot_counter("verified_frequent"), boot_counter("candidates_generated")),
            "ratio",
        ),
        m("core.known_skipped", probe_counter("known_skipped"), "count"),
        m("core.prune_set_hits", probe_counter("prune_set_hits"), "count"),
        m("partition.plan_ms", traced_ms(&spans, "partition.plan_shards"), "ms"),
        m("partition.shard_skew", max_over_mean(&pattern_counts), "ratio"),
        m("partition.shard_boot_skew", max_over_mean(&shard_boot), "ratio"),
        m("graph.support_us", median(&support_us), "us"),
        m(
            "graph.embeddings_spilled",
            delta_sum(&shard_before, &shard_after, "embeddings_spilled"),
            "count",
        ),
        m("graph.search_calls", delta_sum(&shard_before, &shard_after, "search_calls"), "count"),
        m("trace.overhead_ms", overhead, "ms"),
        m("failed_ratio", ratio(failed as f64, attempted as f64), "ratio"),
    ];
    Ok(LayerReport { metrics, attempted, failed })
}
