//! The closed-loop load generator: one thread per client stream, each
//! sending its next request only after the previous reply arrived.
//!
//! A stream talks either to the router daemon over a socket
//! ([`Target::Wire`]) or straight to an in-process [`Router`]
//! ([`Target::InProcess`]) — the traced run compares the two on the same
//! request sequence to split client latency into the front hop and the
//! router's own handling.

use std::time::{Duration, Instant};

use graphmine_graph::DbUpdate;
use graphmine_router::Router;
use graphmine_serve::{AckMode, Client, Request};
use graphmine_telemetry::JsonValue;

use crate::trace::{Span, Tracer};
use crate::workload::Op;

/// Where a stream's requests go.
#[derive(Clone, Copy)]
pub enum Target<'a> {
    /// The router daemon at this address.
    Wire(&'a str),
    /// A router inside this process.
    InProcess(&'a Router),
}

/// One request as the client saw it.
#[derive(Debug)]
pub struct Sample {
    /// Offset of the send from the phase start.
    pub start: Duration,
    /// Send to reply.
    pub latency: Duration,
    /// The reply, or why there was none. An error reply, a timeout and
    /// an `overloaded`/`backpressure` refusal all land in `Err`.
    pub reply: Result<JsonValue, String>,
}

impl Sample {
    /// A failure is an `Err` or an answer tagged `"partial":1`.
    pub fn failed(&self) -> bool {
        match &self.reply {
            Ok(v) => v.field("partial").is_some(),
            Err(_) => true,
        }
    }
}

/// What a phase produced: per stream, one sample per op, plus the
/// stream's wall time.
pub struct PhaseResult {
    /// `samples[s][i]` answers `streams[s][i]`.
    pub samples: Vec<Vec<Sample>>,
    /// Wall time of each stream.
    pub wall: Vec<Duration>,
    /// Spans recorded by the traced variant, in no particular order.
    pub spans: Vec<Span>,
}

/// Runs every stream concurrently against `target`, one client each.
///
/// # Errors
///
/// Fails only when a client cannot connect; request failures are
/// recorded in the samples.
pub fn run(
    target: Target<'_>,
    streams: &[Vec<Op>],
    windows: &[Vec<DbUpdate>],
    tracer: Option<&Tracer>,
) -> Result<PhaseResult, String> {
    let origin = Instant::now();
    let results: Vec<Result<StreamResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(s, ops)| {
                scope.spawn(move || run_stream(target, s, ops, windows, tracer, origin))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut out = PhaseResult { samples: Vec::new(), wall: Vec::new(), spans: Vec::new() };
    for r in results {
        let (samples, wall, spans) = r?;
        out.samples.push(samples);
        out.wall.push(wall);
        out.spans.extend(spans);
    }
    Ok(out)
}

/// One stream's samples, wall time and spans.
type StreamResult = (Vec<Sample>, Duration, Vec<Span>);

fn run_stream(
    target: Target<'_>,
    stream: usize,
    ops: &[Op],
    windows: &[Vec<DbUpdate>],
    tracer: Option<&Tracer>,
    origin: Instant,
) -> Result<StreamResult, String> {
    let mut client = match target {
        Target::Wire(addr) => Some(Client::connect_with(
            addr,
            Some(Duration::from_secs(5)),
            Some(Duration::from_secs(60)),
        )?),
        Target::InProcess(_) => None,
    };
    let mut spans = Vec::new();
    let mut samples = Vec::with_capacity(ops.len());
    let began = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let t0 = Instant::now();
        let reply = match (&mut client, target) {
            (Some(c), _) => send(c, op, windows),
            (None, Target::InProcess(router)) => handle(router, op, windows),
            (None, Target::Wire(_)) => unreachable!("wire streams always hold a client"),
        };
        let latency = t0.elapsed();
        if let Some(tracer) = tracer {
            let side = if client.is_some() { "client" } else { "router.handle" };
            spans.push(tracer.span(
                format!("{side}.{}", op.verb()),
                t0,
                latency,
                None,
                req_id(stream, i),
            ));
        }
        samples.push(Sample { start: t0 - origin, latency, reply });
    }
    Ok((samples, began.elapsed(), spans))
}

/// The request id spans of stream `s`, op `i` carry.
fn req_id(stream: usize, i: usize) -> u64 {
    (stream as u64) << 32 | i as u64
}

fn send(c: &mut Client, op: &Op, windows: &[Vec<DbUpdate>]) -> Result<JsonValue, String> {
    match op {
        Op::Patterns { top, min_support } => c.patterns(Some(*top), *min_support),
        Op::Support(code) => c.support(code),
        // One attempt: a `backpressure` refusal is a failure here, not
        // something to retry past.
        Op::Update(w) => c.update_once(&windows[*w], AckMode::Applied),
    }
}

fn handle(router: &Router, op: &Op, windows: &[Vec<DbUpdate>]) -> Result<JsonValue, String> {
    let req = match op {
        Op::Patterns { top, min_support } => {
            Request::Patterns { top: *top, min_support: *min_support }
        }
        Op::Support(code) => Request::Support { graph: code.to_graph(), owned: false },
        Op::Update(w) => {
            Request::Update { ops: windows[*w].clone(), ack: AckMode::Applied, dry_run: false }
        }
    };
    let reply = router.handle(&req);
    match reply.field("status").and_then(JsonValue::as_str) {
        Some("ok") => Ok(reply),
        _ => Err(reply.to_json()),
    }
}
