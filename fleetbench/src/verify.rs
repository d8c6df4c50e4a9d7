//! The answer check. A single-process [`ServeEngine`] over the whole
//! database, at the global minimum support, is the reference: after the
//! timed phase every recorded reply is compared with the reference at the
//! `global_epoch` the reply reports, replaying the committed churn windows
//! into the reference one by one.

use std::collections::BTreeMap;
use std::path::Path;

use graphmine_graph::{DbUpdate, GraphDb, Support};
use graphmine_serve::protocol::code_from_json;
use graphmine_serve::{EngineConfig, Request, ServeEngine};
use graphmine_telemetry::JsonValue;

use crate::load::Sample;
use crate::workload::Op;

/// The single-process reference.
pub struct Reference {
    engine: ServeEngine,
    /// Committed windows folded in so far (= the reference's epoch).
    applied: u64,
}

/// What the check saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Replies compared with the reference.
    pub checked: usize,
    /// Of those, `"truncated":1` `patterns` replies (checked for exact
    /// supports, the floor and the order rather than equality).
    pub truncated: usize,
}

impl Reference {
    /// Mines `db` at `min_support` in a fresh directory.
    pub fn boot(db: &GraphDb, min_support: Support, dir: &Path) -> Result<Reference, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let cfg = EngineConfig { min_support, k: 4, ..EngineConfig::default() };
        let (engine, _) = ServeEngine::boot(Some(db), dir, &cfg)?;
        Ok(Reference { engine, applied: 0 })
    }

    /// The engine, at whatever epoch the check has reached.
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    fn advance(&mut self, window: &[DbUpdate]) -> Result<(), String> {
        self.engine.apply_update(window).map_err(|e| format!("reference fold: {e}"))?;
        self.applied += 1;
        Ok(())
    }

    /// Compares one read reply with the reference's current epoch.
    fn check_read(&self, op: &Op, reply: &JsonValue) -> Result<bool, String> {
        match op {
            Op::Support(code) => {
                let ep = self.engine.current();
                let want = self.engine.support_of(&ep, &code.to_graph()).0;
                let got = reply.field("support").and_then(JsonValue::as_num);
                if got != Some(u64::from(want)) {
                    return Err(format!("support {got:?}, reference {want}"));
                }
                Ok(false)
            }
            Op::Patterns { top, min_support } => {
                let want =
                    self.engine.handle(&Request::Patterns { top: *top, min_support: *min_support });
                if reply.field("truncated").is_none() {
                    for key in ["total", "patterns"] {
                        if reply.field(key) != want.field(key) {
                            return Err(format!("`{key}` differs from the reference"));
                        }
                    }
                    return Ok(false);
                }
                self.check_truncated(*top, *min_support, reply)?;
                Ok(true)
            }
            Op::Update(_) => Err("an update is not a read".to_string()),
        }
    }

    /// A truncated answer may omit patterns, but every row it has must
    /// carry its exact support, respect the floor, and keep the order
    /// (support descending, code ascending).
    fn check_truncated(
        &self,
        top: usize,
        min_support: Option<Support>,
        reply: &JsonValue,
    ) -> Result<(), String> {
        let floor = self.engine.min_support().max(min_support.unwrap_or(0));
        let ep = self.engine.current();
        let rows = reply.field("patterns").and_then(JsonValue::as_arr).unwrap_or(&[]);
        if rows.len() > top {
            return Err(format!("{} rows for top {top}", rows.len()));
        }
        let mut prev = None;
        for row in rows {
            let support = row.field("support").and_then(JsonValue::as_num).unwrap_or(0);
            let code = row.field("code").ok_or("row without a code")?;
            let code = code_from_json(code)?;
            let exact = ep.patterns.support(&code).map(u64::from);
            if exact != Some(support) {
                return Err(format!("truncated row support {support}, reference {exact:?}"));
            }
            if support < u64::from(floor) {
                return Err(format!("truncated row support {support} below floor {floor}"));
            }
            let key = (std::cmp::Reverse(support), code);
            if prev.as_ref().is_some_and(|p| *p > key) {
                return Err("truncated rows out of order".to_string());
            }
            prev = Some(key);
        }
        Ok(())
    }
}

/// A read reply to check, with when it was in flight.
pub struct Read<'a> {
    /// The request.
    pub op: &'a Op,
    /// What came back.
    pub sample: &'a Sample,
}

/// An update reply, with the window it carried.
pub struct Update<'a> {
    /// Index into the window list.
    pub window: usize,
    /// What came back.
    pub sample: &'a Sample,
}

fn overlaps(a: &Sample, b: &Sample) -> bool {
    let end = |s: &Sample| s.start + s.latency;
    a.start < end(b) && b.start < end(a)
}

fn epoch_of(reply: &JsonValue) -> Result<u64, String> {
    reply
        .field("global_epoch")
        .and_then(JsonValue::as_num)
        .ok_or_else(|| format!("reply without `global_epoch`: {}", reply.to_json()))
}

/// Checks every successful reply; failed ones are counted elsewhere.
///
/// # Errors
///
/// Returns the first wrong answer, described.
pub fn check(
    reference: &mut Reference,
    reads: &[Read<'_>],
    updates: &[Update<'_>],
    windows: &[Vec<DbUpdate>],
) -> Result<Verdict, String> {
    let mut verdict = Verdict::default();
    // Committed windows in epoch order; each commit must advance the
    // global epoch by exactly one.
    let mut committed: Vec<&Update<'_>> = Vec::new();
    let mut by_epoch: BTreeMap<u64, &Update<'_>> = BTreeMap::new();
    for u in updates {
        if let Ok(reply) = &u.sample.reply {
            if by_epoch.insert(epoch_of(reply)?, u).is_some() {
                return Err(format!("two windows committed epoch {}", epoch_of(reply)?));
            }
        }
    }
    for (i, (&epoch, u)) in by_epoch.iter().enumerate() {
        if epoch != i as u64 + 1 {
            return Err(format!("commits jump to epoch {epoch} after {i}"));
        }
        committed.push(u);
        verdict.checked += 1;
    }

    let mut by_read_epoch: BTreeMap<u64, Vec<&Read<'_>>> = BTreeMap::new();
    for r in reads {
        if let (Ok(reply), false) = (&r.sample.reply, r.sample.failed()) {
            let epoch = epoch_of(reply)?;
            if epoch > committed.len() as u64 {
                return Err(format!("read reports epoch {epoch}, never committed"));
            }
            by_read_epoch.entry(epoch).or_default().push(r);
        }
    }
    for (epoch, epoch_reads) in by_read_epoch {
        while reference.applied < epoch {
            let w = committed[reference.applied as usize].window;
            reference.advance(&windows[w])?;
        }
        for r in epoch_reads {
            let reply = r.sample.reply.as_ref().expect("only successful reads are grouped");
            match reference.check_read(r.op, reply) {
                Ok(truncated) => {
                    verdict.checked += 1;
                    verdict.truncated += usize::from(truncated);
                }
                Err(why) => {
                    let next = committed.get(epoch as usize);
                    let hint = match next {
                        Some(u) if overlaps(r.sample, u.sample) => {
                            reference.advance(&windows[u.window])?;
                            if reference.check_read(r.op, reply).is_ok() {
                                "; it equals the next epoch, whose window was in flight"
                            } else {
                                "; it matches neither this epoch nor the next, in-flight one"
                            }
                        }
                        _ => "",
                    };
                    return Err(format!(
                        "wrong {} answer at epoch {epoch}: {why}{hint}; reply {}",
                        r.op.verb(),
                        reply.to_json()
                    ));
                }
            }
        }
    }
    Ok(verdict)
}
