//! In-memory spans recorded around the calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the operation (training step or request) it belongs to. Spans stay
//! in memory while the benchmark measures and are written out at exit.
//! With tracing off, opening a span costs one relaxed load and no clock
//! read, which is what the untraced end-to-end runs pay.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<u32>,
    pub op: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

// A switch that publishes no other data, so relaxed ordering is enough.
static ON: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    now_ns(); // pin the epoch before the first span
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Sets the operation id that spans opened on this thread carry.
pub fn set_op(op: u64) {
    OP.with(|c| c.set(op));
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<u32>);

/// Opens a span under the innermost open span of this thread.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let span = Span {
        name,
        start_ns: now_ns(),
        end_ns: 0,
        parent,
        op: OP.with(Cell::get),
        thread: THREAD.with(|t| *t),
    };
    let Ok(mut spans) = SPANS.lock() else { return SpanGuard(None) };
    let id = spans.len() as u32;
    spans.push(span);
    drop(spans);
    STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard(Some(id))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let end = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&id) {
                s.pop();
            }
        });
        // A poisoned lock only loses this span's end; never panic in drop.
        if let Ok(mut spans) = SPANS.lock() {
            if let Some(span) = spans.get_mut(id as usize) {
                span.end_ns = end;
            }
        }
    }
}

/// Everything recorded so far.
pub fn snapshot() -> Vec<Span> {
    SPANS.lock().map(|s| s.clone()).unwrap_or_default()
}

/// Per span name: how often it ran, its total time, and its self time
/// (duration minus the part its child spans cover).
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Spans that break the nesting rule: a child that starts before or ends
/// after its parent, or children that together outlast their parent.
pub fn nesting_violations(spans: &[Span]) -> usize {
    let mut child_ns = vec![0u64; spans.len()];
    let mut bad = 0;
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            child_ns[p as usize] += s.dur_ns();
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                bad += 1;
            }
        }
    }
    bad + spans.iter().zip(&child_ns).filter(|(s, &c)| c > s.dur_ns()).count()
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"op\":{},\"thread\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op, s.thread
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_of(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 0, thread: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span_of("step", 0, 100, None),
            span_of("fwd", 10, 40, Some(0)),
            span_of("bwd", 40, 90, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["step"].self_ns, 20);
        assert_eq!(t["fwd"].self_ns, 30);
        assert_eq!(t["step"].total_ns, t["step"].self_ns + t["fwd"].total_ns + t["bwd"].total_ns);
        assert_eq!(nesting_violations(&spans), 0);
    }

    #[test]
    fn children_that_escape_their_parent_are_counted() {
        let spans = [span_of("step", 10, 50, None), span_of("fwd", 5, 60, Some(0))];
        assert_eq!(nesting_violations(&spans), 2);
    }
}
