//! The benchmark's own spans: one around every call into a layer's public
//! API, recorded from outside the program (spans *inside* the program are
//! a later issue). Spans stay in memory and are written out when the
//! traced run ends. End-to-end runs leave recording off, which costs one
//! relaxed load per would-be span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Value;

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// Identifier, unique within the run.
    pub id: u32,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    /// `<layer>.<call>` name.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static FINISHED: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off. Off is the state end-to-end runs
/// measure in.
pub fn set_enabled(on: bool) {
    epoch();
    // Relaxed: the flag publishes no other data; a span that races the
    // switch is either recorded whole or not at all.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// RAII guard of an open span.
pub struct Span {
    open: Option<(u32, Option<u32>, &'static str, u64)>,
}

impl Span {
    /// This span's id, for parenting spans opened on other threads.
    pub fn id(&self) -> Option<u32> {
        self.open.map(|(id, ..)| id)
    }
}

/// Opens a span whose parent is the innermost open span on this thread.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    open(name, parent)
}

/// Opens a span under an explicit parent — client threads use this to
/// hang their calls under the rep span opened on the main thread.
pub fn span_under(name: &'static str, parent: Option<u32>) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    open(name, parent)
}

fn open(name: &'static str, parent: Option<u32>) -> Span {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    let start = epoch().elapsed().as_nanos() as u64;
    Span {
        open: Some((id, parent, name, start)),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = epoch().elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
        // A poisoned lock only means another thread panicked mid-push; the
        // vector is still a valid list of finished spans.
        let mut all = FINISHED.lock().unwrap_or_else(|e| e.into_inner());
        all.push(SpanRec {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }
}

/// Times `f` under a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _s = span(name);
    f()
}

/// Removes and returns every finished span.
pub fn drain() -> Vec<SpanRec> {
    std::mem::take(&mut *FINISHED.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Children on other threads may overlap each
/// other, so the covered part is the *union* of the children's intervals
/// clipped to the parent's, not their sum.
pub fn self_time_ns(span: &SpanRec, children: &[&SpanRec]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (s, e) in cuts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

/// Aggregates spans by name: count, total time, self time.
pub fn aggregate(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<&SpanRec>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_time_ns(s, kids);
    }
    out
}

/// Raw spans kept in a trace file; beyond this only the per-name totals
/// (which always cover every span) are written.
pub const RAW_SPAN_CAP: usize = 4096;

/// The `trace-<workload>.json` document for `spans`, all of which belong
/// to `workload`.
pub fn trace_document(workload: &str, spans: &[SpanRec]) -> Value {
    let names = aggregate(spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name,
                Value::obj(vec![
                    ("count", Value::Num(t.count as f64)),
                    ("total_us", Value::Num(t.total_ns as f64 / 1e3)),
                    ("self_us", Value::Num(t.self_ns as f64 / 1e3)),
                ]),
            )
        })
        .collect();
    let raw = spans
        .iter()
        .take(RAW_SPAN_CAP)
        .map(|s| {
            Value::obj(vec![
                ("id", Value::Num(f64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                ),
                ("name", Value::str(s.name)),
                ("start_us", Value::Num(s.start_ns as f64 / 1e3)),
                ("end_us", Value::Num(s.end_ns as f64 / 1e3)),
                ("workload", Value::str(workload)),
            ])
        })
        .collect();
    Value::obj(vec![
        ("workload", Value::str(workload)),
        ("span_count", Value::Num(spans.len() as f64)),
        ("by_name", Value::obj(names)),
        ("spans", Value::Arr(raw)),
    ])
}
