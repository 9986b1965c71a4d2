//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span (name, start, end, parent span, cell or job id). Spans stay in
//! memory and are written out once, at exit. With tracing off, opening a
//! span is one relaxed atomic load and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread, innermost last: the implicit parent.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// One finished layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `gpusim.run`.
    pub name: &'static str,
    /// Cell or job id the call served.
    pub tag: String,
    /// Index of the enclosing span in [`take`]'s list.
    pub parent: Option<usize>,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// End, relative to the recorder's epoch.
    pub end: Duration,
}

impl Span {
    /// Wall time of the call.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn lock() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS.lock().expect("span list poisoned by a panicking recorder")
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it ends when dropped.
pub struct Guard {
    index: Option<usize>,
}

impl Guard {
    /// The span's index, to parent spans opened on other threads.
    pub fn id(&self) -> Option<usize> {
        self.index
    }
}

/// Opens a span whose parent is this thread's innermost open span.
pub fn span(name: &'static str, tag: impl Into<String>) -> Guard {
    let parent = STACK.with(|s| s.borrow().last().copied());
    span_in(parent, name, tag)
}

/// Opens a span under an explicit parent (a span of another thread).
pub fn span_in(parent: Option<usize>, name: &'static str, tag: impl Into<String>) -> Guard {
    if !enabled() {
        return Guard { index: None };
    }
    let start = epoch().elapsed();
    let index = {
        let mut spans = lock();
        spans.push(Span { name, tag: tag.into(), parent, start, end: start });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(index));
    Guard { index: Some(index) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end = epoch().elapsed();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&i| i == index) {
                stack.remove(pos);
            }
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans[index].end = end;
        }
    }
}

/// Records a span from timestamps taken elsewhere (frame arrivals on a
/// client socket), under an explicit parent; returns its index.
pub fn record(
    parent: Option<usize>,
    name: &'static str,
    tag: impl Into<String>,
    start: Instant,
    end: Instant,
) -> Option<usize> {
    if !enabled() {
        return None;
    }
    let base = epoch();
    let span = Span {
        name,
        tag: tag.into(),
        parent,
        start: start.saturating_duration_since(base),
        end: end.saturating_duration_since(base),
    };
    let mut spans = lock();
    spans.push(span);
    Some(spans.len() - 1)
}

/// Removes and returns every recorded span, in opening order.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *lock())
}

/// Total seconds of the spans called `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).fold(0.0, |t, s| t + s.duration().as_secs_f64())
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children on other threads may overlap, so
/// the covered part is the union of their intervals).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Per-name rollup `(count, total, self)`, for the human-readable report.
pub fn rollup(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, (usize, Duration, Duration)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration();
        e.2 += own;
    }
    let mut out = format!("{:<24} {:>7} {:>12} {:>12}\n", "span", "count", "total_s", "self_s");
    for (name, (count, total, own)) in by_name {
        let _ = writeln!(
            out,
            "{name:<24} {count:>7} {:>12.4} {:>12.4}",
            total.as_secs_f64(),
            own.as_secs_f64()
        );
    }
    out
}

/// One JSON line per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.name,
            s.tag.replace(['"', '\\'], "_"),
            s.start.as_nanos(),
            s.end.as_nanos()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, parent: Option<usize>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            name,
            tag: String::new(),
            parent,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (other threads) cover 10..70 of 0..100.
        let spans = [at("pass", None, 0, 100), at("a", Some(0), 10, 50), at("b", Some(0), 30, 70)];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], Duration::from_millis(40));
        assert_eq!(selfs[1], Duration::from_millis(40));
        assert_eq!(total_s(&spans, "a"), 0.04);
    }
}
