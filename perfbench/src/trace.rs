//! Spans recorded from the benchmark's own code around calls into each
//! layer's public functions.
//!
//! A span has a name, a parent, a monotonic start and end, and the pass it
//! belongs to. Spans are buffered in memory and written as JSONL when the
//! run ends. A layer's self time is the part of its spans' intervals that
//! no child span covers; spans of one name recorded on several threads are
//! merged as intervals, so parallel calls count once in wall time.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer-qualified name, such as `corpus.assemble`.
    pub name: &'static str,
    /// Pass the span belongs to.
    pub pass: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder; a disabled tracer runs the closures and records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU32,
    pass: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            pass: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Start a new pass; later spans carry its id.
    pub fn next_pass(&self) -> u32 {
        self.pass.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> Option<u32> {
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Run `f` inside a span named `name`, child of this thread's innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_in(self.current(), name, f)
    }

    /// Run `f` inside a span named `name` with an explicit parent, for
    /// calls made on a thread other than the parent's.
    pub fn span_in<T>(&self, parent: Option<u32>, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let pass = self.pass.load(Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        STACK.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking span")
            .push(Span {
                id,
                parent,
                name,
                pass,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking span")
            .clone()
    }
}

/// Half-open `[start, end)` intervals in nanoseconds.
type Intervals = Vec<(u64, u64)>;

/// Self time per span name, in seconds, and the number of distinct passes
/// the name was recorded in.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut children: BTreeMap<u32, Intervals> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut own: BTreeMap<&'static str, (Intervals, BTreeSet<u32>)> = BTreeMap::new();
    for s in spans {
        let covered = merge(children.remove(&s.id).unwrap_or_default());
        let entry = own.entry(s.name).or_default();
        entry.1.insert(s.pass);
        let mut at = s.start_ns;
        for (a, b) in covered {
            if a > at {
                entry.0.push((at, a.min(s.end_ns)));
            }
            at = at.max(b);
        }
        if at < s.end_ns {
            entry.0.push((at, s.end_ns));
        }
    }
    own.into_iter()
        .map(|(name, (intervals, passes))| {
            let ns: u64 = merge(intervals).iter().map(|(a, b)| b - a).sum();
            (name, (ns as f64 * 1e-9, passes.len()))
        })
        .collect()
}

/// Sort and coalesce overlapping intervals.
fn merge(mut intervals: Intervals) -> Intervals {
    intervals.sort_unstable();
    let mut out: Intervals = Vec::with_capacity(intervals.len());
    for (a, b) in intervals {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Write spans as one JSON object per line.
pub fn write_jsonl(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"pass\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.pass, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            pass: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_merges_parallel_spans() {
        let spans = [
            span(1, None, "pass", 0, 100),
            // Two overlapping children on different threads: 10..60 wall.
            span(2, Some(1), "root", 10, 50),
            span(3, Some(1), "root", 20, 60),
            span(4, Some(1), "assemble", 60, 90),
        ];
        let t = self_times(&spans);
        assert!((t["pass"].0 - 20e-9).abs() < 1e-15);
        assert!((t["root"].0 - 50e-9).abs() < 1e-15);
        assert!((t["assemble"].0 - 30e-9).abs() < 1e-15);
    }
}
