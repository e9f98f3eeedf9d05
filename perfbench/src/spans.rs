//! The traced run's span recorder and the per-layer ledger built from it.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions (the programs under test carry no
//! instrumentation). Each span has a name `layer.operation`, a start, an
//! end, the span that was open on the same thread when it started, and the
//! id of the request it served. Spans stay in memory until the run ends.
//!
//! A span's *self time* is its duration minus the durations of its
//! children. Children nest on their parent's thread, so they never overlap
//! and the subtraction is exact. Root spans are named `bench.<phase>`: one
//! per thread and phase of the traced run, covering the phase from start to
//! end. Their self time is the part of the run no layer span covers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rescache_core::json::{obj, Json};

/// The ledger tolerance: per-layer self times must add up to the traced
/// threads' time within this share, so the unattributed time must stay
/// below it.
pub const LEDGER_TOLERANCE: f64 = 0.05;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: u64,
    pub thread: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// A small per-thread number for the span records.
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Collects spans in memory. A disabled recorder hands out inert guards, so
/// the untraced run executes the same code without recording anything.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, request: u64) -> Guard<'_> {
        if !self.enabled {
            return Guard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        Guard {
            open: Some(OpenSpan {
                recorder: self,
                id,
                parent,
                name,
                request,
                start: Instant::now(),
            }),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name, request);
        f()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

struct OpenSpan<'a> {
    recorder: &'a Recorder,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: Instant,
}

/// Closes its span on drop.
pub struct Guard<'a> {
    open: Option<OpenSpan<'a>>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let end = Instant::now();
        OPEN.with(|stack| {
            let popped = stack.borrow_mut().pop();
            debug_assert_eq!(popped, Some(open.id), "spans close innermost first");
        });
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.recorder.nanos(open.start),
            end_ns: open.recorder.nanos(end),
            request: open.request,
            thread: THREAD.with(|t| *t),
        };
        // A poisoned list only loses the record; never panic in drop.
        if let Ok(mut spans) = open.recorder.spans.lock() {
            spans.push(span);
        }
    }
}

/// Per-layer self times of one traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Self seconds per layer, `bench` excluded.
    pub layers: BTreeMap<&'static str, f64>,
    /// Self seconds per span name, `bench` excluded.
    pub operations: BTreeMap<&'static str, f64>,
    /// Self seconds of the `bench.*` root spans: time no layer span covers.
    pub unattributed_s: f64,
}

impl Ledger {
    /// Computes self times from a span list.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut children: BTreeMap<u64, f64> = BTreeMap::new();
        for span in spans {
            if let Some(parent) = span.parent {
                *children.entry(parent).or_default() += span.seconds();
            }
        }
        let mut ledger = Ledger::default();
        for span in spans {
            let own = span.seconds() - children.get(&span.id).copied().unwrap_or(0.0);
            if span.layer() == "bench" {
                ledger.unattributed_s += own;
            } else {
                *ledger.layers.entry(span.layer()).or_default() += own;
                *ledger.operations.entry(span.name).or_default() += own;
            }
        }
        ledger
    }

    /// Self seconds of one span name (0 when it never ran).
    pub fn op(&self, name: &str) -> f64 {
        self.operations.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every layer's self time.
    pub fn attributed_s(&self) -> f64 {
        self.layers.values().sum()
    }

    /// The traced threads' time: the durations of the `bench.*` root spans,
    /// which every layer span nests in.
    pub fn traced_s(&self) -> f64 {
        self.attributed_s() + self.unattributed_s
    }

    /// A coverage check: the layers' self times must add up to the traced
    /// threads' time within `tolerance` of it, so the part no layer span
    /// claims stays small. Time in the library's own worker threads counts
    /// inside the span of the call that started them.
    pub fn check(&self, tolerance: f64) -> Result<(), String> {
        let traced = self.traced_s();
        if traced <= 0.0 {
            return Err("no traced time".into());
        }
        let unattributed = self.unattributed_s / traced;
        if unattributed > tolerance {
            return Err(format!(
                "{:.1} % of traced thread time is in no layer span (tolerance {:.1} %)",
                unattributed * 100.0,
                tolerance * 100.0
            ));
        }
        Ok(())
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let line = obj([
            ("id", Json::Num(span.id as f64)),
            (
                "parent",
                span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("name", Json::Str(span.name.into())),
            ("start_ns", Json::Num(span.start_ns as f64)),
            ("end_ns", Json::Num(span.end_ns as f64)),
            ("request", Json::Num(span.request as f64)),
            ("thread", Json::Num(span.thread as f64)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            request: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, None, "bench.phase", 0, 1_000_000_000),
            span(2, Some(1), "runner.static_best", 100_000_000, 900_000_000),
            span(3, Some(2), "trace.fetch", 100_000_000, 300_000_000),
            span(4, Some(1), "json.parse", 900_000_000, 950_000_000),
        ];
        let ledger = Ledger::from_spans(&spans);
        assert!((ledger.layers["runner"] - 0.6).abs() < 1e-9);
        assert!((ledger.layers["trace"] - 0.2).abs() < 1e-9);
        assert!((ledger.layers["json"] - 0.05).abs() < 1e-9);
        assert!((ledger.unattributed_s - 0.15).abs() < 1e-9);
        assert!((ledger.op("trace.fetch") - 0.2).abs() < 1e-9);
        assert_eq!(ledger.op("cpu.run"), 0.0);
        // Everything adds back up to the root's duration.
        let total = ledger.attributed_s() + ledger.unattributed_s;
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn check_enforces_coverage() {
        let covered = [
            span(1, None, "bench.phase", 0, 1_000_000_000),
            span(2, Some(1), "cpu.run", 0, 980_000_000),
        ];
        let ledger = Ledger::from_spans(&covered);
        assert!(ledger.check(LEDGER_TOLERANCE).is_ok());
        assert!((ledger.traced_s() - 1.0).abs() < 1e-9);

        let gappy = [
            span(1, None, "bench.phase", 0, 1_000_000_000),
            span(2, Some(1), "cpu.run", 0, 800_000_000),
        ];
        let err = Ledger::from_spans(&gappy)
            .check(LEDGER_TOLERANCE)
            .unwrap_err();
        assert!(err.contains("no layer span"), "{err}");
    }

    #[test]
    fn recorder_nests_per_thread_and_disabled_records_nothing() {
        let recorder = Recorder::new(true);
        {
            let _root = recorder.span("bench.phase", 0);
            recorder.time("trace.fetch", 7, || {
                recorder.time("cpu.run", 7, || std::hint::black_box(1 + 1));
            });
            std::thread::scope(|s| {
                s.spawn(|| recorder.time("bench.client", 9, || ()));
            });
        }
        let spans = recorder.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let root = by_name("bench.phase");
        let fetch = by_name("trace.fetch");
        let run = by_name("cpu.run");
        let client = by_name("bench.client");
        assert_eq!(root.parent, None);
        assert_eq!(fetch.parent, Some(root.id));
        assert_eq!(run.parent, Some(fetch.id));
        assert_eq!(run.request, 7);
        // A span opened on another thread does not nest under this one's.
        assert_eq!(client.parent, None);
        assert_ne!(client.thread, root.thread);
        assert!(fetch.start_ns <= run.start_ns && run.end_ns <= fetch.end_ns);

        let off = Recorder::new(false);
        off.time("cpu.run", 0, || ());
        assert!(off.spans().is_empty());
    }
}
