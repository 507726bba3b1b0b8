//! The benchmark's own spans: recorded around the calls into each
//! crate's public functions, kept in memory, written out at exit.
//!
//! One [`SessionTrace`] per traced session. The session thread opens
//! and closes spans on a stack, so each span's parent is the span that
//! was open when it started; worker threads (the executor's evaluation
//! pool) add leaf spans under whatever the session thread has open. A
//! layer's self time is its span's duration minus its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span within its session's trace.
pub type SpanId = u32;

/// Parent of a root span.
pub const NO_PARENT: SpanId = SpanId::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    /// Nanoseconds since the trace's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

/// The spans of one session.
#[derive(Debug)]
pub struct SessionTrace {
    pub session: String,
    origin: Instant,
    inner: Mutex<Inner>,
}

impl SessionTrace {
    /// An empty trace whose clock starts at `origin` (shared by every
    /// session of a run, so spans of concurrent sessions line up).
    pub fn new(session: impl Into<String>, origin: Instant) -> Self {
        SessionTrace { session: session.into(), origin, inner: Mutex::default() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a tracing thread panicked while recording a span")
    }

    /// Opens a span under the innermost open one. Session thread only.
    pub fn open(&self, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        let id = inner.spans.len() as SpanId;
        let parent = inner.open.last().copied().unwrap_or(NO_PARENT);
        inner.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        inner.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        assert_eq!(inner.open.pop(), Some(id), "spans must close innermost first");
        inner.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records a finished interval under the innermost open span without
    /// touching the stack — safe from worker threads.
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant) {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.duration_since(self.origin).as_nanos() as u64;
        let mut inner = self.lock();
        let parent = inner.open.last().copied().unwrap_or(NO_PARENT);
        inner.spans.push(Span { name, parent, start_ns, end_ns });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Runs `f`, inside a span when tracing is on.
pub fn maybe_span<T>(trace: Option<&SessionTrace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Per-name durations and self times of a set of spans, microseconds.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// Duration of every span, by name, in recording order.
    durations: BTreeMap<&'static str, Vec<f64>>,
    /// Summed time each name's spans had a child span open.
    covered_us: BTreeMap<&'static str, f64>,
}

impl SpanTotals {
    /// Folds one session's spans in. The part of a span its children
    /// cover is the union of their intervals, so children running side
    /// by side on worker threads are not counted twice.
    pub fn add(&mut self, spans: &[Span]) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        for (s, mut kids) in spans.iter().zip(children) {
            self.durations.entry(s.name).or_default().push(s.micros());
            kids.sort_unstable();
            let (mut covered_ns, mut reach) = (0, s.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered_ns += end - start;
                    reach = end;
                }
            }
            *self.covered_us.entry(s.name).or_default() += covered_ns as f64 / 1e3;
        }
    }

    pub fn merge(&mut self, other: SpanTotals) {
        for (name, d) in other.durations {
            self.durations.entry(name).or_default().extend(d);
        }
        for (name, c) in other.covered_us {
            *self.covered_us.entry(name).or_default() += c;
        }
    }

    /// Summed duration of every span called `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        // `+ 0.0`: an empty sum is -0.0, which would print as a negative share.
        self.samples(name).iter().sum::<f64>() + 0.0
    }

    /// Summed time spans called `name` had a child open.
    pub fn covered_us(&self, name: &str) -> f64 {
        self.covered_us.get(name).copied().unwrap_or(0.0)
    }

    /// Summed self time (duration minus children) of spans called `name`.
    pub fn self_total_us(&self, name: &str) -> f64 {
        self.total_us(name) - self.covered_us(name)
    }

    /// Durations of every span called `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Writes traces as JSON lines: `name, start, end, parent, session`.
pub fn write_jsonl(out: &mut dyn Write, traces: &[&SessionTrace]) -> std::io::Result<()> {
    for t in traces {
        let session = llamatune_obs::json::escape(&t.session);
        for (id, s) in t.spans().iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{id},\"parent\":{parent},\
                 \"session\":\"{session}\"}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            Span { name: "session", parent: NO_PARENT, start_ns: 0, end_ns: 10_000 },
            Span { name: "suggest", parent: 0, start_ns: 1_000, end_ns: 4_000 },
            Span { name: "inner", parent: 1, start_ns: 2_000, end_ns: 3_000 },
            Span { name: "suggest", parent: 0, start_ns: 5_000, end_ns: 6_000 },
        ];
        let mut totals = SpanTotals::default();
        totals.add(&spans);
        assert_eq!(totals.total_us("suggest"), 4.0);
        assert_eq!(totals.self_total_us("suggest"), 3.0);
        assert_eq!(totals.self_total_us("session"), 6.0);
        assert_eq!(totals.samples("suggest"), &[3.0, 1.0]);
    }

    #[test]
    fn parallel_children_cover_their_union_once() {
        let spans = [
            Span { name: "batch", parent: NO_PARENT, start_ns: 0, end_ns: 10_000 },
            Span { name: "eval", parent: 0, start_ns: 1_000, end_ns: 7_000 },
            Span { name: "eval", parent: 0, start_ns: 2_000, end_ns: 9_000 },
        ];
        let mut totals = SpanTotals::default();
        totals.add(&spans);
        assert_eq!(totals.total_us("eval"), 13.0);
        assert_eq!(totals.covered_us("batch"), 8.0);
        assert_eq!(totals.self_total_us("batch"), 2.0);
    }

    #[test]
    fn nesting_follows_the_open_stack_and_leaves_attach_to_it() {
        let origin = Instant::now();
        let t = SessionTrace::new("s", origin);
        let outer = t.open("outer");
        t.span("inner", || t.leaf("leaf", origin, Instant::now()));
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].name, "leaf");
        assert_eq!(spans[2].parent, 1);
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &[&t]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| llamatune_obs::json::parse(l).is_ok()));
    }
}
