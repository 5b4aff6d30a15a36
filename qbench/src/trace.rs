//! In-memory span recording for the traced run.
//!
//! Spans are taken by the benchmark's own code around calls into each
//! layer's public functions (the program itself carries no spans yet).
//! They stay in memory while the workload runs and are written out once
//! at the end, so recording costs two clock reads and one push.

use qmldb_math::json::Json;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `wire.parse`.
    pub name: &'static str,
    /// The op (request, planning round, training run) it belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the trace started.
    pub start_ns: u64,
    /// Nanoseconds since the trace started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span store shared by the threads of one traced run.
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records an already-timed interval and returns its span id.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Times `f` as span `name`; the closure receives nothing, children
    /// are recorded with [`Trace::open`]/[`Trace::close`] instead.
    pub fn time<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(name, op, parent, start, end);
        (r, (end - start).as_secs_f64())
    }

    /// Opens a span whose children are recorded while it runs; finish it
    /// with [`Trace::close`].
    pub fn open(&self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    /// Closes a span opened with [`Trace::open`]; returns its seconds.
    pub fn close(&self, id: usize) -> f64 {
        let end = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans[id].end_ns = end;
        spans[id].secs()
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Seconds of every span named `name`, in recording order.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as a JSON array (written next to the result).
    pub fn to_json(&self) -> Json {
        let spans = self.spans.lock().expect("span store poisoned");
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.into())),
                        ("op".into(), Json::Num(s.op as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }
}
