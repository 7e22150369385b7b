//! Host-time spans around every public call the benchmark makes.
//!
//! A span has a name, a start, an end and the span that encloses it.
//! Spans stay in memory and are written out once, at the end of the
//! traced run, together with each span's self time: its duration minus
//! the time its child spans cover. When tracing is off every call is a
//! single branch.

use std::time::Instant;

use ksim::Json;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    child_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it encloses every span opened before its [`exit`].
    ///
    /// [`exit`]: Tracer::exit
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            child_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("exit without enter");
        let span = &mut self.spans[i];
        span.end_ns = now;
        let dur = now - span.start_ns;
        if let Some(p) = span.parent {
            self.spans[p].child_ns += dur;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Drops every recorded span (keeps the last repetition only).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with open spans");
        self.spans.clear();
    }

    /// Per-name totals, largest self time first:
    /// `(name, count, total_ns, self_ns)`.
    pub fn totals(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += dur - s.child_ns;
                }
                None => rows.push((s.name, 1, dur, dur - s.child_ns)),
            }
        }
        rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
        rows
    }

    /// Every span plus the per-name totals, as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, count, total, own)| {
                Json::obj()
                    .with("name", Json::Str(name.into()))
                    .with("count", num(count))
                    .with("total_ns", num(total))
                    .with("self_ns", num(own))
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj()
                    .with("id", num(id as u64))
                    .with("name", Json::Str(s.name.into()))
                    .with("start_ns", num(s.start_ns))
                    .with("end_ns", num(s.end_ns))
                    .with("parent", s.parent.map_or(Json::Null, |p| num(p as u64)))
                    .with("self_ns", num(s.end_ns - s.start_ns - s.child_ns))
            })
            .collect();
        Json::obj()
            .with("workload", Json::Str(workload.into()))
            .with("seed", num(seed))
            .with("clock", Json::Str("host".into()))
            .with("unit", Json::Str("ns".into()))
            .with("totals", Json::Arr(totals))
            .with("spans", Json::Arr(spans))
    }
}
