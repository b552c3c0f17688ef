//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! workspace crates (name, start, end, parent, job id), kept in memory and
//! written out once at the end. A disabled tracer records nothing, so the
//! untraced end-to-end run pays only a branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u32,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, job: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, job: u32, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, job);
        let out = f();
        self.exit(open);
        out
    }

    /// Total and count of closed spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, n), s| (t + (s.end_ns - s.start_ns), n + 1))
    }

    /// Mean duration of spans named `name`, in nanoseconds (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (t, n) = self.total(name);
        if n == 0 {
            0.0
        } else {
            t as f64 / n as f64
        }
    }

    /// Per-job sum of the durations of spans named `name`.
    pub fn per_job(&self, name: &str) -> BTreeMap<u32, u64> {
        let mut m = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *m.entry(s.job).or_insert(0) += s.end_ns - s.start_ns;
        }
        m
    }

    /// The spans as a JSON document, with the per-call counters alongside.
    pub fn to_json(&self, header: &str, counters: &[(String, f64)]) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{{header},\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.job
            );
        }
        s.push_str("],\"counters\":{");
        for (i, (k, v)) in counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":{}", crate::json_num(*v));
        }
        s.push_str("}}\n");
        s
    }
}
