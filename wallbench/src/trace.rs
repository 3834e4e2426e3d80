//! Spans recorded by the benchmark around each call into a layer, kept in
//! memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: `parent` is the span open around it when it started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.privatize`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread while enabled; a disabled tracer only
/// calls through.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing until enabled.
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off for the spans that start from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Close every open span now: a sample that panicked unwound past them.
    pub fn close_all(&mut self) {
        let now = self.now_ns();
        for id in self.open.drain(..) {
            self.spans[id].end_ns = now;
        }
    }

    /// The span's name prefixed by its ancestors', e.g. `compile/core.privatize`.
    fn path(&self, id: usize) -> String {
        let s = &self.spans[id];
        match s.parent {
            Some(p) => format!("{}/{}", self.path(p), s.name),
            None => s.name.to_string(),
        }
    }

    /// A mark for [`Tracer::durations_since`]: the spans recorded so far.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span at `path`, in seconds.
    pub fn durations(&self, path: &str) -> Vec<f64> {
        self.durations_since(0, path)
    }

    /// Durations of the spans at `path` recorded since `mark`, in seconds.
    pub fn durations_since(&self, mark: usize, path: &str) -> Vec<f64> {
        (mark..self.spans.len())
            .filter(|&id| self.path(id) == path)
            .map(|id| self.spans[id].dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Each span's self time: its duration minus the time its children
    /// cover. Children run one after another on the same thread, so the
    /// time they cover is the sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Span count, total seconds and self seconds per span path.
    pub fn totals(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let e = out.entry(self.path(id)).or_default();
            e.0 += 1;
            e.1 += s.dur_ns() as f64 * 1e-9;
            e.2 += own as f64 * 1e-9;
        }
        out
    }

    /// Write the spans as a Chrome trace-event file (`chrome://tracing`,
    /// Perfetto); each event carries its id, parent id and self time.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut json = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            if id > 0 {
                json.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                json,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                own as f64 / 1e3,
            );
        }
        json.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        t.span("ignored", |_| ());
        t.set_enabled(true);
        t.span("outer", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        let own = t.self_ns();
        let outer = t.spans[0].dur_ns();
        assert_eq!(own[0], outer - t.spans[1].dur_ns() - t.spans[2].dur_ns());
        assert_eq!(own[1], t.spans[1].dur_ns());
        assert_eq!(t.totals()["outer/a"].0, 1);
        assert_eq!(t.durations("outer/b").len(), 1);
        let mark = t.mark();
        t.span("outer", |t| t.span("b", |_| ()));
        assert_eq!(t.durations("outer/b").len(), 2);
        assert_eq!(t.durations_since(mark, "outer/b").len(), 1);
    }
}
