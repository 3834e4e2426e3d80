//! Trace exporters: JSON-lines and Chrome `trace_event` format.
//!
//! The Chrome format opens directly in `chrome://tracing` and Perfetto:
//! one process, one named thread track per worker (track 0 is the
//! engine), complete (`"ph":"X"`) events for spans and instant
//! (`"ph":"i"`) events for point occurrences. Timestamps are microseconds
//! since the telemetry epoch.

use crate::event::SpanEvent;
use crate::registry::MetricSnapshot;
use std::fmt::Write;

/// A finished trace: every recorded event (engine + all workers) plus a
/// snapshot of the metrics registry.
#[derive(Debug, Default)]
pub struct TraceData {
    /// All events, sorted by `ts_ns`.
    pub events: Vec<SpanEvent>,
    /// Metrics registry snapshot at capture time.
    pub metrics: Vec<(String, MetricSnapshot)>,
    /// Events lost to ring overwrites or sink capacity across all tracks.
    pub dropped: u64,
}

impl TraceData {
    /// Sum of span durations per phase name, in nanoseconds.
    pub fn phase_totals(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for ev in &self.events {
            let name = ev.phase.name();
            match totals.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => *t += ev.dur_ns,
                None => totals.push((name, ev.dur_ns)),
            }
        }
        totals
    }

    /// The distinct tracks present, sorted.
    pub fn tracks(&self) -> Vec<u32> {
        let mut t: Vec<u32> = self.events.iter().map(|e| e.track).collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

fn push_args(out: &mut String, ev: &SpanEvent) {
    let (an, bn) = ev.phase.arg_names();
    out.push('{');
    if !an.is_empty() {
        let _ = write!(out, "\"{an}\":{}", ev.a);
    }
    if !bn.is_empty() {
        if !an.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "\"{bn}\":{}", ev.b);
    }
    out.push('}');
}

/// Render a trace as Chrome `trace_event` JSON (the "JSON object format":
/// `{"traceEvents": [...]}`), loadable in `chrome://tracing` / Perfetto.
pub fn chrome_trace(trace: &TraceData) -> String {
    let mut out = String::with_capacity(trace.events.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut emit = |line: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };
    emit(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"privateer\"}}"
            .to_string(),
        &mut out,
    );
    for track in trace.tracks() {
        let name = track_name(track);
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{track},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
            &mut out,
        );
        emit(
            format!(
                "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{track},\
                 \"args\":{{\"sort_index\":{track}}}}}"
            ),
            &mut out,
        );
    }
    for ev in &trace.events {
        let ts = ev.ts_ns as f64 / 1_000.0;
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"name\":\"{}\",\"cat\":\"{}\",",
            ev.phase.name(),
            ev.phase.category()
        );
        if ev.dur_ns == 0 {
            let _ = write!(line, "\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},");
        } else {
            let dur = ev.dur_ns as f64 / 1_000.0;
            let _ = write!(line, "\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},");
        }
        let _ = write!(line, "\"pid\":1,\"tid\":{},\"args\":", ev.track);
        push_args(&mut line, ev);
        line.push('}');
        emit(line, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

/// Render a trace as JSON lines: one event object per line, followed by
/// one `{"metric": ...}` line per registry entry and a trailing summary
/// line. Convenient for `grep`/`jq`-style ad-hoc analysis.
pub fn json_lines(trace: &TraceData) -> String {
    let mut out = String::with_capacity(trace.events.len() * 96 + 1024);
    for ev in &trace.events {
        let _ = write!(
            out,
            "{{\"phase\":\"{}\",\"cat\":\"{}\",\"track\":{},\"ts_ns\":{},\"dur_ns\":{},\"args\":",
            ev.phase.name(),
            ev.phase.category(),
            ev.track,
            ev.ts_ns,
            ev.dur_ns,
        );
        push_args(&mut out, ev);
        out.push_str("}\n");
    }
    for (name, snap) in &trace.metrics {
        match snap {
            MetricSnapshot::Counter(v) => {
                let _ = writeln!(
                    out,
                    "{{\"metric\":\"{name}\",\"kind\":\"counter\",\"value\":{v}}}"
                );
            }
            MetricSnapshot::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{{\"metric\":\"{name}\",\"kind\":\"gauge\",\"value\":{v}}}"
                );
            }
            MetricSnapshot::Histogram {
                count,
                sum,
                max_bound,
            } => {
                let _ = writeln!(
                    out,
                    "{{\"metric\":\"{name}\",\"kind\":\"histogram\",\"count\":{count},\
                     \"sum\":{sum},\"max_bound\":{max_bound}}}"
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "{{\"summary\":{{\"events\":{},\"dropped\":{}}}}}",
        trace.events.len(),
        trace.dropped
    );
    out
}

/// Display name of a track.
pub fn track_name(track: u32) -> String {
    if track == crate::event::ENGINE_TRACK {
        "engine".to_string()
    } else {
        format!("worker {}", track - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use crate::json;

    fn sample() -> TraceData {
        TraceData {
            events: vec![
                SpanEvent {
                    ts_ns: 1_000,
                    dur_ns: 2_000,
                    phase: Phase::Merge,
                    track: 0,
                    a: 3,
                    b: 2,
                },
                SpanEvent {
                    ts_ns: 1_500,
                    dur_ns: 0,
                    phase: Phase::Misspec,
                    track: 0,
                    a: 17,
                    b: 0,
                },
                SpanEvent {
                    ts_ns: 2_000,
                    dur_ns: 500,
                    phase: Phase::Iteration,
                    track: 2,
                    a: 9,
                    b: 0,
                },
            ],
            metrics: vec![("priv.fast_words".to_string(), MetricSnapshot::Counter(42))],
            dropped: 0,
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_tracks() {
        let text = chrome_trace(&sample());
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 2 tracks × 2 metadata + 3 events.
        assert_eq!(events.len(), 1 + 4 + 3);
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .filter_map(|e| e.get("args").unwrap().get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"engine"));
        assert!(names.contains(&"worker 1"));
        let merge = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("merge"))
            .unwrap();
        assert_eq!(merge.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(merge.get("dur").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            merge.get("args").unwrap().get("period").unwrap().as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn json_lines_each_parse() {
        let text = json_lines(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3 + 1 + 1);
        for line in lines {
            json::parse(line).expect("each line is a JSON object");
        }
    }

    #[test]
    fn phase_totals_sum_durations() {
        let t = sample().phase_totals();
        assert!(t.contains(&("merge", 2_000)));
        assert!(t.contains(&("iteration", 500)));
    }
}
