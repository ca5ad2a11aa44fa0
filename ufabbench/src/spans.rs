//! Spans around the calls a twin makes into each layer.
//!
//! One span per call: name, start, end and the span that was open when
//! it started. They stay in memory until the cell is over; the cell's
//! report then carries them to the parent, which writes them out with
//! the rest of the trace. Agent callbacks are far too many for a span
//! each — [`crate::timed`] aggregates those as count + nanoseconds.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`, nested under whichever span
    /// is open now.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            // An empty `f64` sum is -0.0, which would print as "-0".
            .fold(0.0, |a, b| a + b)
    }

    /// Seconds of the spans called `name` not covered by their children.
    pub fn self_s(&self, name: &str) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum();
        self.total_s(name) - covered
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        ("workload", Json::from(workload)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut log = SpanLog::new();
        log.span("cell", |log| {
            log.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            log.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[0].parent, None);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[2].parent, Some(0));
        assert!(log.total_s("a") >= 0.008);
        let own = log.self_s("cell");
        assert!(own >= 0.002 && own < log.total_s("cell") - 0.007, "{own}");
        let j = log.to_json("w");
        assert_eq!(j.to_string().matches("\"workload\": \"w\"").count(), 3);
    }
}
