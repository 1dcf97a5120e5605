//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (cluster build, the run itself, each per-layer probe); nothing
//! inside the program is instrumented. Spans stay in memory until the
//! benchmark ends and are then written out as JSONL.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was timed (`build`, `run`, `probe.models.draw`, ...).
    pub name: String,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one benchmark invocation.
    pub run: u64,
}

/// Records nested spans against one origin instant.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose spans all carry `run` as their run id.
    pub fn new(run: u64) -> Self {
        Self {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Times `f` as a span named `name`, nested under the innermost
    /// span still open.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Duration of the first span called `name`.
    pub fn duration(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.end - s.start)
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":{:?},\"start\":{},\"end\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start, s.end, s.run
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let mut spans = Spans::new(7);
        spans.time("outer", |s| s.time("inner", |_| ()));
        let all = &spans.spans;
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(0));
        assert!(all[0].end >= all[1].end && all[1].end >= all[1].start);
        assert!(spans.to_jsonl().lines().all(|l| l.contains("\"run\":7")));
    }
}
