//! Spans recorded from outside the program: the benchmark wraps each
//! public call it makes into a layer in a named span. Spans live in memory
//! and are written out when the run ends.
//!
//! Calls are made from one thread, so a span's children never overlap and
//! its self time is its duration minus the sum of its children's.

use std::borrow::Cow;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `campaign.longterm`.
    pub name: Cow<'static, str>,
    /// Start, seconds since the tracer's origin.
    pub start_s: f64,
    /// End, seconds since the tracer's origin.
    pub end_s: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock duration, seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards calls.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start_s,
            end_s: start_s,
            parent,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Every span recorded, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: duration minus the time its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::dur_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur_s();
        }
    }
    out
}

/// Sum of durations of the direct children of span `parent`, by name, in
/// first-seen order: the wall-clock split of that span.
pub fn child_split(spans: &[Span], parent: usize) -> Vec<(&str, f64)> {
    let mut out: Vec<(&str, f64)> = Vec::new();
    for s in spans.iter().filter(|s| s.parent == Some(parent)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += s.dur_s(),
            None => out.push((&s.name, s.dur_s())),
        }
    }
    out
}

/// Total duration of every span called `name`, seconds.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_s)
        .sum()
}

/// Durations of every span called `name`, seconds, in start order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name: Cow::Borrowed(name),
            start_s,
            end_s,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("a", 0.5, 4.5, Some(0)),
            span("b", 5.0, 9.0, Some(0)),
            span("a.inner", 1.0, 2.0, Some(1)),
            span("b", 9.0, 9.5, Some(0)),
        ];
        let st = self_times(&spans);
        assert!((st[0] - 1.5).abs() < 1e-12);
        assert!((st[1] - 3.0).abs() < 1e-12);
        assert_eq!(child_split(&spans, 0), vec![("a", 4.0), ("b", 4.5)]);
        assert_eq!(total(&spans, "b"), 4.5);
        assert_eq!(durations(&spans, "b"), vec![4.0, 0.5]);
    }

    #[test]
    fn tracer_nests_and_forwards() {
        let mut t = Tracer::new(true);
        let v = t.span("run", |t| t.span("inner", |_| 7) + 1);
        assert_eq!(v, 8);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].dur_s() >= t.spans()[1].dur_s());
        let mut off = Tracer::new(false);
        assert_eq!(off.span("run", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
