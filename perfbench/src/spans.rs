//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer, written out as JSON lines when the run ends.

use std::time::Instant;

/// One timed interval: a layer call, or a group of calls.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Span {
    name: &'static str,
    /// Nanoseconds since the tracer's origin.
    start: u64,
    end: u64,
    /// Index of the enclosing span in the same tracer.
    parent: Option<usize>,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A span recorder. A disabled tracer records nothing and costs one branch
/// per call, so traced and untraced runs share one code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Appends another tracer's spans (one recorded on another thread
    /// against the same origin), keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Summed duration of every span named `name`, in nanoseconds.
    pub fn total(&self, name: &str) -> u64 {
        self.named(name).map(Span::duration).sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.duration() as f64).collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed self time of every span named `name`: each span's duration
    /// minus the part of its interval that its child spans cover
    /// (overlapping children count once).
    pub fn self_total(&self, name: &str) -> u64 {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time(i, &children[i]))
            .sum()
    }

    fn self_time(&self, index: usize, children: &[usize]) -> u64 {
        let parent = &self.spans[index];
        let mut covered: Vec<(u64, u64)> = children
            .iter()
            .map(|&c| {
                let s = &self.spans[c];
                (s.start.max(parent.start), s.end.min(parent.end))
            })
            .filter(|(start, end)| start < end)
            .collect();
        covered.sort_unstable();
        let mut total = 0;
        let mut reach = parent.start;
        for (start, end) in covered {
            let start = start.max(reach);
            if end > start {
                total += end - start;
                reach = end;
            }
        }
        parent.duration() - total
    }

    /// The spans as JSON lines, one object per span, tagged with the
    /// workload they belong to.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\"}}\n",
                s.name, s.start, s.end
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = tracer(vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            span("grandchild", 12, 20, Some(1)),
        ]);
        assert_eq!(t.self_total("root"), 70);
        assert_eq!(t.self_total("a"), 12);
        assert_eq!(t.self_total("grandchild"), 8);
    }

    #[test]
    fn overlapping_children_count_once() {
        let t = tracer(vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 90, 120, Some(0)),
        ]);
        // Covered: [10, 50) and [90, 100) — the tail past the parent's
        // end is clipped.
        assert_eq!(t.self_total("root"), 50);
    }

    #[test]
    fn nesting_and_absorb_keep_parent_links() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        t.span("outer", |t| t.span("inner", |_| ()));
        assert_eq!(t.spans[1].parent, Some(0));
        let mut other = Tracer::new(true, origin);
        other.span("x", |t| t.span("y", |_| ()));
        t.absorb(other);
        assert_eq!(t.spans[3].parent, Some(2));
        assert_eq!(t.count("inner"), 1);
        assert!(t.self_total("outer") <= t.spans[0].duration());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(t.spans.is_empty());
    }
}
