//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Job id of spans that belong to no job (set-up).
pub const NO_JOB: usize = usize::MAX;

/// One finished span: offsets in seconds from the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer (or orchestration) name.
    pub name: &'static str,
    /// Job the span belongs to, or [`NO_JOB`].
    pub job: usize,
    /// Start offset.
    pub start: f64,
    /// End offset.
    pub end: f64,
    /// Index of the enclosing span, taken from the open-span stack.
    pub parent: Option<usize>,
}

impl SpanRecord {
    /// Wall time between start and end.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, job: usize, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(SpanRecord {
            name,
            job,
            start,
            end: start,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::duration)
            .sum()
    }

    /// Self time per span name over the spans `keep` accepts: each span's
    /// duration minus the part its direct children cover (children never
    /// overlap, since one thread records them in sequence).
    pub fn self_times(&self, keep: impl Fn(&SpanRecord) -> bool) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.duration();
            }
        }
        let mut times = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            if keep(span) {
                *times.entry(span.name).or_insert(0.0) += span.duration() - children;
            }
        }
        times
    }

    /// The spans as NDJSON, one object per line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let job = if s.job == NO_JOB {
                "null".to_owned()
            } else {
                s.job.to_string()
            };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"name":"{}","job":{job},"start_s":{},"end_s":{},"parent":{parent}}}"#,
                s.name, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(seconds: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < seconds {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children_and_parents_come_from_the_stack() {
        let mut tracer = Tracer::on();
        tracer.span("job", 0, |t| {
            spin(0.002);
            t.span("train", 0, |_| spin(0.004));
            t.span("lint", 0, |t| t.span("unary.synth", 0, |_| spin(0.003)));
        });
        let spans = &tracer.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let times = tracer.self_times(|_| true);
        let total: f64 = times.values().sum();
        assert!((total - spans[0].duration()).abs() < 1e-9);
        assert!(times["lint"] < 0.001, "lint self time {}", times["lint"]);
        assert!(times["unary.synth"] >= 0.003);
        assert_eq!(tracer.self_times(|s| s.name == "lint").len(), 1);
        assert!(tracer.to_ndjson().lines().count() == 4);
    }
}
