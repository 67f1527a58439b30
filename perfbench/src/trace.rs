//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Every span of one traced run shares the run's trace id,
//! carries its parent and the counts measured at its boundary, and is
//! written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that caused it, if any.
    pub parent: Option<usize>,
    /// Layer boundary name, e.g. `ladder.mp` or `cluster.run`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch (equal to start while open).
    pub end_ns: u64,
    /// Counts taken at the span's boundary.
    pub counts: Vec<(&'static str, f64)>,
}

/// Records spans for one traced run.
#[derive(Debug)]
pub struct Tracer {
    trace_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose spans all carry `trace_id`.
    pub fn new(trace_id: String) -> Self {
        Tracer {
            trace_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let t = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: t,
            end_ns: t,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) with its counts.
    pub fn exit(&mut self, id: usize, counts: Vec<(&'static str, f64)>) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let t = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = t;
        s.counts = counts;
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds: each span's duration
    /// minus the time its direct children cover, summed over spans of
    /// the same name. Names keep first-seen order.
    pub fn self_ns(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, ns)) => *ns += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            writeln!(
                out,
                "{{\"trace\": \"{}\", \"span\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"counts\": {{{}}}}}",
                self.trace_id,
                s.id,
                parent,
                s.name,
                s.start_ns,
                s.end_ns,
                counts.join(", ")
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
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new("t".into());
        let root = t.enter("root");
        let a = t.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(a, vec![("n", 1.0)]);
        t.exit(root, vec![]);
        let selfs = t.self_ns();
        let root_self = selfs.iter().find(|(n, _)| *n == "root").unwrap().1;
        let child_self = selfs.iter().find(|(n, _)| *n == "child").unwrap().1;
        assert!(child_self >= 5_000_000);
        assert!(root_self < child_self);
        assert_eq!(t.spans()[a].parent, Some(root));
        assert!(t.to_jsonl().lines().count() == 2);
    }
}
