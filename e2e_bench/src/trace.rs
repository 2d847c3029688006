//! Spans the benchmark records around its own calls into each layer.
//!
//! Untraced passes record nothing; a traced pass records one span per
//! layer call, with its parent, and keeps them in memory until the pass
//! writes them out ([`Tracer::to_jsonl`]).

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `xml.parse`.
    pub name: &'static str,
    /// Pass the span belongs to (the trace identifier).
    pub pass: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time; equal to `start_ns` while the span is open.
    pub end_ns: u64,
}

/// An in-memory span recorder for one unit of a traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
    unit: usize,
}

impl Tracer {
    /// An empty recorder for unit `unit` of pass number `pass`.
    pub fn new(pass: u32, unit: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass,
            unit,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in
    /// milliseconds.
    ///
    /// # Panics
    ///
    /// Panics when no span is open, a bug in the caller.
    pub fn close(&mut self) -> f64 {
        let i = self.open.pop().expect("close without a matching open");
        let end = self.now_ns();
        self.spans[i].end_ns = end;
        (end - self.spans[i].start_ns) as f64 / 1e6
    }

    /// Self time of every span: its duration minus the part covered by
    /// its children (children of one span never overlap: the benchmark
    /// calls layers one after another).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Every span as one JSON object per line; `id` and `parent` count
    /// within one (`pass`, `unit`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"pass\":{},\"unit\":{},\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}\n",
                s.pass, self.unit, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(1, 0);
        t.open("pass");
        t.open("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close();
        t.close();
        let self_ns = t.self_ns();
        let total = t.spans[0].end_ns - t.spans[0].start_ns;
        let child = t.spans[1].end_ns - t.spans[1].start_ns;
        assert_eq!(self_ns[0], total - child);
        assert_eq!(self_ns[1], child);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(child >= 2_000_000);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
