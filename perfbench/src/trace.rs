//! Spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent, and the ticket it
//! belongs to. Spans stay in memory while the run measures and are
//! written out, as a Chrome trace, when it ends. A layer's self time is
//! its span's duration minus the durations of its child spans; calls
//! are serial, so children never overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.plan`.
    pub name: &'static str,
    /// Ticket the call served.
    pub ticket: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans in memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ticket: usize,
}

impl Tracer {
    /// An empty trace starting now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ticket: 0,
        }
    }

    /// Tags the following spans with `ticket`.
    pub fn ticket(&mut self, ticket: usize) {
        self.ticket = ticket;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            ticket: self.ticket,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now();
        out
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`Tracer::spans`].
    fn self_ns_all(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.ns();
            }
        }
        out
    }

    /// Self times of the spans named `name`, in start order.
    pub fn self_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .zip(self.self_ns_all())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns)
            .collect()
    }

    /// Self time of the spans named `name`, summed per ticket.
    pub fn self_ns_by_ticket(&self, name: &str) -> BTreeMap<usize, u64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns_all()) {
            if s.name == name {
                *out.entry(s.ticket).or_insert(0) += ns;
            }
        }
        out
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`), with
    /// the ticket and parent in each event's `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"ticket\": {}, \"parent\": {parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.ticket,
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        tr.ticket(4);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("inner", |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.ticket == 4));
        let outer = tr.self_ns("outer")[0];
        let inner = tr.self_ns("inner");
        assert_eq!(inner.len(), 2);
        assert_eq!(outer + inner[0] + inner[1], spans[0].ns());
        assert!(inner[0] >= 2_000_000);
        assert_eq!(tr.self_ns_by_ticket("inner")[&4], inner[0] + inner[1]);
    }
}
