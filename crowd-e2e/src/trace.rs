//! In-memory spans recorded from the benchmark's own code around each call
//! into a layer of the program. Nothing is recorded inside the program.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: its layer name, its interval relative to the tracer's
/// origin, the span that caused it and the request it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the parent span; 0 for a root span.
    pub parent: u32,
    /// Request identifier shared by every span of one device contribution.
    pub request: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Collects spans in memory; [`Tracer::write_csv`] writes them out at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its id (to be used as a child's parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u64,
    ) -> u32 {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() as u32
    }

    /// Opens a span whose end is not known yet; see [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, parent: u32, request: u64) -> u32 {
        self.record(name, start, start, parent, request)
    }

    /// Sets the end of a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Mean duration in µs of the spans called `name`; 0 when there are none.
    pub fn mean_us(&self, name: &str) -> f64 {
        crate::stats::mean(&self.durations_us(name))
    }

    /// Summed duration in µs of spans called `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Summed duration in µs of the direct children of spans called `root`,
    /// divided by the number of such roots.
    pub fn children_per_root_us(&self, root: &str) -> f64 {
        let is_root: Vec<bool> = self.spans.iter().map(|s| s.name == root).collect();
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent != 0 && is_root[s.parent as usize - 1])
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let roots = is_root.iter().filter(|&&r| r).count();
        crate::stats::ratio(children as f64 / 1e3, roots as f64)
    }

    /// Writes every span as one CSV line:
    /// `id,name,start_ns,end_ns,parent,request`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,request")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request
            )?;
        }
        out.flush()
    }
}
