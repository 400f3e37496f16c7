//! The traced run's span log: kept in memory, written once at the end.
//!
//! A span is one call into a layer, recorded from the benchmark's side of
//! the boundary: `compile`, `analyze_and_patch`, `run_native`, `Fpvm::run`
//! and, under each `Fpvm::run`, one `arith.<class>` span per op class.
//! The arith spans are sums (the wrapper adds up every call of the class),
//! so they start at their parent's start and last the summed time. All
//! spans of one job share its `job` id.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub job: u32,
    pub program: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An append-only span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    next_job: u32,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            next_job: 0,
        }
    }

    /// A fresh job id.
    pub fn job(&mut self) -> u32 {
        self.next_job += 1;
        self.next_job
    }

    /// Nanoseconds since the origin of an instant.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span; returns its id.
    pub fn push(
        &mut self,
        job: u32,
        parent: Option<u32>,
        program: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            job,
            program,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Record a span covering `start..end`.
    pub fn span(
        &mut self,
        job: u32,
        parent: Option<u32>,
        program: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (s, e) = (self.at(start), self.at(end));
        self.push(job, parent, program, name, s, e)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"program\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.job, s.program, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}
