//! Span recording for the traced run. Spans are taken by the benchmark's
//! own code around its calls into each layer, kept in a preallocated
//! buffer, and written out once the run is over.

use crate::hist::median;
use crate::json::Json;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; the traced phase stops early once the buffer is
/// full, so recording never allocates and the trace file stays small.
pub const SPAN_CAPACITY: usize = 200_000;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Spans of one request share this id across every rung of the ladder.
    pub request: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Room for `n` more spans?
    pub fn has_room(&self, n: usize) -> bool {
        self.spans.len() + n <= SPAN_CAPACITY
    }

    /// Record a finished span and return its index (for children). A span
    /// offered to a full buffer is dropped; callers check
    /// [`Tracer::has_room`] per request so that does not happen mid-request.
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u64,
    ) -> u32 {
        if self.spans.len() < SPAN_CAPACITY {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request,
            });
        }
        (self.spans.len() - 1) as u32
    }

    /// Set the end of a span recorded before its children.
    pub fn end_span(&mut self, idx: u32, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Time `f` as a span.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.span(name, start, end, parent, request))
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Median duration (ns) of the spans called `name`; 0 when there are
    /// none (the layer did no work).
    pub fn median_ns(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// Self time of span `idx`: its duration minus what its direct
    /// children cover.
    #[cfg(test)]
    pub fn self_ns(&self, idx: u32) -> u64 {
        let s = &self.spans[idx as usize];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == idx)
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Write `{"workload":…, "spans":[{name,start_ns,end_ns,parent,request}…]}`.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\": {}, \"spans\": [",
            Json::str(workload).encode()
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                Json::Null
            } else {
                Json::Num(s.parent as f64)
            };
            let rec = Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", parent),
                ("request", Json::Num(s.request as f64)),
            ]);
            write!(out, "{}\n{}", if i == 0 { "" } else { "," }, rec.encode())?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let root = t.span("request", 0, 100, ROOT, 7);
        let wait = t.span("client.wait", 10, 70, root, 7);
        t.span("inner", 20, 30, wait, 7);
        t.span("client.recv", 70, 95, root, 7);
        assert_eq!(t.self_ns(root), 100 - 60 - 25);
        assert_eq!(t.self_ns(wait), 50);
        assert_eq!(t.median_ns("client.recv"), 25.0);
        assert_eq!(t.median_ns("absent"), 0.0);
        assert!(t.has_room(SPAN_CAPACITY - 4) && !t.has_room(SPAN_CAPACITY - 3));
    }

    #[test]
    fn trace_file_is_valid_json() {
        let mut t = Tracer::new();
        let ((), root) = t.timed("request", ROOT, 1, || ());
        t.span("query.parse", 1, 2, root, 1);
        let path = std::env::temp_dir().join(format!("sb_trace_test_{}.json", std::process::id()));
        t.write(&path, "wire_single").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let Some(Json::Arr(spans)) = doc.get("spans") else {
            panic!("no spans")
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[1].get("request").and_then(Json::as_f64), Some(1.0));
    }
}
