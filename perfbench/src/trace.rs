//! In-memory spans around calls into the repository's layers.
//!
//! The traced replay wraps each call it makes into a layer's public
//! entry point in a span (name, start, end, parent, request id). Spans
//! stay in memory and are written out once the run ends; a span's self
//! time is its length minus the time its child spans cover.

use crate::util::Samples;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle of an open span (`u32::MAX` when tracing is off).
#[derive(Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(u32::MAX);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn exit(&mut self, open: Open) {
        if open.0 == u32::MAX {
            return;
        }
        let end = self.now_ns();
        self.spans[open.0 as usize].end_ns = end;
        self.stack.pop();
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, req);
        let out = f();
        self.exit(open);
        out
    }

    /// Self time of every span, in ns.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Durations (µs) of the spans named `name`.
    pub fn durations_us(&self, name: &str) -> Samples {
        Samples(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect(),
        )
    }

    /// Per-request sums of span durations (µs) over the named spans:
    /// the traced cost of one request's path.
    pub fn per_request_us(&self, names: &[&str]) -> Samples {
        let mut sums: std::collections::BTreeMap<u64, u64> = Default::default();
        for s in &self.spans {
            if names.contains(&s.name) {
                *sums.entry(s.req).or_default() += s.end_ns - s.start_ns;
            }
        }
        Samples(sums.values().map(|&ns| ns as f64 / 1e3).collect())
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, self_ns[i], s.req
            )?;
        }
        out.flush()
    }
}
