//! In-memory spans recorded by the traced run around each call into a
//! layer: name, start, end, parent, and the id of the solve or epoch the
//! span belongs to. Written out as JSON lines when the run ends; a layer's
//! self time is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The solve or epoch this span belongs to.
    pub op: u64,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: usize,
    pub seconds: f64,
    pub self_seconds: f64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent span is closed.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn offset(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a closed span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            op,
            start: self.offset(start),
            end: self.offset(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Runs `f` inside a new span and returns its result; `f` receives the
    /// span's id for its children.
    pub fn time<T>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        op: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record(id, parent, name, op, start, Instant::now());
        out
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (children of a parallel fan-out overlap).
    fn self_seconds(spans: &[Span]) -> Vec<f64> {
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for span in spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start, span.end));
            }
        }
        spans
            .iter()
            .map(|span| {
                let mut covered = 0.0;
                if let Some(kids) = children.get_mut(&span.id) {
                    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                    let mut cursor = span.start;
                    for &(start, end) in kids.iter() {
                        let (start, end) = (start.max(cursor), end.min(span.end));
                        if end > start {
                            covered += end - start;
                            cursor = end;
                        }
                    }
                }
                (span.end - span.start - covered).max(0.0)
            })
            .collect()
    }

    /// Count, total and self seconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans.lock().expect("span log poisoned");
        let selves = Self::self_seconds(&spans);
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_seconds) in spans.iter().zip(selves) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.seconds += span.end - span.start;
            entry.self_seconds += self_seconds;
        }
        totals
    }

    /// Writes every span, with its self time, as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span log poisoned");
        let selves = Self::self_seconds(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_seconds) in spans.iter().zip(selves) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"op\": {}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
                span.id,
                span.name,
                span.op,
                span.start * 1e6,
                span.end * 1e6,
                self_seconds * 1e6
            )?;
        }
        out.flush()
    }
}

/// Times `f` inside a span when tracing, or just runs it when not.
pub fn timed<T>(
    spans: Option<&Spans>,
    parent: Option<u64>,
    name: &'static str,
    op: u64,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match spans {
        Some(spans) => spans.time(parent, name, op, |id| f(Some(id))),
        None => f(None),
    }
}

/// Writes the spans of a traced run under `perfbench/out/` and adds a
/// self-time line per span name to `notes`.
pub fn finish(spans: &Spans, workload: &str, seed: u64, notes: &mut Vec<String>) {
    let path = std::path::PathBuf::from(format!("perfbench/out/spans-{workload}-{seed}.jsonl"));
    match spans.write_jsonl(&path) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
    }
    for (name, t) in spans.totals() {
        notes.push(format!(
            "span {name}: count={} total_s={:.6} self_s={:.6}",
            t.count, t.seconds, t.self_seconds
        ));
    }
}
