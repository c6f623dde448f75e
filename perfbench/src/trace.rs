//! Spans recorded from outside the program, around each call into a
//! layer. A span carries a name, start and end (nanoseconds since the
//! recorder was created), the index of its parent span and the run id.
//! Spans stay in memory and are written out once, when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span store. A disabled recorder keeps nothing and costs
/// one branch per call, so untraced runs carry no tracing work.
pub struct Recorder {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Recorder {
    pub fn new(enabled: bool, run_id: String) -> Self {
        Recorder {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; its index is the handle children name as parent.
    pub fn open(&self, name: &str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(SpanRecord {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(spans.len() - 1)
    }

    pub fn close(&self, id: Option<usize>) {
        if let Some(i) = id {
            let end = self.now_ns();
            self.spans.lock().expect("span store poisoned")[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// wall seconds (measured whether or not tracing is on).
    pub fn span<T>(&self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, parent);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.close(id);
        (out, secs)
    }

    /// Records an already-timed interval (request latencies measured by
    /// a client thread) as a closed span.
    pub fn record(&self, name: &str, parent: Option<usize>, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span store poisoned")
            .push(SpanRecord {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent,
            });
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
