//! In-memory span recording for the traced run.
//!
//! A span is a name, a start, an end and the span that caused it (its
//! parent). Spans are recorded around the benchmark's calls into each
//! crate, kept in memory, aggregated into per-layer metrics, and written
//! out as JSON Lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// An interned span name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Name(u32);

#[derive(Clone, Copy, Debug)]
struct Span {
    name: Name,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Interns `name`; intern once, outside the measured loops.
    pub fn name(&mut self, name: &str) -> Name {
        let idx = match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_owned());
                self.names.len() - 1
            }
        };
        Name(u32::try_from(idx).expect("span names fit u32"))
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span; it becomes the parent of spans opened before its
    /// matching [`Tracer::exit`].
    pub fn enter(&mut self, name: Name) {
        let idx = u32::try_from(self.spans.len()).expect("span count fits u32");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// If no span is open (a bracketing bug in the benchmark).
    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit without a matching enter");
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
    }

    /// Records `f` as one span named `name`.
    pub fn span<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Durations in seconds of every span named `name`, in start order.
    pub fn durations(&self, name: Name) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// For every span named `parent`: the summed durations of its direct
    /// children named `child` — one value per parent instance.
    pub fn child_sums(&self, parent: Name, child: Name) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, _)| {
                self.spans
                    .iter()
                    .filter(|c| c.name == child && c.parent == Some(i as u32))
                    .map(Span::secs)
                    .sum()
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> Result<(), String> {
        let mut body = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                body,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                self.names[s.name.0 as usize], s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
    }
}
