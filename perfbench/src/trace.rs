//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span is `(name, parent, start, end)` on the wall clock. Roots cover a
//! traced episode or one set-up; their children are the phase, the op and
//! the layer call. Spans are kept in memory and written out as TSV when
//! the run ends. A layer's self time is its span's duration minus the
//! part its child spans cover; spans nest strictly (one thread, closed
//! loop), so that is the duration minus the children's durations.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Span names. `bench.*` spans are the benchmark's own work (op loop and
/// oracle); every other name is a layer, named `<crate>.<call>`.
pub mod name {
    pub const EPISODE: &str = "bench.episode";
    pub const SETUP: &str = "bench.setup";
    pub const PHASE: &str = "bench.phase";
    pub const OP: &str = "bench.op";
    pub const TRANSFORM: &str = "setup.transform";
    pub const DEPLOY: &str = "setup.deploy";
    pub const POOL: &str = "setup.pool";
    pub const HARNESS: &str = "setup.harness";
    pub const READ: &str = "runtime.read";
    pub const WRITE: &str = "runtime.write";
    pub const INC: &str = "runtime.inc";
    pub const BOUNDARY: &str = "runtime.boundary";
    pub const FAULT: &str = "runtime.fault";
    pub const INVARIANTS: &str = "telemetry.invariants";

    /// Every layer span name, in report order.
    pub const LAYERS: [&str; 10] = [
        TRANSFORM, DEPLOY, POOL, HARNESS, READ, WRITE, INC, BOUNDARY, FAULT, INVARIANTS,
    ];
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<u32>);

/// The span recorder. Switched off, `begin`/`end` do nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switch recording on or off; only whole root spans may be switched.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing switched inside a span");
        self.on = on;
    }

    /// Make room for `n` more spans, so recording does not allocate.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(SpanRec {
            name,
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span; it must be the innermost open one.
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(id), "spans must close innermost-first");
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - c;
        }
        out
    }

    /// Total duration of the root spans, in nanoseconds: the traced wall
    /// time the self times add up to.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Write every span as a TSV line `id parent name start_ns end_ns`
    /// (`parent` is `-` for roots).
    ///
    /// # Errors
    /// Any I/O error creating or writing `path`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                writeln!(w, "{id}\t-\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
            } else {
                let p = s.parent;
                writeln!(w, "{id}\t{p}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
            }
        }
        w.flush()
    }
}
