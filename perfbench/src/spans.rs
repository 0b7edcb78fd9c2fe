//! In-memory spans recorded around calls into each layer, written out
//! once the run ends.
//!
//! A span has a name, a start and end (nanoseconds since the recorder's
//! origin), an optional parent, and the request id it belongs to. Spans
//! of one request share the id: in the ladder, the same call's span on
//! every rung. A parent is set only where one span's interval contains
//! the other's (a churn cycle's steps, a batch within its operation);
//! the ladder's rungs run one after another, so theirs is null, and a layer's self time is computed from the rungs' figures
//! (`ladder::self_times`), not from nesting.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span id (index in the recorder).
    pub id: usize,
    /// Layer call name, e.g. `ladder.session` or `wire.event`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// The span whose work contains this one's.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub request: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let id = self.spans.len();
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        id
    }

    /// Points `child`'s parent at `parent`, whose interval contains it.
    pub fn set_parent(&mut self, child: usize, parent: usize) {
        self.spans[child].parent = Some(parent);
    }

    /// Every span, in record order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one NDJSON line:
    /// `{"id","name","start_ns","end_ns","parent","request"}`.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be written.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::File::create(path)?.write_all(out.as_bytes())
    }
}
