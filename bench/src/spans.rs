//! In-memory span recorder for the traced run.
//!
//! Spans come only from this crate: decorators over the program's public
//! seams (see `stack.rs`) and timers around the calls the lap loop makes.
//! They are kept in memory and written out when the benchmark ends.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Where a span was recorded. Each layer's parent is whichever of its
/// candidate parents is open when it begins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Server::submit` for one request.
    Submit,
    /// `Server::serve_next` for one request.
    Serve,
    /// A direct `Remos::run_within` probe, without the server.
    ApiRun,
    /// `Clock::advance`: engine time inside a request.
    Advance,
    /// `Collector::poll` on the collector the facade owns.
    Poll,
    /// `Collector::poll` on one child of a federation.
    ChildPoll,
    /// `Transport::request`: one SNMP round trip.
    SnmpRequest,
}

const LAYERS: usize = 7;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Submit => "serve.submit",
            Layer::Serve => "serve.serve_next",
            Layer::ApiRun => "api.run_within",
            Layer::Advance => "net.advance",
            Layer::Poll => "collector.poll",
            Layer::ChildPoll => "collector.child_poll",
            Layer::SnmpRequest => "snmp.request",
        }
    }

    fn parents(self) -> &'static [Layer] {
        match self {
            Layer::Submit | Layer::Serve | Layer::ApiRun => &[],
            Layer::Advance | Layer::Poll => &[Layer::Serve, Layer::ApiRun],
            Layer::ChildPoll | Layer::SnmpRequest => &[Layer::Poll],
        }
    }
}

/// One recorded span. `id` is its 1-based position; `parent` 0 is none.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Admission id of the request the span worked for; children take
    /// their parent's when the trace is read back.
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// No request: probes outside the lap, or a child before resolution.
pub const NO_REQUEST: u64 = u64::MAX;

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Id of the currently open span of each layer (0 = none). Only
    /// layers that act as parents are ever read.
    open: [AtomicU32; LAYERS],
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        open: Default::default(),
    })
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    recorder()
        .spans
        .lock()
        .expect("span recorder poisoned: a decorator panicked mid-record")
}

/// Open a span; returns its id for [`end`].
pub fn begin(layer: Layer) -> u32 {
    let r = recorder();
    let parent = layer
        .parents()
        .iter()
        .map(|&p| r.open[p as usize].load(Ordering::SeqCst))
        .find(|&id| id != 0)
        .unwrap_or(0);
    let mut spans = spans();
    let now = r.epoch.elapsed().as_nanos() as u64;
    spans.push(Span {
        layer,
        start_ns: now,
        end_ns: now,
        parent,
        request: NO_REQUEST,
    });
    let id = spans.len() as u32;
    r.open[layer as usize].store(id, Ordering::SeqCst);
    id
}

/// Close span `id`, tagging it with the request it served.
pub fn end(id: u32, request: u64) {
    let r = recorder();
    let mut spans = spans();
    let span = &mut spans[id as usize - 1];
    span.end_ns = r.epoch.elapsed().as_nanos() as u64;
    span.request = request;
    // Parallel child polls overwrite each other's slot; nothing parents
    // on that layer, and parent layers are never concurrent.
    r.open[span.layer as usize].store(0, Ordering::SeqCst);
}

/// Time `f` as one span of `layer`.
pub fn timed<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let id = begin(layer);
    let out = f();
    end(id, NO_REQUEST);
    out
}

/// Take every span recorded so far, with children's request ids
/// resolved from their parents.
pub fn drain() -> Vec<Span> {
    let mut out = std::mem::take(&mut *spans());
    for i in 0..out.len() {
        let p = out[i].parent;
        if out[i].request == NO_REQUEST && p != 0 {
            // Parents are recorded before their children.
            out[i].request = out[p as usize - 1].request;
        }
    }
    out
}

/// Write spans as JSON lines `{name, start_ns, end_ns, parent, request}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let request = if s.request == NO_REQUEST {
            "null".to_string()
        } else {
            s.request.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            i + 1,
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.parent,
            request
        )?;
    }
    w.flush()
}
