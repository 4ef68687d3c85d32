//! Outside-in span recorder for the traced run.
//!
//! Every span sits at a *site*: a call from the benchmark's own code into
//! one public function of one layer. The recorder keeps a stack of open
//! spans, so a span's **self time** is its duration minus the time of the
//! spans opened inside it — `netsim.run_until` minus the endpoint and
//! queue calls the engine made, `SessionBuilder::run` minus the ABR
//! decisions inside it. Summed per layer, self times partition the root
//! span's wall time; whatever the root keeps for itself is benchmark glue
//! (the unattributed share the traced run checks against its tolerance).
//!
//! Hot sites (per packet, per chunk) only accumulate counts and times.
//! Coarse sites (a cell, a user, a job phase) also keep one [`SpanRec`]
//! each — name, start, end, parent and the job id shared by the spans of
//! one job — in memory until [`record`] hands them back, and the run
//! writes them out once at the end.
//!
//! The recorder is per thread and off by default; while it is off,
//! [`span`] is a plain call.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One instrumented call site.
pub struct Site {
    /// Span name, `layer.what`.
    pub name: &'static str,
    /// The layer its self time is charged to (`bench` = glue).
    pub layer: &'static str,
    /// Keep a span record per call (coarse sites only).
    pub record: bool,
}

macro_rules! sites {
    ($($id:ident = $name:literal, $layer:literal, $record:literal;)*) => {
        /// Site ids, indices into [`SITES`].
        #[allow(missing_docs)]
        pub mod site {
            sites!(@ids 0usize, $($id)*);
        }
        /// Every site, by id.
        pub const SITES: &[Site] = &[$(Site { name: $name, layer: $layer, record: $record },)*];
    };
    (@ids $n:expr, $id:ident $($rest:ident)*) => {
        pub const $id: usize = $n;
        sites!(@ids $n + 1usize, $($rest)*);
    };
    (@ids $n:expr,) => {};
}

sites! {
    ROOT = "bench.pass", "bench", true;
    CELL = "bench.cell", "bench", true;
    VERIFY = "bench.verify", "bench", false;
    NETSIM_BUILD = "netsim.build", "netsim", false;
    NETSIM_RUN = "netsim.run_until", "netsim", true;
    ENQ_DROPTAIL = "netsim.queue.enqueue.droptail", "netsim", false;
    DEQ_DROPTAIL = "netsim.queue.dequeue.droptail", "netsim", false;
    ENQ_DRR = "netsim.queue.enqueue.drr", "netsim", false;
    DEQ_DRR = "netsim.queue.dequeue.drr", "netsim", false;
    ENQ_CODEL = "netsim.queue.enqueue.codel", "netsim", false;
    DEQ_CODEL = "netsim.queue.dequeue.codel", "netsim", false;
    TCP = "transport.tcp", "transport", false;
    QUIC = "transport.quic", "transport", false;
    VIDEO_CLIENT = "video.client", "video", false;
    VIDEO_INSTALL = "video.install", "video", false;
    TITLE = "video.title", "video", false;
    ABR_SELECT = "abr.select", "abr", false;
    ABR_OBSERVE = "abr.on_chunk_downloaded", "abr", false;
    FLUID_SESSION = "fluidsim.session", "fluidsim", false;
    RUN_USER = "abtest.run_user", "abtest", true;
    USER_AT = "abtest.user_at", "abtest", false;
    JOB_SEARCH = "abtest.search_job", "abtest", true;
    JOB_RUN = "abtest.run_job", "abtest", true;
    POST_SEARCHES = "serve.post_searches", "serve", true;
    POST_RUNS = "serve.post_runs", "serve", true;
    GET_RESULT = "serve.get_result", "serve", true;
}

/// The layers, in report order.
pub const LAYERS: &[&str] = &[
    "netsim",
    "transport",
    "video",
    "abr",
    "fluidsim",
    "abtest",
    "serve",
    "bench",
];

/// Accumulated calls and times of one site.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SiteAcc {
    /// Completed calls.
    pub calls: u64,
    /// Summed span durations (ns).
    pub total_ns: u64,
    /// Summed durations minus nested spans (ns).
    pub self_ns: u64,
}

impl SiteAcc {
    /// Mean span duration (ns), 0 without calls.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Add every site of `acc` into `total`.
pub fn add_into(total: &mut [SiteAcc], acc: &[SiteAcc]) {
    for (t, a) in total.iter_mut().zip(acc) {
        t.calls += a.calls;
        t.total_ns += a.total_ns;
        t.self_ns += a.self_ns;
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span id (1-based, in open order).
    pub id: u64,
    /// Enclosing span id (0 = none).
    pub parent: u64,
    /// Job id shared by the spans of one job (cell, user, iteration).
    pub job: u64,
    /// Site name.
    pub name: &'static str,
    /// Start, ns since the recorder was enabled.
    pub start_ns: u64,
    /// End, ns since the recorder was enabled.
    pub end_ns: u64,
}

struct Frame {
    site: usize,
    id: u64,
    start: Instant,
    child_ns: u64,
}

struct Recorder {
    epoch: Instant,
    stack: Vec<Frame>,
    acc: Vec<SiteAcc>,
    spans: Vec<SpanRec>,
    job: u64,
    next_id: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            acc: vec![SiteAcc::default(); SITES.len()],
            spans: Vec::new(),
            job: 0,
            next_id: 1,
        }
    }
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// Clear all accumulators and span records, and turn recording on or off
/// for this thread.
pub fn reset(on: bool) {
    REC.with(|r| *r.borrow_mut() = Recorder::new());
    ON.with(|c| c.set(on));
}

/// Whether this thread records.
fn enabled() -> bool {
    ON.with(|c| c.get())
}

/// Set the job id the next spans carry.
pub fn set_job(job: u64) {
    REC.with(|r| r.borrow_mut().job = job);
}

fn enter(site: usize) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.next_id;
        r.next_id += 1;
        r.stack.push(Frame {
            site,
            id,
            start: Instant::now(),
            child_ns: 0,
        });
    });
}

fn exit() {
    let end = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let f = r.stack.pop().expect("span exit without enter");
        let dur = end.duration_since(f.start).as_nanos() as u64;
        let a = &mut r.acc[f.site];
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(f.child_ns);
        let parent = match r.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        if SITES[f.site].record {
            let start_ns = f.start.duration_since(r.epoch).as_nanos() as u64;
            let job = r.job;
            r.spans.push(SpanRec {
                id: f.id,
                parent,
                job,
                name: SITES[f.site].name,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    });
}

/// Run `f` inside a span at `site` (a plain call while recording is off).
#[inline]
pub fn span<R>(site: usize, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    enter(site);
    let out = f();
    exit();
    out
}

/// Run `f` with recording on, from a clean slate; return its result,
/// the accumulators and the spans it recorded. Recording is off again
/// afterwards.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Vec<SiteAcc>, Vec<SpanRec>) {
    reset(true);
    let out = f();
    let acc = snapshot();
    let spans = take_spans();
    reset(false);
    (out, acc, spans)
}

/// Snapshot of every site's accumulator.
pub fn snapshot() -> Vec<SiteAcc> {
    REC.with(|r| r.borrow().acc.clone())
}

/// Take the recorded spans (leaves the accumulators).
fn take_spans() -> Vec<SpanRec> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Per-layer self time (ns) over a snapshot, in [`LAYERS`] order.
pub fn layer_self_ns(acc: &[SiteAcc]) -> Vec<(&'static str, u64)> {
    LAYERS
        .iter()
        .map(|&layer| {
            let ns = SITES
                .iter()
                .zip(acc)
                .filter(|(s, _)| s.layer == layer)
                .map(|(_, a)| a.self_ns)
                .sum();
            (layer, ns)
        })
        .collect()
}

/// Render spans as JSON lines.
pub fn spans_jsonl(workload: &str, spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children_and_layers_partition_the_root() {
        reset(true);
        span(site::ROOT, || {
            busy(200_000);
            span(site::NETSIM_RUN, || {
                busy(300_000);
                span(site::TCP, || busy(400_000));
            });
        });
        let acc = snapshot();
        reset(false);
        let root = acc[site::ROOT];
        let run = acc[site::NETSIM_RUN];
        let tcp = acc[site::TCP];
        assert_eq!((root.calls, run.calls, tcp.calls), (1, 1, 1));
        assert_eq!(run.self_ns, run.total_ns - tcp.total_ns);
        assert_eq!(root.self_ns, root.total_ns - run.total_ns);
        let sum: u64 = layer_self_ns(&acc).iter().map(|&(_, ns)| ns).sum();
        assert_eq!(sum, root.total_ns, "self times partition the root");
    }

    #[test]
    fn disabled_recorder_is_a_plain_call() {
        reset(false);
        assert_eq!(span(site::TCP, || 7), 7);
        assert_eq!(snapshot()[site::TCP].calls, 0);
        assert!(take_spans().is_empty());
    }
}
