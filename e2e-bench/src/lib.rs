//! The repository's benchmark: three workloads driven through the
//! program's public API, their end-to-end metrics, and an outside-in
//! per-layer trace. See `README.md` beside this crate for the workloads,
//! the metric → layer → workload table and how to run it.

pub mod ab_stream;
pub mod lab_packet;
pub mod report;
pub mod serve_mix;
pub mod trace;
pub mod wrap;

use report::Outcome;
use std::path::PathBuf;
use trace::SiteAcc;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 3] = ["ab-stream", "lab-packet", "serve-mix"];

/// Worker threads every workload gives its runner or daemon.
pub const WORKER_THREADS: usize = 1;

/// Largest share of the traced wall time the benchmark's own glue may
/// keep: the layers' self times must cover the rest.
pub const TRACE_TOLERANCE: f64 = 0.05;

/// End-to-end metrics every workload reports (untraced run).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("user_pairs_per_s", "pairs/s"),
    ("sim_s_per_s", "sim-s/s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports (traced run). A layer the
/// workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.events", "count"),
    ("netsim.engine_ns_per_event", "ns"),
    ("netsim.queue.enqueue_ns.droptail", "ns"),
    ("netsim.queue.dequeue_ns.droptail", "ns"),
    ("netsim.queue.enqueue_ns.drr", "ns"),
    ("netsim.queue.dequeue_ns.drr", "ns"),
    ("netsim.queue.enqueue_ns.codel", "ns"),
    ("netsim.queue.dequeue_ns.codel", "ns"),
    ("netsim.queue.drops", "count"),
    ("transport.tcp.ns_per_call", "ns"),
    ("transport.quic.ns_per_call", "ns"),
    ("transport.quic_tcp_cost_ratio", "ratio"),
    ("transport.packets_sent", "count"),
    ("transport.retx_share", "ratio"),
    ("video.client.ns_per_call", "ns"),
    ("video.title_generate_us", "us"),
    ("abr.select_ns", "ns"),
    ("abr.selects", "count"),
    ("fluidsim.session_ms", "ms"),
    ("fluidsim.ns_per_chunk", "ns"),
    ("fluidsim.chunks", "count"),
    ("abtest.run_user_ms", "ms"),
    ("abtest.runner_overhead_share", "ratio"),
    ("abtest.checkpoints", "count"),
    ("abtest.checkpoint_bytes", "bytes"),
    ("abtest.checkpoint_ms", "ms"),
    ("abtest.shard_encode_us", "us"),
    ("tdigest.merge_us", "us"),
    ("spec.parse_us", "us"),
    ("spec.render_us", "us"),
    ("serve.http_ms.post_searches", "ms"),
    ("serve.http_ms.post_runs", "ms"),
    ("serve.http_ms.get_status", "ms"),
    ("serve.http_ms.get_result", "ms"),
    ("serve.queue_wait_s", "s"),
    ("serve.poll_late_ms", "ms"),
    ("serve.http_errors", "count"),
    ("serve.search_s", "s"),
    ("serve.poll_p50_ms", "ms"),
    ("serve.poll_p99_ms", "ms"),
    ("serve.poll_samples", "count"),
    ("netsim.self_share", "ratio"),
    ("transport.self_share", "ratio"),
    ("video.self_share", "ratio"),
    ("abr.self_share", "ratio"),
    ("fluidsim.self_share", "ratio"),
    ("abtest.self_share", "ratio"),
    ("serve.self_share", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace_overhead_share", "ratio"),
];

/// Run one workload.
pub fn run_workload(name: &str, seed: u64, seconds: u64, traced: bool) -> Option<Outcome> {
    Some(match name {
        "ab-stream" => ab_stream::run(seed, seconds, traced),
        "lab-packet" => lab_packet::run(seed, seconds, traced),
        "serve-mix" => serve_mix::run(seed, seconds, traced),
        _ => return None,
    })
}

/// Where runs write their scratch files and span dumps: `out/` in the
/// benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write a traced run's spans once, at the end, as JSON lines.
pub fn write_spans(workload: &str, seed: u64, spans: &[trace::SpanRec]) {
    let dir = out_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let _ = std::fs::write(path, trace::spans_jsonl(workload, spans));
}

/// Per-layer self-time shares of the traced wall time, and the check
/// that the layers cover it: the benchmark's own glue may keep at most
/// [`TRACE_TOLERANCE`] of it.
pub fn layer_breakdown(out: &mut Outcome, acc: &[SiteAcc], passes: usize) {
    let wall_ns = acc[trace::site::ROOT].total_ns as f64;
    let mut glue = 0.0;
    for (layer, ns) in trace::layer_self_ns(acc) {
        if layer == "bench" {
            glue = ns as f64 / wall_ns;
        } else {
            out.layer(
                &format!("{layer}.self_share"),
                ns as f64 / wall_ns,
                "ratio",
                passes,
            );
        }
    }
    out.layer("trace.wall_s", wall_ns / 1e9 / passes as f64, "s", passes);
    out.layer("trace.unattributed_share", glue, "ratio", passes);
    out.check(glue <= TRACE_TOLERANCE, || {
        format!(
            "layers cover {:.1}% of the traced wall time",
            (1.0 - glue) * 100.0
        )
    });
}
