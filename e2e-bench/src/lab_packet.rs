//! `lab-packet`: the packet-level lab.
//!
//! One timed unit is the CC × pacing matrix
//! (`sammy_bench::matrix::cc_matrix`: Reno, CUBIC and BBR on TCP plus
//! CUBIC on QUIC, each × control/sammy) followed by
//! `sammy_bench::shared::shared_sessions` with eight sessions on a
//! drop-tail, a DRR and a CoDel core, each × control/sammy. Per-packet
//! engine, queue-discipline and TCP/QUIC/pacer work dominate; `abtest`
//! and `fluidsim` are bypassed. It is the only workload that reaches QUIC
//! and the AQM/FQ queues.
//!
//! The traced run rebuilds every cell from the same public pieces the
//! library uses (`Dumbbell::build` + `lab::install_video`, and
//! `SharedTopology::build` + the endpoints for the shared cells), once
//! bare and once with [`TracedEndpoint`](crate::wrap::TracedEndpoint)s on
//! the sender and clients and a [`TracedQueue`](crate::wrap::TracedQueue)
//! on the bottleneck. Both rebuilds must reproduce the library's outputs
//! row for row, and the traced one the bare one's event counts.

use crate::report::{fnv, median, median_rate, peak_rss_mb, secs, Outcome, FNV_SEED};
use crate::trace::{self, site, SiteAcc};
use crate::wrap::{wrap_endpoint, wrap_queue};
use abr::{shared_history, HistoryPolicy, Mpc, ProductionAbr, SharedHistory};
use netsim::{
    CoDelConfig, Discipline, DrrConfig, Dumbbell, FlowId, QueueMonitor, Rate, SharedTopology,
    SimDuration, SimTime, Simulator,
};
use sammy_bench::lab::{install_video, lab_title, LabArm, LabConfig};
use sammy_bench::matrix::{cc_matrix, matrix_csv_rows, MatrixCell, Substrate, SUBSTRATES};
use sammy_bench::shared::{jain_index, shared_sessions, SharedLabConfig, SharedRunResult};
use sammy_core::{Sammy, SammyConfig};
use std::time::{Duration, Instant};
use transport::{MultiSenderEndpoint, Protocol, SenderEndpoint, SenderStats, TcpConfig};
use video::{Abr, Player, PlayerConfig, VideoClientEndpoint};

/// Simulated seconds of each matrix cell.
pub const MATRIX_SECS: u64 = 60;
/// Simulated seconds of each shared-bottleneck cell.
pub const SHARED_SECS: u64 = 30;
/// Sessions per shared-bottleneck cell.
pub const SHARED_SESSIONS: usize = 8;
/// Core queue disciplines of the shared cells.
pub const DISCIPLINES: [&str; 3] = ["droptail", "drr", "codel"];
/// Event budget per cell: a cell needing more has run away.
pub const EVENT_BUDGET: u64 = 50_000_000;
const ARMS: [LabArm; 2] = [LabArm::Control, LabArm::Sammy];

/// The discipline behind a label of [`DISCIPLINES`].
fn discipline(label: &str) -> Discipline {
    match label {
        "droptail" => Discipline::DropTail,
        "drr" => Discipline::Drr(DrrConfig::default()),
        "codel" => Discipline::CoDel(CoDelConfig::default()),
        other => panic!("unknown discipline {other:?}"),
    }
}

/// The matrix base configuration for `seed`.
pub fn lab_config(seed: u64) -> LabConfig {
    LabConfig {
        run_for: SimDuration::from_secs(MATRIX_SECS),
        seed,
        ..LabConfig::default()
    }
}

/// The shared-bottleneck configuration for `seed` and a discipline label.
pub fn shared_config(seed: u64, label: &str) -> SharedLabConfig {
    SharedLabConfig {
        sessions: SHARED_SESSIONS,
        run_for: SimDuration::from_secs(SHARED_SECS),
        seed,
        discipline: discipline(label),
        ..SharedLabConfig::default()
    }
}

/// (control, treatment) pairs per pass: one per substrate plus one per
/// shared session and discipline.
fn pairs_per_pass() -> usize {
    SUBSTRATES.len() + DISCIPLINES.len() * SHARED_SESSIONS
}

/// Simulated seconds per pass, over all cells.
fn sim_secs_per_pass() -> f64 {
    (SUBSTRATES.len() * ARMS.len()) as f64 * MATRIX_SECS as f64
        + (DISCIPLINES.len() * ARMS.len()) as f64 * SHARED_SECS as f64
}

/// Outputs of one pass, in cell order.
#[derive(Debug, Clone, Default)]
struct PassOutput {
    /// Matrix CSV rows (substrate-major, control before sammy).
    matrix_rows: Vec<String>,
    /// Shared results (discipline-major, control before sammy).
    shared: Vec<SharedRunResult>,
}

impl PassOutput {
    /// Fingerprint of every output of the pass (shared results through
    /// their full debug rendering, which prints every `f64` exactly).
    fn fingerprint(&self) -> u64 {
        let mut h = FNV_SEED;
        for r in &self.matrix_rows {
            h = fnv(h, r.as_bytes());
        }
        for s in &self.shared {
            h = fnv(h, format!("{s:?}").as_bytes());
        }
        h
    }
}

/// One pass through the library's public entry points.
fn library_pass(seed: u64) -> PassOutput {
    let cells = cc_matrix(&lab_config(seed), 1);
    let matrix_rows = matrix_csv_rows(&cells);
    let mut shared = Vec::new();
    for label in DISCIPLINES {
        let cfg = shared_config(seed, label);
        for arm in ARMS {
            shared.push(shared_sessions(arm, &cfg));
        }
    }
    PassOutput {
        matrix_rows,
        shared,
    }
}

/// Invariant checks on one pass: every cell completed its transfers and
/// the outputs match the reference pass.
fn verify(out: &mut Outcome, pass: &PassOutput, reference: u64) {
    for row in &pass.matrix_rows {
        let f: Vec<&str> = row.split(',').collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
        let ok = matches!(num(4), Some(t) if t.is_finite() && t > 0.0)
            && matches!(num(7), Some(d) if d.is_finite());
        out.check(ok, || format!("lab-packet: incomplete matrix cell {row}"));
    }
    for s in &pass.shared {
        let ok = s.per_session_mbps.len() == SHARED_SESSIONS
            && s.per_session_mbps.iter().all(|m| m.is_finite() && *m > 0.0)
            && s.jain.is_finite();
        out.check(ok, || {
            format!(
                "lab-packet: incomplete shared cell {:?}",
                s.per_session_mbps
            )
        });
    }
    out.check(pass.fingerprint() == reference, || {
        format!(
            "lab-packet: fingerprint {:016x} != {reference:016x}",
            pass.fingerprint()
        )
    });
}

/// What a rebuilt cell reports beside its output row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// `Simulator::processed_events` at the end.
    pub events: u64,
    /// Bottleneck queue drops over the whole run.
    pub drops: u64,
    /// Data packets sent by the video senders.
    pub packets_sent: u64,
    /// Payload bytes sent, including retransmissions.
    pub bytes_sent: u64,
    /// Payload bytes retransmitted.
    pub retx_bytes: u64,
}

impl CellCounts {
    fn add_sender(&mut self, s: &SenderStats) {
        self.packets_sent += s.packets_sent;
        self.bytes_sent += s.bytes_sent;
        self.retx_bytes += s.retx_bytes;
    }
}

/// A matrix cell's simulator, built and installed but not yet run.
pub struct SingleFlowCell {
    sim: Simulator,
    db: Dumbbell,
    cfg: LabConfig,
    sub: Substrate,
    arm: LabArm,
}

/// Build one matrix cell as `lab::single_flow` does; with `traced`, wrap
/// its sender, client and bottleneck queue.
pub fn build_single_flow(
    sub: Substrate,
    arm: LabArm,
    base: &LabConfig,
    traced: bool,
) -> SingleFlowCell {
    let cfg = LabConfig {
        cc: sub.cc,
        transport: sub.transport,
        ..base.clone()
    };
    let mut sim = Simulator::new();
    let db = trace::span(site::NETSIM_BUILD, || {
        Dumbbell::build(&mut sim, cfg.dumbbell)
    });
    trace::span(site::VIDEO_INSTALL, || {
        install_video(&mut sim, &db, 0, arm, &cfg, SimTime::ZERO, FlowId(1))
    });
    if traced {
        let sender_site = match sub.transport {
            Protocol::Tcp => site::TCP,
            Protocol::Quic => site::QUIC,
        };
        wrap_endpoint(&mut sim, db.left[0], sender_site);
        wrap_endpoint(&mut sim, db.right[0], site::VIDEO_CLIENT);
        wrap_queue(&mut sim, db.forward, "droptail");
    }
    SingleFlowCell {
        sim,
        db,
        cfg,
        sub,
        arm,
    }
}

/// Run a built matrix cell the way `lab::single_flow` does and assemble
/// its `MatrixCell`.
pub fn run_single_flow(cell: SingleFlowCell) -> (MatrixCell, CellCounts) {
    let SingleFlowCell {
        mut sim,
        db,
        cfg,
        sub,
        arm,
    } = cell;
    trace::span(site::NETSIM_RUN, || sim.run_until(SimTime::from_secs(15)));
    sim.link_mut(db.forward).queue.reset_max_occupancy();
    trace::span(site::NETSIM_RUN, || {
        sim.run_until(SimTime::ZERO + cfg.run_for)
    });

    let mut counts = CellCounts {
        events: sim.processed_events(),
        drops: sim.link(db.forward).queue.stats().drops,
        ..CellCounts::default()
    };
    let max_queue_bytes = sim.link(db.forward).queue.stats().max_occupied_bytes;
    let server: &mut SenderEndpoint = sim.endpoint_mut(db.left[0]).expect("server endpoint");
    let stats = server.sender().stats().clone();
    counts.add_sender(&stats);
    let median_rtt_ms = server.sender().rtt_digest().median();
    let completed = server.completed.clone();
    let client: &mut VideoClientEndpoint = sim.endpoint_mut(db.right[0]).expect("client endpoint");
    let qoe = client.player().qoe();
    let play_delay = qoe.play_delay.map(|d| d.as_secs_f64()).unwrap_or(f64::NAN);
    let post_start: Vec<f64> = completed
        .iter()
        .filter(|t| t.started_at.as_secs_f64() > play_delay)
        .map(|t| t.throughput().mbps())
        .collect();
    let chunk_tput = if post_start.is_empty() {
        f64::NAN
    } else {
        post_start.iter().sum::<f64>() / post_start.len() as f64
    };
    let cell = MatrixCell {
        substrate: sub.label,
        transport: sub.transport,
        cc: sub.cc,
        arm,
        chunk_tput_mbps: chunk_tput,
        median_rtt_ms,
        retx_fraction: stats.retransmit_fraction(),
        play_delay_s: play_delay,
        rebuffers: qoe.rebuffer_count,
        peak_queue_kb: max_queue_bytes as f64 / 1e3,
    };
    (cell, counts)
}

/// The lab devices' warmed history and ABR, as the library's lab builds
/// them.
fn lab_abr(arm: LabArm) -> Box<dyn Abr> {
    let history: SharedHistory = shared_history();
    for _ in 0..30 {
        history.update(Rate::from_mbps(38.0));
        history.end_session();
    }
    match arm {
        LabArm::Control => Box::new(ProductionAbr::new(
            Mpc::default(),
            history,
            HistoryPolicy::AllSamples,
        )),
        LabArm::Sammy => Box::new(Sammy::new(Mpc::default(), history, SammyConfig::default())),
    }
}

/// A shared-bottleneck cell's simulator, built but not yet run.
pub struct SharedCell {
    sim: Simulator,
    topo: SharedTopology,
    cfg: SharedLabConfig,
}

/// Build one shared cell as `shared::shared_sessions` does; with
/// `traced`, wrap the origin, the clients and the core queue.
pub fn build_shared(arm: LabArm, cfg: &SharedLabConfig, label: &str, traced: bool) -> SharedCell {
    let mut sim = Simulator::new();
    let topo = trace::span(site::NETSIM_BUILD, || {
        SharedTopology::build(&mut sim, cfg.topology())
    });
    trace::span(site::VIDEO_INSTALL, || {
        let mut server = MultiSenderEndpoint::new();
        for i in 0..cfg.sessions {
            let flow = FlowId(1 + i as u64);
            let tcp = TcpConfig {
                max_burst_packets: cfg.burst_packets,
                ..Default::default()
            };
            server.add_flow(topo.origin, topo.clients[i], flow, tcp);
            let player = Player::new(
                lab_title(cfg.title_secs, cfg.seed + i as u64),
                lab_abr(arm),
                PlayerConfig {
                    start_threshold: SimDuration::from_secs(8),
                    resume_threshold: SimDuration::from_secs(8),
                    max_buffer: cfg.max_buffer,
                },
                SimTime::ZERO,
            );
            VideoClientEndpoint::new(topo.clients[i], topo.origin, flow, player)
                .install(&mut sim, SimTime::ZERO);
        }
        sim.set_endpoint(topo.origin, Box::new(server));
    });
    if traced {
        wrap_endpoint(&mut sim, topo.origin, site::TCP);
        for &c in &topo.clients {
            wrap_endpoint(&mut sim, c, site::VIDEO_CLIENT);
        }
        wrap_queue(&mut sim, topo.core_down, label);
    }
    SharedCell {
        sim,
        topo,
        cfg: cfg.clone(),
    }
}

/// Run a built shared cell the way `shared::shared_sessions` does.
pub fn run_shared(cell: SharedCell) -> (SharedRunResult, CellCounts) {
    let SharedCell { mut sim, topo, cfg } = cell;
    let mut mon = QueueMonitor::new(topo.core_down, SimDuration::from_millis(100));
    let startup = (SimTime::ZERO + cfg.startup).min(SimTime::ZERO + cfg.run_for);
    trace::span(site::NETSIM_RUN, || mon.run_sampled(&mut sim, startup));
    let startup_drops = sim.link(topo.core_down).queue.stats().drops;
    sim.link_mut(topo.core_down).queue.reset_max_occupancy();
    trace::span(site::NETSIM_RUN, || {
        mon.run_sampled(&mut sim, SimTime::ZERO + cfg.run_for)
    });

    let qstats = sim.link(topo.core_down).queue.stats();
    let core_peak_queue_bytes = qstats.max_occupied_bytes;
    let core_drops = qstats.drops - startup_drops;
    let mut counts = CellCounts {
        events: sim.processed_events(),
        drops: qstats.drops,
        ..CellCounts::default()
    };
    let server: &mut MultiSenderEndpoint = sim.endpoint_mut(topo.origin).expect("origin endpoint");
    let per_session_mbps: Vec<f64> = (0..cfg.sessions)
        .map(|slot| {
            counts.add_sender(server.sender(slot).stats());
            let done = server.completed(slot);
            if done.is_empty() {
                0.0
            } else {
                done.iter().map(|t| t.throughput().mbps()).sum::<f64>() / done.len() as f64
            }
        })
        .collect();
    let result = SharedRunResult {
        jain: jain_index(&per_session_mbps),
        per_session_mbps,
        core_occupancy_kb: mon.series_kb(),
        core_peak_queue_bytes,
        core_drops,
    };
    (result, counts)
}

/// Build every cell of a pass (the workload's set-up).
fn build_all(seed: u64, traced: bool) -> (Vec<SingleFlowCell>, Vec<SharedCell>) {
    let base = lab_config(seed);
    let singles = SUBSTRATES
        .iter()
        .flat_map(|&sub| ARMS.map(|arm| (sub, arm)))
        .map(|(sub, arm)| build_single_flow(sub, arm, &base, traced))
        .collect();
    let mut shared = Vec::new();
    for label in DISCIPLINES {
        let cfg = shared_config(seed, label);
        for arm in ARMS {
            shared.push(build_shared(arm, &cfg, label, traced));
        }
    }
    (singles, shared)
}

/// Per-cell counts of a rebuilt pass, with the transport work split by
/// substrate for the QUIC/TCP cost ratio.
#[derive(Debug, Default)]
struct RebuiltPass {
    output: PassOutput,
    cells: Vec<CellCounts>,
    wall: f64,
    /// (ns in the sender, packets sent) of the CUBIC-over-TCP cells.
    tcp_cubic: (u64, u64),
    /// (ns in the sender, packets sent) of the QUIC cells.
    quic: (u64, u64),
}

/// Rebuild and run every cell, bare or traced.
fn rebuilt_pass(seed: u64, traced: bool) -> RebuiltPass {
    let mut pass = RebuiltPass::default();
    let t = Instant::now();
    trace::span(site::ROOT, || {
        let base = lab_config(seed);
        let mut job = 0;
        let mut cells = Vec::new();
        for &sub in &SUBSTRATES {
            for arm in ARMS {
                trace::set_job(job);
                job += 1;
                let before = trace::snapshot();
                let (cell, counts) = trace::span(site::CELL, || {
                    run_single_flow(build_single_flow(sub, arm, &base, traced))
                });
                if traced {
                    let after = trace::snapshot();
                    let ns = |id: usize| after[id].total_ns - before[id].total_ns;
                    if sub.label == "cubic" {
                        pass.tcp_cubic.0 += ns(site::TCP);
                        pass.tcp_cubic.1 += counts.packets_sent;
                    } else if sub.transport == Protocol::Quic {
                        pass.quic.0 += ns(site::QUIC);
                        pass.quic.1 += counts.packets_sent;
                    }
                }
                cells.push(cell);
                pass.cells.push(counts);
            }
        }
        pass.output.matrix_rows = matrix_csv_rows(&cells);
        for label in DISCIPLINES {
            let cfg = shared_config(seed, label);
            for arm in ARMS {
                trace::set_job(job);
                job += 1;
                let (result, counts) = trace::span(site::CELL, || {
                    run_shared(build_shared(arm, &cfg, label, traced))
                });
                pass.output.shared.push(result);
                pass.cells.push(counts);
            }
        }
    });
    pass.wall = secs(t);
    pass
}

/// Run the workload for `seconds` of measurement.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();

    // Set-up, several times: building every cell's topology, endpoints,
    // titles and ABR histories, up to the first simulated event.
    let setups: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(build_all(seed, false));
            secs(t)
        })
        .collect();

    // Warm-up (untimed): fixes the reference outputs.
    let warm = library_pass(seed);
    let reference = warm.fingerprint();
    verify(&mut out, &warm, reference);
    out.notes.push(format!(
        "lab-packet fingerprint: {reference:016x} (seed {seed})"
    ));

    let budget = Duration::from_secs(seconds);
    if !traced {
        let mut walls = Vec::new();
        crate::report::for_duration(budget, 3, |_| {
            let t = Instant::now();
            let pass = library_pass(seed);
            walls.push(secs(t));
            verify(&mut out, &pass, reference);
        });
        let n = walls.len();
        let rate = |work: f64| median_rate(work, &walls);
        out.e2e("setup_s", median(&setups), "s", setups.len());
        out.e2e(
            "user_pairs_per_s",
            rate(pairs_per_pass() as f64),
            "pairs/s",
            n,
        );
        out.e2e("sim_s_per_s", rate(sim_secs_per_pass()), "sim-s/s", n);
        out.e2e("run_s", median(&walls), "s", n);
        out.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
        return out;
    }

    let mut trace_overhead = Vec::new();
    let mut acc_total: Vec<SiteAcc> = vec![SiteAcc::default(); trace::SITES.len()];
    let mut passes = 0u64;
    let mut last = RebuiltPass::default();
    let (mut tcp_cubic, mut quic) = ((0u64, 0u64), (0u64, 0u64));
    let mut spans = Vec::new();
    crate::report::for_duration(budget, 1, |_| {
        let bare = rebuilt_pass(seed, false);
        let (traced_pass, acc, pass_spans) = trace::record(|| rebuilt_pass(seed, true));
        spans = pass_spans;
        for (p, what) in [(&bare, "bare"), (&traced_pass, "traced")] {
            out.check(p.output.fingerprint() == reference, || {
                format!("lab-packet: {what} rebuild differs from the library outputs")
            });
            for c in &p.cells {
                out.check(c.events < EVENT_BUDGET, || {
                    format!(
                        "lab-packet: cell over its event budget ({} events)",
                        c.events
                    )
                });
            }
        }
        out.check(bare.cells == traced_pass.cells, || {
            "lab-packet: wrappers changed event or packet counts".into()
        });
        trace_overhead.push(traced_pass.wall / bare.wall - 1.0);
        trace::add_into(&mut acc_total, &acc);
        for (total, pass) in [
            (&mut tcp_cubic, traced_pass.tcp_cubic),
            (&mut quic, traced_pass.quic),
        ] {
            total.0 += pass.0;
            total.1 += pass.1;
        }
        last = traced_pass;
        passes += 1;
    });

    let n = passes as usize;
    let a = |id: usize| acc_total[id];
    let per_call = |id: usize| a(id).ns_per_call();
    let sum = |f: fn(&CellCounts) -> u64| last.cells.iter().map(f).sum::<u64>();
    let events = sum(|c| c.events);
    out.layer("netsim.events", events as f64, "count", n);
    out.layer(
        "netsim.engine_ns_per_event",
        a(site::NETSIM_RUN).self_ns as f64 / (events * passes) as f64,
        "ns",
        n,
    );
    for label in DISCIPLINES {
        let (enq, deq) = crate::wrap::queue_sites(label);
        out.layer(
            &format!("netsim.queue.enqueue_ns.{label}"),
            per_call(enq),
            "ns",
            n,
        );
        out.layer(
            &format!("netsim.queue.dequeue_ns.{label}"),
            per_call(deq),
            "ns",
            n,
        );
    }
    out.layer("netsim.queue.drops", sum(|c| c.drops) as f64, "count", n);
    out.layer("transport.tcp.ns_per_call", per_call(site::TCP), "ns", n);
    out.layer("transport.quic.ns_per_call", per_call(site::QUIC), "ns", n);
    let per_packet = |(ns, pkts): (u64, u64)| ns as f64 / pkts.max(1) as f64;
    out.layer(
        "transport.quic_tcp_cost_ratio",
        per_packet(quic) / per_packet(tcp_cubic),
        "ratio",
        n,
    );
    out.layer(
        "transport.packets_sent",
        sum(|c| c.packets_sent) as f64,
        "count",
        n,
    );
    out.layer(
        "transport.retx_share",
        sum(|c| c.retx_bytes) as f64 / sum(|c| c.bytes_sent).max(1) as f64,
        "ratio",
        n,
    );
    out.layer(
        "video.client.ns_per_call",
        per_call(site::VIDEO_CLIENT),
        "ns",
        n,
    );
    out.layer("trace_overhead_share", median(&trace_overhead), "ratio", n);
    crate::layer_breakdown(&mut out, &acc_total, n);
    crate::write_spans("lab-packet", seed, &spans);
    out
}
