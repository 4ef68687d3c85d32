//! `ab-stream`: the fluid A/B population through the streaming runner.
//!
//! One timed unit is `Experiment::builder().spec(..).run_streaming()` on
//! the default (long-title) population, one pre-session and one session
//! per user, one worker thread, no checkpoint directory. The per-user
//! fluid session loop, the MPC decision inside it and title generation
//! dominate; `netsim`, `transport`, `serve` and the disk are bypassed.
//!
//! The traced run sees inside the runner from outside, on the same users:
//!
//! 1. the streaming call itself (wall `W`),
//! 2. the public `abtest::run_user` for every (user, arm) — so
//!    `1 − Σ run_user / W` is the runner's own share (shard fold,
//!    Poisson bootstrap, merge),
//! 3. a replica of `run_user` built from the layers' public calls
//!    (`user_at`, `UserProfile::title`, `SessionBuilder::run` with a
//!    [`TracedAbr`]), once bare and once traced. Its records must hash
//!    the same as step 2's; the traced/bare wall ratio is the tracing
//!    overhead.

use crate::report::{fnv, median, median_rate, peak_rss_mb, secs, Outcome, FNV_SEED};
use crate::trace::{self, site, SiteAcc};
use crate::wrap::TracedAbr;
use abr::{initial_rung_for, shared_history, InitialSelectorConfig, SharedHistory};
use abtest::{
    percentile, population_config_from_spec, run_user, user_at, Arm, Experiment, ExperimentConfig,
    SessionRecord, StreamRun, UserProfile,
};
use fluidsim::{FluidConfig, SessionBuilder, SessionOutcome};
use netsim::SimDuration;
use spec::ExperimentSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};
use video::Abr;

/// Users per arm in one timed run.
pub const USERS: usize = 400;

/// The workload's experiment spec for `seed`.
pub fn spec(seed: u64, users: usize) -> ExperimentSpec {
    ExperimentSpec {
        name: "ab-stream".into(),
        users_per_arm: users,
        pre_sessions: 1,
        sessions_per_user: 1,
        seed,
        threads: 1,
        ..ExperimentSpec::default()
    }
}

/// Set-up: parse the spec document, derive the runner configuration and
/// the first user's profile and title — everything before the first
/// session starts.
fn set_up(doc: &str) -> ExperimentSpec {
    let s = ExperimentSpec::from_json_str(doc).expect("workload spec parses");
    let pop = population_config_from_spec(&s);
    let first = user_at(&pop, 0, s.seed);
    std::hint::black_box(first.title(0));
    s
}

/// Simulated content seconds of a run: every session plays its title.
fn simulated_secs(s: &ExperimentSpec) -> f64 {
    let pop = population_config_from_spec(s);
    let per_user = 2 * (s.pre_sessions + s.sessions_per_user) as u64;
    (0..s.users_per_arm as u64)
        .map(|i| user_at(&pop, i, s.seed).title_duration.as_secs_f64() * per_user as f64)
        .sum()
}

/// Run the streaming experiment once, timing it.
fn stream(s: &ExperimentSpec) -> (StreamRun, f64) {
    let t = Instant::now();
    let run = Experiment::builder()
        .spec(s)
        .threads(1)
        .run_streaming()
        .expect("streaming run");
    (run, secs(t))
}

/// Invariant checks on one streaming run.
fn verify(out: &mut Outcome, s: &ExperimentSpec, run: &StreamRun, reference: u64) {
    let users = s.users_per_arm as u64;
    let done = run.state.users;
    out.attempted += users;
    out.failed += users.saturating_sub(done) + run.state.failures;
    out.check(
        run.completed && run.merged_shards == run.shards && run.users == s.users_per_arm,
        || {
            format!(
                "ab-stream: incomplete run ({}/{} shards)",
                run.merged_shards, run.shards
            )
        },
    );
    out.check(
        run.state.control_sessions == users * s.sessions_per_user as u64
            && run.state.treatment_sessions == users * s.sessions_per_user as u64,
        || "ab-stream: session counts".into(),
    );
    out.check(run.fingerprint() == reference, || {
        format!(
            "ab-stream: fingerprint {:016x} != {reference:016x}",
            run.fingerprint()
        )
    });
}

/// Hash of session records: every field the report reads.
fn records_hash(mut h: u64, records: &[SessionRecord]) -> u64 {
    for r in records {
        h = fnv(h, &r.user.to_le_bytes());
        h = fnv(h, &r.pre_p95_mbps.to_bits().to_le_bytes());
        h = outcome_hash(h, &r.outcome);
    }
    h
}

/// Hash of one session outcome, bit-exact.
fn outcome_hash(mut h: u64, o: &SessionOutcome) -> u64 {
    h = fnv(h, format!("{:?}", o.qoe).as_bytes());
    h = fnv(
        h,
        &o.avg_chunk_throughput
            .map_or(0, |r| r.mbps().to_bits())
            .to_le_bytes(),
    );
    for v in [o.retx_fraction, o.median_rtt_ms, o.congested_byte_fraction] {
        h = fnv(h, &v.to_bits().to_le_bytes());
    }
    h = fnv(h, &o.chunks.to_le_bytes());
    for v in &o.chunk_throughputs_mbps {
        h = fnv(h, &v.to_bits().to_le_bytes());
    }
    h
}

/// One session exactly as `abtest::run_user` runs it, assembled from the
/// layers' public calls, with the ABR wrapped when `traced`.
pub fn replica_session(
    user: &UserProfile,
    arm: Arm,
    history: &SharedHistory,
    session_idx: u64,
    seed: u64,
    traced: bool,
) -> SessionOutcome {
    let title = Arc::new(trace::span(site::TITLE, || user.title(session_idx)));
    let estimate = history.discounted_estimate();
    let rung = initial_rung_for(estimate, &title.ladder, &InitialSelectorConfig::default());
    let mut abr: Box<dyn Abr> = arm.build_abr(history.clone());
    if traced {
        abr = Box::new(TracedAbr::new(abr));
    }
    let outcome = trace::span(site::FLUID_SESSION, || {
        SessionBuilder::new(&user.network, title, abr)
            .history_estimate(estimate)
            .predicted_initial_rung(rung)
            .max_wall_clock(user.title_duration * 3 + SimDuration::from_secs(120))
            .seed(
                user.seed
                    .wrapping_add(session_idx.wrapping_mul(0xA24B_AED4_963E_E407))
                    .wrapping_add(seed),
            )
            .fluid(FluidConfig::default())
            .startup_latency(user.startup_latency)
            .run()
    });
    history.end_session();
    outcome
}

/// `abtest::run_user`, replicated: production pre-sessions build the
/// history and the pre-experiment p95, then the arm's sessions run.
pub fn replica_user(
    user: &UserProfile,
    arm: Arm,
    cfg: &ExperimentConfig,
    traced: bool,
) -> Vec<SessionRecord> {
    let history = shared_history();
    let mut pre = Vec::new();
    for s in 0..cfg.pre_sessions {
        let o = replica_session(user, Arm::Production, &history, s as u64, cfg.seed, traced);
        pre.extend(o.chunk_throughputs_mbps.iter().copied());
    }
    let pre_p95 = percentile(&pre, 0.95);
    (0..cfg.sessions_per_user)
        .map(|s| SessionRecord {
            user: user.id,
            pre_p95_mbps: pre_p95,
            outcome: replica_session(
                user,
                arm,
                &history,
                (cfg.pre_sessions + s) as u64,
                cfg.seed,
                traced,
            ),
        })
        .collect()
}

/// The replica over every (user, arm): returns (wall s, records hash,
/// chunks).
fn replica_pass(s: &ExperimentSpec, traced: bool) -> (f64, u64, u64) {
    let cfg = ExperimentConfig::from(s);
    let pop = population_config_from_spec(s);
    let arms = [Arm::from(&s.control), Arm::from(&s.treatment)];
    let mut h = FNV_SEED;
    let mut chunks = 0u64;
    let t = Instant::now();
    trace::span(site::ROOT, || {
        for i in 0..s.users_per_arm as u64 {
            trace::set_job(i);
            let user = trace::span(site::USER_AT, || user_at(&pop, i, s.seed));
            for arm in arms {
                let records =
                    trace::span(site::RUN_USER, || replica_user(&user, arm, &cfg, traced));
                h = records_hash(h, &records);
                chunks += records.iter().map(|r| r.outcome.chunks as u64).sum::<u64>();
            }
        }
    });
    (secs(t), h, chunks)
}

/// Σ wall of the public `run_user` over every (user, arm), its records
/// hash, and the number of calls.
fn run_user_pass(s: &ExperimentSpec) -> (f64, u64, usize) {
    let cfg = ExperimentConfig::from(s);
    let pop = population_config_from_spec(s);
    let arms = [Arm::from(&s.control), Arm::from(&s.treatment)];
    let mut h = FNV_SEED;
    let mut total = 0.0;
    let mut calls = 0;
    for i in 0..s.users_per_arm as u64 {
        let user = user_at(&pop, i, s.seed);
        for arm in arms {
            let t = Instant::now();
            let records = run_user(&user, arm, &cfg);
            total += secs(t);
            calls += 1;
            h = records_hash(h, &records);
        }
    }
    (total, h, calls)
}

/// Run the workload for `seconds` of measurement.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let doc = spec(seed, USERS).to_json().to_string();

    // Set-up, several times: its median is `setup_s`.
    let setups: Vec<f64> = (0..101)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(set_up(&doc));
            secs(t)
        })
        .collect();
    let s = set_up(&doc);
    let sim_secs = simulated_secs(&s);

    // Warm-up (untimed): also fixes the reference fingerprint.
    let (warm, _) = stream(&s);
    let reference = warm.fingerprint();
    verify(&mut out, &s, &warm, reference);
    out.notes.push(format!(
        "ab-stream fingerprint: {reference:016x} ({} users/arm, seed {seed})",
        s.users_per_arm
    ));
    drop(warm);

    let budget = Duration::from_secs(seconds);
    if !traced {
        let mut walls = Vec::new();
        crate::report::for_duration(budget, 3, |_| {
            let (run, wall) = stream(&s);
            verify(&mut out, &s, &run, reference);
            walls.push(wall);
        });
        let n = walls.len();
        let rate = |work: f64| median_rate(work, &walls);
        out.e2e("setup_s", median(&setups), "s", setups.len());
        out.e2e(
            "user_pairs_per_s",
            rate(s.users_per_arm as f64),
            "pairs/s",
            n,
        );
        out.e2e("sim_s_per_s", rate(sim_secs), "sim-s/s", n);
        out.e2e("run_s", median(&walls), "s", n);
        out.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
        return out;
    }

    let mut overhead = Vec::new();
    let mut trace_overhead = Vec::new();
    let mut run_user_ms = Vec::new();
    let mut acc_total: Vec<SiteAcc> = vec![SiteAcc::default(); trace::SITES.len()];
    let mut chunks_per_pass = 0u64;
    let mut passes = 0u64;
    let mut spans = Vec::new();
    crate::report::for_duration(budget, 1, |_| {
        let (run, w_stream) = stream(&s);
        verify(&mut out, &s, &run, reference);
        let (sum_run_user, h_lib, calls) = run_user_pass(&s);
        let (w_bare, h_bare, _) = replica_pass(&s, false);
        let ((w_traced, h_traced, chunks), acc, pass_spans) =
            trace::record(|| replica_pass(&s, true));
        spans = pass_spans;
        out.check(h_bare == h_lib && h_traced == h_lib, || {
            format!(
                "ab-stream: replica records {h_bare:016x}/{h_traced:016x} != run_user {h_lib:016x}"
            )
        });
        overhead.push(1.0 - sum_run_user / w_stream);
        trace_overhead.push(w_traced / w_bare - 1.0);
        run_user_ms.push(sum_run_user / calls as f64 * 1e3);
        trace::add_into(&mut acc_total, &acc);
        chunks_per_pass = chunks;
        passes += 1;
    });

    let a = |id: usize| acc_total[id];
    let n = passes as usize;
    out.layer("abr.select_ns", a(site::ABR_SELECT).ns_per_call(), "ns", n);
    out.layer(
        "abr.selects",
        (a(site::ABR_SELECT).calls / passes) as f64,
        "count",
        n,
    );
    let fluid = a(site::FLUID_SESSION);
    out.layer(
        "fluidsim.session_ms",
        fluid.self_ns as f64 / fluid.calls as f64 / 1e6,
        "ms",
        n,
    );
    out.layer(
        "fluidsim.ns_per_chunk",
        fluid.self_ns as f64 / (chunks_per_pass * passes) as f64,
        "ns",
        n,
    );
    out.layer("fluidsim.chunks", chunks_per_pass as f64, "count", n);
    out.layer(
        "video.title_generate_us",
        a(site::TITLE).ns_per_call() / 1e3,
        "us",
        n,
    );
    out.layer("abtest.run_user_ms", median(&run_user_ms), "ms", n);
    out.layer(
        "abtest.runner_overhead_share",
        median(&overhead),
        "ratio",
        n,
    );
    out.layer("trace_overhead_share", median(&trace_overhead), "ratio", n);
    crate::layer_breakdown(&mut out, &acc_total, n);
    crate::write_spans("ab-stream", seed, &spans);
    out
}
