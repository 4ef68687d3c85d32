//! `serve-mix`: the experiment service under a submit-and-poll client.
//!
//! An in-process `sammy_serve::Daemon` on loopback runs jobs with one
//! worker thread. Each timed unit submits a successive-halving search
//! (8 arms, light population) and then a streaming run (light population,
//! 20,000 users/arm, shard size 64, the daemon's checkpoint after every
//! shard) — the run queues behind the search — and waits for both
//! results. Meanwhile an open-loop generator on one thread polls job
//! status at a fixed 200/s, timing each poll from when it was *due*, and
//! reports how late it ran itself.
//!
//! The search goes through the collecting runner (`Experiment::run`) and
//! the run through the streaming one; short (~16-chunk) sessions leave
//! the shard fold, the Poisson bootstrap, checkpoint encode + fsync and
//! the journal beside HTTP, spec parsing and the store.
//!
//! Outputs are checked against the library: set-up runs both specs
//! through `abtest` directly (untimed), and every `result.json` must
//! carry the same fingerprint.

use crate::report::{
    fnv, mean, median, median_rate, peak_rss_mb, quantile, secs, Outcome, FNV_SEED,
};
use crate::trace::{self, site, SiteAcc};
use abtest::{halving_search, Candidate, Experiment, HalvingConfig, HalvingOutcome, StreamingStat};
use sammy_serve::http::http_request;
use sammy_serve::{Daemon, ServeConfig};
use spec::json::{self, Value};
use spec::{ArmPoint, ExperimentSpec, SearchSpec};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Users per arm of the streaming run.
pub const RUN_USERS: usize = 20_000;
/// Shard size of the streaming run.
pub const RUN_SHARD: usize = 64;
/// Rung-0 users per arm of the search.
pub const SEARCH_USERS: usize = 128;
/// Status polls per second.
pub const POLL_HZ: f64 = 200.0;
/// Longest a job may take before the benchmark gives up on it.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// Light population, one pre-session and one session per user, 200
/// bootstrap replicates, one worker thread.
fn light_base(name: &str, seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        name: name.into(),
        pre_sessions: 1,
        sessions_per_user: 1,
        bootstrap_reps: 200,
        light_population: true,
        seed,
        threads: 1,
        ..ExperimentSpec::default()
    }
}

/// The streaming run's spec for `seed`.
pub fn run_spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        users_per_arm: RUN_USERS,
        shard_size: RUN_SHARD,
        ..light_base("serve-mix-run", seed)
    }
}

/// The halving search's spec for `seed`: a 4 × 2 grid around the
/// production multipliers.
pub fn search_spec(seed: u64) -> SearchSpec {
    let arms = [2.0, 2.6, 3.2, 3.8]
        .iter()
        .flat_map(|&c0| [1.75, 2.8].map(|c1| ArmPoint { c0, c1 }))
        .collect();
    SearchSpec {
        name: "serve-mix-search".into(),
        arms,
        initial_users: SEARCH_USERS,
        eta: 2,
        rungs: 3,
        base: light_base("serve-mix-search", seed),
        ..SearchSpec::default()
    }
}

fn candidate_key(c: &Candidate) -> String {
    format!(
        "{:x},{:x},{:x},{:x},{:x},{:x},{}",
        c.c0.to_bits(),
        c.c1.to_bits(),
        c.tput_pct.to_bits(),
        c.vmaf_pct.to_bits(),
        c.play_delay_pct.to_bits(),
        c.rebuffer_pct.to_bits(),
        c.feasible
    )
}

/// Fingerprint of a search outcome, bit-exact in every number.
pub fn search_fingerprint(out: &HalvingOutcome) -> u64 {
    let mut h = fnv(FNV_SEED, candidate_key(&out.best).as_bytes());
    h = fnv(
        h,
        format!("{},{}", out.rungs_run, out.user_sessions).as_bytes(),
    );
    for e in &out.evaluations {
        h = fnv(
            h,
            format!("{},{},{}", e.rung, e.users, candidate_key(&e.candidate)).as_bytes(),
        );
    }
    h
}

fn candidate_from(v: &Value) -> Option<Candidate> {
    Some(Candidate {
        c0: v.get("c0")?.as_f64()?,
        c1: v.get("c1")?.as_f64()?,
        tput_pct: v.get("tput_pct")?.as_f64()?,
        vmaf_pct: v.get("vmaf_pct")?.as_f64()?,
        play_delay_pct: v.get("play_delay_pct")?.as_f64()?,
        rebuffer_pct: v.get("rebuffer_pct")?.as_f64()?,
        feasible: v.get("feasible")?.as_bool()?,
    })
}

/// The same fingerprint, read back from a search's `result.json`.
pub fn search_fingerprint_of_doc(doc: &Value) -> Option<u64> {
    let evaluations = doc
        .get("evaluations")?
        .as_arr()?
        .iter()
        .map(|e| {
            Some(abtest::Evaluation {
                rung: e.get("rung")?.as_u64()? as usize,
                users: e.get("users")?.as_u64()? as usize,
                candidate: candidate_from(e.get("candidate")?)?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(search_fingerprint(&HalvingOutcome {
        best: candidate_from(doc.get("best")?)?,
        evaluations,
        rungs_run: doc.get("rungs_run")?.as_u64()? as usize,
        user_sessions: doc.get("user_sessions")?.as_u64()?,
    }))
}

/// What one job looks like from the poller's side.
#[derive(Debug, Clone)]
struct Watch {
    path: String,
    state: String,
    running_at: Option<Instant>,
    done_at: Option<Instant>,
}

/// Jobs the poller watches, and the transitions it has seen.
#[derive(Default)]
struct Board {
    jobs: Mutex<Vec<Watch>>,
    changed: Condvar,
}

impl Board {
    fn add(&self, path: String) -> usize {
        let mut jobs = self.jobs.lock().expect("job board lock poisoned");
        jobs.push(Watch {
            path,
            state: "queued".into(),
            running_at: None,
            done_at: None,
        });
        jobs.len() - 1
    }

    /// Block until job `idx` is terminal (or the timeout passes).
    fn wait_terminal(&self, idx: usize) -> Watch {
        let deadline = Instant::now() + JOB_TIMEOUT;
        let mut jobs = self.jobs.lock().expect("job board lock poisoned");
        while jobs[idx].done_at.is_none() && Instant::now() < deadline {
            jobs = self
                .changed
                .wait_timeout(jobs, Duration::from_millis(50))
                .expect("job board lock poisoned")
                .0;
        }
        jobs[idx].clone()
    }

    /// The next path to poll: non-terminal jobs in turn, else the newest.
    fn next_target(&self, k: u64) -> Option<(usize, String)> {
        let jobs = self.jobs.lock().expect("job board lock poisoned");
        let live: Vec<usize> = (0..jobs.len())
            .filter(|&i| jobs[i].done_at.is_none())
            .collect();
        let idx = if live.is_empty() {
            jobs.len().checked_sub(1)?
        } else {
            live[(k % live.len() as u64) as usize]
        };
        Some((idx, jobs[idx].path.clone()))
    }

    fn observe(&self, idx: usize, state: &str, at: Instant) {
        let mut jobs = self.jobs.lock().expect("job board lock poisoned");
        let w = &mut jobs[idx];
        if w.state != state {
            w.state = state.to_string();
            if state == "running" && w.running_at.is_none() {
                w.running_at = Some(at);
            }
            if matches!(state, "done" | "failed" | "interrupted") {
                w.done_at = Some(at);
                if w.running_at.is_none() {
                    w.running_at = Some(at);
                }
            }
            self.changed.notify_all();
        }
    }
}

/// What the open-loop generator measured.
#[derive(Debug, Default)]
struct PollStats {
    /// Due-to-last-byte latency of each poll (ms).
    latency_ms: Vec<f64>,
    /// How late each poll started (ms).
    late_ms: Vec<f64>,
    /// Connect-to-last-byte time of each poll (ms).
    http_ms: Vec<f64>,
    attempted: u64,
    errors: u64,
}

/// The open-loop status generator: one thread, a fixed schedule, every
/// poll timed from its due time.
fn poller(addr: SocketAddr, board: Arc<Board>, stop: Arc<AtomicBool>) -> PollStats {
    let period = Duration::from_secs_f64(1.0 / POLL_HZ);
    let start = Instant::now();
    let mut stats = PollStats::default();
    for k in 0u64.. {
        let due = start + period * k as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Some((idx, path)) = board.next_target(k) else {
            continue;
        };
        let begin = Instant::now();
        let reply = http_request(addr, "GET", &path, None);
        let end = Instant::now();
        stats.attempted += 1;
        stats
            .late_ms
            .push(begin.duration_since(due).as_secs_f64() * 1e3);
        stats
            .http_ms
            .push(end.duration_since(begin).as_secs_f64() * 1e3);
        stats
            .latency_ms
            .push(end.duration_since(due).as_secs_f64() * 1e3);
        let state = match reply {
            Ok((200, body)) => json::parse(&body)
                .ok()
                .and_then(|v| v.get("state").and_then(Value::as_str).map(str::to_string)),
            _ => None,
        };
        match state {
            Some(s) => board.observe(idx, &s, end),
            None => stats.errors += 1,
        }
    }
    stats
}

/// Per-iteration timings of one search + run.
#[derive(Debug, Default, Clone)]
struct Iteration {
    wall: f64,
    search_s: f64,
    run_s: f64,
    queue_wait_s: f64,
    run_exec_s: f64,
    post_searches_ms: f64,
    post_runs_ms: f64,
    get_result_ms: Vec<f64>,
}

/// Timed HTTP exchange; counts failures.
fn exchange(
    out: &mut Outcome,
    addr: SocketAddr,
    site_id: usize,
    method: &str,
    path: &str,
    body: Option<&str>,
    expect: u16,
) -> (Option<String>, f64) {
    let t = Instant::now();
    let reply = trace::span(site_id, || http_request(addr, method, path, body));
    let ms = secs(t) * 1e3;
    out.attempted += 1;
    match reply {
        Ok((status, text)) if status == expect => (Some(text), ms),
        other => {
            out.failed += 1;
            out.notes
                .push(format!("HTTP FAILED: {method} {path}: {other:?}"));
            (None, ms)
        }
    }
}

fn job_id(text: Option<String>) -> Option<String> {
    json::parse(&text?)
        .ok()?
        .get("id")?
        .as_str()
        .map(str::to_string)
}

/// The library's answers for this seed, computed once in set-up.
struct Reference {
    run_fingerprint: String,
    search_fingerprint: u64,
}

struct Client<'a> {
    addr: SocketAddr,
    board: &'a Board,
    run_doc: String,
    search_doc: String,
    reference: &'a Reference,
}

impl Client<'_> {
    /// Submit the search and the run, wait for both, verify both results.
    fn iteration(&self, out: &mut Outcome, job: u64) -> Iteration {
        let mut it = Iteration::default();
        trace::set_job(job);
        let t0 = Instant::now();
        trace::span(site::ROOT, || {
            let (reply, ms) = exchange(
                out,
                self.addr,
                site::POST_SEARCHES,
                "POST",
                "/searches",
                Some(&self.search_doc),
                201,
            );
            it.post_searches_ms = ms;
            let search = job_id(reply).map(|id| self.board.add(format!("/searches/{id}")));
            let t1 = Instant::now();
            let (reply, ms) = exchange(
                out,
                self.addr,
                site::POST_RUNS,
                "POST",
                "/runs",
                Some(&self.run_doc),
                201,
            );
            it.post_runs_ms = ms;
            let posted_run = Instant::now();
            let run = job_id(reply).map(|id| self.board.add(format!("/runs/{id}")));

            if let Some(idx) = search {
                let w = trace::span(site::JOB_SEARCH, || self.board.wait_terminal(idx));
                let (body, ms) = exchange(
                    out,
                    self.addr,
                    site::GET_RESULT,
                    "GET",
                    &format!("{}/result", w.path),
                    None,
                    200,
                );
                it.get_result_ms.push(ms);
                let fp = trace::span(site::VERIFY, || {
                    body.and_then(|b| json::parse(&b).ok())
                        .and_then(|d| search_fingerprint_of_doc(&d))
                });
                out.check(fp == Some(self.reference.search_fingerprint), || {
                    format!("serve-mix: search result {fp:x?} != library")
                });
                it.search_s = secs(t0);
            }
            if let Some(idx) = run {
                let w = trace::span(site::JOB_RUN, || self.board.wait_terminal(idx));
                let (body, ms) = exchange(
                    out,
                    self.addr,
                    site::GET_RESULT,
                    "GET",
                    &format!("{}/result", w.path),
                    None,
                    200,
                );
                it.get_result_ms.push(ms);
                let doc = trace::span(site::VERIFY, || body.and_then(|b| json::parse(&b).ok()));
                let field = |k: &str| doc.as_ref().and_then(|d| d.get(k).cloned());
                let ok = field("fingerprint").and_then(|v| v.as_str().map(str::to_string))
                    == Some(self.reference.run_fingerprint.clone())
                    && field("users").and_then(|v| v.as_u64()) == Some(RUN_USERS as u64)
                    && field("failures").and_then(|v| v.as_u64()) == Some(0);
                out.check(ok, || {
                    "serve-mix: run result differs from the library".into()
                });
                it.run_s = secs(t1);
                if let (Some(r), Some(d)) = (w.running_at, w.done_at) {
                    it.queue_wait_s = r.saturating_duration_since(posted_run).as_secs_f64();
                    it.run_exec_s = d.duration_since(r).as_secs_f64();
                }
            }
        });
        it.wall = secs(t0);
        it
    }
}

/// Directory the workload writes under (inside the benchmark's own
/// directory).
fn scratch_dir(tag: &str) -> PathBuf {
    crate::out_dir().join(format!("{tag}-{}", std::process::id()))
}

fn start_daemon(dir: &Path) -> Daemon {
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = ServeConfig::new(dir);
    cfg.threads = Some(1);
    Daemon::start("127.0.0.1:0", cfg).expect("daemon starts")
}

/// Simulated content seconds of the streaming run.
fn run_sim_secs(s: &ExperimentSpec) -> f64 {
    let pop = abtest::population_config_from_spec(s);
    let per_user = 2.0 * (s.pre_sessions + s.sessions_per_user) as f64;
    (0..s.users_per_arm as u64)
        .map(|i| {
            abtest::user_at(&pop, i, s.seed)
                .title_duration
                .as_secs_f64()
                * per_user
        })
        .sum()
}

/// Median µs of `f` over `reps` calls.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t) * 1e6
        })
        .collect();
    median(&v)
}

/// One column of per-iteration figures.
fn column(its: &[Iteration], f: impl Fn(&Iteration) -> f64) -> Vec<f64> {
    its.iter().map(f).collect()
}

/// Run the workload for `seconds` of measurement.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let rs = run_spec(seed);
    let ss = search_spec(seed);

    // Set-up, several times: store open, recovery scan, bind.
    let setups: Vec<f64> = (0..15)
        .map(|i| {
            let dir = scratch_dir(&format!("serve-setup{i}"));
            let t = Instant::now();
            let d = start_daemon(&dir);
            let s = secs(t);
            d.stop();
            let _ = std::fs::remove_dir_all(&dir);
            s
        })
        .collect();

    // Library reference (untimed).
    let lib_run = Experiment::builder()
        .spec(&rs)
        .threads(1)
        .run_streaming()
        .expect("library run");
    let mut halving = HalvingConfig::from_spec(&ss);
    halving.base.threads = 1;
    let lib_search = halving_search(&halving).expect("library search");
    let reference = Reference {
        run_fingerprint: format!("{:016x}", lib_run.fingerprint()),
        search_fingerprint: search_fingerprint(&lib_search),
    };
    out.notes.push(format!(
        "serve-mix fingerprints: run {} search {:016x} (seed {seed})",
        reference.run_fingerprint, reference.search_fingerprint
    ));
    let sim_secs = run_sim_secs(&rs);

    let dir = scratch_dir("serve");
    let daemon = start_daemon(&dir);
    let addr = daemon.local_addr();
    let board = Arc::new(Board::default());
    let stop = Arc::new(AtomicBool::new(false));
    let client = Client {
        addr,
        board: &board,
        run_doc: rs.to_json().to_string(),
        search_doc: ss.to_json().to_string(),
        reference: &reference,
    };
    let start_generator = || {
        stop.store(false, Ordering::SeqCst);
        let (board, stop) = (Arc::clone(&board), Arc::clone(&stop));
        std::thread::spawn(move || poller(addr, board, stop))
    };

    // Warm-up iteration (untimed), with the generator running.
    let gen = start_generator();
    client.iteration(&mut out, 0);
    stop.store(true, Ordering::SeqCst);
    let warm = gen.join().expect("poller");
    out.attempted += warm.attempted;
    out.failed += warm.errors;

    // Measured window: a fresh generator, so its samples cover only it.
    // The traced run alternates untraced and traced iterations.
    let gen = start_generator();
    let mut plain: Vec<Iteration> = Vec::new();
    let mut with_trace: Vec<Iteration> = Vec::new();
    let mut acc_total: Vec<SiteAcc> = vec![SiteAcc::default(); trace::SITES.len()];
    let mut spans = Vec::new();
    let budget = Duration::from_secs(seconds);
    crate::report::for_duration(budget, if traced { 1 } else { 3 }, |i| {
        plain.push(client.iteration(&mut out, 1 + 2 * i as u64));
        if traced {
            let (it, acc, pass_spans) =
                trace::record(|| client.iteration(&mut out, 2 + 2 * i as u64));
            with_trace.push(it);
            trace::add_into(&mut acc_total, &acc);
            spans = pass_spans;
        }
    });
    stop.store(true, Ordering::SeqCst);
    let polls = gen.join().expect("poller");
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
    out.attempted += polls.attempted;
    out.failed += polls.errors;

    let n = plain.len();
    let search_s = median(&column(&plain, |i| i.search_s));
    let serve_figures = [
        ("serve.search_s", search_s, "s", n),
        (
            "serve.poll_p50_ms",
            quantile(&polls.latency_ms, 0.5),
            "ms",
            polls.latency_ms.len(),
        ),
        (
            "serve.poll_p99_ms",
            quantile(&polls.latency_ms, 0.99),
            "ms",
            polls.latency_ms.len(),
        ),
        (
            "serve.poll_samples",
            polls.latency_ms.len() as f64,
            "count",
            1,
        ),
    ];

    if !traced {
        let exec = column(&plain, |i| i.run_exec_s);
        out.e2e("setup_s", median(&setups), "s", setups.len());
        out.e2e(
            "user_pairs_per_s",
            median_rate(RUN_USERS as f64, &exec),
            "pairs/s",
            n,
        );
        out.e2e("sim_s_per_s", median_rate(sim_secs, &exec), "sim-s/s", n);
        out.e2e("run_s", median(&column(&plain, |i| i.run_s)), "s", n);
        out.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
        for (name, v, unit, samples) in serve_figures {
            out.notes.push(format!("{name} = {v} {unit} (n={samples})"));
        }
        return out;
    }

    for (name, v, unit, samples) in serve_figures {
        out.layer(name, v, unit, samples);
    }
    let all: Vec<Iteration> = plain.iter().chain(&with_trace).cloned().collect();
    let m = all.len();
    let http = [
        (
            "serve.http_ms.post_searches",
            column(&all, |i| i.post_searches_ms),
        ),
        ("serve.http_ms.post_runs", column(&all, |i| i.post_runs_ms)),
        ("serve.http_ms.get_status", polls.http_ms.clone()),
        (
            "serve.http_ms.get_result",
            all.iter().flat_map(|i| i.get_result_ms.clone()).collect(),
        ),
    ];
    for (name, ms) in http {
        out.layer(name, mean(&ms), "ms", ms.len());
    }
    out.layer(
        "serve.queue_wait_s",
        median(&column(&all, |i| i.queue_wait_s)),
        "s",
        m,
    );
    out.layer(
        "serve.poll_late_ms",
        quantile(&polls.late_ms, 0.99),
        "ms",
        polls.late_ms.len(),
    );
    out.layer("serve.http_errors", polls.errors as f64, "count", 1);

    let parse = time_us(200, || {
        std::hint::black_box(ExperimentSpec::from_json_str(&client.run_doc).expect("run spec"));
        std::hint::black_box(SearchSpec::from_json_str(&client.search_doc).expect("search spec"));
    });
    let render = time_us(200, || {
        std::hint::black_box(rs.to_json().to_string());
        std::hint::black_box(ss.to_json().to_string());
    });
    out.layer("spec.parse_us", parse / 2.0, "us", 200);
    out.layer("spec.render_us", render / 2.0, "us", 200);

    let stats = lib_run.state.metrics();
    let merge = time_us(50, || {
        for m in stats {
            let mut s = StreamingStat::new();
            s.merge(m.control());
            s.merge(m.treatment());
            std::hint::black_box(s);
        }
    });
    out.layer(
        "tdigest.merge_us",
        merge / (2 * stats.len()) as f64,
        "us",
        50,
    );
    let encode = time_us(50, || {
        let mut buf = Vec::new();
        lib_run.state.encode(&mut buf);
        std::hint::black_box(buf);
    });
    out.layer("abtest.shard_encode_us", encode, "us", 50);
    let costs: Vec<(f64, usize, f64)> = (0..2)
        .map(|_| checkpoint_cost(&mut out, &rs, &lib_run))
        .collect();
    let (_, checkpoints, bytes) = costs[0];
    out.layer("abtest.checkpoints", checkpoints as f64, "count", 1);
    out.layer("abtest.checkpoint_bytes", bytes, "bytes", 1);
    out.layer(
        "abtest.checkpoint_ms",
        median(&costs.iter().map(|c| c.0).collect::<Vec<_>>()),
        "ms",
        costs.len(),
    );

    let overhead =
        median(&column(&with_trace, |i| i.wall)) / median(&column(&plain, |i| i.wall)) - 1.0;
    out.layer("trace_overhead_share", overhead, "ratio", m);
    crate::layer_breakdown(&mut out, &acc_total, with_trace.len());
    crate::write_spans("serve-mix", seed, &spans);
    out
}

/// Checkpoint cost from outside: the run spec through the library with
/// and without a checkpoint directory (checkpoint after every shard, as
/// the daemon does). Returns (ms per checkpoint, checkpoints written,
/// mean checkpoint file bytes).
fn checkpoint_cost(
    out: &mut Outcome,
    rs: &ExperimentSpec,
    reference: &abtest::StreamRun,
) -> (f64, usize, f64) {
    let dir = scratch_dir("ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let bare = Experiment::builder()
        .spec(rs)
        .threads(1)
        .run_streaming()
        .expect("run");
    let w_bare = secs(t);
    let t = Instant::now();
    let with = Experiment::builder()
        .spec(rs)
        .threads(1)
        .checkpoint_dir(&dir)
        .checkpoint_every(1)
        .run_streaming()
        .expect("checkpointed run");
    let w_with = secs(t);
    for run in [&bare, &with] {
        out.check(run.fingerprint() == reference.fingerprint(), || {
            "serve-mix: library run differs from its reference".into()
        });
    }
    let sizes: Vec<f64> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".bin"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() as f64)
                .collect()
        })
        .unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    let n = with.checkpoints_written;
    ((w_with - w_bare) * 1e3 / n.max(1) as f64, n, mean(&sizes))
}
