//! Result plumbing shared by the workloads: metrics, counts, the
//! order statistics they are reported with, and the machine facts every
//! result carries.

use std::time::{Duration, Instant};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for counts and single measurements).
    pub samples: usize,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: user pairs, cells, HTTP requests, output
    /// checks.
    pub attempted: u64,
    /// Of those, failed: failed pairs, incomplete cells, non-2xx or
    /// broken HTTP exchanges, output-check mismatches.
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the result (fingerprints,
    /// workload-specific figures).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Add a metric to the end-to-end list.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Add a metric to the per-layer list.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Count one checked operation; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median rate of `work` per wall time over `walls` (seconds).
pub fn median_rate(work: f64, walls: &[f64]) -> f64 {
    median(&walls.iter().map(|w| work / w).collect::<Vec<_>>())
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Call `iteration` until `budget` has elapsed, at least `min` times.
pub fn for_duration(budget: Duration, min: usize, mut iteration: impl FnMut(usize)) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        iteration(n);
        n += 1;
    }
}

/// Peak resident set of this process in MB (`VmHWM`), NaN if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a over `bytes`, folded into `h` (start from [`FNV_SEED`]).
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// The commit the benchmark was built from, read from the repository's
/// own `.git` (a checkout without one reports `unknown`; no parent
/// directory is searched).
fn git_sha() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()?
        .join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// Facts about the machine and build that let later comparisons tell a
/// code change from machine drift.
pub fn box_facts(threads: usize) -> Vec<String> {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        format!("git_sha: {}", git_sha().unwrap_or_else(|| "unknown".into())),
        format!("nproc: {nproc}"),
        format!("rustc: {rustc}"),
        format!("worker_threads: {threads}"),
    ]
}
