//! Benchmark entry point.
//!
//! ```text
//! sammy-e2e-bench --workload <ab-stream|lab-packet|serve-mix|all>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the machine facts, each workload's metrics by name with unit
//! and sample count, and — as the last line — one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. `all` runs every workload in this one process and prefixes each
//! metric with its workload.

use sammy_e2e_bench::report::{box_facts, Metric};
use sammy_e2e_bench::{run_workload, END_TO_END, PER_LAYER, WORKER_THREADS, WORKLOADS};

fn usage() -> ! {
    eprintln!(
        "usage: sammy-e2e-bench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn json_num(v: f64) -> String {
    // `{}` on f64 prints the shortest string that round-trips: every digit.
    format!("{v}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = flag("--workload").unwrap_or_else(|| usage());
    let seed: u64 = flag("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: u64 = flag("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or_else(|| usage());
    let traced = match flag("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => usage(),
    };
    let names: Vec<&str> = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        _ => usage(),
    };

    println!(
        "# sammy-e2e-bench workload={workload} seed={seed} seconds={seconds} trace={}",
        traced as u8
    );
    for fact in box_facts(WORKER_THREADS) {
        println!("# {fact}");
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut metrics: Vec<(String, Metric)> = Vec::new();
    for name in &names {
        let mut out = run_workload(name, seed, seconds, traced).expect("known workload");
        let expected: &'static [(&'static str, &'static str)] =
            if traced { PER_LAYER } else { &END_TO_END };
        let reported = if traced {
            std::mem::take(&mut out.per_layer)
        } else {
            std::mem::take(&mut out.end_to_end)
        };
        for &(metric, unit) in expected {
            let m = reported.iter().find(|m| m.name == metric).cloned();
            let m = m.unwrap_or(Metric {
                name: metric.to_string(),
                value: 0.0,
                unit,
                samples: 0,
            });
            out.check(m.value.is_finite(), || {
                format!("{name}: {metric} is not finite")
            });
            metrics.push((name.to_string(), m));
        }
        for note in &out.notes {
            println!("[{name}] {note}");
        }
        let share = out.failed as f64 / out.attempted.max(1) as f64;
        for (_, m) in metrics.iter().filter(|(w, _)| w == name) {
            println!(
                "[{name}] {} = {} {} (n={})",
                m.name,
                json_num(m.value),
                m.unit,
                m.samples
            );
        }
        println!(
            "[{name}] failed_share = {} ratio (failed {} of {} attempted)",
            json_num(share),
            out.failed,
            out.attempted
        );
        attempted += out.attempted;
        failed += out.failed;
    }

    let fields: Vec<String> = metrics
        .iter()
        .map(|(w, m)| {
            let key = if names.len() > 1 {
                format!("{w}.{}", m.name)
            } else {
                m.name.clone()
            };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        fields.join(", ")
    );
}
