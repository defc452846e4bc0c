//! End-to-end benchmark of the SparkScore engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <alg2_permutation|alg3_monte_carlo|gene_query_service> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates the cohort from `--seed`, writes it to DFS text
//! files, measures the workload for `--seconds`, checks every answer
//! against the sequential oracles, and prints as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! benchmark listener attached; with `--trace 1` they are the per-layer
//! ones from a traced run that interleaves untraced operations, so the
//! tracing overhead is measured too. See `perfbench/README.md`.

mod batch;
mod cohort;
mod pct;
mod replay;
mod report;
mod service;
mod trace;

use cohort::Shape;
use report::{result_line, Metric};

pub const WORKLOADS: [&str; 3] = ["alg2_permutation", "alg3_monte_carlo", "gene_query_service"];

/// One run's settings.
pub struct RunConfig {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub shape: Shape,
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Option<Vec<Metric>>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> RunConfig {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.iter().copied().find(|w| *w == value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    RunConfig {
        workload,
        seed,
        seconds,
        trace,
        shape: Shape::FULL,
    }
}

/// Available CPUs; the engine gets one host execution slot per CPU.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from, when the checkout is a git
/// work tree; `unknown` otherwise.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l.split(' ').next().unwrap_or("").to_string())
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".to_string()
    } else {
        hash.to_string()
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        "alg2_permutation" => batch::run(batch::Algorithm::Permutation, cfg),
        "alg3_monte_carlo" => batch::run(batch::Algorithm::MonteCarlo, cfg),
        _ => service::run(cfg),
    }
}

fn main() {
    let cfg = parse_args();
    let s = &cfg.shape;
    println!(
        "fingerprint: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"host_threads\": {}, \"commit\": \"{}\", \"patients\": {}, \"snps\": {}, \"sets\": {}, \"nodes\": {}, \"perm_b\": {}, \"mc_b\": {}, \"query_max_b\": {}}}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        nproc(),
        nproc(),
        commit(),
        s.patients,
        s.snps,
        s.sets,
        cohort::NODES,
        s.perm_b,
        s.mc_b,
        s.query_max_b
    );
    let out = run(&cfg);
    let metrics = if cfg.trace {
        out.per_layer.clone().expect("a traced run reports layers")
    } else {
        out.end_to_end.clone()
    };
    println!(
        "failed_frac: {} ({} of {} operations refused, failed or wrong)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for m in &metrics {
        println!("  {:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &'static str, trace: bool) -> Outcome {
        let cfg = RunConfig {
            workload,
            seed: 7,
            seconds: 0.2,
            trace,
            shape: Shape::TINY,
        };
        let out = run(&cfg);
        assert!(out.attempted >= 1, "{workload}: nothing attempted");
        assert_eq!(out.failed, 0, "{workload}: correctness gate failed");
        out
    }

    #[test]
    fn every_workload_passes_its_gate_at_tiny_size() {
        for w in WORKLOADS {
            let out = smoke(w, false);
            assert_eq!(out.end_to_end.len(), 6);
            assert!(
                out.end_to_end.iter().all(|m| m.value > 0.0),
                "{w}: {:?}",
                out.end_to_end
            );
        }
    }

    #[test]
    fn traced_layers_add_up_to_the_traced_wall() {
        for w in WORKLOADS {
            let layers = smoke(w, true).per_layer.expect("traced run reports layers");
            let get = |name: &str| layers.iter().find(|m| m.name == name).expect(name).value;
            let parts: f64 = [
                "core.driver_s",
                "rdd.sched_s",
                "dfs.read_s",
                "data.parse_s",
                "data.pack_s",
                "stats.qc_s",
                "stats.contrib_s",
                "stats.perturb_s",
                "rdd.shuffle_s",
                "rdd.recompute_s",
                "bench.unattributed_s",
            ]
            .iter()
            .map(|n| get(n))
            .sum();
            let wall = get("bench.traced_wall_s");
            assert!(wall > 0.0);
            // Unknown span labels would be the only other row.
            assert!(parts <= wall * (1.0 + 1e-9), "{w}: {parts} > {wall}");
            assert!(get("rdd.tasks") > 0.0, "{w}: no tasks traced");
        }
    }
}
