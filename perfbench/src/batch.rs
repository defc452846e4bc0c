//! The batch workloads: one analysis is DFS text → QC → resampling →
//! p-values, by Algorithm 2 (permutation) or Algorithm 3 (Monte Carlo
//! over the cached `U`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparkscore_core::{ResamplingRun, SnpQc};
use sparkscore_rdd::{Engine, EventListener};
use sparkscore_stats::qc::{check_snp, QcThresholds};
use sparkscore_stats::resample::{monte_carlo_blocked, permutation, MC_TILE};

use crate::cohort::{self, OracleInputs};
use crate::pct::{median, Summary};
use crate::replay::Replay;
use crate::report::{end_to_end, layer_metrics, layer_table, TracedTotals};
use crate::trace::{Collector, FileIndex};
use crate::{peak_rss_mb, Outcome, RunConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 2: every replicate re-runs the whole pipeline.
    Permutation,
    /// Algorithm 3: replicates perturb the cached `U`.
    MonteCarlo,
}

/// One timed analysis and what it answered.
struct Analysis {
    wall_s: f64,
    virtual_s: f64,
    run: ResamplingRun,
    qc: Vec<SnpQc>,
}

fn analyse(
    engine: &Arc<Engine>,
    paths: &sparkscore_data::DatasetPaths,
    algo: Algorithm,
    b: usize,
    seed: u64,
) -> Analysis {
    let v0 = engine.virtual_time_secs();
    let t0 = Instant::now();
    let ctx = cohort::context(engine, paths);
    let qc = ctx.qc(QcThresholds::default());
    let run = match algo {
        Algorithm::Permutation => ctx.permutation(b, seed),
        Algorithm::MonteCarlo => ctx.monte_carlo(b, seed, true),
    };
    black_box(run.pvalues());
    Analysis {
        wall_s: t0.elapsed().as_secs_f64(),
        virtual_s: engine.virtual_time_secs() - v0,
        run,
        qc,
    }
}

pub fn run(algo: Algorithm, cfg: &RunConfig) -> Outcome {
    let shape = &cfg.shape;
    let b = match algo {
        Algorithm::Permutation => shape.perm_b,
        Algorithm::MonteCarlo => shape.mc_b,
    };
    // The resampling seed is part of the input: every analysis in a run
    // answers the same question, so one oracle checks them all.
    let resample_seed = cfg.seed ^ 0x5eed;
    let ((engine, paths), setup_times) = cohort::timed_setups(shape.setup_reps, || {
        let engine = cohort::engine(shape, &[]);
        let paths = cohort::write_cohort(&engine, shape, cfg.seed);
        drop(cohort::context(&engine, &paths));
        (engine, paths)
    });
    println!(
        "setup: {} reps, median {:.4} s ({:?})",
        setup_times.len(),
        median(&setup_times),
        setup_times
    );

    // One untimed analysis first, so allocator and page-cache warm-up is
    // not charged to the first timed one. It is checked like the others.
    let warmup = analyse(&engine, &paths, algo, b, resample_seed);
    let collector = Arc::new(Collector::default());
    let mut analyses = Vec::new();
    let mut traced = TracedTotals::default();
    let mut untraced_walls = Vec::new();
    let files = FileIndex::of_cohort(&engine, &paths);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    // At least one analysis, and with tracing one of each kind.
    while analyses.is_empty() || Instant::now() < deadline || (cfg.trace && traced.ops == 0) {
        let trace_this = cfg.trace && analyses.len() % 2 == 1;
        if trace_this {
            engine
                .events()
                .register(Arc::clone(&collector) as Arc<dyn EventListener>);
        }
        let m0 = engine.metrics_snapshot();
        let w0 = engine.mono_ns();
        let a = analyse(&engine, &paths, algo, b, resample_seed);
        let w1 = engine.mono_ns();
        if trace_this {
            engine.events().clear();
            let counters = engine.metrics_snapshot().delta_since(&m0);
            traced.add_window(&collector.take(), (w0, w1), &files, &counters, 1);
        } else {
            untraced_walls.push(a.wall_s);
        }
        analyses.push(a);
    }

    // Read before the oracles allocate their own copy of the cohort.
    let peak_rss = peak_rss_mb();

    // Correctness gate against the sequential oracles.
    let oracle_inputs = OracleInputs::read(&engine, &paths);
    let model = cohort::context(&engine, &paths).model().clone();
    let oracle = match algo {
        Algorithm::Permutation => permutation(
            &model,
            |p| model.permuted(p),
            &oracle_inputs.rows,
            &oracle_inputs.weights,
            &oracle_inputs.sets,
            b,
            resample_seed,
        ),
        Algorithm::MonteCarlo => monte_carlo_blocked(
            &model,
            &oracle_inputs.rows,
            &oracle_inputs.weights,
            &oracle_inputs.sets,
            b,
            resample_seed,
            MC_TILE,
        ),
    };
    let thresholds = QcThresholds::default();
    let qc_oracle: Vec<_> = oracle_inputs
        .union
        .iter()
        .map(|&snp| {
            (
                snp,
                check_snp(&oracle_inputs.rows[snp as usize], &thresholds),
            )
        })
        .collect();
    let mut failed = 0u64;
    for (i, a) in std::iter::once(&warmup).chain(&analyses).enumerate() {
        let mut why = Vec::new();
        if a.run.counts_ge != oracle.counts_ge {
            why.push("counts_ge differ from the sequential oracle");
        }
        let scores_ok = a.run.observed.len() == oracle.observed.len()
            && a.run
                .observed
                .iter()
                .zip(&oracle.observed)
                .all(|(s, &o)| (s.score - o).abs() <= 1e-9 * (1.0 + o.abs()));
        if !scores_ok {
            why.push("observed set scores differ from the oracle");
        }
        let qc_ok = a.qc.len() == qc_oracle.len()
            && a.qc
                .iter()
                .zip(&qc_oracle)
                .all(|(q, (snp, v))| q.snp == *snp && &q.verdict == v);
        if !qc_ok {
            why.push("QC verdicts differ from the byte oracle");
        }
        if !why.is_empty() {
            failed += 1;
            println!("analysis {i} FAILED: {}", why.join("; "));
        }
    }
    let attempted = analyses.len() as u64 + 1;
    println!(
        "correctness: {} of {attempted} analyses (one of them the warm-up) match the sequential oracle (B={b}, resampling seed {resample_seed})",
        attempted - failed,
    );

    let measured: Vec<&Analysis> = analyses
        .iter()
        .enumerate()
        .filter(|(i, _)| !cfg.trace || i % 2 == 0)
        .map(|(_, a)| a)
        .collect();
    let walls_ms: Vec<f64> = measured.iter().map(|a| a.wall_s * 1e3).collect();
    let total_s: f64 = measured.iter().map(|a| a.wall_s).sum();
    let lat = Summary::of(&walls_ms);
    println!("analysis walls (ms): {walls_ms:.1?}");
    println!(
        "analysis wall: p50 {:.3} ms, tail {:.3} ms at {}",
        lat.p50,
        lat.tail,
        lat.tail_label()
    );
    let e2e = end_to_end(
        median(&setup_times),
        &lat,
        measured.len() as f64 / total_s,
        median(&measured.iter().map(|a| a.virtual_s).collect::<Vec<_>>()),
        peak_rss,
    );

    let layers = cfg.trace.then(|| {
        traced.untraced_wall_per_op_s =
            untraced_walls.iter().sum::<f64>() / untraced_walls.len().max(1) as f64;
        let replay = Replay::measure(&engine, &paths, shape.patients, &oracle_inputs.union);
        print!("{}", layer_table(cfg.workload, &traced, &replay));
        layer_metrics(&traced, &replay)
    });
    Outcome {
        attempted,
        failed,
        end_to_end: e2e,
        per_layer: layers,
    }
}
