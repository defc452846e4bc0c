//! End-to-end fault tolerance: injected faults (node death, cache loss,
//! shuffle loss) during a full SparkScore analysis must not change any
//! statistical result — only the engine's recovery counters.

use std::sync::Arc;

use sparkscore_cluster::{ClusterSpec, FaultPlan, NodeId};
use sparkscore_core::{AnalysisOptions, ResamplingRun, SparkScoreContext};
use sparkscore_data::{write_dataset_to_dfs, GwasDataset, SyntheticConfig};
use sparkscore_rdd::Engine;

fn dataset(seed: u64) -> GwasDataset {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.patients = 30;
    cfg.snps = 100;
    cfg.snp_sets = 6;
    GwasDataset::generate(&cfg)
}

fn engine(nodes: u32) -> Arc<Engine> {
    Engine::builder(ClusterSpec::test_small(nodes))
        .host_threads(2)
        .dfs_block_size(2048)
        .dfs_replication(2)
        .build()
}

/// The fault-free run of `analyse` on a 3-node cluster.
fn clean_run(
    ds: &GwasDataset,
    analyse: impl Fn(&SparkScoreContext) -> ResamplingRun,
) -> ResamplingRun {
    analyse(&SparkScoreContext::from_memory(
        engine(3),
        ds,
        4,
        AnalysisOptions::default(),
    ))
}

fn baseline_counts(ds: &GwasDataset) -> (Vec<f64>, Vec<usize>) {
    let run = clean_run(ds, |ctx| ctx.monte_carlo(15, 42, true));
    (
        run.observed.iter().map(|s| s.score).collect(),
        run.counts_ge,
    )
}

fn assert_matches_baseline(run: &ResamplingRun, scores: &[f64], counts: &[usize]) {
    for (got, want) in run.observed.iter().zip(scores) {
        assert!(
            (got.score - want).abs() <= 1e-9 * (1.0 + want.abs()),
            "observed statistic changed under faults: {} vs {want}",
            got.score
        );
    }
    assert_eq!(
        run.counts_ge, counts,
        "resampling counters changed under faults"
    );
}

#[test]
fn node_death_mid_analysis_preserves_results() {
    let ds = dataset(1);
    let clean = clean_run(&ds, |ctx| ctx.monte_carlo(15, 42, true));
    let scores: Vec<f64> = clean.observed.iter().map(|s| s.score).collect();

    // Kill halfway through the clean run's tasks, so the node dies with
    // part of the cached `U` on it and the remaining jobs still to run.
    let e = engine(3);
    e.set_fault_plan(FaultPlan::kill_node_after(
        NodeId(1),
        clean.metrics.tasks / 2,
    ));
    let ctx = SparkScoreContext::from_memory(Arc::clone(&e), &ds, 4, AnalysisOptions::default());
    let run = ctx.monte_carlo(15, 42, true);
    assert_matches_baseline(&run, &scores, &clean.counts_ge);
    assert!(
        !e.cluster().node(NodeId(1)).is_alive(),
        "the kill must have fired"
    );
}

#[test]
fn node_death_with_dfs_inputs_recovers_from_replicas() {
    let ds = dataset(2);
    let e = engine(3);
    let (paths, _) = write_dataset_to_dfs(e.dfs(), "/gwas", &ds).unwrap();
    let ctx =
        SparkScoreContext::from_dfs(Arc::clone(&e), &paths, AnalysisOptions::default()).unwrap();
    let clean = ctx.monte_carlo(10, 7, true);

    let e2 = engine(3);
    write_dataset_to_dfs(e2.dfs(), "/gwas", &ds).unwrap();
    e2.set_fault_plan(FaultPlan::kill_node_after(NodeId(0), 30));
    let ctx2 =
        SparkScoreContext::from_dfs(Arc::clone(&e2), &paths, AnalysisOptions::default()).unwrap();
    let faulty = ctx2.monte_carlo(10, 7, true);

    assert_eq!(clean.counts_ge, faulty.counts_ge);
    for (a, b) in clean.observed.iter().zip(&faulty.observed) {
        assert!((a.score - b.score).abs() <= 1e-9 * (1.0 + b.score.abs()));
    }
}

#[test]
fn periodic_cache_loss_forces_recompute_but_not_errors() {
    let ds = dataset(3);
    let (scores, counts) = baseline_counts(&ds);

    let e = engine(3);
    e.set_fault_plan(FaultPlan::none().with_cached_block_loss_every(10));
    let ctx = SparkScoreContext::from_memory(Arc::clone(&e), &ds, 4, AnalysisOptions::default());
    let run = ctx.monte_carlo(15, 42, true);
    assert_matches_baseline(&run, &scores, &counts);
    assert!(
        run.metrics.recomputed_partitions > 0,
        "cache loss must force lineage recomputation: {:?}",
        run.metrics
    );
}

#[test]
fn periodic_shuffle_loss_reruns_map_tasks() {
    // Permutation re-runs the joining, reducing score pipeline per
    // replicate, so it is the resampling path with shuffles to lose (the
    // Monte Carlo grid has none).
    let ds = dataset(4);
    let clean = clean_run(&ds, |ctx| ctx.permutation(15, 42));
    let scores: Vec<f64> = clean.observed.iter().map(|s| s.score).collect();

    let e = engine(3);
    e.set_fault_plan(FaultPlan::none().with_shuffle_loss_every(7));
    let ctx = SparkScoreContext::from_memory(Arc::clone(&e), &ds, 4, AnalysisOptions::default());
    let run = ctx.permutation(15, 42);
    assert_matches_baseline(&run, &scores, &clean.counts_ge);
    assert!(
        run.metrics.shuffle_map_reruns > 0,
        "shuffle loss must force map re-runs: {:?}",
        run.metrics
    );
}

#[test]
fn combined_faults_still_converge() {
    let ds = dataset(5);
    let (scores, counts) = baseline_counts(&ds);

    let e = engine(4);
    e.set_fault_plan(
        FaultPlan::kill_node_after(NodeId(2), 40)
            .with_cached_block_loss_every(9)
            .with_shuffle_loss_every(11),
    );
    let ctx = SparkScoreContext::from_memory(Arc::clone(&e), &ds, 6, AnalysisOptions::default());
    let run = ctx.monte_carlo(15, 42, true);
    assert_matches_baseline(&run, &scores, &counts);
}
