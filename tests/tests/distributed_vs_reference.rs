//! The distributed pipelines must reproduce the sequential reference
//! implementations exactly (same seeds → same replicate sequences → same
//! counters), from both in-memory and DFS-text inputs, over disjoint and
//! overlapping SNP-set layouts.

use std::sync::Arc;

use sparkscore_cluster::ClusterSpec;
use sparkscore_core::{AnalysisOptions, SparkScoreContext};
use sparkscore_data::{write_dataset_to_dfs, GwasDataset, SyntheticConfig, WeightScheme};
use sparkscore_rdd::Engine;
use sparkscore_stats::resample::{self, MC_TILE};
use sparkscore_stats::score::CoxScore;

fn engine(nodes: u32) -> Arc<Engine> {
    Engine::builder(ClusterSpec::test_small(nodes))
        .host_threads(4)
        .dfs_block_size(4096)
        .build()
}

fn dataset(seed: u64) -> GwasDataset {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.patients = 40;
    cfg.snps = 120;
    cfg.snp_sets = 8;
    cfg.weights = WeightScheme::skat_default();
    GwasDataset::generate(&cfg)
}

/// The cohort of `seed` twice: with its disjoint sets, and with set 0
/// also holding every member of set 1, so the two sets share SNPs as
/// overlapping gene annotations do.
fn layouts(seed: u64) -> [GwasDataset; 2] {
    let disjoint = dataset(seed);
    let mut overlapping = disjoint.clone();
    let shared = overlapping.sets[1].members.clone();
    overlapping.sets[0].members.extend(shared);
    [disjoint, overlapping]
}

fn assert_scores_close(distributed: &[sparkscore_core::SetScore], reference: &[f64]) {
    assert_eq!(distributed.len(), reference.len());
    for (d, &r) in distributed.iter().zip(reference) {
        assert!(
            (d.score - r).abs() <= 1e-9 * (1.0 + r.abs()),
            "set {}: distributed {} vs reference {}",
            d.set,
            d.score,
            r
        );
    }
}

#[test]
fn observed_skat_matches_reference_from_memory() {
    for ds in layouts(21) {
        let ctx = SparkScoreContext::from_memory(engine(3), &ds, 5, AnalysisOptions::default());
        let obs = ctx.observed();
        let model = CoxScore::new(&ds.phenotypes);
        let reference = resample::observed_skat(&model, &ds.genotype_rows(), &ds.weights, &ds.sets);
        assert_scores_close(&obs.scores, &reference);
    }
}

#[test]
fn observed_skat_matches_reference_from_dfs_text() {
    for ds in layouts(22) {
        let e = engine(3);
        let (paths, _) = write_dataset_to_dfs(e.dfs(), "/gwas", &ds).unwrap();
        let ctx = SparkScoreContext::from_dfs(Arc::clone(&e), &paths, AnalysisOptions::default())
            .expect("inputs exist");
        let obs = ctx.observed();
        let model = CoxScore::new(&ds.phenotypes);
        let reference = resample::observed_skat(&model, &ds.genotype_rows(), &ds.weights, &ds.sets);
        // Text serialization rounds survival times to 1e-6; tolerance
        // reflects that, scaled by the squared-score magnitudes.
        for (d, &r) in obs.scores.iter().zip(&reference) {
            assert!(
                (d.score - r).abs() <= 1e-3 * (1.0 + r.abs()),
                "set {}: {} vs {}",
                d.set,
                d.score,
                r
            );
        }
    }
}

#[test]
fn monte_carlo_counts_match_reference_exactly() {
    for ds in layouts(23) {
        let ctx = SparkScoreContext::from_memory(engine(2), &ds, 4, AnalysisOptions::default());
        let run = ctx.monte_carlo(50, 99, true);
        let model = CoxScore::new(&ds.phenotypes);
        let reference = resample::monte_carlo_blocked(
            &model,
            &ds.genotype_rows(),
            &ds.weights,
            &ds.sets,
            50,
            99,
            MC_TILE,
        );
        assert_scores_close(&run.observed, &reference.observed);
        assert_eq!(run.counts_ge, reference.counts_ge);
        assert_eq!(run.pvalues(), reference.pvalues());
    }
}

#[test]
fn monte_carlo_without_cache_matches_too() {
    for ds in layouts(29) {
        let ctx = SparkScoreContext::from_memory(engine(2), &ds, 4, AnalysisOptions::default());
        let run = ctx.monte_carlo(25, 7, false);
        let model = CoxScore::new(&ds.phenotypes);
        let reference = resample::monte_carlo_blocked(
            &model,
            &ds.genotype_rows(),
            &ds.weights,
            &ds.sets,
            25,
            7,
            MC_TILE,
        );
        assert_eq!(run.counts_ge, reference.counts_ge);
    }
}

#[test]
fn permutation_counts_match_reference_exactly() {
    for ds in layouts(31) {
        let ctx = SparkScoreContext::from_memory(engine(2), &ds, 4, AnalysisOptions::default());
        let run = ctx.permutation(30, 5);
        let model = CoxScore::new(&ds.phenotypes);
        let reference = resample::permutation(
            &model,
            |p| model.permuted(p),
            &ds.genotype_rows(),
            &ds.weights,
            &ds.sets,
            30,
            5,
        );
        assert_scores_close(&run.observed, &reference.observed);
        assert_eq!(run.counts_ge, reference.counts_ge);
    }
}

#[test]
fn dfs_and_memory_paths_agree() {
    let ds = dataset(37);
    let e = engine(3);
    let (paths, _) = write_dataset_to_dfs(e.dfs(), "/gwas2", &ds).unwrap();
    let from_dfs = SparkScoreContext::from_dfs(Arc::clone(&e), &paths, AnalysisOptions::default())
        .unwrap()
        .observed();
    let from_mem =
        SparkScoreContext::from_memory(engine(3), &ds, 4, AnalysisOptions::default()).observed();
    for (a, b) in from_dfs.scores.iter().zip(&from_mem.scores) {
        assert_eq!(a.set, b.set);
        assert!(
            (a.score - b.score).abs() <= 1e-3 * (1.0 + b.score.abs()),
            "set {}: dfs {} vs mem {}",
            a.set,
            a.score,
            b.score
        );
    }
}

#[test]
fn results_insensitive_to_cluster_shape_and_partitioning() {
    let ds = dataset(41);
    let base = SparkScoreContext::from_memory(engine(1), &ds, 1, AnalysisOptions::default())
        .monte_carlo(20, 13, true);
    for (nodes, parts, reduce) in [(2u32, 3usize, 2usize), (4, 8, 5), (3, 13, 1)] {
        let ctx = SparkScoreContext::from_memory(
            engine(nodes),
            &ds,
            parts,
            AnalysisOptions {
                reduce_partitions: reduce,
                ..AnalysisOptions::default()
            },
        );
        let run = ctx.monte_carlo(20, 13, true);
        assert_eq!(
            run.counts_ge, base.counts_ge,
            "{nodes} nodes / {parts} partitions / {reduce} reducers changed the counts"
        );
        for (a, b) in run.observed.iter().zip(&base.observed) {
            assert!((a.score - b.score).abs() <= 1e-9 * (1.0 + b.score.abs()));
        }
    }
}
