//! Ablation benches for the design choices called out in DESIGN.md (all
//! in virtual cluster time):
//!
//! * weights delivery — the paper's shuffle **join** (Algorithm 1 step 9)
//!   vs a broadcast weight table (removes two shuffle stages per scoring
//!   pass), timed on the observed pass — the Monte Carlo grid reads
//!   weights on the driver and never joins;
//! * `U` RDD **caching** on vs off (the Algorithm 3 design choice);
//! * DFS **block size** — input-partition granularity vs scheduling
//!   overhead for the observed pass.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparkscore_bench::virtual_duration;
use sparkscore_cluster::ClusterSpec;
use sparkscore_core::{AnalysisOptions, SparkScoreContext, WeightsStrategy};
use sparkscore_data::{write_dataset_to_dfs, GwasDataset};
use sparkscore_rdd::Engine;

fn weights_delivery(c: &mut Criterion) {
    let cfg = common::mini_config(400, 21);
    let mut group = c.benchmark_group("ablation_weights_delivery");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(1500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (label, strategy) in [
        ("join_paper", WeightsStrategy::Join),
        ("broadcast", WeightsStrategy::Broadcast),
    ] {
        let engine = Engine::builder(ClusterSpec::m3_2xlarge(6))
            .dfs_block_size(32 * 1024)
            .build();
        let dataset = GwasDataset::generate(&cfg);
        let (paths, _) = write_dataset_to_dfs(engine.dfs(), "/bench", &dataset).unwrap();
        let ctx = SparkScoreContext::from_dfs(
            engine,
            &paths,
            AnalysisOptions {
                weights_strategy: strategy,
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        group.bench_function(BenchmarkId::new("observed_pass", label), |bench| {
            bench.iter_custom(|n| {
                let mut total = std::time::Duration::ZERO;
                for _ in 0..n {
                    total += virtual_duration(ctx.observed().virtual_secs);
                }
                total
            });
        });
    }
    group.finish();
}

fn u_rdd_caching(c: &mut Criterion) {
    let cfg = common::mini_config(400, 22);
    let engine = sparkscore_bench::paper_engine(6, &cfg);
    let ctx = common::context(engine, &cfg);
    let mut group = c.benchmark_group("ablation_u_caching");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(1500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (label, cache) in [("cached", true), ("uncached", false)] {
        group.bench_function(BenchmarkId::new("mc_b20", label), |bench| {
            bench.iter_custom(|n| common::mc_virtual(&ctx, 20, cache, n));
        });
    }
    group.finish();
}

fn dfs_block_size(c: &mut Criterion) {
    let cfg = common::mini_config(800, 23);
    let mut group = c.benchmark_group("ablation_dfs_block_size");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(1500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for block_kib in [16usize, 64, 512] {
        let engine = Engine::builder(ClusterSpec::m3_2xlarge(6))
            .dfs_block_size(block_kib * 1024)
            .build();
        let dataset = GwasDataset::generate(&cfg);
        let (paths, _) = write_dataset_to_dfs(engine.dfs(), "/bench", &dataset).unwrap();
        let ctx = SparkScoreContext::from_dfs(engine, &paths, AnalysisOptions::default()).unwrap();
        group.bench_with_input(
            BenchmarkId::new("observed_pass", block_kib),
            &block_kib,
            |bench, _| {
                bench.iter_custom(|n| {
                    let mut total = std::time::Duration::ZERO;
                    for _ in 0..n {
                        total += virtual_duration(ctx.observed().virtual_secs);
                    }
                    total
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, weights_delivery, u_rdd_caching, dfs_block_size);
criterion_main!(benches);
