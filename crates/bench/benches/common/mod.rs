#![allow(dead_code)] // not every figure bench uses every helper
//! Shared helpers for the figure benches. Workloads are miniature versions
//! of the paper's; each bench reports *virtual cluster seconds* through
//! `iter_custom`, so Criterion's output is in the same units as the
//! paper's y-axes.

use std::sync::Arc;
use std::time::Duration;

use sparkscore_bench::{paper_monte_carlo, virtual_duration};
use sparkscore_core::SparkScoreContext;
use sparkscore_data::SyntheticConfig;
use sparkscore_rdd::Engine;

/// A miniature workload: `snps` SNPs, 100 patients, `snps/20` sets.
pub fn mini_config(snps: usize, seed: u64) -> SyntheticConfig {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.patients = 100;
    cfg.snps = snps;
    cfg.snp_sets = (snps / 20).max(1);
    cfg
}

pub fn context(engine: Arc<Engine>, cfg: &SyntheticConfig) -> SparkScoreContext {
    sparkscore_bench::context_on(engine, cfg)
}

/// Measure `n` Monte Carlo runs (the paper harness's one-job-per-replicate
/// grid) in virtual time.
pub fn mc_virtual(ctx: &SparkScoreContext, b: usize, cache: bool, n: u64) -> Duration {
    let mut total = Duration::ZERO;
    for i in 0..n {
        total += virtual_duration(paper_monte_carlo(ctx, b, 100 + i, cache).virtual_secs);
    }
    total
}

/// Measure `n` permutation runs in virtual time.
pub fn perm_virtual(ctx: &SparkScoreContext, b: usize, n: u64) -> Duration {
    let mut total = Duration::ZERO;
    for i in 0..n {
        total += virtual_duration(ctx.permutation(b, 200 + i).virtual_secs);
    }
    total
}
