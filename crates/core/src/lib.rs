//! **SparkScore** — distributed genomic inference with efficient score
//! statistics, reproduced in Rust.
//!
//! This crate is the application layer of the reproduction of *"SparkScore:
//! Leveraging Apache Spark for Distributed Genomic Inference"* (IPDPSW
//! 2016): the paper's Algorithms 1 (observed SKAT statistics), 2
//! (permutation resampling), and 3 (Monte Carlo resampling with a cached
//! `U` RDD), expressed as dataset pipelines on the from-scratch
//! `sparkscore-rdd` engine over the simulated cluster/DFS substrates.
//!
//! # Quick start
//!
//! ```
//! use sparkscore_cluster::ClusterSpec;
//! use sparkscore_core::{AnalysisOptions, SparkScoreContext};
//! use sparkscore_data::{GwasDataset, SyntheticConfig};
//! use sparkscore_rdd::Engine;
//!
//! // A 6-node cluster of the paper's m3.2xlarge instances.
//! let engine = Engine::builder(ClusterSpec::m3_2xlarge(6)).build();
//! // A small synthetic cohort (paper §III recipe).
//! let data = GwasDataset::generate(&SyntheticConfig::small(42));
//! let ctx = SparkScoreContext::from_memory(engine, &data, 4, AnalysisOptions::default());
//! // 99 Monte Carlo replicates with the U RDD cached (Algorithm 3): the
//! // replicates run as a shuffle-free (replicate-tile × partition) grid,
//! // 32 replicates per grid job.
//! let run = ctx.monte_carlo(99, 7, true);
//! for (set, p) in run.top_sets(3) {
//!     println!("set {set}: p = {p:.3}");
//! }
//! ```

pub mod analysis;
pub mod model;
pub mod result;
pub mod service;

pub use analysis::{
    AnalysisOptions, CombineMethod, McGridOptions, SparkScoreContext, WeightsStrategy,
};
pub use model::{Model, Phenotype};
pub use result::{McGridRun, ObservedResult, ResamplingRun, SetScore, SnpQc, SnpResult};
pub use service::{AnalysisService, QueryError, QueryResult};
