//! Workload inputs: the cohort generated from the seed, written to DFS
//! text files, and the same files parsed back for the sequential oracles.

use std::sync::Arc;
use std::time::Instant;

use sparkscore_cluster::ClusterSpec;
use sparkscore_core::{AnalysisOptions, SparkScoreContext};
use sparkscore_data::io::{parse_genotype_line, parse_set_line, parse_weight_line};
use sparkscore_data::{write_dataset_to_dfs, DatasetPaths, GwasDataset, SyntheticConfig};
use sparkscore_rdd::{Engine, EventListener};
use sparkscore_stats::skat::SnpSet;

/// Sizes of one benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Patients `n` (the paper's 1000).
    pub patients: usize,
    /// SNPs `m`.
    pub snps: usize,
    /// SNP-sets (genes) `K`.
    pub sets: usize,
    /// Algorithm 2 replicates per analysis.
    pub perm_b: usize,
    /// Algorithm 3 replicates per analysis.
    pub mc_b: usize,
    /// Replicate budget of an adaptive gene query.
    pub query_max_b: usize,
    /// Queries a service run completes at least, whatever the duration.
    pub min_queries: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Shape {
    /// The benchmark's cohort: n=1000 patients, m=2000 SNPs, K=40 sets.
    pub const FULL: Shape = Shape {
        patients: 1000,
        snps: 2000,
        sets: 40,
        perm_b: 100,
        mc_b: 400,
        query_max_b: 1000,
        min_queries: 1000,
        setup_reps: 11,
    };

    /// A cohort small enough for the smoke tests.
    #[cfg(test)]
    pub const TINY: Shape = Shape {
        patients: 60,
        snps: 120,
        sets: 6,
        perm_b: 8,
        mc_b: 40,
        query_max_b: 96,
        min_queries: 24,
        setup_reps: 1,
    };

    /// DFS block size cutting the genotype text into ~16 blocks, the
    /// partition regime of the paper's HDFS layout.
    fn block_size(&self) -> usize {
        let text_bytes = self.snps * (2 * self.patients + 8);
        (text_bytes / 16).max(4 * 1024)
    }
}

/// Simulated m3.2xlarge nodes.
pub const NODES: u32 = 4;

/// Engine on a simulated cluster of [`NODES`] m3.2xlarge instances, with
/// one host execution slot per available CPU.
pub fn engine(shape: &Shape, listeners: &[Arc<dyn EventListener>]) -> Arc<Engine> {
    let mut builder = Engine::builder(ClusterSpec::m3_2xlarge(NODES))
        .host_threads(crate::nproc())
        .dfs_block_size(shape.block_size());
    for l in listeners {
        builder = builder.listener(Arc::clone(l));
    }
    builder.build()
}

/// Generate the cohort for `seed` and write its four text files to the
/// engine's DFS.
pub fn write_cohort(engine: &Engine, shape: &Shape, seed: u64) -> DatasetPaths {
    let mut config = SyntheticConfig::small(seed);
    config.patients = shape.patients;
    config.snps = shape.snps;
    config.snp_sets = shape.sets;
    let mut dataset = GwasDataset::generate(&config);
    // Every fifth gene carries a real association, so gene queries mix
    // genes the stopping rule settles in a tile or two with genes that use
    // the whole replicate budget, in the same proportion for every seed.
    // The planted genes are taken at even steps through the genes sorted
    // by size, so the work of the full-budget queries is about the same
    // for every seed too.
    let mut by_size: Vec<&SnpSet> = dataset.sets.iter().collect();
    by_size.sort_by_key(|s| (s.members.len(), s.id));
    let planted: Vec<usize> = by_size
        .iter()
        .skip(2)
        .step_by(5)
        .map(|s| s.members[0])
        .collect();
    for snp in planted {
        dataset.plant_survival_signal(snp, 2.0);
    }
    write_dataset_to_dfs(engine.dfs(), "/cohort", &dataset)
        .expect("a fresh engine has an empty DFS")
        .0
}

/// Build the analysis context from the DFS text files.
pub fn context(engine: &Arc<Engine>, paths: &DatasetPaths) -> SparkScoreContext {
    SparkScoreContext::from_dfs(Arc::clone(engine), paths, AnalysisOptions::default())
        .expect("cohort files were written during set-up")
}

/// Run and time `setup` `reps` times; return the last result and every
/// set-up's seconds.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous set-up first so its threads and memory are
        // gone before the next one is timed.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// The cohort's gene sets, parsed from its DFS file and sorted by id.
pub fn read_sets(engine: &Engine, paths: &DatasetPaths) -> Vec<SnpSet> {
    let text = engine
        .dfs()
        .read_to_string(&paths.sets)
        .expect("cohort sets file exists");
    let mut sets: Vec<SnpSet> = text.lines().map(parse_set_line).collect();
    sets.sort_by_key(|s| s.id);
    sets
}

/// The cohort as the program sees it — the DFS text parsed back by the
/// repository's own parsers — in the dense layout of the sequential
/// oracles (row index = SNP id, sets sorted by id).
pub struct OracleInputs {
    pub rows: Vec<Vec<u8>>,
    pub weights: Vec<f64>,
    pub sets: Vec<SnpSet>,
    /// Sorted union of the set members: the SNPs the pipeline keeps.
    pub union: Vec<u64>,
}

impl OracleInputs {
    pub fn read(engine: &Engine, paths: &DatasetPaths) -> Self {
        let dfs = engine.dfs();
        let text = |p: &str| dfs.read_to_string(p).expect("cohort file exists");
        let sets = read_sets(engine, paths);
        let mut union: Vec<u64> = sets
            .iter()
            .flat_map(|s| s.members.iter().map(|&m| m as u64))
            .collect();
        union.sort_unstable();
        union.dedup();
        let extent = union.last().map_or(0, |&m| m as usize + 1);
        let mut rows = vec![Vec::new(); extent];
        for line in text(&paths.genotypes).lines() {
            let (id, dosages) = parse_genotype_line(line);
            if (id as usize) < extent {
                rows[id as usize] = dosages;
            }
        }
        let mut weights = vec![0.0; extent];
        for line in text(&paths.weights).lines() {
            let (id, w) = parse_weight_line(line);
            if (id as usize) < extent {
                weights[id as usize] = w;
            }
        }
        OracleInputs {
            rows,
            weights,
            sets,
            union,
        }
    }

    /// The rows, weights and single set of one gene, re-indexed densely
    /// in member order: the per-row perturbation is row-local, so an
    /// oracle run on this slice reproduces the full run's numbers for the
    /// set bit for bit at a fraction of the cost.
    pub fn one_set(&self, set: u64) -> (Vec<Vec<u8>>, Vec<f64>, SnpSet) {
        let s = self
            .sets
            .iter()
            .find(|s| s.id == set)
            .expect("queried set exists");
        let rows = s.members.iter().map(|&j| self.rows[j].clone()).collect();
        let weights = s.members.iter().map(|&j| self.weights[j]).collect();
        (
            rows,
            weights,
            SnpSet::new(set, (0..s.members.len()).collect()),
        )
    }
}
