//! The SparkScore analysis context and the paper's three algorithms.
//!
//! [`SparkScoreContext`] binds an engine to one analysis' inputs (genotype
//! matrix, phenotypes, SNP weights, SNP-sets) and exposes:
//!
//! * [`SparkScoreContext::observed`] — **Algorithm 1**: the observed SKAT
//!   statistics `S_k⁰`, computed as the RDD pipeline
//!   `textFile → parse → filter(union of SNP-sets) → U → U² →
//!   join(weights) → ω²U² → reduce_by_key(set)`;
//! * [`SparkScoreContext::permutation`] — **Algorithm 2**: B phenotype
//!   shufflings, each re-running the full pipeline (no caching — the
//!   replicate's `U` depends on the shuffled phenotypes);
//! * [`SparkScoreContext::monte_carlo`] — **Algorithm 3**: B draws of
//!   N(0,1) multipliers perturbing the *cached* `U` RDD
//!   (`Ũ_j = Σ_i Z_i U_ij`), the cache-friendly scheme whose speedups
//!   Figs 2–5 of the paper measure. Replicates run as a shuffle-free
//!   replicate-tile × partition grid
//!   ([`SparkScoreContext::monte_carlo_grid`]).

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparkscore_data::io::{
    parse_genotype_line, parse_phenotypes_text, parse_set_line, parse_weight_line,
};
use sparkscore_data::{DatasetPaths, GenotypeBlock, GwasDataset};
use sparkscore_dfs::DfsError;
use sparkscore_rdd::{Broadcast, BroadcastTileCache, Dataset, Engine};
use sparkscore_stats::linalg::perturb_rows_blocked;
use sparkscore_stats::pvalue::StoppingRule;
use sparkscore_stats::qc::{check_snp_packed, QcThresholds};
use sparkscore_stats::resample::{mc_weights, random_permutation, MC_TILE};
use sparkscore_stats::score::ScoreModel;
use sparkscore_stats::scratch;
use sparkscore_stats::skat::{burden_statistic, skat_statistic, SnpSet};

use crate::model::{Model, Phenotype};
use crate::result::{McGridRun, ObservedResult, ResamplingRun, SetScore, SnpQc, SnpResult};

/// Per-record cost hints (in engine work units of 25 virtual ns each)
/// modeling the reference platform — the paper's JVM/Spark 1.x stack —
/// whose per-record costs differ from native Rust by wildly different
/// factors per operation. Calibrated against Table III's observed pass
/// (≈509 s for 100 000 SNPs × 1000 patients with ~2 HDFS input blocks):
///
/// * reading + tokenizing + boxing one genotype dosage from text:
///   ≈ 10 µs  → 400 units per patient per line;
/// * computing one patient's Cox score contribution (boxed pipeline):
///   ≈ 2.5 µs → 100 units;
/// * one multiply-add over the *cached, deserialized* `U` arrays
///   (Algorithm 3's per-iteration work): ≈ 25 ns → 1 unit.
///
/// The three-orders-of-magnitude parse-vs-arithmetic gap is precisely the
/// asymmetry that makes the paper's cached Monte Carlo iterations so much
/// cheaper than permutation's full re-execution.
const JVM_UNITS_PARSE_PER_PATIENT: f64 = 400.0;
const JVM_UNITS_SCORE_PER_PATIENT: f64 = 100.0;
const JVM_UNITS_ARITH_PER_PATIENT: f64 = 1.0;
/// Parsing one small `"<snp> <weight>"` line.
const JVM_UNITS_PARSE_WEIGHT_LINE: f64 = 40.0;

/// How marginal scores combine into a SNP-set statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombineMethod {
    /// SKAT: `S_k = Σ_{j∈I_k} ω_j² U_j²` (the paper's statistic).
    #[default]
    Skat,
    /// Weighted burden: `S_k = (Σ_{j∈I_k} ω_j U_j)²` — powerful when
    /// member effects share a direction, weak when they cancel.
    Burden,
}

/// How SNP weights reach the per-SNP scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightsStrategy {
    /// Shuffle join against the weights RDD, exactly as the paper's
    /// Algorithm 1 step 9 prescribes.
    #[default]
    Join,
    /// Broadcast a dense weight table and look weights up map-side — an
    /// ablation of the paper's design: it removes two shuffle stages per
    /// scoring pass (the observed pass and every permutation replicate) at
    /// the cost of shipping all weights to every node once. The Monte
    /// Carlo grid reads weights on the driver and never joins.
    Broadcast,
}

/// Tunables for an analysis.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Reduce-side partitions for the weights join and the per-set
    /// aggregation (Spark's `spark.default.parallelism` analogue).
    pub reduce_partitions: usize,
    /// SNP-set combination method.
    pub combine: CombineMethod,
    /// Weight-delivery strategy (ablation; the paper joins).
    pub weights_strategy: WeightsStrategy,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            reduce_partitions: 8,
            combine: CombineMethod::Skat,
            weights_strategy: WeightsStrategy::Join,
        }
    }
}

/// Tunables for a distributed-GEMM resampling run
/// ([`SparkScoreContext::monte_carlo_grid`]).
#[derive(Debug, Clone)]
pub struct McGridOptions {
    /// Replicate budget `B`.
    pub num_replicates: usize,
    /// Multiplier RNG seed (same stream as the sequential oracles).
    pub seed: u64,
    /// Replicate-tile width (one broadcast + one grid job per tile).
    pub tile: usize,
    /// Sequential stopping rule; `None` runs every set for the full
    /// budget `B`.
    pub stopping: Option<StoppingRule>,
    /// Restrict the run to these set ids (e.g. one gene query); `None`
    /// scores every set.
    pub set_filter: Option<Vec<u64>>,
}

impl McGridOptions {
    /// Fixed-B run at the default tile width: bitwise identical to the
    /// sequential blocked oracle.
    pub fn fixed(num_replicates: usize, seed: u64) -> Self {
        McGridOptions {
            num_replicates,
            seed,
            tile: MC_TILE,
            stopping: None,
            set_filter: None,
        }
    }

    /// Adaptive run: tile rounds until every set's `rule` decision.
    pub fn adaptive(num_replicates: usize, seed: u64, rule: StoppingRule) -> Self {
        McGridOptions {
            num_replicates,
            seed,
            tile: MC_TILE,
            stopping: Some(rule),
            set_filter: None,
        }
    }
}

/// Identity of a broadcast multiplier tile: `(U dataset id, seed, first
/// replicate, width)`.
type TileKey = (u64, u64, u64, u64);

/// One analysis bound to an engine: inputs loaded, model fitted.
pub struct SparkScoreContext {
    engine: Arc<Engine>,
    phenotype: Phenotype,
    model: Model,
    /// `(snp, weight)` pairs — joined against `ω²U²` every pass.
    weights_rdd: Dataset<(u64, f64)>,
    /// Filtered genotype matrix: SNPs that appear in some set, 2-bit
    /// packed column-major per partition (4 dosages per byte, so cached
    /// partitions charge the LRU budget a quarter of the byte layout).
    fgm: Dataset<GenotypeBlock>,
    /// Dense `snp id → ids of the sets holding it` lookup, broadcast to
    /// tasks. Overlapping sets share SNPs, so a SNP may map to several.
    snp_to_sets: Broadcast<Vec<Vec<u64>>>,
    /// Dense `snp id → weight` table, present under
    /// [`WeightsStrategy::Broadcast`].
    weights_bc: Option<Broadcast<Vec<f64>>>,
    /// Sorted set ids, the row order of every result.
    set_ids: Vec<u64>,
    /// The SNP-sets themselves, sorted by id (aligned with `set_ids`) —
    /// the driver-side reduction of the resampling grid needs the member
    /// lists.
    sets: Vec<SnpSet>,
    /// One past the largest SNP id in any set: the extent of every dense
    /// per-SNP table.
    max_snp: usize,
    /// Memo of broadcast multiplier tiles keyed `(U dataset, seed, start,
    /// width)`, shared across the grid runs on this context so repeated
    /// same-seed queries over one shared `U` ship each tile once. Runs
    /// over a fresh `U` never hit it.
    mc_tile_cache: BroadcastTileCache<TileKey>,
    options: AnalysisOptions,
}

impl SparkScoreContext {
    /// Load a survival analysis from DFS text files (the paper's setup:
    /// "Read input files from HDFS").
    pub fn from_dfs(
        engine: Arc<Engine>,
        paths: &DatasetPaths,
        options: AnalysisOptions,
    ) -> Result<Self, DfsError> {
        let phenotypes = parse_phenotypes_text(&engine.dfs().read_to_string(&paths.phenotypes)?);
        let sets: Vec<SnpSet> = engine
            .dfs()
            .read_to_string(&paths.sets)?
            .lines()
            .map(parse_set_line)
            .collect();
        let n = phenotypes.len() as f64;
        let weights_rdd = engine
            .text_file(&paths.weights)?
            .map_with_cost(JVM_UNITS_PARSE_WEIGHT_LINE, |l| parse_weight_line(&l));
        let gm = engine
            .text_file(&paths.genotypes)?
            .map_with_cost(n * JVM_UNITS_PARSE_PER_PATIENT, |l| parse_genotype_line(&l));
        Ok(Self::from_parts(
            engine,
            Phenotype::Survival(phenotypes),
            gm,
            weights_rdd,
            &sets,
            options,
        ))
    }

    /// Build an analysis from an in-memory synthetic dataset (skipping the
    /// DFS round-trip; `partitions` controls genotype parallelism).
    pub fn from_memory(
        engine: Arc<Engine>,
        dataset: &GwasDataset,
        partitions: usize,
        options: AnalysisOptions,
    ) -> Self {
        let rows: Vec<(u64, Vec<u8>)> = dataset
            .genotypes
            .iter()
            .map(|r| (r.id, r.dosages.clone()))
            .collect();
        let gm = engine.parallelize(rows, partitions);
        let weights: Vec<(u64, f64)> = dataset
            .weights
            .iter()
            .enumerate()
            .map(|(j, &w)| (j as u64, w))
            .collect();
        let weights_rdd = engine.parallelize(weights, partitions.clamp(1, 4));
        Self::from_parts(
            engine,
            Phenotype::Survival(dataset.phenotypes.clone()),
            gm,
            weights_rdd,
            &dataset.sets,
            options,
        )
    }

    /// Fully general constructor: any phenotype kind, any genotype/weight
    /// datasets (e.g. an eQTL analysis with a quantitative trait).
    pub fn from_parts(
        engine: Arc<Engine>,
        phenotype: Phenotype,
        gm: Dataset<(u64, Vec<u8>)>,
        weights_rdd: Dataset<(u64, f64)>,
        sets: &[SnpSet],
        options: AnalysisOptions,
    ) -> Self {
        assert!(!sets.is_empty(), "need at least one SNP-set");
        assert!(options.reduce_partitions > 0);
        // The kernels' thread-local scratch is the one byte-holding
        // subsystem the rdd crate cannot see (stats sits outside its
        // dependency cone), so the `scratch` ledger category is fed here,
        // where both sides are visible. Idempotent: re-registering on a
        // shared engine just replaces the same source.
        engine.memory_ledger().set_source(
            sparkscore_rdd::MemCategory::Scratch,
            scratch::allocated_bytes,
        );
        let model = Model::fit(&phenotype);

        // Union of all SNP-sets (Algorithm 1 step 4) for the matrix filter.
        let mut union: Vec<u64> = sets
            .iter()
            .flat_map(|s| s.members.iter().map(|&m| m as u64))
            .collect();
        union.sort_unstable();
        union.dedup();
        let max_snp = union.last().map_or(0, |&m| m as usize + 1);

        // Dense snp → sets lookup (SNPs outside every set are filtered
        // away before this is consulted).
        let mut snp_to_sets = vec![Vec::new(); max_snp];
        for set in sets {
            for &m in &set.members {
                snp_to_sets[m].push(set.id);
            }
        }

        let union_bc = engine.broadcast(union);
        let num_patients = phenotype.num_patients();
        let fgm = gm
            .filter(move |(snp, _)| union_bc.value().binary_search(snp).is_ok())
            .map_partitions(move |_, rows| vec![GenotypeBlock::from_rows(num_patients, rows)]);
        let snp_to_sets = engine.broadcast(snp_to_sets);
        let mut set_ids: Vec<u64> = sets.iter().map(|s| s.id).collect();
        set_ids.sort_unstable();
        let mut sets_sorted: Vec<SnpSet> = sets.to_vec();
        sets_sorted.sort_by_key(|s| s.id);

        // Under the broadcast ablation, gather the weights to the driver
        // once (one job) and ship a dense table to every node.
        let weights_bc = match options.weights_strategy {
            WeightsStrategy::Join => None,
            WeightsStrategy::Broadcast => {
                let mut dense = vec![0.0f64; max_snp];
                for (snp, w) in weights_rdd.collect() {
                    dense[snp as usize] = w;
                }
                Some(engine.broadcast(dense))
            }
        };

        let mc_tile_cache = BroadcastTileCache::new(Arc::clone(&engine), 256);
        SparkScoreContext {
            engine,
            phenotype,
            model,
            weights_rdd,
            fgm,
            snp_to_sets,
            weights_bc,
            set_ids,
            sets: sets_sorted,
            max_snp,
            mc_tile_cache,
            options,
        }
    }

    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    pub fn num_patients(&self) -> usize {
        self.phenotype.num_patients()
    }

    pub fn num_sets(&self) -> usize {
        self.set_ids.len()
    }

    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The `U` RDD (Algorithm 1 step 7): per-SNP per-patient contributions
    /// under `model_bc`. Models with an affine per-dosage contribution
    /// (Gaussian, Binomial) score each 2-bit column directly through the
    /// popcount kernels; the rest unpack into a thread-local scratch slice
    /// and run the byte kernel. Kernel rows (and the packed subset) and
    /// scratch reuses are reported to the task metrics.
    fn u_rdd(&self, model_bc: &Broadcast<Model>) -> Dataset<(u64, Vec<f64>)> {
        let model = model_bc.clone();
        let n = self.num_patients();
        self.fgm.map_partitions_ctx(move |ctx, _, blocks| {
            let mut out = Vec::new();
            ctx.time_span("kernel:contributions", || {
                for block in blocks {
                    ctx.add_work(block.num_snps(), n as f64 * JVM_UNITS_SCORE_PER_PATIENT);
                    let mut packed_rows = 0u64;
                    scratch::with_u8(n, |g| {
                        for c in 0..block.num_snps() {
                            let mut contrib = vec![0.0; n];
                            let model = model.value();
                            if model.contributions_into_packed(block.column(c), &mut contrib) {
                                packed_rows += n as u64;
                            } else {
                                block.unpack_into(c, g);
                                model.contributions_into(g, &mut contrib);
                            }
                            out.push((block.snp_id(c), contrib));
                        }
                    });
                    ctx.add_kernel_rows((block.num_snps() * n) as u64);
                    ctx.add_packed_kernel_rows(packed_rows);
                }
            });
            ctx.add_scratch_reuses(scratch::take_reuses());
            out
        })
    }

    /// Per-SNP quality control over the filtered genotype matrix, sorted
    /// by SNP id. Counts, MAF, and Hardy–Weinberg all come straight from
    /// popcount passes over the packed columns — no byte dosages are ever
    /// materialized, so every QC kernel row is a packed row.
    pub fn qc(&self, thresholds: QcThresholds) -> Vec<SnpQc> {
        let n = self.num_patients();
        let mut rows: Vec<SnpQc> = self
            .fgm
            .map_partitions_ctx(move |ctx, _, blocks| {
                let mut out = Vec::new();
                ctx.time_span("kernel:qc", || {
                    for block in blocks {
                        ctx.add_work(block.num_snps(), n as f64 * JVM_UNITS_ARITH_PER_PATIENT);
                        for c in 0..block.num_snps() {
                            out.push(SnpQc {
                                snp: block.snp_id(c),
                                verdict: check_snp_packed(block.column(c), n, &thresholds),
                            });
                        }
                        let rows = (block.num_snps() * n) as u64;
                        ctx.add_kernel_rows(rows);
                        ctx.add_packed_kernel_rows(rows);
                    }
                });
                out
            })
            .collect();
        rows.sort_by_key(|r| r.snp);
        rows
    }

    /// Algorithm 1 steps 8–12 on a `U` RDD — inner sums `U_j = Σ_i U_ij`,
    /// weights join, ω²U², per-set aggregation — giving the observed
    /// per-set scores. Also public for callers holding a shared `U` (see
    /// [`SparkScoreContext::u_dataset`]).
    pub fn set_scores(&self, u: &Dataset<(u64, Vec<f64>)>) -> Vec<SetScore> {
        let arith_cost = self.num_patients() as f64 * JVM_UNITS_ARITH_PER_PATIENT;
        let inner = u.map_with_cost(arith_cost, |(snp, c)| {
            let s: f64 = c.iter().sum();
            (snp, s)
        });
        let lookup = self.snp_to_sets.clone();
        let combine = self.options.combine;
        // SKAT sums ω²U² per set; burden sums ωU per set and squares the
        // total.
        let weigh = move |u_stat: f64, w: f64| match combine {
            CombineMethod::Skat => w * w * u_stat * u_stat,
            CombineMethod::Burden => w * u_stat,
        };
        let per_snp_term = match &self.weights_bc {
            // Paper-faithful: shuffle join against the weights RDD.
            None => inner
                .join(&self.weights_rdd, self.options.reduce_partitions)
                .map(move |(snp, (u_stat, w))| (snp, weigh(u_stat, w))),
            // Ablation: look the weight up in a broadcast table map-side.
            Some(table) => {
                let table = table.clone();
                inner.map(move |(snp, u_stat)| (snp, weigh(u_stat, table.value()[snp as usize])))
            }
        };
        // A SNP shared by overlapping sets counts towards each of them.
        let per_set = per_snp_term
            .flat_map(move |(snp, term)| {
                lookup.value()[snp as usize]
                    .iter()
                    .map(|&set| (set, term))
                    .collect()
            })
            .reduce_by_key(self.options.reduce_partitions, |a, b| a + b);
        let scores = per_set.collect_as_map();
        self.set_ids
            .iter()
            .map(|&id| {
                let raw = scores.get(&id).copied().unwrap_or(0.0);
                SetScore {
                    set: id,
                    score: match combine {
                        CombineMethod::Skat => raw,
                        CombineMethod::Burden => raw * raw,
                    },
                }
            })
            .collect()
    }

    /// The sorted set ids every result row order follows.
    pub fn set_ids(&self) -> &[u64] {
        &self.set_ids
    }

    /// Build the `U` contributions dataset once, for explicit sharing:
    /// callers that `cache()` the returned handle and reuse it across
    /// many score passes (e.g. a multi-tenant service answering gene
    /// queries over one cohort) materialize the contributions exactly
    /// once. Every call creates a fresh lineage (and cache key), so
    /// sharing requires sharing the returned `Dataset` handle itself.
    pub fn u_dataset(&self) -> Dataset<(u64, Vec<f64>)> {
        let model_bc = self.engine.broadcast(self.model.clone());
        self.u_rdd(&model_bc)
    }

    /// Variant-by-variant analysis (the paper's other GWAS mode): marginal
    /// score, empirical variance, and χ²₁ asymptotic p-value per SNP,
    /// sorted by SNP id.
    pub fn per_snp_asymptotic(&self) -> Vec<SnpResult> {
        let model_bc = self.engine.broadcast(self.model.clone());
        let u = self.u_rdd(&model_bc);
        let mut rows: Vec<SnpResult> = u
            .map(|(snp, contribs)| {
                let (score, variance) = sparkscore_stats::score::score_and_variance(&contribs);
                (snp, score, variance)
            })
            .collect()
            .into_iter()
            .map(|(snp, score, variance)| SnpResult {
                snp,
                score,
                variance,
                pvalue: sparkscore_stats::asymptotic::score_test_pvalue(score, variance),
            })
            .collect();
        rows.sort_by_key(|r| r.snp);
        rows
    }

    /// **Algorithm 1**: observed SKAT statistics `S_k⁰` for every set.
    pub fn observed(&self) -> ObservedResult {
        let wall_start = Instant::now();
        let vt_start = self.engine.virtual_time_secs();
        let metrics_start = self.engine.metrics_snapshot();
        let model_bc = self.engine.broadcast(self.model.clone());
        let u = self.u_rdd(&model_bc);
        let scores = self.set_scores(&u);
        ObservedResult {
            scores,
            wall: wall_start.elapsed(),
            virtual_secs: self.engine.virtual_time_secs() - vt_start,
            metrics: self.engine.metrics_snapshot().delta_since(&metrics_start),
        }
    }

    /// **Algorithm 3**: Monte Carlo resampling with `num_replicates`
    /// N(0,1)-multiplier replicates, run on the replicate-tile × partition
    /// grid of [`SparkScoreContext::monte_carlo_grid`] at the default tile
    /// width. `use_cache` controls whether the `U` RDD is cached between
    /// tile jobs (the paper's Experiment B toggles exactly this): uncached,
    /// every tile job recomputes `U` from its lineage. Multiplier tiles are
    /// broadcast fresh and dropped after their round — a one-shot run has
    /// nothing to share with later calls.
    pub fn monte_carlo(&self, num_replicates: usize, seed: u64, use_cache: bool) -> ResamplingRun {
        let wall_start = Instant::now();
        let vt_start = self.engine.virtual_time_secs();
        let metrics_start = self.engine.metrics_snapshot();

        let u = self.u_dataset();
        if use_cache {
            u.cache(); // Algorithm 3 step 2: "Cache RDD U".
        }
        let run = self.grid(&u, &McGridOptions::fixed(num_replicates, seed), None);
        if use_cache {
            u.unpersist();
        }
        ResamplingRun {
            observed: run.observed,
            counts_ge: run.counts_ge,
            num_replicates,
            wall: wall_start.elapsed(),
            virtual_secs: self.engine.virtual_time_secs() - vt_start,
            metrics: self.engine.metrics_snapshot().delta_since(&metrics_start),
        }
    }

    /// Dense per-SNP weight table on the driver (index = SNP id).
    fn dense_weights(&self) -> Vec<f64> {
        match &self.weights_bc {
            Some(table) => table.value().clone(),
            None => {
                let mut dense = vec![0.0f64; self.max_snp];
                for (snp, w) in self.weights_rdd.collect() {
                    if (snp as usize) < self.max_snp {
                        dense[snp as usize] = w;
                    }
                }
                dense
            }
        }
    }

    /// `(hits, misses)` of the broadcast multiplier-tile cache.
    pub fn mc_tile_cache_stats(&self) -> (u64, u64) {
        self.mc_tile_cache.stats()
    }

    /// **Algorithm 3 as a distributed GEMM** over the replicate-tile ×
    /// partition grid, with optional adaptive early stopping.
    ///
    /// The `B × n` multiplier matrix is split into replicate tiles; each
    /// tile's `n × k` block is broadcast (memoized per `(seed, start,
    /// width)`) against the caller-held — typically cached — `U` dataset,
    /// and one engine task per `(tile × partition)` grid cell runs the
    /// blocked perturbation kernel over its partition's SNP rows. Cells
    /// return per-SNP perturbed scores; the driver scatters them by SNP id
    /// (a pure scatter — no cross-partition summation, so no floating-point
    /// reassociation) and reduces per set sequentially, which keeps the
    /// fixed-B path **bitwise identical** to the single-task
    /// `monte_carlo_blocked` oracle.
    ///
    /// With a [`StoppingRule`], tile rounds double as sequential looks:
    /// after each round every undecided set is tested, decided sets freeze
    /// their counts, and their member rows drop out of later grid cells
    /// (reported as `replicates_saved`). Multiplier tiles are always drawn
    /// in full so the stream stays aligned with the fixed-B oracle —
    /// adaptivity truncates per-set replicate streams, never re-randomizes
    /// them; the single-machine `monte_carlo_adaptive` is the exact
    /// semantic oracle.
    ///
    /// Multiplier tiles go through the context-wide memo, so repeated
    /// same-seed runs over one shared `U` handle (the gene-query service)
    /// re-ship nothing, while runs over separately built `U`s never share
    /// a tile.
    pub fn monte_carlo_grid(
        &self,
        u: &Dataset<(u64, Vec<f64>)>,
        opts: &McGridOptions,
    ) -> McGridRun {
        self.grid(u, opts, Some(&self.mc_tile_cache))
    }

    /// The grid run behind [`SparkScoreContext::monte_carlo_grid`] and
    /// [`SparkScoreContext::monte_carlo`]: multiplier tiles come from
    /// `memo` when given, else each is broadcast fresh for its round.
    fn grid(
        &self,
        u: &Dataset<(u64, Vec<f64>)>,
        opts: &McGridOptions,
        memo: Option<&BroadcastTileCache<TileKey>>,
    ) -> McGridRun {
        assert!(opts.tile > 0, "tile width must be positive");
        let wall_start = Instant::now();
        let vt_start = self.engine.virtual_time_secs();
        let metrics_start = self.engine.metrics_snapshot();

        let sets: Vec<&SnpSet> = match &opts.set_filter {
            None => self.sets.iter().collect(),
            Some(ids) => self.sets.iter().filter(|s| ids.contains(&s.id)).collect(),
        };
        assert!(!sets.is_empty(), "set filter selected no sets");

        let n = self.num_patients();
        let max_snp = self.max_snp;
        let weights = self.dense_weights();

        // Observed pass over the shared U handle: per-SNP scores scattered
        // into a dense table, then combined per set on the driver with the
        // same statistic functions (and summation order) as the oracle.
        let arith_cost = n as f64 * JVM_UNITS_ARITH_PER_PATIENT;
        // Rows are summed in place: a per-record `map` would clone every
        // cached `U` row first.
        let mut scores = vec![0.0f64; max_snp];
        for (snp, s) in u
            .map_partitions_ctx(move |ctx, _, rows| {
                ctx.add_work(rows.len(), arith_cost);
                rows.iter().map(|(snp, c)| (*snp, c.iter().sum())).collect()
            })
            .collect()
        {
            scores[snp as usize] = s;
        }
        let combine = self.options.combine;
        let stat = |scores: &[f64], set: &SnpSet| match combine {
            CombineMethod::Skat => skat_statistic(scores, &weights, set),
            CombineMethod::Burden => burden_statistic(scores, &weights, set),
        };
        let observed: Vec<f64> = sets.iter().map(|s| stat(&scores, s)).collect();

        // Rows the budget would spend work on: members of a selected set.
        let mut set_of_snp = vec![usize::MAX; max_snp];
        for (s, set) in sets.iter().enumerate() {
            for &j in &set.members {
                set_of_snp[j] = s;
            }
        }
        let scope_rows = set_of_snp.iter().filter(|&&s| s != usize::MAX).count();

        let b = opts.num_replicates;
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut counts = vec![0usize; sets.len()];
        let mut used = vec![0usize; sets.len()];
        let mut decided = vec![false; sets.len()];
        let mut replicates_run = 0u64;
        let mut perturbed = vec![0.0f64; max_snp];
        let mut tiles = 0usize;
        let mut done = 0usize;
        while done < b && decided.iter().any(|d| !d) {
            let k = opts.tile.min(b - done);
            // Draw the tile replicate-by-replicate — the oracle's exact
            // order — transposed into the patient-major kernel layout.
            let mut z_tile = vec![0.0f64; n * k];
            for kk in 0..k {
                for (i, zi) in mc_weights(&mut rng, n).into_iter().enumerate() {
                    z_tile[i * k + kk] = zi;
                }
            }
            let z = match memo {
                Some(memo) => {
                    memo.get_or_broadcast((u.id().0, opts.seed, done as u64, k as u64), z_tile)
                }
                None => self.engine.broadcast(z_tile),
            };

            // Per-SNP activity plane: 0 out of scope, 1 member of decided
            // sets only (skipped, counted as saved work), 2 live. A row
            // shared by a decided and an undecided set stays live.
            let mut activity = vec![0u8; max_snp];
            for (s, set) in sets.iter().enumerate() {
                let mark = if decided[s] { 1u8 } else { 2u8 };
                for &j in &set.members {
                    activity[j] = activity[j].max(mark);
                }
            }
            let activity = self.engine.broadcast(activity);

            // One grid row: a task per U partition perturbing its active
            // rows under this tile's multipliers.
            let cells: Vec<(Vec<u64>, Vec<f64>)> = u.grid_cells(move |ctx, _part, rows| {
                let mut ids: Vec<u64> = Vec::new();
                let mut urows: Vec<&[f64]> = Vec::new();
                let mut skipped = 0u64;
                let act = activity.value();
                for (snp, c) in rows {
                    match act.get(*snp as usize).copied().unwrap_or(0) {
                        2 => {
                            ids.push(*snp);
                            urows.push(c.as_slice());
                        }
                        1 => skipped += 1,
                        _ => {}
                    }
                }
                let mut out = vec![0.0f64; urows.len() * k];
                ctx.time_span("kernel:perturb", || {
                    perturb_rows_blocked(&urows, n, z.value(), k, &mut out);
                });
                ctx.add_work(ids.len() * k, n as f64 * JVM_UNITS_ARITH_PER_PATIENT);
                ctx.add_kernel_rows((ids.len() * n * k) as u64);
                ctx.add_replicates_run((ids.len() * k) as u64);
                ctx.add_replicates_saved(skipped * k as u64);
                (ids, out)
            });

            replicates_run += cells
                .iter()
                .map(|(ids, _)| (ids.len() * k) as u64)
                .sum::<u64>();
            for kk in 0..k {
                // Scatter this replicate's perturbed scores by SNP id —
                // stale slots belong to decided or out-of-scope rows and
                // are never read below.
                for (ids, out) in &cells {
                    for (r, &snp) in ids.iter().enumerate() {
                        perturbed[snp as usize] = out[r * k + kk];
                    }
                }
                for (s, set) in sets.iter().enumerate() {
                    if decided[s] {
                        continue;
                    }
                    if stat(&perturbed, set) >= observed[s] {
                        counts[s] += 1;
                    }
                }
            }
            done += k;
            tiles += 1;
            if let Some(rule) = &opts.stopping {
                for s in 0..sets.len() {
                    if !decided[s] {
                        used[s] = done;
                        if rule.decided(counts[s], done) {
                            decided[s] = true;
                        }
                    }
                }
            } else {
                for slot in used.iter_mut() {
                    *slot = done;
                }
            }
        }

        let potential = (scope_rows * b) as u64;
        McGridRun {
            observed: sets
                .iter()
                .zip(&observed)
                .map(|(s, &score)| SetScore { set: s.id, score })
                .collect(),
            counts_ge: counts,
            replicates_used: used,
            max_replicates: b,
            replicates_run,
            replicates_saved: potential.saturating_sub(replicates_run),
            tiles,
            wall: wall_start.elapsed(),
            virtual_secs: self.engine.virtual_time_secs() - vt_start,
            metrics: self.engine.metrics_snapshot().delta_since(&metrics_start),
        }
    }

    /// **Algorithm 2**: permutation resampling with `num_replicates`
    /// phenotype shufflings, each re-running the full score pipeline.
    pub fn permutation(&self, num_replicates: usize, seed: u64) -> ResamplingRun {
        let wall_start = Instant::now();
        let vt_start = self.engine.virtual_time_secs();
        let metrics_start = self.engine.metrics_snapshot();

        let model_bc = self.engine.broadcast(self.model.clone());
        let observed = self.set_scores(&self.u_rdd(&model_bc));

        let n = self.num_patients();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; observed.len()];
        for _ in 0..num_replicates {
            let perm = random_permutation(&mut rng, n);
            let shuffled = self.engine.broadcast(self.model.permuted(&perm));
            // "Recalculate step 6 to 12 of Algorithm 1" — a fresh U RDD
            // whose lineage re-reads and re-scores the genotype matrix.
            let replicate = self.set_scores(&self.u_rdd(&shuffled));
            for (count, (rep, obs)) in counts.iter_mut().zip(replicate.iter().zip(&observed)) {
                if rep.score >= obs.score {
                    *count += 1;
                }
            }
        }
        ResamplingRun {
            observed,
            counts_ge: counts,
            num_replicates,
            wall: wall_start.elapsed(),
            virtual_secs: self.engine.virtual_time_secs() - vt_start,
            metrics: self.engine.metrics_snapshot().delta_since(&metrics_start),
        }
    }

    /// Lineage of the `U` RDD pipeline (diagnostics).
    pub fn pipeline_lineage(&self) -> String {
        let model_bc = self.engine.broadcast(self.model.clone());
        self.u_rdd(&model_bc).lineage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkscore_cluster::ClusterSpec;
    use sparkscore_data::SyntheticConfig;

    fn small_context() -> SparkScoreContext {
        context_for(&GwasDataset::generate(&SyntheticConfig::small(17)))
    }

    fn context_for(ds: &GwasDataset) -> SparkScoreContext {
        let engine = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(2)
            .build();
        SparkScoreContext::from_memory(engine, ds, 4, AnalysisOptions::default())
    }

    /// `small(17)` with set 0 also holding every member of set 1, so the
    /// two sets share SNPs as overlapping gene annotations do.
    fn overlapping_dataset() -> GwasDataset {
        let mut ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let shared = ds.sets[1].members.clone();
        ds.sets[0].members.extend(shared);
        ds
    }

    #[test]
    fn observed_scores_are_nonnegative_and_cover_all_sets() {
        let ctx = small_context();
        let obs = ctx.observed();
        assert_eq!(obs.scores.len(), 10);
        for s in &obs.scores {
            assert!(s.score >= 0.0, "SKAT is non-negative");
        }
        // Sorted by set id.
        for w in obs.scores.windows(2) {
            assert!(w[0].set < w[1].set);
        }
        assert!(obs.virtual_secs > 0.0);
    }

    #[test]
    fn observed_is_deterministic() {
        let a = small_context().observed();
        let b = small_context().observed();
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn mc_zero_iterations_equals_observed() {
        // The grid combines per-set statistics on the driver in the
        // sequential oracle's summation order, so its observed scores are
        // the oracle's bit for bit (`observed()`'s `reduce_by_key` order
        // can differ in the last ulp).
        let ctx = small_context();
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let (rows, weights, sets) = dense_oracle_inputs(&ds, ctx.num_patients());
        let oracle = observed_skat(ctx.model(), &rows, &weights, &sets);
        let run = ctx.monte_carlo(0, 1, true);
        let observed: Vec<f64> = run.observed.iter().map(|s| s.score).collect();
        assert_eq!(observed, oracle);
        assert_eq!(run.counts_ge, vec![0; 10]);
        assert_eq!(run.num_replicates, 0);
    }

    #[test]
    fn mc_cached_run_hits_cache() {
        let ctx = small_context();
        let run = ctx.monte_carlo(10, 3, true);
        assert!(
            run.metrics.cache_hits > 0,
            "MC iterations must reuse the cached U RDD: {:?}",
            run.metrics
        );
    }

    #[test]
    fn permutation_run_reports_structure() {
        let ctx = small_context();
        let run = ctx.permutation(5, 11);
        assert_eq!(run.num_replicates, 5);
        assert_eq!(run.counts_ge.len(), 10);
        for &c in &run.counts_ge {
            assert!(c <= 5);
        }
        let ps = run.pvalues();
        assert!(ps.iter().all(|&p| p > 0.0 && p <= 1.0));
    }

    #[test]
    fn broadcast_weights_match_join_weights() {
        let engine = Engine::builder(ClusterSpec::test_small(2))
            .host_threads(2)
            .build();
        let ds = GwasDataset::generate(&SyntheticConfig::small(23));
        let join =
            SparkScoreContext::from_memory(Arc::clone(&engine), &ds, 4, AnalysisOptions::default())
                .monte_carlo(15, 3, true);
        let engine2 = Engine::builder(ClusterSpec::test_small(2))
            .host_threads(2)
            .build();
        let bcast = SparkScoreContext::from_memory(
            engine2,
            &ds,
            4,
            AnalysisOptions {
                weights_strategy: crate::analysis::WeightsStrategy::Broadcast,
                ..AnalysisOptions::default()
            },
        )
        .monte_carlo(15, 3, true);
        assert_eq!(join.counts_ge, bcast.counts_ge);
        for (a, b) in join.observed.iter().zip(&bcast.observed) {
            assert!((a.score - b.score).abs() <= 1e-9 * (1.0 + b.score.abs()));
        }
    }

    use sparkscore_stats::resample::{monte_carlo_adaptive, monte_carlo_blocked, observed_skat};

    /// Dense oracle inputs indexed by SNP id: genotype rows, weights, and
    /// sets sorted by id — the layout under which the sequential oracles
    /// share the grid's summation order exactly.
    fn dense_oracle_inputs(ds: &GwasDataset, n: usize) -> (Vec<Vec<u8>>, Vec<f64>, Vec<SnpSet>) {
        let max_snp = ds.sets.iter().flat_map(|s| s.members.iter()).max().unwrap() + 1;
        let mut rows = vec![vec![0u8; n]; max_snp];
        for r in &ds.genotypes {
            if (r.id as usize) < max_snp {
                rows[r.id as usize] = r.dosages.clone();
            }
        }
        let mut weights = vec![0.0f64; max_snp];
        for (j, &w) in ds.weights.iter().enumerate() {
            if j < max_snp {
                weights[j] = w;
            }
        }
        let mut sets = ds.sets.clone();
        sets.sort_by_key(|s| s.id);
        (rows, weights, sets)
    }

    #[test]
    fn grid_fixed_b_is_bitwise_identical_to_blocked_oracle() {
        // Cox phenotype: both the grid's U pass and the oracle run the
        // byte kernel, so every float must match exactly — observed
        // statistics and exceedance counts alike — at the default tile
        // and at a width that doesn't divide B.
        let ctx = small_context();
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let (rows, weights, sets) = dense_oracle_inputs(&ds, ctx.num_patients());
        let u = ctx.u_dataset();
        u.cache();
        for (b, tile) in [(64usize, MC_TILE), (50, 7)] {
            let opts = McGridOptions {
                num_replicates: b,
                seed: 9,
                tile,
                stopping: None,
                set_filter: None,
            };
            let run = ctx.monte_carlo_grid(&u, &opts);
            let oracle = monte_carlo_blocked(ctx.model(), &rows, &weights, &sets, b, 9, tile);
            let grid_observed: Vec<f64> = run.observed.iter().map(|s| s.score).collect();
            assert_eq!(grid_observed, oracle.observed, "tile={tile}");
            assert_eq!(run.counts_ge, oracle.counts_ge, "tile={tile}");
            assert_eq!(run.replicates_used, vec![b; sets.len()]);
            assert_eq!(run.replicates_saved, 0, "fixed-B skips nothing");
            assert_eq!(run.tiles, b.div_ceil(tile));
        }
        u.unpersist();
    }

    #[test]
    fn mc_cached_and_uncached_match_blocked_oracle_bitwise_without_shuffle() {
        // The user-facing entry point is the grid at the default tile:
        // cached or not, at B = 0, a non-multiple of the tile, and a
        // multiple, observed statistics and counts equal the oracle's bit
        // for bit (so also each other's), and no byte crosses a shuffle.
        let ctx = small_context();
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let (rows, weights, sets) = dense_oracle_inputs(&ds, ctx.num_patients());
        for use_cache in [true, false] {
            for b in [0usize, 45, 64] {
                let run = ctx.monte_carlo(b, 9, use_cache);
                let oracle =
                    monte_carlo_blocked(ctx.model(), &rows, &weights, &sets, b, 9, MC_TILE);
                let observed: Vec<f64> = run.observed.iter().map(|s| s.score).collect();
                assert_eq!(observed, oracle.observed, "cache={use_cache} B={b}");
                assert_eq!(run.counts_ge, oracle.counts_ge, "cache={use_cache} B={b}");
                assert_eq!(run.num_replicates, b);
                assert_eq!(
                    (
                        run.metrics.shuffle_bytes_written,
                        run.metrics.shuffle_bytes_read
                    ),
                    (0, 0),
                    "cache={use_cache} B={b}: {:?}",
                    run.metrics
                );
            }
        }
    }

    #[test]
    fn grid_adaptive_matches_sequential_adaptive_oracle() {
        // Second case: overlapping sets. A row shared by a decided and an
        // undecided set must stay live, or the undecided set reads the
        // previous tile's perturbed score.
        let disjoint = GwasDataset::generate(&SyntheticConfig::small(17));
        for (ds, seed) in [(disjoint, 3), (overlapping_dataset(), 1)] {
            let ctx = context_for(&ds);
            let (rows, weights, sets) = dense_oracle_inputs(&ds, ctx.num_patients());
            let rule = StoppingRule::new(20, 0.2, 0.05);
            let opts = McGridOptions {
                num_replicates: 200,
                seed,
                tile: 16,
                stopping: Some(rule),
                set_filter: None,
            };
            let u = ctx.u_dataset();
            u.cache();
            let run = ctx.monte_carlo_grid(&u, &opts);
            u.unpersist();
            let oracle =
                monte_carlo_adaptive(ctx.model(), &rows, &weights, &sets, 200, seed, 16, &rule);
            let grid_observed: Vec<f64> = run.observed.iter().map(|s| s.score).collect();
            assert_eq!(grid_observed, oracle.observed, "seed={seed}");
            assert_eq!(run.counts_ge, oracle.counts_ge, "seed={seed}");
            assert_eq!(run.replicates_used, oracle.replicates_used, "seed={seed}");
            assert_eq!(run.replicates_run, oracle.replicates_run, "seed={seed}");
            assert_eq!(run.replicates_saved, oracle.replicates_saved, "seed={seed}");
        }
    }

    #[test]
    fn grid_set_filter_reproduces_the_full_runs_entry() {
        let ctx = small_context();
        let u = ctx.u_dataset();
        u.cache();
        let full = ctx.monte_carlo_grid(&u, &McGridOptions::fixed(40, 13));
        let target = full.observed[3].set;
        let one = ctx.monte_carlo_grid(
            &u,
            &McGridOptions {
                set_filter: Some(vec![target]),
                ..McGridOptions::fixed(40, 13)
            },
        );
        u.unpersist();
        assert_eq!(one.observed.len(), 1);
        assert_eq!(one.observed[0], full.observed[3]);
        assert_eq!(one.counts_ge[0], full.counts_ge[3]);
    }

    #[test]
    fn repeated_grid_runs_reuse_broadcast_tiles() {
        let ctx = small_context();
        let u = ctx.u_dataset();
        u.cache();
        let opts = McGridOptions::fixed(48, 21);
        let a = ctx.monte_carlo_grid(&u, &opts);
        let (h0, m0) = ctx.mc_tile_cache_stats();
        assert_eq!(m0, 2, "48 replicates at tile 32 broadcast two tiles");
        let b = ctx.monte_carlo_grid(&u, &opts);
        let (h1, m1) = ctx.mc_tile_cache_stats();
        u.unpersist();
        assert_eq!(a.counts_ge, b.counts_ge);
        assert_eq!(m1, m0, "a same-seed replay must not re-broadcast");
        assert_eq!(h1, h0 + 2);
    }

    #[test]
    fn grid_reports_replicate_counters_through_stage_summaries() {
        let (ctx, listener) =
            context_with_listener(|ds| Phenotype::Survival(ds.phenotypes.clone()));
        let rule = StoppingRule::new(20, 0.2, 0.05);
        let u = ctx.u_dataset();
        u.cache();
        let run = ctx.monte_carlo_grid(&u, &McGridOptions::adaptive(200, 3, rule));
        u.unpersist();
        let (task_run, task_saved) = listener
            .summaries()
            .iter()
            .fold((0u64, 0u64), |(r, s), sum| {
                (r + sum.replicates_run, s + sum.replicates_saved)
            });
        assert_eq!(
            task_run, run.replicates_run,
            "driver total must equal the task-level sum"
        );
        assert!(run.replicates_run > 0);
        // Task-level saved counts only in-tile skips; the driver total
        // additionally credits tiles never launched.
        assert!(run.replicates_saved >= task_saved);
    }

    #[test]
    fn per_snp_asymptotic_shape() {
        let ctx = small_context();
        let rows = ctx.per_snp_asymptotic();
        assert_eq!(rows.len(), 200);
        assert!(rows.iter().all(|r| (0.0..=1.0).contains(&r.pvalue)));
    }

    #[test]
    fn pipeline_lineage_shows_inputs() {
        let ctx = small_context();
        let lineage = ctx.pipeline_lineage();
        assert!(lineage.contains("map"));
        assert!(lineage.contains("filter"));
        assert!(lineage.contains("parallelize"));
    }

    use sparkscore_rdd::{EventListener, StageSummaryListener};

    /// A context over the small synthetic genotypes with `phenotype`
    /// swapped in, plus a listener to observe per-stage kernel counters.
    fn context_with_listener(
        phenotype_of: impl Fn(&GwasDataset) -> Phenotype,
    ) -> (SparkScoreContext, Arc<StageSummaryListener>) {
        let listener = Arc::new(StageSummaryListener::new());
        let engine = Engine::builder(ClusterSpec::test_small(2))
            .host_threads(2)
            .listener(Arc::clone(&listener) as Arc<dyn EventListener>)
            .build();
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let rows: Vec<(u64, Vec<u8>)> = ds
            .genotypes
            .iter()
            .map(|r| (r.id, r.dosages.clone()))
            .collect();
        let gm = engine.parallelize(rows, 4);
        let weights: Vec<(u64, f64)> = ds
            .weights
            .iter()
            .enumerate()
            .map(|(j, &w)| (j as u64, w))
            .collect();
        let weights_rdd = engine.parallelize(weights, 2);
        let phenotype = phenotype_of(&ds);
        let ctx = SparkScoreContext::from_parts(
            engine,
            phenotype,
            gm,
            weights_rdd,
            &ds.sets,
            AnalysisOptions::default(),
        );
        (ctx, listener)
    }

    fn kernel_row_totals(listener: &StageSummaryListener) -> (u64, u64) {
        listener
            .summaries()
            .iter()
            .fold((0, 0), |(total, packed), s| {
                (total + s.kernel_rows, packed + s.packed_kernel_rows)
            })
    }

    #[test]
    fn gaussian_model_scores_every_row_on_the_packed_path() {
        let (ctx, listener) = context_with_listener(|ds| {
            Phenotype::Quantitative((0..ds.phenotypes.len()).map(|i| (i % 7) as f64).collect())
        });
        let obs = ctx.observed();
        assert_eq!(obs.scores.len(), 10);
        let (total, packed) = kernel_row_totals(&listener);
        assert!(total > 0, "the observed pass must report kernel rows");
        assert_eq!(
            packed, total,
            "an affine model must never unpack a genotype column"
        );
    }

    #[test]
    fn cox_model_falls_back_to_the_byte_kernel() {
        let (ctx, listener) =
            context_with_listener(|ds| Phenotype::Survival(ds.phenotypes.clone()));
        ctx.observed();
        let (total, packed) = kernel_row_totals(&listener);
        assert!(total > 0);
        assert_eq!(packed, 0, "Cox contributions are not affine in dosage");
    }

    #[test]
    fn packed_qc_matches_byte_oracle_per_snp() {
        let (ctx, listener) =
            context_with_listener(|ds| Phenotype::Survival(ds.phenotypes.clone()));
        let thresholds = QcThresholds::default();
        let verdicts = ctx.qc(thresholds);
        assert_eq!(verdicts.len(), 200, "every filtered SNP gets a verdict");
        for w in verdicts.windows(2) {
            assert!(w[0].snp < w[1].snp, "sorted by SNP id");
        }
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let by_id: std::collections::HashMap<u64, &Vec<u8>> =
            ds.genotypes.iter().map(|r| (r.id, &r.dosages)).collect();
        for q in &verdicts {
            let oracle = sparkscore_stats::qc::check_snp(by_id[&q.snp], &thresholds);
            assert_eq!(q.verdict, oracle, "snp {}", q.snp);
        }
        let (total, packed) = kernel_row_totals(&listener);
        assert!(total > 0);
        assert_eq!(packed, total, "QC never unpacks a genotype column");
    }
}
