//! The gene-query service workload: `AnalysisService` over `JobService`,
//! three tenants weighted 2:1:1, two workers, the always-on registry
//! listener and flight recorder attached, and a closed loop of four
//! analysts, each waiting for its own answer before asking again.
//!
//! Each analyst has its own thread: one thread waiting on the oldest of
//! four outstanding queries would charge every query that finished behind
//! a long one with the long one's latency.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparkscore_core::{AnalysisService, Model, QueryResult};
use sparkscore_data::DatasetPaths;
use sparkscore_rdd::{
    Engine, EventListener, FlightRecorder, JobService, Registry, RegistryListener, ShutdownMode,
    TenantConfig,
};
use sparkscore_stats::pvalue::StoppingRule;
use sparkscore_stats::resample::{monte_carlo_adaptive, observed_skat, MC_TILE};

use crate::cohort::{self, OracleInputs, Shape};
use crate::pct::{median, Summary};
use crate::replay::Replay;
use crate::report::{end_to_end, layer_metrics, layer_table, TracedTotals};
use crate::trace::{Collector, FileIndex};
use crate::{peak_rss_mb, Outcome, RunConfig};

const COHORT: &str = "cohort";
/// Tenants and fair-share weights.
const TENANTS: [(&str, u64); 3] = [("genomics-lab", 2), ("biobank", 1), ("clinic", 1)];
/// The analysts' tenants: four closed-loop clients, 2:1:1 over tenants.
const ANALYSTS: [usize; 4] = [0, 1, 0, 2];
/// Every `MC_EVERY`-th query of an analyst is an adaptive Monte Carlo
/// query.
const MC_EVERY: usize = 4;
/// Multiplier seeds adaptive queries draw from: a small pool, so tile
/// broadcasts are shared across queries.
const SEED_POOL: u64 = 4;
/// Length of one untraced or traced phase of a traced run.
const PHASE: Duration = Duration::from_millis(1500);

/// Stop once the p-value's interval clears α = 1e-4 or is 1e-4 wide: null
/// genes settle within a few tiles, while an associated gene can never
/// resolve against α below 1/(B+1) and uses the whole budget.
fn rule() -> StoppingRule {
    StoppingRule::new(MC_TILE, 1e-4, 1e-4)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy)]
enum Query {
    /// Observed score of one set.
    Set(u64),
    /// Adaptive Monte Carlo p-value of one set at one seed.
    Adaptive(u64, u64),
}

struct Answered {
    query: Query,
    latency_ms: f64,
    job: u64,
    submit_mono: u64,
    result: Option<QueryResult>,
}

struct Deployment {
    engine: Arc<Engine>,
    analysis: AnalysisService,
    /// The always-on listeners.
    base: Vec<Arc<dyn EventListener>>,
    paths: DatasetPaths,
    /// The cohort's fitted model, for the oracles.
    model: Model,
}

impl Deployment {
    fn start(shape: &Shape, cfg: &RunConfig, seeds: &[u64]) -> Self {
        let registry = Arc::new(Registry::new());
        let base: Vec<Arc<dyn EventListener>> = vec![
            Arc::new(RegistryListener::with_registry(Arc::clone(&registry))),
            Arc::new(FlightRecorder::with_capacity(256, 16)),
        ];
        let engine = cohort::engine(shape, &base);
        let paths = cohort::write_cohort(&engine, shape, cfg.seed);
        let ctx = cohort::context(&engine, &paths);
        let model = ctx.model().clone();
        // The warm-up's kernel work grows with the gene's size; the
        // smallest gene keeps set-up time the same across seeds.
        let warm_set = cohort::read_sets(&engine, &paths)
            .into_iter()
            .min_by_key(|s| (s.members.len(), s.id))
            .expect("the cohort has genes")
            .id;
        let mut builder = JobService::builder(Arc::clone(&engine))
            .workers(2)
            .queue_capacity(64)
            .registry(registry);
        for (name, weight) in TENANTS {
            builder = builder.tenant(
                name,
                TenantConfig {
                    max_queued: 32,
                    max_running: 1,
                    weight,
                },
            );
        }
        let analysis = AnalysisService::new(builder.build());
        analysis.register_cohort(COHORT, ctx);
        // Warm-up: materialize the shared U, then broadcast every
        // multiplier tile of the seed pool once.
        let tenant = TENANTS[0].0;
        let warm = |job: Result<u64, _>| {
            let job = job.expect("warm-up query admitted");
            analysis.wait_result(job).expect("warm-up query answered");
        };
        warm(analysis.submit_set_query(tenant, COHORT, warm_set));
        for &seed in seeds {
            warm(analysis.submit_mc_query(tenant, COHORT, warm_set, shape.query_max_b, seed));
        }
        Deployment {
            engine,
            analysis,
            base,
            paths,
            model,
        }
    }

    /// Attach exactly the always-on listeners, plus the collector if
    /// tracing.
    fn set_tracing(&self, collector: Option<&Arc<Collector>>) {
        let bus = self.engine.events();
        bus.clear();
        for l in &self.base {
            bus.register(Arc::clone(l));
        }
        if let Some(c) = collector {
            bus.register(Arc::clone(c) as Arc<dyn EventListener>);
        }
    }
}

/// One analyst: a tenant and a deterministic query stream. Set queries
/// and adaptive queries each cycle through every gene in an order
/// shuffled per analyst, so a run's query mix has the cohort's exact
/// proportions; each full cycle of adaptive queries moves to the next
/// multiplier seed of the pool.
struct Analyst {
    tenant: &'static str,
    order: Vec<u64>,
    seeds: Vec<u64>,
    issued: usize,
    set_queries: usize,
    adaptive_queries: usize,
}

impl Analyst {
    fn new(tenant: &'static str, sets: &[u64], seeds: &[u64], seed: u64, offset: usize) -> Self {
        let mut state = seed;
        let mut order = sets.to_vec();
        for i in (1..order.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Analyst {
            tenant,
            order,
            seeds: seeds.to_vec(),
            issued: offset,
            set_queries: 0,
            adaptive_queries: 0,
        }
    }

    fn next(&mut self) -> Query {
        let k = self.order.len();
        let query = if self.issued % MC_EVERY == MC_EVERY - 1 {
            let n = self.adaptive_queries;
            self.adaptive_queries += 1;
            Query::Adaptive(self.order[n % k], self.seeds[(n / k) % self.seeds.len()])
        } else {
            let n = self.set_queries;
            self.set_queries += 1;
            Query::Set(self.order[n % k])
        };
        self.issued += 1;
        query
    }

    /// Ask, wait, repeat, until `stop(queries answered by everyone)`.
    fn work(
        &mut self,
        dep: &Deployment,
        shape: &Shape,
        collector: Option<&Arc<Collector>>,
        answered: &AtomicUsize,
        stop: &(dyn Fn(usize) -> bool + Sync),
    ) -> (Vec<Answered>, u64) {
        let a = &dep.analysis;
        let (mut done, mut refused) = (Vec::new(), 0);
        while !stop(answered.load(Ordering::Relaxed)) {
            let query = self.next();
            let tenant = self.tenant;
            let submit = || match query {
                Query::Set(set) => a.submit_set_query(tenant, COHORT, set),
                Query::Adaptive(set, seed) => {
                    a.submit_adaptive_mc_query(tenant, COHORT, set, shape.query_max_b, seed, rule())
                }
            };
            let t0 = Instant::now();
            let submit_mono = dep.engine.mono_ns();
            let job = match collector {
                Some(c) => c.queries.submit(tenant, submit),
                None => submit(),
            };
            let job = match job {
                Ok(job) => job,
                Err(e) => {
                    refused += 1;
                    println!("query refused: {e}");
                    continue;
                }
            };
            let result = a.wait_result(job);
            done.push(Answered {
                query,
                latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                job,
                submit_mono,
                result,
            });
            answered.fetch_add(1, Ordering::Relaxed);
        }
        (done, refused)
    }
}

/// One closed-loop phase: every analyst works until `stop` says so and
/// its last query is answered.
fn phase(
    dep: &Deployment,
    analysts: &mut [Analyst],
    shape: &Shape,
    collector: Option<&Arc<Collector>>,
    refused: &mut u64,
    stop: &(dyn Fn(usize) -> bool + Sync),
) -> Vec<Answered> {
    let answered = AtomicUsize::new(0);
    let answered = &answered;
    let outcomes: Vec<(Vec<Answered>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = analysts
            .iter_mut()
            .map(|an| s.spawn(move || an.work(dep, shape, collector, answered, stop)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analyst thread panicked"))
            .collect()
    });
    let mut done = Vec::new();
    for (answers, r) in outcomes {
        done.extend(answers);
        *refused += r;
    }
    done
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let shape = &cfg.shape;
    let seeds: Vec<u64> = (0..SEED_POOL)
        .map(|i| cfg.seed.wrapping_mul(31).wrapping_add(1000 + i))
        .collect();
    let (dep, setup_times) =
        cohort::timed_setups(shape.setup_reps, || Deployment::start(shape, cfg, &seeds));
    println!(
        "setup: {} reps, median {:.4} s ({:?})",
        setup_times.len(),
        median(&setup_times),
        setup_times
    );
    let sets: Vec<u64> = cohort::read_sets(&dep.engine, &dep.paths)
        .iter()
        .map(|s| s.id)
        .collect();
    let mut analysts: Vec<Analyst> = ANALYSTS
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            Analyst::new(
                TENANTS[t].0,
                &sets,
                &seeds,
                cfg.seed.wrapping_add(i as u64),
                i,
            )
        })
        .collect();

    let collector = Arc::new(Collector::default());
    collector
        .queries
        .attach(Arc::clone(dep.analysis.job_service()));
    let files = FileIndex::of_cohort(&dep.engine, &dep.paths);
    let mut refused = 0u64;
    let mut measured: Vec<Answered> = Vec::new();
    let mut traced_answers: Vec<Answered> = Vec::new();
    let mut measured_wall = 0.0;
    let mut measured_virtual = 0.0;
    let mut traced = TracedTotals::default();
    let start = Instant::now();
    for phase_no in 0.. {
        // A traced run alternates untraced and traced phases.
        let trace_this = cfg.trace && phase_no % 2 == 1;
        let coll = trace_this.then_some(&collector);
        dep.set_tracing(coll);
        let m0 = dep.engine.metrics_snapshot();
        let v0 = dep.engine.virtual_time_secs();
        let w0 = dep.engine.mono_ns();
        let t0 = Instant::now();
        let min = shape.min_queries;
        let stop = |n: usize| {
            if cfg.trace {
                t0.elapsed() >= PHASE
            } else {
                n >= min && t0.elapsed().as_secs_f64() >= cfg.seconds
            }
        };
        let answers = phase(&dep, &mut analysts, shape, coll, &mut refused, &stop);
        let wall = t0.elapsed().as_secs_f64();
        let w1 = dep.engine.mono_ns();
        if trace_this {
            dep.set_tracing(None);
            let counters = dep.engine.metrics_snapshot().delta_since(&m0);
            let events = collector.take();
            traced.add_window(&events, (w0, w1), &files, &counters, answers.len());
            let runs = collector.queries.take_runs();
            fold_queries(&mut traced, &answers, &runs, counters.broadcasts, shape);
            traced_answers.extend(answers);
        } else {
            measured_wall += wall;
            measured_virtual += dep.engine.virtual_time_secs() - v0;
            measured.extend(answers);
        }
        let enough = measured.len() >= shape.min_queries
            && (!cfg.trace || traced.ops >= shape.min_queries)
            && start.elapsed().as_secs_f64() >= cfg.seconds;
        if !cfg.trace || enough {
            break;
        }
    }

    // Read before the oracles allocate their own copy of the cohort.
    let peak_rss = peak_rss_mb();
    let oracle_inputs = OracleInputs::read(&dep.engine, &dep.paths);
    let failed = verify(
        &oracle_inputs,
        &dep.model,
        shape,
        &measured,
        &traced_answers,
    ) + refused;
    let attempted = (measured.len() + traced_answers.len()) as u64 + refused;
    let lat = Summary::of(&measured.iter().map(|q| q.latency_ms).collect::<Vec<_>>());
    let qps = measured.len() as f64 / measured_wall;
    println!(
        "queries: {} measured over {measured_wall:.3} s ({qps:.1}/s), latency p50 {:.3} ms, tail {:.3} ms at {}",
        measured.len(),
        lat.p50,
        lat.tail,
        lat.tail_label()
    );
    let e2e = end_to_end(
        median(&setup_times),
        &lat,
        qps,
        measured_virtual / measured.len().max(1) as f64,
        peak_rss,
    );
    let layers = cfg.trace.then(|| {
        traced.untraced_wall_per_op_s = measured_wall / measured.len().max(1) as f64;
        let replay = Replay::measure(
            &dep.engine,
            &dep.paths,
            shape.patients,
            &oracle_inputs.union,
        );
        print!("{}", layer_table(cfg.workload, &traced, &replay));
        let q = Summary::of(&traced.queue_wait_ms);
        println!(
            "service: queue wait p50 {:.3} ms, tail {:.3} ms at {}; run p50 {:.3} ms",
            q.p50,
            q.tail,
            q.tail_label(),
            median(&traced.run_ms)
        );
        layer_metrics(&traced, &replay)
    });
    dep.analysis.job_service().shutdown(ShutdownMode::Drain);
    Outcome {
        attempted,
        failed,
        end_to_end: e2e,
        per_layer: layers,
    }
}

/// Fold the service-level figures of one traced phase into the totals:
/// queue wait and run time per query, tile-memo use and replicates saved.
fn fold_queries(
    t: &mut TracedTotals,
    answers: &[Answered],
    runs: &HashMap<u64, (u64, u64)>,
    broadcasts: u64,
    shape: &Shape,
) {
    let mut rounds = 0u64;
    for a in answers {
        if let Some(&(first, last)) = runs.get(&a.job) {
            t.queue_wait_ms
                .push(first.saturating_sub(a.submit_mono) as f64 * 1e-6);
            t.run_ms.push(last.saturating_sub(first) as f64 * 1e-6);
        }
        if let (Query::Adaptive(..), Some(r)) = (a.query, &a.result) {
            let used = r.resample.map_or(0, |(_, used)| used) as u64;
            rounds += used.div_ceil(MC_TILE as u64);
            t.replicates_used += used;
            t.replicates_offered += shape.query_max_b as u64;
        }
    }
    // Each grid round broadcasts its activity plane, plus its multiplier
    // tile when the memo misses; set queries broadcast nothing.
    let misses = broadcasts.saturating_sub(rounds).min(rounds);
    t.tile_lookups += rounds;
    t.tile_hits += rounds - misses;
}

/// Check every answer against the oracles; return how many failed.
fn verify(
    inputs: &OracleInputs,
    model: &Model,
    shape: &Shape,
    measured: &[Answered],
    traced: &[Answered],
) -> u64 {
    let observed = observed_skat(model, &inputs.rows, &inputs.weights, &inputs.sets);
    let observed: HashMap<u64, f64> = inputs.sets.iter().map(|s| s.id).zip(observed).collect();
    let mut adaptive: HashMap<(u64, u64), (f64, (usize, usize))> = HashMap::new();
    let mut failed = 0;
    let (mut sets_ok, mut adaptive_ok) = (0usize, 0usize);
    for a in measured.iter().chain(traced) {
        let ok = match (a.query, &a.result) {
            (_, None) => false,
            (Query::Set(set), Some(r)) => {
                let o = observed[&set];
                let ok = r.set == set
                    && r.resample.is_none()
                    && (r.score - o).abs() <= 1e-9 * (1.0 + o.abs());
                sets_ok += usize::from(ok);
                ok
            }
            (Query::Adaptive(set, seed), Some(r)) => {
                let &mut (score, pair) = adaptive.entry((set, seed)).or_insert_with(|| {
                    let (rows, weights, one) = inputs.one_set(set);
                    let o = monte_carlo_adaptive(
                        model,
                        &rows,
                        &weights,
                        &[one],
                        shape.query_max_b,
                        seed,
                        MC_TILE,
                        &rule(),
                    );
                    (o.observed[0], (o.counts_ge[0], o.replicates_used[0]))
                });
                let ok = r.set == set && r.score == score && r.resample == Some(pair);
                adaptive_ok += usize::from(ok);
                ok
            }
        };
        if !ok {
            failed += 1;
            println!("query FAILED: {:?} answered {:?}", a.query, a.result);
        }
    }
    println!(
        "correctness: {sets_ok} set queries match the observed scores, {adaptive_ok} adaptive queries match monte_carlo_adaptive ({} distinct oracle runs), {failed} failed",
        adaptive.len()
    );
    failed
}
