//! Score-kernel microbenchmark: the numeric hot loops under the
//! resampling algorithms, measured outside the engine so the numbers
//! attribute purely to kernel shape.
//!
//! Four sections, all host wall-clock, each asserting bitwise-identical
//! results across the compared paths *before* any timing:
//!
//! * **packed vs byte genotypes** — a full contribution pass over the
//!   cohort from the 2-bit column-major [`GenotypeBlock`] (unpack into
//!   thread-local scratch, then score) against the same pass over plain
//!   byte rows. Reports the unpack overhead and the 4x memory ratio that
//!   buys the cache budget.
//! * **contributions vs contributions_into** — the allocating trait
//!   default against the allocation-free kernel writing a reused slice.
//! * **packed-direct bit kernels** — QC (counts, MAF, HWE) and the
//!   Gaussian contribution pass computed straight on the 2-bit columns
//!   via popcount kernels, against the byte-slice oracles. The combined
//!   `direct_over_byte` ratio is gated < 1.0 in CI.
//! * **blocked vs tile-1 resampling** — the Algorithm 3 oracle
//!   (`monte_carlo_blocked`) at `--tile` replicates per pass over `U`
//!   against the same oracle at tile 1, one pass per replicate. The JSON
//!   keeps its `per_iteration_total_ns` key for the tile-1 run.
//!
//! Emits `BENCH_kernels.json` (or `--out PATH`) and validates that the
//! emitted file parses back, so CI catches a rotten harness immediately.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkscore_data::GenotypeBlock;
use sparkscore_stats::qc::{check_snp, check_snp_packed, GenotypeCounts, QcThresholds};
use sparkscore_stats::resample::monte_carlo_blocked;
use sparkscore_stats::score::{CoxScore, GaussianScore, ScoreModel, Survival};
use sparkscore_stats::scratch;
use sparkscore_stats::skat::SnpSet;

struct Options {
    patients: usize,
    snps: usize,
    replicates: usize,
    tile: usize,
    passes: usize,
    out: String,
}

impl Options {
    fn from_args() -> Self {
        let mut opts = Options {
            patients: 2000,
            snps: 512,
            replicates: 1000,
            tile: sparkscore_stats::resample::MC_TILE,
            passes: 8,
            out: "BENCH_kernels.json".to_string(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut take = |name: &str| -> String {
                args.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match arg.as_str() {
                "--patients" => opts.patients = take("--patients").parse().expect("integer"),
                "--snps" => opts.snps = take("--snps").parse().expect("integer"),
                "--replicates" => opts.replicates = take("--replicates").parse().expect("integer"),
                "--tile" => opts.tile = take("--tile").parse().expect("integer"),
                "--passes" => opts.passes = take("--passes").parse().expect("integer"),
                "--out" => opts.out = take("--out"),
                other => {
                    eprintln!("unknown argument {other}");
                    eprintln!(
                        "usage: kernels [--patients N] [--snps N] [--replicates N] \
                         [--tile N] [--passes N] [--out PATH]"
                    );
                    std::process::exit(2);
                }
            }
        }
        assert!(
            opts.patients >= 1
                && opts.snps >= 1
                && opts.replicates >= 1
                && opts.tile >= 1
                && opts.passes >= 1
        );
        opts
    }
}

fn random_cohort(n: usize, seed: u64) -> Vec<Survival> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Survival {
            time: rng.gen_range(0.1..60.0),
            event: rng.gen_bool(0.85),
        })
        .collect()
}

fn random_rows(m: usize, n: usize, seed: u64) -> Vec<(u64, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m as u64)
        .map(|id| (id, (0..n).map(|_| rng.gen_range(0u8..3)).collect()))
        .collect()
}

fn main() {
    let opts = Options::from_args();
    let (n, m) = (opts.patients, opts.snps);
    let cohort = random_cohort(n, 11);
    let model = CoxScore::new(&cohort);
    let rows = random_rows(m, n, 12);
    let block = GenotypeBlock::from_rows(n, &rows);

    // ---- packed vs byte genotype contribution pass ----
    // Identity first: unpack-then-score must reproduce the byte path
    // exactly for every SNP.
    let mut byte_out = vec![0.0f64; m * n];
    for ((_, g), slot) in rows.iter().zip(byte_out.chunks_exact_mut(n)) {
        model.contributions_into(g, slot);
    }
    let mut packed_out = vec![0.0f64; m * n];
    scratch::with_u8(n, |g| {
        for (c, slot) in packed_out.chunks_exact_mut(n).enumerate() {
            block.unpack_into(c, g);
            model.contributions_into(g, slot);
        }
    });
    assert_eq!(
        byte_out, packed_out,
        "packed path must be bitwise identical to the byte path"
    );

    let start = Instant::now();
    for _ in 0..opts.passes {
        for ((_, g), slot) in rows.iter().zip(byte_out.chunks_exact_mut(n)) {
            model.contributions_into(g, slot);
        }
        std::hint::black_box(&byte_out);
    }
    let byte_pass_ns = start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    for _ in 0..opts.passes {
        scratch::with_u8(n, |g| {
            for (c, slot) in packed_out.chunks_exact_mut(n).enumerate() {
                block.unpack_into(c, g);
                model.contributions_into(g, slot);
            }
        });
        std::hint::black_box(&packed_out);
    }
    let packed_pass_ns = start.elapsed().as_nanos() as u64;
    let byte_bytes = (m * n) as u64;
    let packed_bytes = block.packed_bytes() as u64;

    // ---- contributions (allocating) vs contributions_into ----
    let alloc_ref: Vec<Vec<f64>> = rows.iter().map(|(_, g)| model.contributions(g)).collect();
    for (r, slot) in alloc_ref.iter().zip(byte_out.chunks_exact(n)) {
        assert_eq!(
            r.as_slice(),
            slot,
            "contributions and contributions_into must agree bitwise"
        );
    }
    let start = Instant::now();
    for _ in 0..opts.passes {
        for (_, g) in &rows {
            std::hint::black_box(model.contributions(g));
        }
    }
    let alloc_ns = start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    let mut slot = vec![0.0f64; n];
    for _ in 0..opts.passes {
        for (_, g) in &rows {
            model.contributions_into(g, &mut slot);
            std::hint::black_box(&slot);
        }
    }
    let into_ns = start.elapsed().as_nanos() as u64;

    // ---- packed-direct bit kernels: QC and affine score accumulation ----
    // Identity first: the popcount kernels must reproduce the byte oracles
    // exactly — genotype counts, the QC verdict, and the Gaussian
    // contribution pass — for every column before anything is timed.
    let trait_values: Vec<f64> = cohort.iter().map(|s| s.time).collect();
    let gauss = GaussianScore::new(&trait_values);
    let thresholds = QcThresholds::default();
    for (c, (_, g)) in rows.iter().enumerate() {
        let byte_counts = GenotypeCounts::from_dosages(g).expect("dosages in 0..=2");
        let (direct_counts, missing) = GenotypeCounts::from_packed(block.column(c), n);
        assert_eq!(byte_counts, direct_counts, "popcount counts diverge");
        assert_eq!(missing, 0, "bench rows carry no missing calls");
        assert_eq!(
            check_snp(g, &thresholds),
            check_snp_packed(block.column(c), n, &thresholds),
            "QC verdicts must agree"
        );
    }
    let mut gauss_byte_out = vec![0.0f64; m * n];
    for ((_, g), slot) in rows.iter().zip(gauss_byte_out.chunks_exact_mut(n)) {
        gauss.contributions_into(g, slot);
    }
    let mut gauss_direct_out = vec![0.0f64; m * n];
    for (c, slot) in gauss_direct_out.chunks_exact_mut(n).enumerate() {
        assert!(
            gauss.contributions_into_packed(block.column(c), slot),
            "Gaussian must take the packed fast path"
        );
    }
    assert_eq!(
        gauss_byte_out, gauss_direct_out,
        "packed-direct contributions must be bitwise identical to the byte kernel"
    );

    let start = Instant::now();
    for _ in 0..opts.passes {
        for (_, g) in &rows {
            std::hint::black_box(check_snp(g, &thresholds)).ok();
        }
    }
    let qc_byte_pass_ns = start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    for _ in 0..opts.passes {
        for c in 0..m {
            std::hint::black_box(check_snp_packed(block.column(c), n, &thresholds)).ok();
        }
    }
    let qc_direct_pass_ns = start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    for _ in 0..opts.passes {
        for ((_, g), slot) in rows.iter().zip(gauss_byte_out.chunks_exact_mut(n)) {
            gauss.contributions_into(g, slot);
        }
        std::hint::black_box(&gauss_byte_out);
    }
    let score_byte_pass_ns = start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    for _ in 0..opts.passes {
        scratch::with_u8(n, |g| {
            for (c, slot) in gauss_direct_out.chunks_exact_mut(n).enumerate() {
                block.unpack_into(c, g);
                gauss.contributions_into(g, slot);
            }
        });
        std::hint::black_box(&gauss_direct_out);
    }
    let score_unpack_pass_ns = start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    for _ in 0..opts.passes {
        for (c, slot) in gauss_direct_out.chunks_exact_mut(n).enumerate() {
            gauss.contributions_into_packed(block.column(c), slot);
        }
        std::hint::black_box(&gauss_direct_out);
    }
    let packed_direct_pass_ns = start.elapsed().as_nanos() as u64;
    let qc_direct_over_byte = qc_direct_pass_ns as f64 / qc_byte_pass_ns as f64;
    let score_direct_over_byte = packed_direct_pass_ns as f64 / score_byte_pass_ns as f64;
    let direct_over_byte = (qc_direct_pass_ns + packed_direct_pass_ns) as f64
        / (qc_byte_pass_ns + score_byte_pass_ns) as f64;

    // ---- Monte Carlo resampling: tile 1 vs tile K ----
    let genotype_rows: Vec<Vec<u8>> = rows.iter().map(|(_, g)| g.clone()).collect();
    let weights = vec![1.0f64; m];
    let sets = vec![SnpSet::new(0, (0..m).collect())];
    let seed = 13;
    let resample = |tile: usize| {
        monte_carlo_blocked(
            &model,
            &genotype_rows,
            &weights,
            &sets,
            opts.replicates,
            seed,
            tile,
        )
    };
    assert_eq!(
        resample(opts.tile),
        resample(1),
        "blocked resampling must be bitwise identical to tile 1"
    );

    let start = Instant::now();
    std::hint::black_box(resample(opts.tile));
    let blocked_ns = start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    std::hint::black_box(resample(1));
    let tile_one_ns = start.elapsed().as_nanos() as u64;
    let blocked_speedup = tile_one_ns as f64 / blocked_ns as f64;

    let json = serde_json::json!({
        "bench": "kernels",
        "patients": n as u64,
        "snps": m as u64,
        "replicates": opts.replicates as u64,
        "tile": opts.tile as u64,
        "passes": opts.passes as u64,
        "genotype_layout": serde_json::json!({
            "byte_pass_ns": byte_pass_ns,
            "packed_pass_ns": packed_pass_ns,
            "unpack_overhead": packed_pass_ns as f64 / byte_pass_ns as f64,
            "byte_bytes": byte_bytes,
            "packed_bytes": packed_bytes,
            "memory_ratio": byte_bytes as f64 / packed_bytes as f64,
        }),
        "contributions": serde_json::json!({
            "alloc_total_ns": alloc_ns,
            "into_total_ns": into_ns,
            "into_speedup": alloc_ns as f64 / into_ns as f64,
        }),
        "packed_direct": serde_json::json!({
            "qc_byte_pass_ns": qc_byte_pass_ns,
            "qc_direct_pass_ns": qc_direct_pass_ns,
            "qc_direct_over_byte": qc_direct_over_byte,
            "score_byte_pass_ns": score_byte_pass_ns,
            "score_unpack_pass_ns": score_unpack_pass_ns,
            "packed_direct_pass_ns": packed_direct_pass_ns,
            "score_direct_over_byte": score_direct_over_byte,
            "direct_over_byte": direct_over_byte,
        }),
        "resampling": serde_json::json!({
            "blocked_total_ns": blocked_ns,
            "per_iteration_total_ns": tile_one_ns,
            "blocked_speedup": blocked_speedup,
        }),
    });
    let text = serde_json::to_string_pretty(&json).expect("serialize bench report");
    std::fs::write(&opts.out, &text).expect("write bench report");

    // Self-validation: the emitted file must parse back as JSON.
    let read_back = std::fs::read_to_string(&opts.out).expect("re-read bench report");
    serde_json::from_str::<serde_json::Value>(&read_back).expect("bench report must parse");

    println!(
        "genotype pass: byte {:.1} ms vs packed {:.1} ms ({:.2}x unpack overhead, {:.2}x less memory)",
        byte_pass_ns as f64 / 1e6,
        packed_pass_ns as f64 / 1e6,
        packed_pass_ns as f64 / byte_pass_ns as f64,
        byte_bytes as f64 / packed_bytes as f64,
    );
    println!(
        "contributions: alloc {:.1} ms vs into {:.1} ms ({:.2}x)",
        alloc_ns as f64 / 1e6,
        into_ns as f64 / 1e6,
        alloc_ns as f64 / into_ns as f64,
    );
    println!(
        "packed direct: qc byte {:.1} ms vs direct {:.1} ms ({qc_direct_over_byte:.2}x); \
         score byte {:.1} ms vs unpack {:.1} ms vs direct {:.1} ms ({score_direct_over_byte:.2}x); \
         combined {direct_over_byte:.2}x",
        qc_byte_pass_ns as f64 / 1e6,
        qc_direct_pass_ns as f64 / 1e6,
        score_byte_pass_ns as f64 / 1e6,
        score_unpack_pass_ns as f64 / 1e6,
        packed_direct_pass_ns as f64 / 1e6,
    );
    println!(
        "resampling (B={}): tile 1 {:.1} ms vs tile {} {:.1} ms ({blocked_speedup:.2}x)",
        opts.replicates,
        tile_one_ns as f64 / 1e6,
        opts.tile,
        blocked_ns as f64 / 1e6,
    );
    println!("wrote {}", opts.out);
}
