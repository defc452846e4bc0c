//! Replay of the ingest layers that have no engine span: DFS block read,
//! line parsing and 2-bit packing, timed by calling their public
//! functions on the workload's own blocks and lines.

use std::hint::black_box;
use std::time::Instant;

use sparkscore_data::io::{parse_genotype_line, parse_weight_line};
use sparkscore_data::{DatasetPaths, GenotypeBlock};
use sparkscore_dfs::text::block_lines;
use sparkscore_rdd::Engine;

use crate::pct::median;

/// One full pass over one input file, as a task pipeline makes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FilePass {
    pub bytes: u64,
    pub lines: u64,
    /// Block reads into owned lines (`read_block` + `block_lines`), s.
    pub read_s: f64,
    /// Line parsing, s.
    pub parse_s: f64,
    /// Set-member filter and packing into `GenotypeBlock`s, s (genotype
    /// file only).
    pub pack_s: f64,
}

/// Replayed passes: `[genotypes, weights]`, matching `trace::FileIndex`.
pub struct Replay {
    pub files: [FilePass; 2],
}

/// Passes timed per file; each phase reports its median.
const REPS: usize = 5;

impl Replay {
    pub fn measure(engine: &Engine, paths: &DatasetPaths, patients: usize, union: &[u64]) -> Self {
        Replay {
            files: [
                replay_file(engine, &paths.genotypes, |lines| {
                    let rows: Vec<(u64, Vec<u8>)> =
                        lines.iter().map(|l| parse_genotype_line(l)).collect();
                    let t = Instant::now();
                    let kept: Vec<(u64, Vec<u8>)> = rows
                        .into_iter()
                        .filter(|(snp, _)| union.binary_search(snp).is_ok())
                        .collect();
                    black_box(GenotypeBlock::from_rows(patients, &kept));
                    t.elapsed().as_secs_f64()
                }),
                replay_file(engine, &paths.weights, |lines| {
                    black_box(
                        lines
                            .iter()
                            .map(|l| parse_weight_line(l))
                            .collect::<Vec<_>>(),
                    );
                    0.0
                }),
            ],
        }
    }
}

/// Time one file's passes. `parse_and_pack` parses a block's lines and
/// returns the seconds it spent packing (already inside its own total).
fn replay_file(engine: &Engine, path: &str, parse_and_pack: impl Fn(&[String]) -> f64) -> FilePass {
    let dfs = engine.dfs();
    let meta = dfs.stat(path).expect("cohort file exists");
    let (mut read, mut parse, mut pack) = (Vec::new(), Vec::new(), Vec::new());
    let mut lines = 0u64;
    for _ in 0..REPS {
        let (mut r, mut p, mut k) = (0.0, 0.0, 0.0);
        lines = 0;
        for &(block, _) in &meta.blocks {
            let t = Instant::now();
            let (data, _) = dfs.read_block(block, None).expect("block readable");
            let owned: Vec<String> = block_lines(&data).map(str::to_owned).collect();
            r += t.elapsed().as_secs_f64();
            lines += owned.len() as u64;
            let t = Instant::now();
            let packing = parse_and_pack(&owned);
            p += t.elapsed().as_secs_f64() - packing;
            k += packing;
        }
        read.push(r);
        parse.push(p);
        pack.push(k);
    }
    FilePass {
        bytes: meta.total_bytes,
        lines,
        read_s: median(&read),
        parse_s: median(&parse),
        pack_s: median(&pack),
    }
}
