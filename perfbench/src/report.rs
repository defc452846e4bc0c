//! Metrics, the per-layer table of a traced run, and the result line.

use std::fmt::Write as _;

use sparkscore_rdd::{EngineEvent, MetricsSnapshot};

use crate::pct::Summary;
use crate::replay::Replay;
use crate::trace::{attribute, FileIndex, Layers, Slot};

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a traced run measured, summed over its traced operations.
#[derive(Default)]
pub struct TracedTotals {
    /// Traced operations (analyses or queries).
    pub ops: usize,
    pub layers: Layers,
    /// Engine counter deltas over the traced windows.
    pub counters: MetricsSnapshot,
    /// Untraced wall per operation, measured interleaved with the traced
    /// windows (s).
    pub untraced_wall_per_op_s: f64,
    /// Multiplier-tile memo lookups and hits (service only).
    pub tile_lookups: u64,
    pub tile_hits: u64,
    /// Replicates the stopping rule left unused, of the budget offered.
    pub replicates_used: u64,
    pub replicates_offered: u64,
    /// Service queue wait and run time per query (ms).
    pub queue_wait_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
}

impl TracedTotals {
    /// Fold one traced window `[w0, w1]` (engine monotonic ns) holding
    /// `ops` operations into the totals.
    pub fn add_window(
        &mut self,
        events: &[EngineEvent],
        (w0, w1): (u64, u64),
        files: &FileIndex,
        counters: &MetricsSnapshot,
        ops: usize,
    ) {
        self.layers.add(&attribute(events, w0, w1, files));
        let sum = &mut self.counters;
        sum.jobs += counters.jobs;
        sum.stages += counters.stages;
        sum.tasks += counters.tasks;
        sum.cache_hits += counters.cache_hits;
        sum.cache_misses += counters.cache_misses;
        sum.shuffle_bytes_written += counters.shuffle_bytes_written;
        sum.input_bytes += counters.input_bytes;
        sum.broadcast_bytes += counters.broadcast_bytes;
        self.ops += ops;
    }
}

fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-operation layer rows: `(metric name, seconds, note)`. With
/// `bench.unattributed_s` they add up to the traced wall per operation.
fn table_rows(t: &TracedTotals, replay: &Replay) -> (Vec<(&'static str, f64, &'static str)>, f64) {
    let l = &t.layers;
    let ops = t.ops.max(1) as f64;
    // Passes over each input file, from the bytes the tasks read.
    let passes: Vec<f64> = replay
        .files
        .iter()
        .zip(l.input_bytes)
        .map(|(f, read)| frac(read as f64, f.bytes as f64))
        .collect();
    let replay_cpu = |get: fn(&crate::replay::FilePass) -> f64| -> f64 {
        replay
            .files
            .iter()
            .zip(&passes)
            .map(|(f, p)| get(f) * p)
            .sum()
    };
    // Replay seconds are one thread's; task self time in the sweep is
    // divided among concurrent tasks. Scale by the same ratio.
    let scale = frac(l.share(Slot::TaskSelf), l.busy(Slot::TaskSelf));
    let read = replay_cpu(|f| f.read_s) * scale;
    let parse = replay_cpu(|f| f.parse_s) * scale;
    let pack = replay_cpu(|f| f.pack_s) * scale;
    let rows = vec![
        ("core.driver_s", l.driver_s, "no engine job open"),
        ("rdd.sched_s", l.sched_s, "job open, no task running"),
        ("dfs.read_s", read, "replay"),
        ("data.parse_s", parse, "replay"),
        ("data.pack_s", pack, "replay"),
        ("stats.qc_s", l.share(Slot::Qc), "span kernel:qc"),
        (
            "stats.contrib_s",
            l.share(Slot::Contrib),
            "span kernel:contributions",
        ),
        (
            "stats.perturb_s",
            l.share(Slot::Perturb),
            "span kernel:perturb",
        ),
        (
            "rdd.shuffle_s",
            l.share(Slot::Shuffle),
            "spans shuffle:write+fetch",
        ),
        (
            "rdd.recompute_s",
            l.share(Slot::Recompute),
            "span cache:recompute, self",
        ),
        (
            "rdd.other_span_s",
            l.share(Slot::OtherSpan),
            "spans of other labels",
        ),
    ];
    let rows: Vec<_> = rows
        .into_iter()
        .map(|(n, v, note)| (n, v / ops, note))
        .collect();
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    let unattributed = l.wall_s / ops - attributed;
    (rows, unattributed)
}

/// The per-layer metrics of a traced run.
pub fn layer_metrics(t: &TracedTotals, replay: &Replay) -> Vec<Metric> {
    let l = &t.layers;
    let c = &t.counters;
    let ops = t.ops.max(1) as f64;
    let (rows, unattributed) = table_rows(t, replay);
    let row = |name: &str| rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1);
    let traced_wall = l.wall_s / ops;
    let lines: f64 = replay
        .files
        .iter()
        .zip(l.input_bytes)
        .map(|(f, read)| frac(read as f64, f.bytes as f64) * f.lines as f64)
        .sum();
    let perturb_flops = 2.0 * l.perturb_rows as f64;
    let queue = Summary::of(&t.queue_wait_ms);
    vec![
        metric("bench.traced_wall_s", traced_wall, "s"),
        metric("bench.untraced_wall_s", t.untraced_wall_per_op_s, "s"),
        metric(
            "bench.trace_overhead_frac",
            frac(traced_wall, t.untraced_wall_per_op_s) - 1.0,
            "frac",
        ),
        metric("bench.unattributed_s", unattributed, "s"),
        metric("core.driver_s", row("core.driver_s"), "s"),
        metric("rdd.sched_s", row("rdd.sched_s"), "s"),
        metric("dfs.read_s", row("dfs.read_s"), "s"),
        metric("data.parse_s", row("data.parse_s"), "s"),
        metric("data.pack_s", row("data.pack_s"), "s"),
        metric("stats.qc_s", row("stats.qc_s"), "s"),
        metric("stats.contrib_s", row("stats.contrib_s"), "s"),
        metric("stats.perturb_s", row("stats.perturb_s"), "s"),
        metric("rdd.shuffle_s", row("rdd.shuffle_s"), "s"),
        metric("rdd.recompute_s", row("rdd.recompute_s"), "s"),
        metric("rdd.task_s", l.task_busy_s / ops, "s"),
        metric("dfs.read_bytes", c.input_bytes as f64 / ops, "B"),
        metric("data.lines_parsed", lines / ops, "count"),
        metric("stats.contrib_rows", l.contrib_rows as f64 / ops, "count"),
        metric(
            "stats.packed_row_frac",
            frac(l.contrib_packed_rows as f64, l.contrib_rows as f64),
            "frac",
        ),
        metric("stats.perturb_flops", perturb_flops / ops, "count"),
        metric(
            "stats.perturb_gflops",
            frac(perturb_flops, l.busy(Slot::Perturb)) * 1e-9,
            "GFLOP/s",
        ),
        metric("rdd.jobs", c.jobs as f64 / ops, "count"),
        metric("rdd.stages", c.stages as f64 / ops, "count"),
        metric("rdd.tasks", c.tasks as f64 / ops, "count"),
        metric(
            "rdd.shuffle_bytes",
            c.shuffle_bytes_written as f64 / ops,
            "B",
        ),
        metric("rdd.broadcast_bytes", c.broadcast_bytes as f64 / ops, "B"),
        metric(
            "rdd.cache_hit_frac",
            frac(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "frac",
        ),
        metric("rdd.mem_peak_bytes", l.mem_peak_bytes as f64, "B"),
        metric(
            "core.tile_memo_hit_frac",
            frac(t.tile_hits as f64, t.tile_lookups as f64),
            "frac",
        ),
        metric(
            "core.replicate_saved_frac",
            if t.replicates_offered > 0 {
                1.0 - frac(t.replicates_used as f64, t.replicates_offered as f64)
            } else {
                0.0
            },
            "frac",
        ),
        metric("service.queue_wait_ms_p50", queue.p50, "ms"),
        metric("service.queue_wait_ms_p99", queue.tail, "ms"),
        metric("service.run_ms_p50", Summary::of(&t.run_ms).p50, "ms"),
        metric("obs.events", l.events as f64 / ops, "count"),
    ]
}

/// The layer table of a traced run, one row per layer plus the remainder.
pub fn layer_table(workload: &str, t: &TracedTotals, replay: &Replay) -> String {
    let (rows, unattributed) = table_rows(t, replay);
    let ops = t.ops.max(1) as f64;
    let wall = t.layers.wall_s / ops;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "layer self time per operation, {workload}: {} traced operations",
        t.ops
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>12} {:>7}  source",
        "layer", "seconds", "share"
    );
    for (name, v, note) in rows.iter().copied().chain([(
        "bench.unattributed_s",
        unattributed,
        "task time under no span, less the replays",
    )]) {
        let _ = writeln!(
            out,
            "  {name:<22} {v:>12.6} {:>6.1}%  {note}",
            100.0 * frac(v, wall)
        );
    }
    let sum: f64 = rows.iter().map(|r| r.1).sum::<f64>() + unattributed;
    let _ = writeln!(
        out,
        "  {:<22} {sum:>12.6} {:>6.1}%",
        "sum of rows",
        100.0 * frac(sum, wall)
    );
    let _ = writeln!(
        out,
        "  traced wall {wall:.6} s, untraced wall {:.6} s per operation (overhead {:+.1}%)",
        t.untraced_wall_per_op_s,
        100.0 * (frac(wall, t.untraced_wall_per_op_s) - 1.0)
    );
    out
}

/// The end-to-end metrics every workload reports, in the order
/// `BENCHMARK.json` lists them.
pub fn end_to_end(
    setup_s: f64,
    latency_ms: &Summary,
    ops_per_s: f64,
    virtual_s: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("latency_p50_ms", latency_ms.p50, "ms"),
        metric("latency_tail_ms", latency_ms.tail, "ms"),
        metric("ops_per_s", ops_per_s, "1/s"),
        metric("virtual_s", virtual_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// The result line: one JSON object with the keys `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite number in full precision (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[metric("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
