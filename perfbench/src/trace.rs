//! The traced run: an [`EventListener`] that keeps the engine's task,
//! span and job events in memory, and the attribution of a wall-clock
//! window to layers.
//!
//! Attribution sweeps the window's timeline. At each instant the running
//! tasks share it equally; each task's share goes to its innermost open
//! span (`kernel:*`, `shuffle:*`, `cache:recompute`) or to the task
//! itself. An instant with no task running but an engine job open is
//! scheduling; one with no job open is driver time. The shares therefore
//! add up to the window exactly.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use sparkscore_data::DatasetPaths;
use sparkscore_rdd::recorder::current_thread_tenant;
use sparkscore_rdd::{Engine, EngineEvent, EventListener, JobService, JobState};

/// Where a slice of task time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Task time under no named span.
    TaskSelf = 0,
    Qc,
    Contrib,
    Perturb,
    Shuffle,
    Recompute,
    /// A span label this benchmark does not know yet.
    OtherSpan,
}

const SLOTS: usize = 7;

impl Slot {
    fn of(label: &str) -> Slot {
        match label {
            "kernel:qc" => Slot::Qc,
            "kernel:contributions" => Slot::Contrib,
            "kernel:perturb" => Slot::Perturb,
            "shuffle:write" | "shuffle:fetch" => Slot::Shuffle,
            "cache:recompute" => Slot::Recompute,
            _ => Slot::OtherSpan,
        }
    }
}

/// Per-window totals; summed over windows, divided by operations.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Window wall time (s).
    pub wall_s: f64,
    /// No engine job open (s).
    pub driver_s: f64,
    /// An engine job open but no task running (s).
    pub sched_s: f64,
    /// Wall-share seconds per [`Slot`].
    pub share_s: [f64; SLOTS],
    /// Busy seconds per [`Slot`] (thread time, not divided by concurrency).
    pub busy_s: [f64; SLOTS],
    /// Summed task run time (s).
    pub task_busy_s: f64,
    pub contrib_rows: u64,
    pub contrib_packed_rows: u64,
    /// Kernel rows of perturbation tasks: SNP rows × patients × replicates.
    pub perturb_rows: u64,
    /// Task input bytes per input file (index as in [`FileIndex`]).
    pub input_bytes: [u64; 2],
    /// Largest ledger total (cache + shuffle + DFS + scratch) at a stage
    /// boundary.
    pub mem_peak_bytes: u64,
    pub events: u64,
}

impl Layers {
    pub fn add(&mut self, o: &Layers) {
        self.wall_s += o.wall_s;
        self.driver_s += o.driver_s;
        self.sched_s += o.sched_s;
        for i in 0..SLOTS {
            self.share_s[i] += o.share_s[i];
            self.busy_s[i] += o.busy_s[i];
        }
        self.task_busy_s += o.task_busy_s;
        self.contrib_rows += o.contrib_rows;
        self.contrib_packed_rows += o.contrib_packed_rows;
        self.perturb_rows += o.perturb_rows;
        for i in 0..2 {
            self.input_bytes[i] += o.input_bytes[i];
        }
        self.mem_peak_bytes = self.mem_peak_bytes.max(o.mem_peak_bytes);
        self.events += o.events;
    }

    pub fn share(&self, slot: Slot) -> f64 {
        self.share_s[slot as usize]
    }

    pub fn busy(&self, slot: Slot) -> f64 {
        self.busy_s[slot as usize]
    }
}

/// Maps a task's input size to the file it read: a text-file task reads
/// exactly one DFS block, and the block sizes of the genotype (index 0)
/// and weights (index 1) files are known from the namenode.
pub struct FileIndex {
    by_len: HashMap<u64, usize>,
}

impl FileIndex {
    /// The index of the cohort's genotype and weights files.
    pub fn of_cohort(engine: &Engine, paths: &DatasetPaths) -> Self {
        let sizes = |p: &str| -> Vec<u64> {
            engine
                .dfs()
                .stat(p)
                .expect("cohort file exists")
                .blocks
                .iter()
                .map(|&(_, len)| len)
                .collect()
        };
        Self::new(&sizes(&paths.genotypes), &sizes(&paths.weights))
    }

    fn new(genotype_blocks: &[u64], weight_blocks: &[u64]) -> Self {
        let mut by_len = HashMap::new();
        // Genotype blocks win a (never observed) size collision.
        for &len in weight_blocks {
            by_len.insert(len, 1);
        }
        for &len in genotype_blocks {
            by_len.insert(len, 0);
        }
        FileIndex { by_len }
    }

    fn file_of(&self, len: u64) -> Option<usize> {
        self.by_len.get(&len).copied()
    }
}

/// Attribute the window `[w0, w1]` (engine monotonic ns) using `events`.
pub fn attribute(events: &[EngineEvent], w0: u64, w1: u64, files: &FileIndex) -> Layers {
    let mut out = Layers {
        wall_s: ns(w1.saturating_sub(w0)),
        events: events.len() as u64,
        ..Layers::default()
    };
    let mut spans_of: HashMap<u64, Vec<(u64, u64, Slot)>> = HashMap::new();
    let mut tasks = Vec::new();
    let mut open_jobs: HashMap<u64, u64> = HashMap::new();
    // (time, +1/-1, what): what = Some(slot) for a task piece, None for a job.
    let mut marks: Vec<(u64, i64, Option<Slot>)> = Vec::new();
    for e in events {
        match e {
            EngineEvent::Span {
                span,
                label,
                start_ns,
                end_ns,
            } => {
                spans_of
                    .entry(span.parent)
                    .or_default()
                    .push((*start_ns, *end_ns, Slot::of(label)))
            }
            EngineEvent::TaskEnd { metrics, .. } => tasks.push(*metrics),
            EngineEvent::JobStart { job, mono_ns, .. } => {
                open_jobs.insert(*job, *mono_ns);
            }
            EngineEvent::JobEnd { job, mono_ns, .. } => {
                if let Some(start) = open_jobs.remove(job) {
                    marks.push((start, 1, None));
                    marks.push((*mono_ns, -1, None));
                }
            }
            EngineEvent::MemoryWatermark {
                block_cache_bytes,
                shuffle_store_bytes,
                dfs_blocks_bytes,
                scratch_bytes,
                ..
            } => {
                let total =
                    block_cache_bytes + shuffle_store_bytes + dfs_blocks_bytes + scratch_bytes;
                out.mem_peak_bytes = out.mem_peak_bytes.max(total);
            }
            _ => {}
        }
    }

    for m in &tasks {
        let (s, e) = (m.mono_start_ns, m.mono_end_ns);
        out.task_busy_s += ns(e.saturating_sub(s));
        let spans = spans_of.get(&m.span.span).map_or(&[][..], Vec::as_slice);
        if spans.iter().any(|sp| sp.2 == Slot::Contrib) {
            out.contrib_rows += m.kernel_rows;
            out.contrib_packed_rows += m.packed_kernel_rows;
        } else if spans.iter().any(|sp| sp.2 == Slot::Perturb) {
            out.perturb_rows += m.kernel_rows;
        }
        if m.input_bytes > 0 {
            if let Some(f) = files.file_of(m.input_bytes) {
                out.input_bytes[f] += m.input_bytes;
            }
        }
        if e <= s {
            continue;
        }
        for (a, b, slot) in task_pieces(s, e, spans) {
            out.busy_s[slot as usize] += ns(b - a);
            marks.push((a, 1, Some(slot)));
            marks.push((b, -1, Some(slot)));
        }
    }

    marks.sort_by_key(|&(t, d, _)| (t, d));
    let mut running = [0i64; SLOTS];
    let mut tasks_running = 0i64;
    let mut jobs_open = 0i64;
    let mut prev = w0;
    let mut credit = |a: u64, b: u64, running: &[i64; SLOTS], tasks: i64, jobs: i64| {
        if b <= a {
            return;
        }
        let dt = ns(b - a);
        if tasks > 0 {
            for (i, &r) in running.iter().enumerate() {
                out.share_s[i] += dt * r as f64 / tasks as f64;
            }
        } else if jobs > 0 {
            out.sched_s += dt;
        } else {
            out.driver_s += dt;
        }
    };
    for &(t, d, what) in &marks {
        let t = t.clamp(w0, w1);
        credit(prev, t, &running, tasks_running, jobs_open);
        prev = prev.max(t);
        match what {
            Some(slot) => {
                running[slot as usize] += d;
                tasks_running += d;
            }
            None => jobs_open += d,
        }
    }
    credit(prev, w1, &running, tasks_running, jobs_open);
    out
}

/// Cut the task interval `[s, e]` into pieces, each labelled with the
/// innermost span covering it (the latest-starting one) or the task.
fn task_pieces(s: u64, e: u64, spans: &[(u64, u64, Slot)]) -> Vec<(u64, u64, Slot)> {
    let mut cuts = vec![s, e];
    for &(a, b, _) in spans {
        cuts.push(a.clamp(s, e));
        cuts.push(b.clamp(s, e));
    }
    cuts.sort_unstable();
    cuts.dedup();
    let mut pieces: Vec<(u64, u64, Slot)> = Vec::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let slot = spans
            .iter()
            .filter(|sp| sp.0 <= a && sp.1 >= b)
            .max_by_key(|sp| (sp.0, std::cmp::Reverse(sp.1)))
            .map_or(Slot::TaskSelf, |sp| sp.2);
        match pieces.last_mut() {
            Some(last) if last.2 == slot && last.1 == a => last.1 = b,
            _ => pieces.push((a, b, slot)),
        }
    }
    pieces
}

fn ns(v: u64) -> f64 {
    v as f64 * 1e-9
}

/// Keeps every event it receives, plus, for the service workload, which
/// service job each tenant-tagged engine job ran for.
#[derive(Default)]
pub struct Collector {
    events: Mutex<Vec<EngineEvent>>,
    pub queries: QueryTracker,
}

impl Collector {
    pub fn take(&self) -> Vec<EngineEvent> {
        std::mem::take(&mut *self.events.lock().expect("collector lock"))
    }
}

impl EventListener for Collector {
    fn on_event(&self, event: &EngineEvent) {
        self.on_events(std::slice::from_ref(event));
    }

    fn on_events(&self, events: &[EngineEvent]) {
        for e in events {
            if let EngineEvent::JobStart { mono_ns, .. } | EngineEvent::JobEnd { mono_ns, .. } = e {
                self.queries.observe(*mono_ns);
            }
        }
        self.events
            .lock()
            .expect("collector lock")
            .extend_from_slice(events);
    }
}

/// First engine-job start and last engine-job end per service job.
///
/// Service workers tag their thread with the tenant, and each tenant runs
/// one job at a time in submission order, so the tenant's running job is
/// the first of its submitted jobs that is not yet terminal.
#[derive(Default)]
pub struct QueryTracker {
    service: OnceLock<Arc<JobService>>,
    inner: Mutex<TrackerInner>,
}

#[derive(Default)]
struct TrackerInner {
    pending: HashMap<String, VecDeque<u64>>,
    runs: HashMap<u64, (u64, u64)>,
}

impl QueryTracker {
    pub fn attach(&self, service: Arc<JobService>) {
        let _ = self.service.set(service);
    }

    /// Submit through `submit` with the tracker locked, so the job is
    /// known before its first engine event can arrive.
    pub fn submit<E>(
        &self,
        tenant: &str,
        submit: impl FnOnce() -> Result<u64, E>,
    ) -> Result<u64, E> {
        let mut inner = self.inner.lock().expect("tracker lock");
        let job = submit()?;
        inner
            .pending
            .entry(tenant.to_string())
            .or_default()
            .push_back(job);
        Ok(job)
    }

    fn observe(&self, mono_ns: u64) {
        let (Some(service), Some(tenant)) = (self.service.get(), current_thread_tenant()) else {
            return;
        };
        let mut inner = self.inner.lock().expect("tracker lock");
        let TrackerInner { pending, runs } = &mut *inner;
        let Some(queue) = pending.get_mut(&tenant) else {
            return;
        };
        while let Some(&job) = queue.front() {
            match service.job_state(job) {
                Some(JobState::Running) => {
                    let run = runs.entry(job).or_insert((mono_ns, mono_ns));
                    run.0 = run.0.min(mono_ns);
                    run.1 = run.1.max(mono_ns);
                    return;
                }
                Some(state) if state.is_terminal() => {
                    queue.pop_front();
                }
                _ => return,
            }
        }
    }

    /// Take the recorded `(first start, last end)` per service job.
    pub fn take_runs(&self) -> HashMap<u64, (u64, u64)> {
        let mut inner = self.inner.lock().expect("tracker lock");
        inner.pending.clear();
        std::mem::take(&mut inner.runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkscore_rdd::{SpanContext, TaskMetrics};

    fn task(span: u64, s: u64, e: u64) -> EngineEvent {
        EngineEvent::TaskEnd {
            stage: 0,
            metrics: TaskMetrics {
                span: SpanContext { span, parent: 0 },
                mono_start_ns: s,
                mono_end_ns: e,
                ..TaskMetrics::default()
            },
        }
    }

    fn span(parent: u64, label: &str, s: u64, e: u64) -> EngineEvent {
        EngineEvent::Span {
            span: SpanContext { span: 999, parent },
            label: label.to_string(),
            start_ns: s,
            end_ns: e,
        }
    }

    fn job(id: u64, start: bool, t: u64) -> EngineEvent {
        let span = SpanContext::NONE;
        if start {
            EngineEvent::JobStart {
                job: id,
                virtual_now_ns: 0,
                span,
                mono_ns: t,
            }
        } else {
            EngineEvent::JobEnd {
                job: id,
                virtual_now_ns: 0,
                virtual_advance_ns: 0,
                span,
                mono_ns: t,
            }
        }
    }

    #[test]
    fn shares_add_up_to_the_window() {
        // Job 100..900; task A 200..600 with a recompute 250..550 holding
        // a kernel 300..500; task B 400..800 with a shuffle fetch 400..500.
        let events = vec![
            job(1, true, 100),
            task(10, 200, 600),
            span(10, "cache:recompute", 250, 550),
            span(10, "kernel:contributions", 300, 500),
            task(11, 400, 800),
            span(11, "shuffle:fetch", 400, 500),
            job(1, false, 900),
        ];
        let files = FileIndex::new(&[], &[]);
        let l = attribute(&events, 0, 1000, &files);
        let total = l.driver_s + l.sched_s + l.share_s.iter().sum::<f64>();
        assert!((total - l.wall_s).abs() < 1e-15, "{total} vs {}", l.wall_s);
        let close = |a: f64, b_ns: f64| (a - b_ns * 1e-9).abs() < 1e-15;
        assert!(close(l.driver_s, 200.0), "driver {}", l.driver_s);
        assert!(close(l.sched_s, 200.0), "sched {}", l.sched_s);
        // Kernel 300..400 alone, 400..500 shared with the fetch.
        assert!(close(l.share(Slot::Contrib), 150.0));
        assert!(close(l.share(Slot::Shuffle), 50.0));
        // Recompute self: 250..300 alone, 500..550 shared.
        assert!(close(l.share(Slot::Recompute), 75.0));
        // Task A self 200..250 alone, 550..600 shared; B self 500..800
        // shared to 600, alone after.
        assert!(close(l.share(Slot::TaskSelf), 50.0 + 25.0 + 50.0 + 200.0));
        assert!(close(l.busy(Slot::Contrib), 200.0));
        assert!(close(l.task_busy_s, 800.0));
    }
}
