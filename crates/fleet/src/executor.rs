//! The std-only thread-pool executor.
//!
//! Workers pull jobs from a shared [`JobQueue`] (a `Mutex`-guarded deque
//! with a `Condvar` for wakeups — the std-only stand-in for a work-stealing
//! deque: idle workers steal the next job the moment they finish their
//! own), run each simulation in summary-only mode, and deposit the result
//! into its grid slot. Because every job's seed is derived from its grid
//! coordinates and the final rollup folds results in job order, the merged
//! statistics are bit-identical for any worker count and any completion
//! order.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use fedco_device::profiler::EnergyComponent;
use fedco_sim::engine::{run_simulation, run_simulation_traced};
use fedco_sim::trace::SimResult;
use fedco_telemetry::event::{Event, EventKind};
use fedco_telemetry::metrics::MetricsRegistry;
use fedco_telemetry::profiling::{Measured, Stopwatch};

use crate::grid::{FleetJob, LinkKind, ScenarioGrid};
use crate::stats::CellRollup;

/// A closeable multi-producer/multi-consumer job queue on
/// `Mutex` + `Condvar`.
#[derive(Debug)]
pub struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Default for JobQueue<T> {
    fn default() -> Self {
        JobQueue::new()
    }
}

impl<T> JobQueue<T> {
    /// An empty, open queue.
    pub fn new() -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// The single audited lock acquisition: poisoning means a worker thread
    /// already panicked mid-job, so the sweep's results are gone either way
    /// and propagating the panic is the only honest response.
    fn locked(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        // fedco-audit: allow(panic-surface): poisoned lock means a worker already panicked; propagate
        self.state.lock().expect("queue lock poisoned")
    }

    /// Enqueues one job and wakes one waiting worker.
    ///
    /// # Panics
    ///
    /// Panics if the queue is already closed.
    pub fn push(&self, item: T) {
        let mut state = self.locked();
        assert!(!state.closed, "push on closed JobQueue");
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
    }

    /// Closes the queue: once drained, `pop` returns `None` forever.
    pub fn close(&self) {
        self.locked().closed = true;
        self.available.notify_all();
    }

    /// Blocks until a job is available (returning it) or the queue is both
    /// closed and empty (returning `None`).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.locked();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            // fedco-audit: allow(panic-surface): poisoned lock means a worker already panicked; propagate
            state = self.available.wait(state).expect("queue lock poisoned");
        }
    }

    /// Number of jobs currently waiting.
    pub fn len(&self) -> usize {
        self.locked().items.len()
    }

    /// Whether no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The scalar outcome of one finished job, keyed by the pair
/// `(scenario label, policy label)`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Linear job index in grid order.
    pub id: usize,
    /// The scenario label of the cell
    /// ([`ScenarioSpec::label`](fedco_core::scenario::ScenarioSpec::label)
    /// plus any applied axis overrides).
    pub scenario: String,
    /// The spec label of the cell's policy
    /// ([`PolicySpec::label`](fedco_core::spec::PolicySpec::label)).
    pub policy: String,
    /// The resolved per-slot arrival probability.
    pub arrival_probability: f64,
    /// Label of the resolved device assignment.
    pub devices: String,
    /// Label of the resolved transport link.
    pub link: &'static str,
    /// The replicate seed of the cell (before SplitMix64 derivation).
    pub seed: u64,
    /// Total device energy, in joules.
    pub total_energy_j: f64,
    /// Radio energy charged by the transport link, in joules.
    pub radio_energy_j: f64,
    /// Updates applied to the global model.
    pub total_updates: u64,
    /// Local epochs co-run with a foreground application.
    pub corun_epochs: u64,
    /// Mean staleness lag across updates.
    pub mean_lag: f64,
    /// Maximum staleness lag.
    pub max_lag: u64,
    /// Time-averaged task-queue backlog.
    pub mean_queue: f64,
    /// Time-averaged virtual-queue backlog.
    pub mean_virtual_queue: f64,
    /// Final test accuracy (when the ML workload was enabled).
    pub final_accuracy: Option<f32>,
    /// Wall-clock milliseconds this job took. A [`Measured`] profiling
    /// value: it never participates in the derived `PartialEq`, so the
    /// summary's determinism contract is enforced by the type, not by an
    /// ad-hoc equality implementation.
    pub wall_ms: Measured<f64>,
    /// Simulated slots per wall-clock second this job achieved
    /// (`total_slots / wall`; a [`Measured`] profiling value, like
    /// `wall_ms`). This is the same throughput metric the `bench_engine`
    /// benchmark reports, so sweep reports double as benchmark
    /// trajectories.
    pub slots_per_sec: Measured<f64>,
}

impl JobSummary {
    fn from_result(job: &FleetJob, result: &SimResult, wall_ms: f64) -> Self {
        // fold instead of sum(): an empty float sum() is -0.0, which would
        // print as "-0" in the CSV/JSONL reports.
        let radio_energy_j = result
            .energy_by_component
            .iter()
            .filter(|(c, _)| *c == EnergyComponent::Radio)
            .fold(0.0, |acc, (_, e)| acc + *e);
        JobSummary {
            id: job.id,
            scenario: job.scenario_label.clone(),
            policy: result.policy.label(),
            arrival_probability: job.config.arrival_probability,
            devices: job.config.devices.label(),
            link: LinkKind::label_for(&job.config.transport),
            seed: job.replicate_seed,
            total_energy_j: result.total_energy_j,
            radio_energy_j,
            total_updates: result.total_updates,
            corun_epochs: result.corun_epochs,
            mean_lag: result.mean_lag,
            max_lag: result.max_lag,
            mean_queue: result.mean_queue,
            mean_virtual_queue: result.mean_virtual_queue,
            final_accuracy: result.final_accuracy,
            wall_ms: Measured(wall_ms),
            slots_per_sec: Measured(job.config.total_slots as f64 * 1e3 / wall_ms.max(1e-9)),
        }
    }
}

/// The merged outcome of a whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-job summaries, in grid order.
    pub jobs: Vec<JobSummary>,
    /// Per-cell rollups, one per distinct `(scenario, policy)` label pair,
    /// in first-appearance job order.
    pub rollups: Vec<CellRollup>,
    /// How many worker threads ran the sweep.
    pub workers: usize,
    /// Wall-clock seconds of the whole sweep (a [`Measured`] profiling
    /// value: ignored by `PartialEq`).
    pub wall_s: Measured<f64>,
}

impl FleetReport {
    /// Total energy across all runs, in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.rollups.iter().map(|r| r.energy_j.sum()).sum()
    }

    /// The rollup of one `(scenario label, policy label)` cell, if it was
    /// part of the sweep.
    pub fn rollup(&self, scenario: &str, policy: &str) -> Option<&CellRollup> {
        self.rollups
            .iter()
            .find(|r| r.scenario == scenario && r.policy == policy)
    }

    /// The rollups of one policy label across every scenario of the sweep,
    /// in report order.
    pub fn rollups_for_policy<'a>(
        &'a self,
        policy: &'a str,
    ) -> impl Iterator<Item = &'a CellRollup> + 'a {
        self.rollups.iter().filter(move |r| r.policy == policy)
    }

    /// The rollups of one scenario label across every policy of the sweep,
    /// in report order.
    pub fn rollups_for_scenario<'a>(
        &'a self,
        scenario: &'a str,
    ) -> impl Iterator<Item = &'a CellRollup> + 'a {
        self.rollups.iter().filter(move |r| r.scenario == scenario)
    }
}

/// Resolves a worker-count request: `0` means one worker per available core.
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Runs every job of the grid on `workers` threads (`0` = one per core) and
/// folds the results into a [`FleetReport`].
///
/// Determinism contract: the report's `jobs` and `rollups` are bit-identical
/// for every `workers` value, because job seeds depend only on grid
/// coordinates and the fold happens in job order after all workers join.
/// Only the `wall_ms`/`wall_s` timings vary between runs.
///
/// # Panics
///
/// Panics if the grid is invalid or a worker thread panics.
pub fn run_grid(grid: &ScenarioGrid, workers: usize) -> FleetReport {
    run_grid_impl(grid, workers, false).0
}

/// The merged telemetry of a traced sweep.
///
/// Every job's event stream is wrapped in `job-start`/`job-end` lifecycle
/// markers and concatenated **in job order** after all workers join — the
/// same per-shard/fixed-merge discipline the result slots use — so both the
/// event stream and the metrics derived from it are bit-identical for any
/// worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTrace {
    /// The merged event stream, in job order.
    pub events: Vec<Event>,
    /// Metrics derived from `events`, keyed by the `(scenario, policy)`
    /// labels the job lifecycle markers carry.
    pub metrics: MetricsRegistry,
}

/// Runs the grid like [`run_grid`] while tracing every job, and merges the
/// per-job event streams into one deterministic [`SweepTrace`].
///
/// The report is identical to an untraced run of the same grid (tracing
/// buffers events per job; it never perturbs simulation state), and the
/// trace/metrics are bit-identical for every `workers` value.
///
/// # Panics
///
/// Panics if the grid is invalid or a worker thread panics.
pub fn run_grid_traced(grid: &ScenarioGrid, workers: usize) -> (FleetReport, SweepTrace) {
    let (report, traces) = run_grid_impl(grid, workers, true);
    let mut events = Vec::new();
    for (job, trace) in report.jobs.iter().zip(traces) {
        events.push(Event::new(
            0,
            EventKind::JobStart {
                job: job.id as u64,
                scenario: job.scenario.clone(),
                policy: job.policy.clone(),
            },
        ));
        let end_slot = trace.last().map(|e| e.slot).unwrap_or(0);
        events.extend(trace);
        events.push(Event::new(
            end_slot,
            EventKind::JobEnd { job: job.id as u64 },
        ));
    }
    let metrics = MetricsRegistry::from_trace(&events);
    (report, SweepTrace { events, metrics })
}

/// One completed job's deposit: the summary plus its (possibly empty) trace.
type JobSlot = Option<(JobSummary, Vec<Event>)>;

fn run_grid_impl(
    grid: &ScenarioGrid,
    workers: usize,
    traced: bool,
) -> (FleetReport, Vec<Vec<Event>>) {
    let sweep_watch = Stopwatch::start();
    let jobs = grid.expand();
    let n_jobs = jobs.len();
    let workers = resolve_workers(workers).min(n_jobs.max(1));

    let queue: JobQueue<FleetJob> = JobQueue::new();
    for job in jobs {
        queue.push(job);
    }
    queue.close();

    // Each slot is filled exactly once, keyed by job id, so completion order
    // cannot affect the fold below. Traced runs deposit the job's event
    // stream in the same slot: one shard per job, merged in job order.
    let slots: Mutex<Vec<JobSlot>> = Mutex::new((0..n_jobs).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(job) = queue.pop() {
                    let job_watch = Stopwatch::start();
                    // Summary mode is enforced here, at the execution site,
                    // so even hand-built FleetJobs never materialize traces.
                    let config = job.config.clone().summary_only();
                    let (result, events) = if traced {
                        run_simulation_traced(config)
                    } else {
                        (run_simulation(config), Vec::new())
                    };
                    let wall_ms = job_watch.elapsed_ms();
                    let summary = JobSummary::from_result(&job, &result, wall_ms);
                    // fedco-audit: allow(panic-surface): poisoned lock means a sibling worker already panicked; propagate
                    slots.lock().expect("result lock poisoned")[job.id] = Some((summary, events));
                }
            });
        }
    });

    let (jobs, traces): (Vec<JobSummary>, Vec<Vec<Event>>) = slots
        .into_inner()
        // fedco-audit: allow(panic-surface): poisoned lock means a worker already panicked; propagate
        .expect("result lock poisoned")
        .into_iter()
        // fedco-audit: allow(panic-surface): thread::scope joined every worker, and each worker fills exactly the slots of the jobs it popped
        .map(|s| s.expect("every job slot filled"))
        .unzip();

    // Fold rollups in job order: deterministic regardless of worker count.
    // One rollup per *distinct* (scenario, policy) label pair — a grid
    // listing a pair twice produces twice the jobs, but they all fold into
    // the same rollup.
    let mut rollups: Vec<CellRollup> = Vec::new();
    for job in &jobs {
        match rollups
            .iter_mut()
            .find(|r| r.scenario == job.scenario && r.policy == job.policy)
        {
            Some(rollup) => rollup.absorb(job),
            None => {
                let mut rollup = CellRollup::new(job.scenario.clone(), job.policy.clone());
                rollup.absorb(job);
                rollups.push(rollup);
            }
        }
    }

    let report = FleetReport {
        jobs,
        rollups,
        workers,
        wall_s: Measured(sweep_watch.elapsed_s()),
    };
    (report, traces)
}

/// Runs the grid sequentially (one worker). Useful as the determinism and
/// speedup baseline.
pub fn run_grid_sequential(grid: &ScenarioGrid) -> FleetReport {
    run_grid(grid, 1)
}

/// The deterministic slice of a report: its job summaries, whose equality
/// already ignores timing because the wall-clock fields are [`Measured`].
///
/// Kept for callers written against the earlier API, where this function
/// had to zero the timing fields before reports could be compared
/// bit-for-bit; today `report.jobs == other.jobs` (or comparing whole
/// reports) does the same thing.
pub fn deterministic_view(report: &FleetReport) -> Vec<JobSummary> {
    report.jobs.clone()
}

// Keep the whole pipeline Send by construction: jobs move into workers,
// summaries move back out.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<FleetJob>();
    assert_send::<JobSummary>();
    assert_send::<FleetReport>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_core::scenario::ScenarioSpec;
    use fedco_core::spec::PolicySpec;

    fn tiny_grid() -> ScenarioGrid {
        ScenarioGrid::new(
            ScenarioSpec::preset("smoke")
                .expect("preset")
                .with_users(3)
                .with_slots(240),
        )
        .with_axis("link", &["ideal", "wifi"])
        .with_replicates(2)
    }

    #[test]
    fn queue_delivers_all_items_then_none() {
        let q: JobQueue<u32> = JobQueue::new();
        assert!(q.is_empty());
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn closed_empty_queue_unblocks_waiting_workers() {
        let q: JobQueue<u32> = JobQueue::new();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| q.pop());
            // The worker blocks on the condvar until close() wakes it.
            q.close();
            assert_eq!(handle.join().expect("worker finished"), None);
        });
    }

    #[test]
    #[should_panic(expected = "push on closed")]
    fn push_after_close_panics() {
        let q: JobQueue<u32> = JobQueue::new();
        q.close();
        q.push(1);
    }

    #[test]
    fn report_covers_every_job_in_order() {
        let grid = tiny_grid();
        let report = run_grid(&grid, 2);
        assert_eq!(report.jobs.len(), grid.len());
        for (i, job) in report.jobs.iter().enumerate() {
            assert_eq!(job.id, i);
            assert!(job.total_energy_j > 0.0);
        }
        let runs: u64 = report.rollups.iter().map(|r| r.runs()).sum();
        assert_eq!(runs, grid.len() as u64);
        assert!(report.total_energy_j() > 0.0);
        assert!(report
            .rollup("smoke:users=3:slots=240:link=wifi", "Online")
            .is_some());
        assert_eq!(report.rollups_for_policy("Online").count(), 2);
        assert_eq!(
            report
                .rollups_for_scenario("smoke:users=3:slots=240:link=ideal")
                .count(),
            4
        );
        assert!(*report.wall_s > 0.0);
    }

    #[test]
    fn wifi_cells_record_radio_energy() {
        let report = run_grid_sequential(&tiny_grid());
        for job in &report.jobs {
            if job.link == "wifi" && job.total_updates > 0 {
                assert!(job.radio_energy_j > 0.0, "job {}", job.id);
            }
            if job.link == "ideal" {
                assert_eq!(job.radio_energy_j, 0.0, "job {}", job.id);
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let grid = tiny_grid();
        let seq = run_grid(&grid, 1);
        let par = run_grid(&grid, 4);
        assert_eq!(deterministic_view(&seq), deterministic_view(&par));
        assert_eq!(seq.rollups, par.rollups);
        assert_eq!(par.workers, 4.min(grid.len()));
        // Whole-report equality holds too: the Measured timing fields are
        // excluded from PartialEq by construction, and `workers` matches
        // only because both calls clamp to the job count — compare after
        // normalizing it away.
        let par_as_seq = FleetReport {
            workers: seq.workers,
            ..par.clone()
        };
        assert_eq!(seq, par_as_seq);
    }

    #[test]
    fn traced_sweep_is_identical_for_any_worker_count() {
        use fedco_telemetry::export::events_to_jsonl;

        let grid = tiny_grid();
        let (seq_report, seq_trace) = run_grid_traced(&grid, 1);
        let (par_report, par_trace) = run_grid_traced(&grid, 4);
        assert_eq!(seq_report.jobs, par_report.jobs);
        assert_eq!(seq_report.rollups, par_report.rollups);
        assert_eq!(seq_trace, par_trace);
        // Byte-identical on the wire, not just structurally equal.
        assert_eq!(
            events_to_jsonl(&seq_trace.events),
            events_to_jsonl(&par_trace.events)
        );
        assert_eq!(seq_trace.metrics.to_jsonl(), par_trace.metrics.to_jsonl());
        // Tracing never perturbs the simulations themselves.
        assert_eq!(run_grid(&grid, 2).jobs, seq_report.jobs);
    }

    #[test]
    fn traced_sweep_wraps_each_job_in_lifecycle_markers() {
        use fedco_telemetry::metrics::MetricValue;

        let grid = tiny_grid();
        let (report, trace) = run_grid_traced(&grid, 2);
        let mut starts = Vec::new();
        let mut ends = Vec::new();
        let mut open: Option<u64> = None;
        for event in &trace.events {
            match &event.kind {
                EventKind::JobStart { job, .. } => {
                    assert_eq!(open, None, "job {job} started inside another job");
                    open = Some(*job);
                    starts.push(*job);
                }
                EventKind::JobEnd { job } => {
                    assert_eq!(open, Some(*job), "job {job} ended out of order");
                    open = None;
                    ends.push(*job);
                }
                _ => assert!(open.is_some(), "event outside job markers"),
            }
        }
        assert_eq!(open, None);
        let expected: Vec<u64> = (0..grid.len() as u64).collect();
        assert_eq!(starts, expected, "job streams merge in grid order");
        assert_eq!(ends, expected);
        // Metrics land under each cell's (scenario, policy) labels, one
        // jobs_total count per run of the cell.
        for rollup in &report.rollups {
            assert_eq!(
                trace
                    .metrics
                    .get(&rollup.scenario, &rollup.policy, "jobs_total"),
                Some(&MetricValue::Counter(rollup.runs())),
                "{}/{}",
                rollup.scenario,
                rollup.policy
            );
        }
    }

    #[test]
    fn resolve_workers_defaults_to_cores() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
    }

    #[test]
    fn duplicate_grid_policies_fold_into_one_rollup() {
        let grid = tiny_grid().with_policy_specs(vec![
            PolicySpec::Online { v: None },
            PolicySpec::Online { v: None },
        ]);
        let report = run_grid(&grid, 2);
        assert_eq!(report.jobs.len(), grid.len());
        assert_eq!(
            report.rollups.len(),
            2,
            "one rollup per distinct (scenario, policy) pair"
        );
        for rollup in &report.rollups {
            assert_eq!(rollup.runs(), grid.len() as u64 / 2);
        }
    }

    #[test]
    fn parameterized_specs_get_their_own_rollups() {
        let mut specs: Vec<PolicySpec> = vec![PolicySpec::Online { v: None }];
        specs.extend([1000.0, 16000.0].map(PolicySpec::online_with_v));
        let grid = tiny_grid().with_policy_specs(specs);
        let report = run_grid(&grid, 2);
        assert_eq!(report.rollups.len(), 6, "2 scenarios x 3 V variants");
        for label in ["Online", "Online(V=1000)", "Online(V=16000)"] {
            let rollups: Vec<_> = report.rollups_for_policy(label).collect();
            assert_eq!(rollups.len(), 2, "{label}");
            for rollup in rollups {
                assert_eq!(rollup.runs() as usize, grid.len() / 6, "{label}");
                assert!(rollup.energy_j.mean() > 0.0);
            }
        }
        assert_eq!(report.rollups_for_policy("Offline").count(), 0);
    }
}
