//! The std-only thread-pool executor.
//!
//! Workers claim jobs in grid order through one shared atomic cursor over
//! the expanded job list (an idle worker takes the next job the moment it
//! finishes its own), run each simulation in summary-only mode, and send the
//! result to the calling thread, which takes results in ascending job id
//! while the workers keep going (one that arrives ahead of its turn waits in
//! its grid slot). Because every job's seed is derived from its grid
//! coordinates and results are folded in job order, the merged statistics
//! are bit-identical for any worker count and any completion order.
//!
//! A traced sweep hands each job's events to a `finish` step **on the
//! worker** and its outcome to a `deliver` step **on the caller, in job
//! order** ([`run_grid_with`]), so what a sweep holds at once is what its
//! workers have in flight, not the events of every job:
//! [`run_grid_traced`] keeps the events, [`run_grid_streamed`] renders and
//! folds them on the worker and streams the bytes out.

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use fedco_core::experiment::SimConfig;
use fedco_device::profiler::EnergyComponent;
use fedco_sim::engine::{run_simulation, Simulation};
use fedco_sim::trace::SimResult;
use fedco_telemetry::event::{Event, EventKind};
use fedco_telemetry::export::events_to_jsonl;
use fedco_telemetry::metrics::MetricsRegistry;
use fedco_telemetry::profiling::{Measured, Stopwatch};
use fedco_telemetry::sink::{BufferSink, Telemetry};

use crate::grid::{FleetJob, LinkKind, ScenarioGrid};
use crate::stats::CellRollup;

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
    /// `wall_ms`), the same throughput metric the `bench_engine` cells
    /// report.
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
/// coordinates and the fold happens in job order, whichever worker finished
/// first. Only the `wall_ms`/`wall_s` timings vary between runs.
///
/// # Panics
///
/// Panics if the grid is invalid or a worker thread panics.
pub fn run_grid(grid: &ScenarioGrid, workers: usize) -> FleetReport {
    execute::<()>(grid, workers, None)
}

/// Runs the grid like [`run_grid`] while tracing every job, with a hand-off
/// per job instead of a merged trace.
///
/// `finish` runs **on the worker**, right after the job's simulation, with
/// the job's event stream already wrapped in its `job-start`/`job-end`
/// lifecycle markers; whatever it returns waits in the job's slot.
/// `deliver` runs **on the calling thread**, exactly once per job and in
/// ascending job id, while the workers keep going. What `deliver` sees is
/// therefore the same for every `workers` value, and a `finish` that reduces
/// the events (renders them, folds them) keeps the sweep's memory at what
/// its workers have in flight rather than at the sum of all jobs.
///
/// # Panics
///
/// Panics if the grid is invalid or a worker thread panics.
pub fn run_grid_with<T: Send>(
    grid: &ScenarioGrid,
    workers: usize,
    finish: impl Fn(&FleetJob, Vec<Event>) -> T + Sync,
    mut deliver: impl FnMut(&JobSummary, T),
) -> FleetReport {
    let sink = JobSink {
        finish: &finish,
        deliver: &mut deliver,
    };
    execute(grid, workers, Some(sink))
}

/// The merged telemetry of a traced sweep.
///
/// Every job's event stream is wrapped in `job-start`/`job-end` lifecycle
/// markers and concatenated **in job order** — the same fixed-order
/// discipline the result slots use — so both the event stream and the
/// metrics derived from it are bit-identical for any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTrace {
    /// The merged event stream, in job order.
    pub events: Vec<Event>,
    /// Metrics derived from `events`, keyed by the `(scenario, policy)`
    /// labels the job lifecycle markers carry.
    pub metrics: MetricsRegistry,
}

/// Runs the grid like [`run_grid`] while tracing every job, and merges the
/// per-job event streams into one deterministic [`SweepTrace`] — the
/// [`run_grid_with`] whose `finish` keeps the events as they are.
///
/// The report is identical to an untraced run of the same grid (tracing
/// buffers events per job; it never perturbs simulation state), and the
/// trace/metrics are bit-identical for every `workers` value.
///
/// # Panics
///
/// Panics if the grid is invalid or a worker thread panics.
pub fn run_grid_traced(grid: &ScenarioGrid, workers: usize) -> (FleetReport, SweepTrace) {
    let mut events = Vec::new();
    let report = run_grid_with(
        grid,
        workers,
        |_, job_events| job_events,
        |_, mut job_events| events.append(&mut job_events),
    );
    let metrics = MetricsRegistry::from_trace(&events);
    (report, SweepTrace { events, metrics })
}

/// What [`run_grid_streamed`] returns: the report plus the telemetry that
/// was not written out on the way.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedSweep {
    /// The sweep's report, identical to an untraced run's.
    pub report: FleetReport,
    /// How many events the merged trace holds.
    pub events: u64,
    /// The metrics of the merged trace, when asked for.
    pub metrics: Option<MetricsRegistry>,
}

/// Runs the grid like [`run_grid_traced`] without ever holding the merged
/// trace: each worker renders its job's JSONL chunk and folds its job's
/// [`MetricsRegistry`] (each only when asked for) and drops the events; the
/// calling thread writes the chunks to `trace` and
/// [`append`](MetricsRegistry::append)s the registries in job order, and
/// flushes `trace` at the end. The bytes written equal
/// `events_to_jsonl(&run_grid_traced(..).1.events)` and the metrics equal
/// its `metrics`, for every `workers` value.
///
/// # Errors
///
/// The first error of `trace`: nothing is written after it, the sweep still
/// runs to its end, and the error is returned in place of the result.
///
/// # Panics
///
/// Panics if the grid is invalid or a worker thread panics.
pub fn run_grid_streamed(
    grid: &ScenarioGrid,
    workers: usize,
    mut trace: Option<&mut dyn Write>,
    metrics: bool,
) -> io::Result<StreamedSweep> {
    let render = trace.is_some();
    let mut events = 0;
    let mut merged = metrics.then(MetricsRegistry::new);
    let mut failed = None;
    let report = run_grid_with(
        grid,
        workers,
        |_, job_events| {
            (
                job_events.len() as u64,
                render.then(|| events_to_jsonl(&job_events)),
                metrics.then(|| MetricsRegistry::from_trace(&job_events)),
            )
        },
        |_, (job_events, chunk, job_metrics)| {
            events += job_events;
            if let (Some(trace), Some(chunk)) = (trace.as_mut(), chunk) {
                if failed.is_none() {
                    failed = trace.write_all(chunk.as_bytes()).err();
                }
            }
            if let (Some(merged), Some(job_metrics)) = (merged.as_mut(), job_metrics) {
                merged.append(job_metrics);
            }
        },
    );
    if let (Some(trace), None) = (trace, &failed) {
        failed = trace.flush().err();
    }
    match failed {
        Some(error) => Err(error),
        None => Ok(StreamedSweep {
            report,
            events,
            metrics: merged,
        }),
    }
}

/// What a traced sweep does with each job's telemetry (see
/// [`run_grid_with`]).
struct JobSink<'a, T> {
    finish: &'a (dyn Fn(&FleetJob, Vec<Event>) -> T + Sync),
    deliver: &'a mut dyn FnMut(&JobSummary, T),
}

/// Runs one job with tracing on, its event stream wrapped in the
/// `job-start`/`job-end` lifecycle markers. The start marker goes into the
/// sink before the run does, so the job's events are never moved to make
/// room for it.
fn run_job_traced(job: &FleetJob, config: SimConfig) -> (SimResult, Vec<Event>) {
    let sink = BufferSink::shared();
    sink.record(Event::new(
        0,
        EventKind::job_start(
            job.id as u64,
            job.scenario_label.clone(),
            config.policy.label(),
        ),
    ));
    let result = Simulation::new(config).with_telemetry(sink.clone()).run();
    let mut events = sink.drain();
    let end_slot = events.last().map_or(0, |e| e.slot);
    events.push(Event::new(
        end_slot,
        EventKind::JobEnd { job: job.id as u64 },
    ));
    (result, events)
}

/// The one executor body behind [`run_grid`] (no sink: nothing is traced)
/// and [`run_grid_with`].
fn execute<T: Send>(
    grid: &ScenarioGrid,
    workers: usize,
    mut sink: Option<JobSink<'_, T>>,
) -> FleetReport {
    let sweep_watch = Stopwatch::start();
    let grid_jobs = grid.expand();
    let n_jobs = grid_jobs.len();
    let workers = resolve_workers(workers).min(n_jobs.max(1));

    // The next job to claim: workers take jobs in grid order. `Relaxed` is
    // enough: the cursor hands out indices and publishes nothing, and the
    // jobs it indexes were built before the workers started.
    let cursor = AtomicUsize::new(0);
    let finish = sink.as_ref().map(|sink| sink.finish);
    let (done, finished_jobs) = mpsc::channel();
    let mut jobs = Vec::with_capacity(n_jobs);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (grid_jobs, cursor, done) = (&grid_jobs, &cursor, done.clone());
            scope.spawn(move || {
                while let Some(job) = grid_jobs.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let job_watch = Stopwatch::start();
                    // Summary mode is enforced here, at the execution site,
                    // so even hand-built FleetJobs never materialize traces.
                    let config = job.config.clone().summary_only();
                    let (result, events) = match finish {
                        Some(_) => run_job_traced(job, config),
                        None => (run_simulation(config), Vec::new()),
                    };
                    let wall_ms = job_watch.elapsed_ms();
                    let summary = JobSummary::from_result(job, &result, wall_ms);
                    let finished = finish.map(|finish| finish(job, events));
                    // Nobody listens once the calling thread is unwinding.
                    if done.send((job.id, summary, finished)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(done);
        // The calling thread drains while the workers run: a job that
        // finished ahead of its turn waits in its slot, and each job is
        // handed on exactly once, in job order, so completion order cannot
        // affect anything downstream. The channel closes when every worker
        // has left — also by a panic, which the scope then propagates.
        let mut slots: Vec<Option<(JobSummary, Option<T>)>> = (0..n_jobs).map(|_| None).collect();
        for (id, summary, finished) in finished_jobs {
            slots[id] = Some((summary, finished));
            while let Some((summary, finished)) = slots.get_mut(jobs.len()).and_then(Option::take) {
                if let (Some(sink), Some(finished)) = (sink.as_mut(), finished) {
                    (sink.deliver)(&summary, finished);
                }
                jobs.push(summary);
            }
        }
    });

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

    FleetReport {
        jobs,
        rollups,
        workers,
        wall_s: Measured(sweep_watch.elapsed_s()),
    }
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
        assert!(*report.wall_s > 0.0);
    }

    #[test]
    fn wifi_cells_record_radio_energy() {
        let report = run_grid(&tiny_grid(), 1);
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
    fn deliver_runs_once_per_job_in_ascending_id_whatever_finishes_first() {
        use std::sync::Barrier;

        let grid = tiny_grid();
        let last = grid.len() - 1;
        // Job 0 is held on its worker until the last job has been run on
        // another one, so every other job finishes first and has to wait in
        // its slot for the drain to reach it.
        let gate = Barrier::new(2);
        let mut delivered = Vec::new();
        let report = run_grid_with(
            &grid,
            3,
            |job, events| {
                if job.id == 0 || job.id == last {
                    gate.wait();
                }
                (job.id, events.len())
            },
            |summary, (id, events)| {
                assert_eq!(summary.id, id, "a job is delivered with its own summary");
                assert!(events > 2, "events arrive wrapped in their markers");
                delivered.push(id);
            },
        );
        assert_eq!(delivered, (0..grid.len()).collect::<Vec<_>>());
        assert_eq!(report.jobs, run_grid(&grid, 1).jobs);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_job_propagates_instead_of_stalling_the_drain() {
        run_grid_with(
            &tiny_grid(),
            2,
            |job, _| assert_ne!(job.id, 1, "job 1 fails on its worker"),
            |_, ()| {},
        );
    }

    #[test]
    fn a_failing_trace_writer_ends_the_stream_and_is_reported() {
        /// Accepts `room` bytes, then fails every write.
        struct Full {
            room: usize,
            writes_after_failure: usize,
        }
        impl Write for Full {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.room == 0 {
                    self.writes_after_failure += 1;
                    return Err(io::Error::other("disk full"));
                }
                let n = buf.len().min(self.room);
                self.room -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut full = Full {
            room: 1000,
            writes_after_failure: 0,
        };
        let error = run_grid_streamed(&tiny_grid(), 2, Some(&mut full), true)
            .expect_err("the writer fails mid-stream");
        assert_eq!(error.to_string(), "disk full");
        assert_eq!(full.writes_after_failure, 1, "nothing is written after it");
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
