//! `fleet_sweep` — run a scenario grid across all cores and report.
//!
//! ```text
//! cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- [flags]
//!
//!   --workers N           worker threads (default 0 = one per core)
//!   --scenario LIST       comma-separated scenario specs (default: smoke).
//!                         Each entry is name[:key=value…] over the preset
//!                         registry, e.g. paper-default, sparse:users=50,
//!                         lte-uplink:arrival_p=0.005
//!   --scenario-file PATH  add every scenario defined in a scenario file
//!                         (section/key=value format; see EXPERIMENTS.md)
//!   --axis KEY=V1,V2,…    add one open sweep axis over any scenario field
//!                         (repeatable), e.g. --axis users=10,100
//!                         --axis link=ideal,lte
//!   --policies LIST       comma-separated policy specs (default: the
//!                         paper's four), e.g. offline, online:v=1000
//!   --users N, --slots N  shorthand: override users/slots on every scenario
//!   --replicates N        seeds per cell (default 2)
//!   --seed N              base seed of the per-job derivation (default 42)
//!   --csv PATH            write per-job rows as CSV
//!   --jsonl PATH          write per-job rows as JSON lines
//!   --trace PATH          trace every job; stream the merged telemetry
//!                         event stream out as JSON lines while the sweep
//!                         runs (slot-stamped, in job order, bit-identical
//!                         for any worker count)
//!   --metrics PATH        trace every job; write the metrics derived from
//!                         the merged stream as JSON lines
//!   --verify              also run on 1 worker; check bit-identical
//!                         (including the trace/metrics bytes when tracing)
//!   --list-scenarios      print the scenario preset registry and exit
//!   --list-policies       print the paper's four policies and exit
//! ```
//!
//! The grid is `scenarios × axes… × policies × replicate seeds`, and every
//! report row is keyed by the `(scenario label, policy label)` pair — the
//! scenario label embeds the axis overrides of the cell (e.g.
//! `smoke:users=100:link=lte`), so rows stay self-describing.
//!
//! Invalid flags and bad specs are reported on stderr with the offending
//! token named and the valid choices listed — the binary never panics on
//! bad input. All four output files are opened before the first job runs, so
//! a mistyped directory exits 1 at once, naming the flag and the path. A
//! reader of stdout that stops early (`fleet_sweep … | head`) ends the
//! output, not the run: the files are still written and the status is the
//! run's own.
//!
//! Telemetry never gathers in one place: each worker renders its job's
//! trace lines and folds its job's metrics, and the main thread writes them
//! out in job order while the sweep runs, so `--trace`/`--metrics` cost the
//! memory of the jobs in flight, not of the whole sweep.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use fedco_core::scenario::FIELD_KEYS;
use fedco_fleet::prelude::*;

/// Why a run stopped before its end.
enum Stop {
    /// Bad input or an output file that failed: reported on stderr.
    Error(String),
    /// Writing to stdout failed (other than its reader going away).
    Stdout(io::Error),
}

impl From<String> for Stop {
    fn from(message: String) -> Self {
        Stop::Error(message)
    }
}

impl From<io::Error> for Stop {
    fn from(error: io::Error) -> Self {
        Stop::Stdout(error)
    }
}

/// Stdout, locked once for the whole run. Once the reader has gone away
/// (`ErrorKind::BrokenPipe`) whatever is left to print is dropped, so the
/// run goes on to write its files and ends with its own status.
struct Stdout {
    out: io::StdoutLock<'static>,
    closed: bool,
}

impl Stdout {
    fn unless_closed<T>(&mut self, result: io::Result<T>, closed: T) -> io::Result<T> {
        match result {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(closed)
            }
            result => result,
        }
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Ok(buf.len());
        }
        let written = self.out.write(buf);
        self.unless_closed(written, buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        let flushed = self.out.flush();
        self.unless_closed(flushed, ())
    }
}

struct Args {
    workers: usize,
    users: Option<usize>,
    slots: Option<u64>,
    replicates: usize,
    seed: u64,
    scenarios: Vec<ScenarioSpec>,
    axes: Vec<FieldAxis>,
    policies: Vec<PolicySpec>,
    csv: Option<String>,
    jsonl: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    verify: bool,
}

const USAGE: &str = "usage: fleet_sweep [--workers N] [--scenario SPEC,SPEC,...] \
[--scenario-file PATH] [--axis KEY=V1,V2,...] [--policies SPEC,SPEC,...] \
[--users N] [--slots N] [--replicates N] [--seed N] [--csv PATH] [--jsonl PATH] \
[--trace PATH] [--metrics PATH] [--verify] [--list-scenarios] [--list-policies]";

fn list_scenarios(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "scenario presets (see EXPERIMENTS.md for the regime each maps to):"
    )?;
    for spec in ScenarioSpec::default_registry() {
        writeln!(
            out,
            "  {:<16} {} users x {} slots, arrival_p={}, devices={}, link={}, ml={}",
            spec.label(),
            spec.users(),
            spec.slots(),
            spec.arrival_p(),
            spec.devices(),
            spec.link().label(),
            spec.ml().label(),
        )?;
    }
    writeln!(
        out,
        "\nspec syntax: name[:key=value...] with keys: {}",
        FIELD_KEYS.join(", ")
    )
}

fn list_policies(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "the paper's policies:")?;
    for spec in PolicySpec::PAPER {
        writeln!(out, "  {}", spec.label())?;
    }
    writeln!(
        out,
        "\nspec syntax: immediate | sync-sgd | offline | online[:v=N]"
    )
}

/// Parses the command line: `Ok(None)` means `--help`/`--list-*` handled
/// everything already.
/// A flag's value, parsed; the error names the flag.
fn parsed<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args(out: &mut impl Write) -> Result<Option<Args>, Stop> {
    let mut args = Args {
        workers: 0,
        users: None,
        slots: None,
        replicates: 2,
        seed: 42,
        scenarios: Vec::new(),
        axes: Vec::new(),
        policies: PolicySpec::PAPER.to_vec(),
        csv: None,
        jsonl: None,
        trace: None,
        metrics: None,
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--workers" => args.workers = parsed("--workers", value("--workers")?)?,
            "--users" => {
                let n: usize = parsed("--users", value("--users")?)?;
                if n == 0 {
                    return Err(Stop::Error("--users must be at least 1".to_string()));
                }
                args.users = Some(n);
            }
            "--slots" => {
                let n: u64 = parsed("--slots", value("--slots")?)?;
                if n == 0 {
                    return Err(Stop::Error("--slots must be at least 1".to_string()));
                }
                args.slots = Some(n);
            }
            "--replicates" => args.replicates = parsed("--replicates", value("--replicates")?)?,
            "--seed" => args.seed = parsed("--seed", value("--seed")?)?,
            "--scenario" | "--scenarios" => {
                let list = value("--scenario")?;
                for token in list.split(',').filter(|t| !t.trim().is_empty()) {
                    let spec = token.trim().parse::<ScenarioSpec>().map_err(|e| {
                        format!(
                            "--scenario `{}`: {e}\n(--list-scenarios prints the registry)",
                            token.trim()
                        )
                    })?;
                    args.scenarios.push(spec);
                }
            }
            "--scenario-file" => {
                let path = value("--scenario-file")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("--scenario-file {path}: {e}"))?;
                let specs = parse_scenario_file(&text)
                    .map_err(|e| format!("--scenario-file {path}: {e}"))?;
                args.scenarios.extend(specs);
            }
            "--axis" => {
                let token = value("--axis")?;
                let axis = FieldAxis::parse(&token)
                    .map_err(|e| format!("--axis `{token}`: {e}\n(axis syntax: KEY=V1,V2,...)"))?;
                args.axes.push(axis);
            }
            "--policies" => {
                let list = value("--policies")?;
                let mut specs = Vec::new();
                for token in list.split(',').filter(|t| !t.trim().is_empty()) {
                    specs.push(token.trim().parse::<PolicySpec>().map_err(|e| {
                        format!(
                            "--policies `{}`: {e}\n(--list-policies prints the policies)",
                            token.trim()
                        )
                    })?);
                }
                if specs.is_empty() {
                    return Err(Stop::Error(
                        "--policies must name at least one policy".to_string(),
                    ));
                }
                args.policies = specs;
            }
            "--csv" => args.csv = Some(value("--csv")?),
            "--jsonl" => args.jsonl = Some(value("--jsonl")?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--metrics" => args.metrics = Some(value("--metrics")?),
            "--verify" => args.verify = true,
            "--list-scenarios" => {
                list_scenarios(out)?;
                return Ok(None);
            }
            "--list-policies" => {
                list_policies(out)?;
                return Ok(None);
            }
            "--help" | "-h" => {
                writeln!(out, "{USAGE}")?;
                return Ok(None);
            }
            other => return Err(Stop::Error(format!("unknown flag `{other}`\n{USAGE}"))),
        }
    }
    if args.replicates == 0 {
        return Err(Stop::Error("--replicates must be at least 1".to_string()));
    }
    if args.scenarios.is_empty() {
        args.scenarios = vec![ScenarioSpec::preset("smoke").expect("registry preset")];
    }
    // --users/--slots are shorthand for overriding every scenario.
    for scenario in &mut args.scenarios {
        if let Some(users) = args.users {
            *scenario = scenario.clone().with_users(users);
        }
        if let Some(slots) = args.slots {
            *scenario = scenario.clone().with_slots(slots);
        }
    }
    Ok(Some(args))
}

fn build_grid(args: &Args) -> ScenarioGrid {
    ScenarioGrid::from_scenarios(args.scenarios.clone())
        .with_axes(args.axes.clone())
        .with_policy_specs(args.policies.clone())
        .with_base_seed(args.seed)
        .with_replicates(args.replicates)
}

/// Opens (and truncates) one output file. The label it returns names the
/// flag and the path in any later error about it.
fn open_output(flag: &str, path: &Option<String>) -> Result<Option<(String, File)>, String> {
    let Some(path) = path else {
        return Ok(None);
    };
    let label = format!("{flag} {path}");
    match File::create(path) {
        Ok(file) => Ok(Some((label, file))),
        Err(e) => Err(format!("{label}: {e}")),
    }
}

/// Writes a whole report into its file, if the flag was given.
fn write_output(output: Option<(String, File)>, text: impl Fn() -> String) -> Result<(), String> {
    match output {
        Some((label, mut file)) => file
            .write_all(text().as_bytes())
            .map_err(|e| format!("failed to write {label}: {e}")),
        None => Ok(()),
    }
}

/// What passes through to the trace file, with its length and FNV-1a kept
/// only when `--verify` will compare them against the 1-worker re-run's
/// (whose bytes go nowhere) — so neither stream is ever held.
struct TraceStream<W: Write> {
    inner: W,
    digest: Option<(u64, u64)>,
}

impl<W: Write> TraceStream<W> {
    fn new(inner: W, verify: bool) -> Self {
        let digest = verify.then_some((0, 0xcbf2_9ce4_8422_2325));
        TraceStream { inner, digest }
    }
}

impl<W: Write> Write for TraceStream<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf)?;
        if let Some((bytes, hash)) = &mut self.digest {
            *bytes += written as u64;
            for &byte in &buf[..written] {
                *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Runs the sweep: through the streaming path when a telemetry output was
/// requested, otherwise with telemetry disabled (near-zero cost).
fn sweep(
    grid: &ScenarioGrid,
    workers: usize,
    trace: Option<&mut dyn Write>,
    metrics: bool,
) -> io::Result<StreamedSweep> {
    if trace.is_some() || metrics {
        return run_grid_streamed(grid, workers, trace, metrics);
    }
    Ok(StreamedSweep {
        report: run_grid(grid, workers),
        events: 0,
        metrics: None,
    })
}

/// Runs the sweep the arguments describe; `Ok(false)` is a failed
/// `--verify`, which has already said so on stdout.
fn run(args: &Args, out: &mut impl Write) -> Result<bool, Stop> {
    let grid = build_grid(args);
    // A bad flag combination surfaces as a typed error on stderr, never as
    // a panic inside the sweep.
    grid.validate()
        .map_err(|e| format!("invalid sweep configuration: {e}"))?;
    let workers = resolve_workers(args.workers);
    let axis_cells: usize = grid.axes.iter().map(|a| a.values.len()).product();
    writeln!(
        out,
        "fleet_sweep: {} jobs ({} scenarios x {} axis cells x {} policies x {} seeds), \
{} worker(s)",
        grid.len(),
        grid.scenarios.len(),
        axis_cells,
        grid.policies.len(),
        grid.seeds.len(),
        workers
    )?;
    let scenario_labels: Vec<String> = grid.scenarios.iter().map(ScenarioSpec::label).collect();
    writeln!(out, "scenarios: {}", scenario_labels.join(", "))?;
    for axis in &grid.axes {
        writeln!(out, "axis: {} = {}", axis.key, axis.values.join(", "))?;
    }
    let labels: Vec<String> = args.policies.iter().map(PolicySpec::label).collect();
    writeln!(out, "policies: {}\n", labels.join(", "))?;

    // Every output is opened before the first job, so a path that cannot be
    // written is reported now and not after the whole sweep has run.
    let csv = open_output("--csv", &args.csv)?;
    let jsonl = open_output("--jsonl", &args.jsonl)?;
    let trace_file = open_output("--trace", &args.trace)?;
    let metrics = open_output("--metrics", &args.metrics)?;

    // Tracing is only wired in when an output for it was requested. The
    // trace is on its way to the file while the sweep runs; an error of that
    // stream ends its output and is the one thing reported.
    let mut trace = trace_file
        .as_ref()
        .map(|(_, file)| TraceStream::new(BufWriter::new(file), args.verify));
    let trace_out = trace.as_mut().map(|stream| stream as &mut dyn Write);
    let swept = sweep(&grid, args.workers, trace_out, metrics.is_some()).map_err(|e| {
        let label = trace_file.as_ref().map_or("--trace", |(label, _)| label);
        format!("failed to write {label}: {e}")
    })?;
    let report = &swept.report;
    write!(out, "{}", rollup_table(report))?;
    let throughput = report.jobs.len() as f64 / report.wall_s.max(1e-9);
    writeln!(
        out,
        "\n{} jobs in {:.2} s on {} worker(s) ({:.1} jobs/s)",
        report.jobs.len(),
        report.wall_s,
        report.workers,
        throughput
    )?;

    write_output(csv, || to_csv(report))?;
    if let Some(path) = &args.csv {
        writeln!(out, "wrote {path} ({} rows)", report.jobs.len())?;
    }
    write_output(jsonl, || to_jsonl(report))?;
    if let Some(path) = &args.jsonl {
        writeln!(out, "wrote {path} ({} lines)", report.jobs.len())?;
    }
    if let Some(path) = &args.trace {
        writeln!(out, "wrote {path} ({} events)", swept.events)?;
    }
    if let (Some(path), Some(registry)) = (&args.metrics, &swept.metrics) {
        write_output(metrics, || registry.to_jsonl())?;
        writeln!(out, "wrote {path} ({} metrics)", registry.len())?;
    }

    if !args.verify {
        return Ok(true);
    }
    writeln!(out, "\nverify: re-running the grid on 1 worker ...")?;
    let mut resink = trace.as_ref().map(|_| TraceStream::new(io::sink(), true));
    let resink_out = resink.as_mut().map(|stream| stream as &mut dyn Write);
    let sequential = sweep(&grid, 1, resink_out, swept.metrics.is_some())
        .map_err(|e| format!("verify re-run: {e}"))?;
    let mut identical = deterministic_view(report) == deterministic_view(&sequential.report)
        && report.rollups == sequential.report.rollups;
    writeln!(
        out,
        "verify: merged statistics bit-identical across worker counts: {}",
        if identical { "yes" } else { "NO" }
    )?;
    if trace.is_some() || swept.metrics.is_some() {
        let metrics_text = |swept: &StreamedSweep| swept.metrics.as_ref().map(|m| m.to_jsonl());
        let trace_identical = swept.events == sequential.events
            && trace.map(|stream| stream.digest) == resink.map(|stream| stream.digest)
            && metrics_text(&swept) == metrics_text(&sequential);
        writeln!(
            out,
            "verify: telemetry trace and metrics byte-identical across worker counts: {}",
            if trace_identical { "yes" } else { "NO" }
        )?;
        identical = identical && trace_identical;
    }
    let speedup = *sequential.report.wall_s / report.wall_s.max(1e-9);
    writeln!(
        out,
        "verify: {} workers {:.2} s vs 1 worker {:.2} s -> speedup {:.2}x",
        report.workers, report.wall_s, sequential.report.wall_s, speedup
    )?;
    Ok(identical)
}

fn main() -> ExitCode {
    let mut out = Stdout {
        out: io::stdout().lock(),
        closed: false,
    };
    let outcome = match parse_args(&mut out) {
        Ok(Some(args)) => run(&args, &mut out),
        Ok(None) => Ok(true),
        Err(stop) => Err(stop),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(Stop::Stdout(e)) => {
            eprintln!("failed to write stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Stop::Error(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
