//! `fedco-benchmark` — the repo's benchmark: seven workloads, end-to-end
//! metrics plus a per-layer ledger for engine, planner, ML, server and fleet.
//!
//! ```text
//! fedco-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! fedco-benchmark all [--seed N] [--seconds S] [--out FILE]
//! fedco-benchmark compare A.json B.json
//! fedco-benchmark manifest
//! ```
//!
//! `run` is one run of the benchmark contract: it prints every metric by
//! name with its unit and, as its last line, one JSON object. `all` runs
//! every workload (each run in a child process) and writes a stamped result
//! file; `compare` judges two such files against the metrics' bounds;
//! `manifest` prints `BENCHMARK.json`. Use `benchmark/run.sh`, which builds
//! the shipped binaries the harness spawns before it starts the harness.
//!
//! Every layer is measured from outside — calls into the crates' public
//! functions and the shipped binaries — so no product source knows about
//! the benchmark. See `benchmark/README.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod compare;
mod json;
mod metrics;
mod proc;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use metrics::{RUN_SECONDS, WORKLOADS};
use proc::Dirs;
use run::RunArgs;
use suite::SuiteArgs;
use workloads::{Size, Workload};

const USAGE: &str = "usage: fedco-benchmark run --workload NAME [--seed N] [--seconds S] \
[--trace 0|1] [--smoke]\n       fedco-benchmark all [--seed N] [--seconds S] [--out FILE]\n       fedco-benchmark compare A.json B.json\n       fedco-benchmark manifest";

/// `--flag value` pairs and bare flags of one subcommand.
struct Flags(Vec<String>);

impl Flags {
    /// Removes `--name VALUE` and parses the value.
    fn take<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("missing value for {name}"));
        }
        let value = self.0.remove(at + 1);
        self.0.remove(at);
        value
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot read `{value}`"))
    }

    /// Removes a bare `--name`.
    fn take_switch(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    /// Whatever was not taken must be nothing.
    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`\n{USAGE}")),
        }
    }
}

fn seconds(flags: &mut Flags) -> Result<f64, String> {
    let seconds = flags
        .take::<f64>("--seconds")?
        .unwrap_or(RUN_SECONDS as f64);
    if seconds.is_finite() && (0.0..=3600.0).contains(&seconds) {
        Ok(seconds)
    } else {
        Err(format!("--seconds: {seconds} is not between 0 and 3600"))
    }
}

/// Set in the environment of a run that was restarted under `taskset`.
const CONFINED: &str = "FEDCO_BENCH_CONFINED";

/// Restarts this run under `taskset -c 0`, which its children inherit (see
/// [`Workload::single_cpu`]). Without a working `taskset` the run goes on
/// unconfined, and says so.
fn confine_to_one_cpu() {
    use std::os::unix::process::CommandExt;
    if std::env::var_os(CONFINED).is_some() {
        return;
    }
    let taskset = |program: &std::ffi::OsStr| {
        let mut command = Command::new("taskset");
        command.args(["-c", "0"]).arg(program);
        command
    };
    let works = taskset("true".as_ref())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success());
    if let (true, Ok(exe)) = (works, std::env::current_exe()) {
        // `exec` only returns if it failed.
        let error = taskset(exe.as_os_str())
            .args(std::env::args_os().skip(1))
            .env(CONFINED, "1")
            .exec();
        eprintln!("fedco-benchmark: exec taskset: {error}");
    }
    eprintln!("fedco-benchmark: taskset unavailable: running on every CPU, expect noisier times");
}

fn cmd_run(mut flags: Flags) -> Result<ExitCode, String> {
    let name: String = flags
        .take("--workload")?
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let workload = Workload::by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}`; expected one of {}",
            names.join(", ")
        )
    })?;
    let trace = match flags.take::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace: {other} is neither 0 nor 1")),
    };
    let args = RunArgs {
        workload,
        seed: flags.take("--seed")?.unwrap_or(42),
        seconds: seconds(&mut flags)?,
        trace,
        size: if flags.take_switch("--smoke") {
            Size::Smoke
        } else {
            Size::Full
        },
    };
    flags.finish()?;
    if workload.single_cpu() {
        confine_to_one_cpu();
    }

    let report = run::run(args, &Dirs::locate()?)?;
    println!(
        "workload {}  seed {}  trace {}",
        workload.name(),
        args.seed,
        u8::from(trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    // A per-layer metric reads 0 on a workload that does not exercise the
    // layer; the result line carries those too, the listing does not.
    for reading in report.readings.iter().filter(|r| r.value != 0.0) {
        println!(
            "  {:<36} {:>16.6} {}",
            reading.name, reading.value, reading.unit
        );
    }
    println!("  {:<36} {:>16}", "ops", report.ops);
    println!("  {:<36} {:>16}", "ops_failed", report.ops_failed);
    println!("digest {:016x}", report.digest);
    println!("{}", report.to_json().render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_all(mut flags: Flags) -> Result<ExitCode, String> {
    let defaults = SuiteArgs::default();
    let args = SuiteArgs {
        seed: flags.take("--seed")?.unwrap_or(defaults.seed),
        seconds: seconds(&mut flags)?,
        out: flags.take("--out")?,
    };
    flags.finish()?;
    let ok = suite::run_suite(&args, &Dirs::locate()?)?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(flags: Flags) -> Result<ExitCode, String> {
    let [a, b] = flags.0.as_slice() else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let (report, worse) = compare::compare_files(a, b)?;
    print!("{report}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let flags = Flags(argv);
    let outcome = match command.as_str() {
        "run" => cmd_run(flags),
        "all" => cmd_all(flags),
        "compare" => cmd_compare(flags),
        "manifest" => {
            print!("{}", metrics::manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("fedco-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn flags_are_taken_in_any_order_and_leftovers_refused() {
        let mut f = flags(&["--seed", "7", "--smoke", "--workload", "fig5-ml"]);
        assert_eq!(
            f.take::<String>("--workload").unwrap().as_deref(),
            Some("fig5-ml")
        );
        assert_eq!(f.take::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(f.take::<u64>("--seconds").unwrap(), None);
        assert!(f.take_switch("--smoke"));
        assert!(f.finish().is_ok());

        assert!(flags(&["--seed"]).take::<u64>("--seed").is_err());
        assert!(flags(&["--seed", "x"]).take::<u64>("--seed").is_err());
        assert!(flags(&["--bogus"]).finish().is_err());
        assert!(seconds(&mut flags(&["--seconds", "-1"])).is_err());
        assert_eq!(seconds(&mut flags(&[])).unwrap(), RUN_SECONDS as f64);
    }
}
