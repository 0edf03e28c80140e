//! `fedco-trace`: inspect and compare telemetry trace files.
//!
//! Subcommands:
//!
//! * `summarize <trace.jsonl>` — per-kind/per-channel counts plus derived
//!   metrics.
//! * `timeline <trace.jsonl> [--job N]` — per-component cumulative energy
//!   timeline (optionally restricted to one fleet job).
//! * `diff <left.jsonl> <right.jsonl> [--all]` — compare two traces down to
//!   the first divergence. The driver channel (the dense span that closes
//!   each run) is excluded unless `--all` is given. Exits 1 on divergence.
//! * `csv <trace.jsonl>` — re-export a trace as CSV on stdout.
//!
//! A reader that stops early (`fedco-trace csv big.jsonl | head`) is not an
//! error: the output ends there and the exit status is the command's own.

use std::io::{self, Write};
use std::process::ExitCode;

use fedco_telemetry::prelude::*;

const USAGE: &str = "\
fedco-trace: inspect and compare fedco telemetry traces

USAGE:
    fedco-trace summarize <trace.jsonl>
    fedco-trace timeline  <trace.jsonl> [--job N]
    fedco-trace diff      <left.jsonl> <right.jsonl> [--all]
    fedco-trace csv       <trace.jsonl>

`diff` compares the semantic + fleet channels by default; pass --all to also
compare the driver channel (the dense span that closes each run). Exit codes:
0 identical or success, 1 divergence, 2 usage or parse error.
";

fn load(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    parse_events_jsonl(&text).map_err(|e| format!("`{path}`: {e}"))
}

/// Runs one subcommand: what it prints on stdout and its exit status.
fn run(args: &[String]) -> Result<(String, ExitCode), String> {
    let command = args.first().map(String::as_str);
    match command {
        Some("summarize") => {
            let [path] = &args[1..] else {
                return Err("summarize takes exactly one trace file".to_string());
            };
            Ok((summarize(&load(path)?), ExitCode::SUCCESS))
        }
        Some("timeline") => {
            let (path, job) = match &args[1..] {
                [path] => (path, None),
                [path, flag, n] if flag == "--job" => (
                    path,
                    Some(
                        n.parse::<u64>()
                            .map_err(|e| format!("bad --job value `{n}`: {e}"))?,
                    ),
                ),
                _ => return Err("timeline takes a trace file and optional --job N".to_string()),
            };
            let events = load(path)?;
            let events = match job {
                Some(job) => {
                    let slice = job_slice(&events, job);
                    if slice.is_empty() {
                        return Err(format!("no job {job} in `{path}`"));
                    }
                    slice
                }
                None => events,
            };
            Ok((timeline(&events), ExitCode::SUCCESS))
        }
        Some("diff") => {
            let (left, right, all) = match &args[1..] {
                [l, r] => (l, r, false),
                [l, r, flag] if flag == "--all" => (l, r, true),
                _ => {
                    return Err("diff takes two trace files and an optional --all flag".to_string())
                }
            };
            let report = diff(&load(left)?, &load(right)?, all);
            let code = if report.identical() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
            Ok((format!("{report}\n"), code))
        }
        Some("csv") => {
            let [path] = &args[1..] else {
                return Err("csv takes exactly one trace file".to_string());
            };
            Ok((events_to_csv(&load(path)?), ExitCode::SUCCESS))
        }
        Some("--help" | "-h" | "help") | None => Ok((USAGE.to_string(), ExitCode::SUCCESS)),
        Some(other) => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok((text, code)) => match io::stdout().lock().write_all(text.as_bytes()) {
            Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
                eprintln!("fedco-trace: cannot write to stdout: {e}");
                ExitCode::from(2)
            }
            _ => code,
        },
        Err(message) => {
            eprintln!("fedco-trace: {message}");
            eprintln!();
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
