//! The `fedco-audit` binary: lint the workspace (or specific paths) against
//! the determinism & panic-safety rule registry.
//!
//! ```text
//! fedco-audit [--workspace] [--json] [--list-rules] [--loc] [--root DIR] [PATH…]
//! ```
//!
//! Exit status: `0` clean, `1` findings reported, `2` usage or I/O error.
//! `--loc` reports code size instead of linting and always exits `0`.

use std::path::PathBuf;
use std::process::ExitCode;

use fedco_audit::{audit_paths, loc, rules, source};

const USAGE: &str =
    "usage: fedco-audit [--workspace] [--json] [--list-rules] [--loc] [--root DIR] [PATH…]

Lints Rust sources against the fedco determinism & panic-safety rules.
With --workspace (or no PATH arguments) the enclosing cargo workspace is
discovered from --root (default: the current directory) and audited whole.

  --workspace    audit every .rs file in the enclosing workspace
  --json         machine-readable output: {\"files_scanned\":N,\"findings\":[…]}
  --list-rules   print the rule registry (id and summary) and exit
  --loc          print code lines per crate (lines with a code token outside
                 comments and test regions) instead of linting
  --root DIR     directory to start workspace discovery from";

struct Args {
    workspace: bool,
    json: bool,
    list_rules: bool,
    loc: bool,
    root: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        json: false,
        list_rules: false,
        loc: false,
        root: None,
        paths: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => args.json = true,
            "--list-rules" => args.list_rules = true,
            "--loc" => args.loc = true,
            "--root" => match it.next() {
                Some(dir) => args.root = Some(PathBuf::from(dir)),
                None => return Err("--root requires a directory argument".into()),
            },
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<bool, String> {
    let start = match &args.root {
        Some(dir) => dir.clone(),
        None => std::env::current_dir().map_err(|e| format!("cannot read current dir: {e}"))?,
    };
    let root = source::find_workspace_root(&start)
        .ok_or_else(|| format!("no [workspace] Cargo.toml found above {}", start.display()))?;

    let files = if args.workspace || args.paths.is_empty() {
        source::collect_rs_files(&root).map_err(|e| format!("walking {}: {e}", root.display()))?
    } else {
        let mut files = Vec::new();
        for p in &args.paths {
            if p.is_dir() {
                files.extend(
                    source::collect_rs_files(p)
                        .map_err(|e| format!("walking {}: {e}", p.display()))?,
                );
            } else {
                files.push(p.clone());
            }
        }
        files.sort();
        files
    };

    if args.loc {
        let table =
            loc::loc_by_package(&root, &files).map_err(|e| format!("reading sources: {e}"))?;
        print!("{}", loc::render(&table));
        return Ok(true);
    }

    let report = audit_paths(&root, &files).map_err(|e| format!("reading sources: {e}"))?;
    if args.json {
        println!("{}", report.to_json());
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        eprintln!(
            "fedco-audit: {} file(s) scanned, {} finding(s)",
            report.files_scanned,
            report.findings.len()
        );
    }
    Ok(report.is_clean())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("fedco-audit: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for rule in rules::registry() {
            println!("{:<16} {}", rule.id(), rule.summary());
        }
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("fedco-audit: {msg}");
            ExitCode::from(2)
        }
    }
}
