//! # fedco-audit
//!
//! A zero-dependency static-analysis pass enforcing the `fedco` workspace's
//! determinism and panic-safety invariants. Every claim this reproduction
//! makes — dense-vs-event bit-identity, any-worker-count merge identity, the
//! exact Lyapunov schedules of the paper's Online policy — rests on
//! invariants that dynamic equivalence tests can only spot-check; this crate
//! makes them *statically* checkable and CI-gateable.
//!
//! The analyzer lexes each source file with a real hand-rolled tokenizer
//! (comment-, string-, raw-string- and lifetime-aware, see [`lexer`]) so
//! rules match tokens, never text inside comments or literals, and runs the
//! rule registry of [`rules`]:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `wall-clock` | `Instant`/`SystemTime` only in `crates/bench` or annotated timing sites |
//! | `unordered-iter` | no `HashMap`/`HashSet` in core/sim/fl/fleet library code |
//! | `panic-surface` | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library code |
//! | `rng-discipline` | no entropy sources; RNGs take explicit `u64` seeds |
//! | `float-reduction` | float `.sum()`/`.fold()` only in the blessed stats module |
//! | `crate-hygiene` | crate roots carry `#![forbid(unsafe_code)]` + `#![deny(missing_docs)]` |
//! | `allow-syntax` | malformed escape-hatch annotations are findings themselves |
//!
//! Justified exceptions stay auditable instead of invisible via an inline
//! escape hatch on (or immediately above) the offending line:
//!
//! ```text
//! let start = Instant::now(); // fedco-audit: allow(wall-clock): wall_ms is excluded from determinism comparisons
//! ```
//!
//! Run it as `cargo run -p fedco-audit -- --workspace` (nonzero exit on any
//! finding; `--loc` prints code lines per crate instead, see [`loc`]), or
//! embed it:
//!
//! ```
//! use fedco_audit::{audit_source, source::SourceFile};
//!
//! let file = SourceFile::from_rel_path("crates/sim/src/example.rs");
//! let findings = audit_source(&file, "fn f() { let x: f64 = v.iter().sum(); }");
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "float-reduction");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod context;
pub mod findings;
pub mod lexer;
pub mod loc;
pub mod rules;
pub mod source;

use std::io;
use std::path::{Path, PathBuf};

use context::FileContext;
use findings::Finding;
use source::SourceFile;

/// The outcome of auditing a set of files.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Every finding, in (file, line, col) order within rule-registry order
    /// per file.
    pub findings: Vec<Finding>,
    /// How many source files were scanned.
    pub files_scanned: usize,
}

impl AuditReport {
    /// Whether the audited tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the whole report as one JSON object.
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self.findings.iter().map(Finding::to_json).collect();
        format!(
            "{{\"files_scanned\":{},\"findings\":[{}]}}",
            self.files_scanned,
            findings.join(",")
        )
    }
}

/// Runs every rule over one file's source text. The entry point fixtures and
/// tests use; file IO stays in [`audit_paths`].
pub fn audit_source(file: &SourceFile, src: &str) -> Vec<Finding> {
    let ctx = FileContext::build(file, src, rules::ALLOWABLE_RULES);
    let mut out = Vec::new();
    for rule in rules::registry() {
        rule.check(&ctx, &mut out);
    }
    out.sort_by_key(|a| (a.line, a.col));
    out
}

/// Audits the given files, classifying each relative to `root`.
pub fn audit_paths(root: &Path, files: &[PathBuf]) -> io::Result<AuditReport> {
    let mut findings = Vec::new();
    for path in files {
        let rel = source::rel_path(root, path);
        let file = SourceFile::from_rel_path(&rel);
        let src = std::fs::read_to_string(path)?;
        findings.extend(audit_source(&file, &src));
    }
    Ok(AuditReport {
        findings,
        files_scanned: files.len(),
    })
}

/// Audits every `.rs` file in the workspace rooted at `root` (skipping
/// `target/` and dot-directories).
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let files = source::collect_rs_files(root)?;
    audit_paths(root, &files)
}
