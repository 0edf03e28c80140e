//! `fedco-audit --loc`: code size per crate, tracked like throughput.
//!
//! A *code line* is a source line carrying at least one code token — so
//! blank lines, comments and doc comments do not count — outside
//! `#[cfg(test)]` / `#[test]` regions. Integration tests (`tests/`) are
//! skipped whole; binaries, benches and examples count towards their crate.
//! Reformatting a comment or moving code into a test module therefore never
//! moves the number; deleting shipped code does.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use crate::context::FileContext;
use crate::source::{self, FileClass, SourceFile};

/// Number of code lines in `src` (see the module docs for the definition).
pub fn code_lines(file: &SourceFile, src: &str) -> usize {
    let ctx = FileContext::build(file, src, &[]);
    let mut count = 0usize;
    // Tokens come in source order, so "already counted" is one watermark.
    let mut counted_through = 0u32;
    for k in (0..ctx.code_len()).filter(|&k| !ctx.in_test_code(k)) {
        let tok = ctx.code_tok(k);
        // A multi-line string literal is code on every line it spans.
        let last = tok.line + tok.text.matches('\n').count() as u32;
        let first = tok.line.max(counted_through + 1);
        if last >= first {
            count += (last - first + 1) as usize;
            counted_through = last;
        }
    }
    count
}

/// The cargo package a workspace-relative file belongs to: `fedco-<dir>` for
/// `crates/<dir>/…` and for any other top-level package directory (the
/// `benchmark/` harness), `fedco` for the root package's own directories.
pub fn package_of(file: &SourceFile) -> String {
    if !file.crate_dir.is_empty() {
        return format!("fedco-{}", file.crate_dir);
    }
    match file.rel_path.split_once('/') {
        Some((top, _)) if !matches!(top, "src" | "examples" | "tests" | "benches") => {
            format!("fedco-{top}")
        }
        _ => "fedco".to_string(),
    }
}

/// Code lines per package over `files`, classified relative to `root`.
pub fn loc_by_package(root: &Path, files: &[PathBuf]) -> io::Result<BTreeMap<String, usize>> {
    let mut out = BTreeMap::new();
    for path in files {
        let file = SourceFile::from_rel_path(&source::rel_path(root, path));
        if file.class == FileClass::Test {
            continue;
        }
        let src = std::fs::read_to_string(path)?;
        *out.entry(package_of(&file)).or_insert(0) += code_lines(&file, &src);
    }
    Ok(out)
}

/// Renders the per-package table with a total row.
pub fn render(table: &BTreeMap<String, usize>) -> String {
    let mut out = format!("{:<18} {:>10}\n", "crate", "code lines");
    for (package, lines) in table {
        out.push_str(&format!("{package:<18} {lines:>10}\n"));
    }
    let total: usize = table.values().sum();
    out.push_str(&format!("{:<18} {total:>10}\n", "total"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_lines_outside_comments_and_test_regions() {
        let file = SourceFile::from_rel_path("crates/sim/src/fake.rs");
        let src = "\
//! docs do not count

/// nor do these
fn shipped() { // a trailing comment does not hide the code
    let s = \"two
lines\";
}
/* block */

#[cfg(test)]
mod tests {
    #[test]
    fn t() { shipped(); }
}
#[test]
fn loose() {}
fn tail() {}
";
        // fn shipped, let (2 lines), closing brace, fn tail.
        assert_eq!(code_lines(&file, src), 5);
        assert_eq!(code_lines(&file, ""), 0);
    }

    #[test]
    fn packages_follow_the_directory_layout() {
        let package = |p: &str| package_of(&SourceFile::from_rel_path(p));
        assert_eq!(package("crates/sim/src/engine.rs"), "fedco-sim");
        assert_eq!(package("crates/bench/benches/engine.rs"), "fedco-bench");
        assert_eq!(package("src/lib.rs"), "fedco");
        assert_eq!(package("examples/quickstart.rs"), "fedco");
        assert_eq!(package("benchmark/src/main.rs"), "fedco-benchmark");
    }
}
