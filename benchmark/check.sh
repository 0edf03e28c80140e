#!/usr/bin/env bash
# The benchmark's own gate (ci.sh is outside this directory): the harness is
# formatted, lint-clean and tested, the workspace still audits clean with the
# harness in it, and two back-to-back result sets of the same code agree
# within the benchmark's own bounds.
#
#   benchmark/check.sh [--seconds S]      (default: the recorded run length)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

echo "== harness: fmt, clippy, tests =="
(cd "$here" && cargo fmt --check)
(cd "$here" && cargo clippy --offline --all-targets -- -D warnings)
(cd "$here" && cargo test --offline --release)

echo "== workspace audit, harness included =="
cargo run --release --offline --quiet --manifest-path "$root/Cargo.toml" -p fedco-audit -- \
    --workspace --root "$root"

echo "== two result sets of the same code =="
out="$target/benchmark"
mkdir -p "$out"
"$here/run.sh" "$@" --out "$out/check-a.json"
"$here/run.sh" "$@" --out "$out/check-b.json"
"$here/run.sh" compare "$out/check-a.json" "$out/check-b.json"
