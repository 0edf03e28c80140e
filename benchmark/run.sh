#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE]
#       every workload, 3 untraced runs (medians) + 1 traced run each, every
#       metric printed by name and unit, results in <target>/benchmark/
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of the benchmark contract (see BENCHMARK.json); the last
#       line of stdout is the result object
#   benchmark/run.sh compare A.json B.json | manifest
#
# It first builds what it measures: the root workspace's release binaries the
# harness spawns (fedco-serve, fleet_sweep), then the harness itself.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR is relative to the caller's directory, and both
# builds must agree on it.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p fedco-server -p fedco-fleet --bin fedco-serve --bin fleet_sweep >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

harness="$target/release/fedco-benchmark"
case "${1:-}" in
compare | manifest) exec "$harness" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$harness" run "$@"
    fi
done

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
    commit="$commit-dirty"
fi
export FEDCO_BENCH_COMMIT="$commit"
export FEDCO_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
exec "$harness" all "$@"
