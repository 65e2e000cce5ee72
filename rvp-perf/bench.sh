#!/usr/bin/env bash
# Builds the simulator's rvp-grid and rvp-serve and the rvp-perf
# benchmark from this checkout (offline, release), then runs
# `rvp-perf run` with the given arguments, e.g.
#
#   bash rvp-perf/bench.sh --workload serve-hot --seed 3 --seconds 12 --trace 0
#
# Run it from the repository root. Build output goes to stderr, so the
# benchmark's result line stays the last line of stdout. Both builds
# share CARGO_TARGET_DIR (default: target), which puts rvp-perf next
# to the executables it drives.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "bench.sh: run from the repository root (no simulator sources here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin rvp-grid --bin rvp-serve >&2
cargo build --release --offline --quiet --manifest-path rvp-perf/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/rvp-perf" run "$@"
