#!/usr/bin/env bash
# Builds the program under test and the benchmark from source, then runs
# the benchmark with the given arguments:
#
#   bash crates/bench/src/bin/uabench/run.sh --workload eval-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a uavail checkout. Both binaries land in
# "$CARGO_TARGET_DIR/release" (default: target/release), where `uabench`
# finds `reproduce` next to itself.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f crates/bench/Cargo.toml ]]; then
    echo "uabench: run from the root of a uavail checkout" >&2
    exit 2
fi

# One target directory for both packages, so the binaries sit together.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet -p uavail-bench --bin reproduce
cargo build --release --quiet --manifest-path crates/bench/src/bin/uabench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/uabench" "$@"
