#!/usr/bin/env bash
# Builds the `graphmine` binary and the fleet benchmark from source, then
# runs the benchmark. Arguments pass through, e.g.
#   bash fleetbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default: fleetbench/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin graphmine >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/fleetbench" --graphmine "$target/release/graphmine" \
    --work-dir "$root/.fleetbench" "$@"
