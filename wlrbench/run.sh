#!/usr/bin/env bash
# Builds the benchmark from source and runs it, forwarding every argument:
#   bash wlrbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: wlrbench/target); cargo's messages go to stderr.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/wlrbench" "$@"
