#!/usr/bin/env bash
# Builds the release perpetuum-serve daemon and the perfbench program from
# source, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload plan_cold --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target). Cargo's output
# goes to stderr; the last line on stdout is the result JSON.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p perpetuum-serve --bin perpetuum-serve 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2

exec "$target/release/perfbench" --serve-bin "$target/release/perpetuum-serve" "$@"
