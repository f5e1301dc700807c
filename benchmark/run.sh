#!/usr/bin/env bash
# Build the benchmark offline, then run it; every argument goes to the
# program. See README.md in this directory.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--seconds S] [--traced]
#   benchmark/run.sh --check-repeat
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

# Cargo reports on stderr, so the program's result stays the last line of
# stdout. A checkout without the workspace crates fails here, non-zero.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/onepipe-benchmark" --out "$here/out" "$@"
