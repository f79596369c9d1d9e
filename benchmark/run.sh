#!/usr/bin/env bash
# The one command of the SecNDP perf ledger (see README.md).
#
#   benchmark/run.sh                  the whole ledger -> benchmark/out/results.json
#   benchmark/run.sh --repeat-check   untraced set twice; fails if a metric moved past its bound
#   benchmark/run.sh --quick          smoke test at 1/20 length (labelled quick=true)
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                     one run, as BENCHMARK.json's command starts it
#
# Builds, offline, the repository's release `secndp-server` and this crate,
# then hands every argument to the benchmark binary.
set -euo pipefail
cd "$(dirname "$0")/.."

# --manifest-path: cargo must not pick up a Cargo.toml above a directory that
# holds only the benchmark, where the build is meant to fail.
cargo build --quiet --release --offline --manifest-path Cargo.toml --bin secndp-server
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/secndp-perfbench" \
    --server "${CARGO_TARGET_DIR:-target}/release/secndp-server" "$@"
