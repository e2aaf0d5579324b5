#!/usr/bin/env bash
# Gate for the perf/ package. The root ci.sh only sees workspace
# members, and this package is deliberately not one, so it carries its
# own: format, lints, unit tests, and a short smoke of the run command
# with its output checks. Offline, like everything else here.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=perf/Cargo.toml

echo "== cargo fmt --check"
cargo fmt --manifest-path "$manifest" -- --check

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings

echo "== cargo test"
cargo test --offline --manifest-path "$manifest" -q

echo "== smoke: every workload, seed 1, one second each, untraced then traced"
cargo run --release --offline --quiet --manifest-path "$manifest" -- \
    run --seed 1 --seconds 1
cargo run --release --offline --quiet --manifest-path "$manifest" -- \
    run --seed 1 --seconds 1 --traced

echo "== perf/check.sh: all gates passed"
