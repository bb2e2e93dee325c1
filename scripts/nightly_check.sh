#!/usr/bin/env bash
# Nightly differential sweep: much deeper than the CI smoke stage.
#
# Runs `mao check` over several seeds at 500 cases each (every transforming
# pass alone plus the full pipeline, through every execution path), then one
# debug-build sweep whose oracles check every layout a pass reads against
# the reference relaxation solver, and finishes with the fault-injection
# self-test. Any failure is shrunk and persisted under tests/regressions/ —
# commit the new file so `cargo test` replays it forever after.
#
# Usage: scripts/nightly_check.sh [seed...]   (default seeds: 1 2 3 42 1337)
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=("$@")
if [ ${#SEEDS[@]} -eq 0 ]; then
    SEEDS=(1 2 3 42 1337)
fi
CASES=${CASES:-500}

cargo build --release -p mao-check
cargo build -p mao-check --bin mao
MAO=target/release/mao

status=0
for seed in "${SEEDS[@]}"; do
    echo "==> mao check --seed $seed --cases $CASES"
    if ! "$MAO" check --seed "$seed" --cases "$CASES" --regress-dir tests/regressions; then
        status=1
    fi
done

echo "==> mao check --seed 1 --cases 100 (debug oracles)"
if ! target/debug/mao check --seed 1 --cases 100 --regress-dir tests/regressions; then
    status=1
fi

echo "==> injection self-test"
"$MAO" check --inject-miscompile > /dev/null

if [ "$status" -ne 0 ]; then
    echo "nightly check: FAILURES found — shrunk units persisted to tests/regressions/"
    exit 1
fi
echo "nightly check: all sweeps green"
