#!/usr/bin/env bash
# Collects one result set for `llamatune-benchmark compare`: every
# workload, tracing off, <runs> runs each on the same seed.
#
#   benchmark/collect.sh <out.jsonl> [runs=3] [seed=1] [seconds=15]
#
# Run from the repository root. Each output line is
# {"workload": .., "seed": .., "result": <the run's last line>}.
set -euo pipefail
out=${1:?usage: benchmark/collect.sh <out.jsonl> [runs] [seed] [seconds]}
runs=${2:-3}
seed=${3:-1}
seconds=${4:-15}
here=$(dirname "$0")
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin=${CARGO_TARGET_DIR:-$here/target}/release/llamatune-benchmark
: >"$out"
for workload in sim-bound opt-bound store-append store-resume served; do
    for _ in $(seq 1 "$runs"); do
        result=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
        printf '{"workload":"%s","seed":%s,"result":%s}\n' "$workload" "$seed" "$result" >>"$out"
    done
done
