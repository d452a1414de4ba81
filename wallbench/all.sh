#!/usr/bin/env bash
# Run every workload of the wall-clock serving benchmark for one seed, both
# ways: untraced (end-to-end metrics and output check) and traced (per-layer
# metrics, parity check, Chrome trace under wallbench/out/).  The run length
# is BENCHMARK.json's run_seconds.
# Usage: wallbench/all.sh SEED
set -euo pipefail
seed=${1:?usage: wallbench/all.sh SEED}
cd "$(dirname "$0")/.."
for workload in chat_window_shared keyformer_long_offline offload_int8_churn; do
    for trace in 0 1; do
        python3 wallbench/run.py --workload "$workload" --seed "$seed" \
            --seconds 30 --trace "$trace"
    done
done
