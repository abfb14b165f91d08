#!/usr/bin/env bash
# Short exploratory sweep of the five `bench` sections (contended writers,
# adapter x mix x distribution, shards x threads, hot drift, serving).
# Writes bench_smoke.json (git-ignored) to the repo root; a panic in any
# section fails the run. Performance claims are judged on
# benchmark/run.sh, not on this file.
#
# Usage: scripts/bench_smoke.sh [extra bench args...]
#   scripts/bench_smoke.sh                      # writes bench_smoke.json
#   scripts/bench_smoke.sh --out custom.json    # explicit output file
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p bench
# The timeout turns a (rare) BAT liveness bug — tracked in ROADMAP.md —
# into a loud failure instead of a wedged CI job.
timeout 2400 cargo run --release -p bench --bin bench -- \
    --threads 1,2,4,8 --duration-ms 600 --trials 3 --max-key 32768 \
    --out bench_smoke.json "$@" >/dev/null
