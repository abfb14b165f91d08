#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--workload NAME]   every workload (or one): a timed run,
#                                                   then a traced run, each in its own process
#   benchmark/run.sh --aa [--seed N]                two back-to-back sets of ten timed runs per
#                                                   workload (seeds N .. N+9) of this build,
#                                                   compared; writes benchmark/AA.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                   one run, as the driver in BENCHMARK.json calls it
#
# Builds the `cbat-benchmark` package first (offline; into $CARGO_TARGET_DIR, or
# benchmark/target). Reports go to benchmark/out/.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
TARGET="${CARGO_TARGET_DIR:-$HERE/target}"
case "$TARGET" in /*) ;; *) TARGET="$PWD/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"
cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml" >&2
BIN="$TARGET/release/cbat-benchmark"
CBAT_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export CBAT_BENCH_RUSTC
OUT="$HERE/out"

# The driver's form names --trace: one run, its JSON object on the last line.
for arg in "$@"; do
    if [[ "$arg" == --trace ]]; then
        exec "$BIN" "$@" --out "$OUT"
    fi
done

SEED=20260926
# Runs per set and workload of --aa: what the driver's own A/A check takes.
AA_RUNS=10
WORKLOADS=(bat-update bat-analytics served-point served-mixed)
AA=0
while (($#)); do
    case "$1" in
        --seed) SEED="$2"; shift 2 ;;
        --workload) WORKLOADS=("$2"); shift 2 ;;
        --aa) AA=1; shift ;;
        *) echo "usage: $0 [--seed N] [--workload NAME] [--aa]" >&2; exit 2 ;;
    esac
done

if ! "$BIN" --manifest | cmp -s - "$HERE/../BENCHMARK.json"; then
    echo "BENCHMARK.json is not what \`cbat-benchmark --manifest\` prints: regenerate it" >&2
    exit 2
fi

if ((AA)); then
    rm -rf "$OUT/aa"
    for set in a b; do
        mkdir -p "$OUT/aa/$set"
        for w in "${WORKLOADS[@]}"; do
            for ((i = 0; i < AA_RUNS; i++)); do
                echo "# A/A set $set: $w run $i" >&2
                "$BIN" --workload "$w" --seed $((SEED + i)) --trace 0 --out "$OUT/aa/$set" \
                    >"$OUT/aa/$set/$w.$i.txt"
            done
        done
    done
    exec "$BIN" --aa-compare "$OUT/aa/a" "$OUT/aa/b" "$HERE/AA.json"
fi

for w in "${WORKLOADS[@]}"; do
    "$BIN" --workload "$w" --seed "$SEED" --trace 0 --out "$OUT"
    "$BIN" --workload "$w" --seed "$SEED" --trace 1 --out "$OUT"
done
