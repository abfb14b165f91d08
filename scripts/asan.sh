#!/usr/bin/env bash
# AddressSanitizer pass over the reclamation-heavy crates, aimed at the
# unreproduced BAT heap corruption (ROADMAP forensics: SIGSEGV at offset
# 0x30 in `read_version` → `VersionSlot::load`, and a `malloc_consolidate`
# abort on an unaligned fastbin chunk — classic allocator-metadata
# corruption). Every heap allocation outside `ebr::pool` (scratch and
# limbo vectors, the pool's own 2 MiB chunks) gets redzones and a reuse
# quarantine, so an overflow of one reports at the faulting access instead
# of crashing minutes later inside glibc. Pooled objects do not: the pool
# carves them from its chunks itself, so ASan sees no redzone between two
# blocks and no quarantine when one is recycled. What guards them is the
# pool's debug poison check (a write through a retired pointer panics at
# the block's next allocation), which these debug-build tests run.
#
# `-Zsanitizer=address` is unstable, so this needs a nightly toolchain;
# the script skips (exit 0) when one is not installed, so it can sit in
# pipelines on stable-only hosts. An explicit `--target` keeps build
# scripts and proc macros uninstrumented.
#
# Usage: scripts/asan.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TARGET=x86_64-unknown-linux-gnu

if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "asan: no nightly toolchain — skipping (rustup toolchain install nightly)"
    exit 0
fi

export RUSTFLAGS="-Zsanitizer=address"
# Leak checking stays off: LLX/SCX descriptors are immortal by design and
# the EBR thread pools are leaked at process exit on purpose.
export ASAN_OPTIONS="detect_leaks=0:abort_on_error=1"

# `--tests` (not the default target set): rustdoc does not link the ASan
# runtime, so doctests fail with undefined `__asan_*` symbols. Unit +
# integration tests carry all the coverage that matters here.
echo "== asan: ebr (pool reuse, poisoning, use-after-retire contracts) =="
timeout 900 cargo +nightly test -q -p ebr --tests --target "$TARGET"

echo "== asan: cbat-core (BAT hot paths, version reclamation) =="
timeout 1200 cargo +nightly test -q -p cbat-core --tests --target "$TARGET"

# Serving layer (PR 10): the end-to-end request path — client-owned
# request cells handed through MPMC rings to per-shard and analytics
# workers (any worker access after the done-flag release store is a
# use-after-free on a reused cell), plus the retire-order fix's
# deferred node reclamation driven by real fanout churn under leased
# snapshots.
echo "== asan: serve example (request-cell handoff, leased snapshots) =="
timeout 1200 cargo +nightly run --release -p serve \
    --example serve --target "$TARGET"

echo "asan: clean"
