#!/usr/bin/env bash
# Repo gate: formatting, lints (warnings are errors), the concurrency
# discipline lint, doc links, build, and tests — the same sequence CI
# should run.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Concurrency discipline: sched::atomic shim rule, `// ordering:` on
# every Relaxed site, `// SAFETY:` on every `unsafe`, guard evidence on
# every raw-pointer rehydration.
cargo run -q -p lint
# Doc links: a deleted item leaves its links dangling, and rustdoc only
# warns about that (and about links to private items) unless told not to.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --release
# Nothing above compiles the `sched-test` cfg, and it is not only additive:
# it swaps the atomics for the scheduler shims (under every `ebr::Striped`
# counter too) and the delegation wait's clock for a yield budget
# (`cbat_core::propagate::wait_for_delegatee`). CI's exploration job runs
# those corpora; this keeps the local gate from breaking their build.
cargo check -p sched -p cbat-core -p ebr -p chromatic -p fanout -p shard -p vcas -p vedge -p llxscx --features sched-test --all-targets
# The benchmark is a workspace of its own (benchmark/Cargo.toml), so no
# other step compiles it: a change to the API of the crates it path-depends
# on would break it unnoticed. Build it, and hold its catalog to what
# BENCHMARK.json declares (benchmark/run.sh refuses to run when they differ).
cargo build --release --offline --manifest-path benchmark/Cargo.toml
"${CARGO_TARGET_DIR:-benchmark/target}/release/cbat-benchmark" --manifest | cmp - BENCHMARK.json
cargo test -q
# Release builds drop the `debug_assert!`s on the fix-up arms and the
# alignment half of the link fence (`chromatic::Node::follow`), so the tree
# and BAT suites run once more the way the benchmark compiles them.
cargo test -q --release -p chromatic -p cbat-core
# The analytics worker's park / wake-up handshake is a race on timing, and
# the benchmark compiles `serve` in release.
cargo test -q --release -p serve
