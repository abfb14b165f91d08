#!/usr/bin/env bash
# Miri pass over a curated single-threaded subset of the UB-sensitive
# crates. Miri is a serialized interpreter — it catches provenance abuse,
# use-after-free, and invalid reinterprets that ASan misses, but it runs
# hundreds of times slower than native and explores only one
# interleaving, so the multi-threaded suites stay with the deterministic
# scheduler (`sched-test`) and ASan instead.
#
# Skip-list (documented here; each entry is a `--skip` below):
#   * ebr `many_threads_stress` — N threads × thousands of ops; hours
#     under the interpreter for no extra single-interleaving coverage.
#   * ebr `pinned_thread_blocks_reclamation` — cross-thread epoch
#     blocking; the property is about concurrency, which one Miri
#     interleaving cannot exercise meaningfully.
#   * ebr `the_arena_stops_growing_after_the_first_round` (tests/
#     pool_arena.rs) — 210 threads and ~2.3 M pool operations. The
#     arena, the carve, the spill to the depot (an 8-byte class carves
#     more blocks than a list keeps) and the thread-exit return (every
#     test thread's) are walked by the `pool` unit tests, which stay in.
#   * ebr `one_thread_past_the_limit_panics_then_slots_are_reused` (tests/
#     thread_limit.rs) — 258 threads; the table walk it reaches is the
#     same loop every registration runs.
#   * llxscx `concurrent_*` — the counter-chain and freeze-conflict
#     races; covered far better by the sched-test exploration corpus.
#   * cbat-core `propagate_semantics` / `sched_hunt` / `zero_alloc` /
#     `leaf_outlives_unlink` / `work_ledger` test targets — thread-spawning,
#     feature-gated or (the ledger's 10^5 updates) hours under the
#     interpreter; excluded by only naming the single-threaded targets
#     below. Of `version_tree_mirror` only the thread-free
#     `mirror_after_one_node_patches` runs.
#
# Flags: `-Zmiri-permissive-provenance` because the EBR pool and version
# slots round-trip pointers through u64 words (int-to-ptr casts are the
# protocol's representation, not an accident); `-Zmiri-disable-isolation`
# for the tests that read wall-clock time.
#
# `ebr::prefetch` compiles to nothing under Miri, so the
# `augmentation_laws` and `root_answer_is_read_only` passes walk every
# insert/remove's root check (`BatMap::root_answers`: the version-tree
# descent that reads each version's node hint, a pointer it never
# dereferences) as ordinary, checked loads. The `range_walk` pass walks the version tree's
# queries — the two-path range walk and the single-path descents — which
# step through raw version pointers (`Version::left` / `right`, which
# read a leaf child as the leaf node itself). `ebr::pool`'s huge-page advice (`madvise`) is
# compiled out too; the arena's chunks, the carve and the depot run as
# they do natively.
#
# The miri component needs a download on first use; on offline hosts the
# attempt fails and this script skips (exit 0) so it can sit in pipelines
# unconditionally.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "miri: no nightly toolchain — skipping"
    exit 0
fi
if ! cargo +nightly miri --version >/dev/null 2>&1; then
    rustup component add --toolchain nightly miri >/dev/null 2>&1 || true
fi
if ! cargo +nightly miri --version >/dev/null 2>&1; then
    echo "miri: component unavailable (offline host?) — skipping"
    exit 0
fi

export MIRIFLAGS="-Zmiri-permissive-provenance -Zmiri-disable-isolation"

# `cargo +nightly miri test <target> -- <filter>`, once per filter (a test's
# path, or a module's), for the steps that select tests by name: a run that
# reports `running 0 tests` fails, since a name that no longer exists would
# otherwise select nothing and pass. `<target>` is one word-split string of
# cargo arguments.
miri_named() {
    local target=$1 name out
    shift
    out=$(mktemp)
    for name in "$@"; do
        # shellcheck disable=SC2086 # `target` is a list of cargo arguments.
        timeout 1800 cargo +nightly miri test $target -- "$name" 2>&1 | tee "$out"
        if grep -q '^running 0 tests$' "$out"; then
            echo "miri: no test is named \`$name\` in \`$target\`" >&2
            rm -f "$out"
            return 1
        fi
    done
    rm -f "$out"
}

echo "== miri: ebr pool + retire contracts (single-threaded subset) =="
timeout 1800 cargo +nightly miri test -p ebr -- \
    --skip many_threads_stress \
    --skip pinned_thread_blocks_reclamation \
    --skip the_arena_stops_growing_after_the_first_round \
    --skip one_thread_past_the_limit_panics_then_slots_are_reused

echo "== miri: vedge (thread-free version-edge tests) =="
timeout 1800 cargo +nightly miri test -p vedge

echo "== miri: llxscx record lifecycle (llx/scx/finalize, single-threaded) =="
timeout 1800 cargo +nightly miri test -p llxscx -- \
    --skip concurrent_counter_chain \
    --skip concurrent_freeze_conflicts_resolve

echo "== miri: cbat-core augmentation laws + range walk + root answers (single-threaded targets) =="
timeout 1800 cargo +nightly miri test -p cbat-core --test augmentation_laws --test range_walk \
    --test root_answer_is_read_only

# A leaf's entries are cloned slice by slice into an uninitialized pool
# block (`Node::new_leaf_from`), read past the node's head as one slice
# through the block's exposed address (`Node::entries`), and reclaimed as
# the `Leaf` they were allocated as; an internal node's plugin is read the
# same way past its head (`Node::plugin`) and reclaimed as an `Internal`:
# the unit tests that build, read, copy and dispose of leaves and internal
# nodes, the split's slice cut, and the single-threaded mirror test whose
# updates are all one-node patches.
echo "== miri: node layout (chromatic + cbat-core, single-threaded) =="
miri_named "-p chromatic --lib" \
    node::tests::leaf_roundtrip node::tests::fat_leaf_roundtrip \
    node::tests::leaves_build_from_slices node::tests::internal_routes_search \
    node::tests::plugin_reclaim_hook_runs tree::tests::cut_at_splits_a_run_of_slices \
    validate::negative_tests
miri_named "-p cbat-core --lib" \
    version::tests::fat_leaf_versions_fold_their_entries \
    version::tests::hot_objects_fit_in_64_bytes version::tests::leaf_versions_have_size_one \
    version::tests::combine_sums_sizes
miri_named "-p cbat-core --test version_tree_mirror" mirror_after_one_node_patches

echo "miri: clean"
