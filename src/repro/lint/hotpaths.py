"""Manifest of hot-path functions under the no-allocation contract.

These are the per-token / per-chunk code paths PR 1 and PR 2 made O(n):
one stray ``np.concatenate`` or ``.copy()`` here reintroduces the exact
O(n^2) save/decode regressions those PRs eliminated — and shows up only
as slow bench drift, never as a test failure.  The ``hot-path`` rule
(:mod:`repro.lint.rules.hot_path`) forbids the known regression-causing
allocation patterns inside every function listed here.

Keys are posix path suffixes (matched against the end of each analyzed
file's path, so any checkout root works); values are the qualified
function names (``Class.method`` or a module-level ``function``) the
contract covers in that module.

When a new function joins a hot path, add it here in the same PR — the
manifest is the machine-readable version of the "zero allocations on the
hot path" claim in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

HOT_PATHS: dict[str, frozenset[str]] = {
    # Decode fast paths: the per-token attention kernels (PR 1/PR 4).
    "repro/models/attention.py": frozenset(
        {
            "scaled_dot_product_attention",
            "batched_decode_attention",
        }
    ),
    # Batched decode iteration + the fused restore projection (its
    # head_ranges merge is the sharded restore's per-granule path).
    "repro/models/transformer.py": frozenset(
        {
            "Transformer.decode_batch",
            "Transformer.project_kv_chunk",
        }
    ),
    # Per-step cache writes: O(1) amortized appends, zero-copy views.
    # install_packed_head_rows is the tensor-shard merge primitive — one
    # call per (granule, head range) on the sharded restore path.
    "repro/models/kv_cache.py": frozenset(
        {
            "KVCache.append",
            "KVCache.install_view",
            "KVCache.install_rows",
            "KVCache.install_packed_head_rows",
            "StackedKVCacheBlock.append_token",
        }
    ),
    "repro/models/hidden_capture.py": frozenset(
        {
            "HiddenCapture.extend",
            "HiddenCapture.write",
        }
    ),
    # The fused elementwise kernels project_kv_chunk relies on.
    "repro/models/tensor_ops.py": frozenset(
        {
            "rmsnorm_into",
            "layernorm_into",
        }
    ),
    "repro/models/rope.py": frozenset(
        {
            "rope_rotate_into",
            "rope_rotate_fullwidth_into",
        }
    ),
    # Block-paged state store (PR 8): per-save block writes, admission
    # probes, and the pool-served restore reads run once per append /
    # per block — rows move by slice assignment into preallocated pool
    # arrays, never through fresh concatenations.
    "repro/state/pool.py": frozenset(
        {
            "BlockPool.lookup",
            "BlockPool.adopt_committed",
            "BlockPool.kv_views",
            "BlockPool.hidden_view",
        }
    ),
    "repro/state/store.py": frozenset(
        {
            "BlockStateStore.append",
            "BlockStateStore._write_rows",
            "BlockStateStore.hidden_rows",
            "BlockStateStore.kv_rows",
        }
    ),
    # Pool-served shared-prefix gather on the restore path.
    "repro/core/hcache.py": frozenset({"HCacheEngine._gather_pool_hidden"}),
    # Sharded restoration planning (PR 9): shard plans run once per
    # restore but feed every granule of it; keeping them allocation-lean
    # keeps the dispatch half of the executor-overhead budget flat.
    "repro/core/gqa.py": frozenset({"partition_kv_heads"}),
    "repro/runtime/sharded.py": frozenset({"partition_layers"}),
    # The one granule loop every restore drains through: per granule it
    # only acquires a staging slot, submits a read and consumes in place.
    "repro/runtime/drain.py": frozenset({"drain"}),
    # Storage granule loop: chunk reads land straight in staging slots.
    "repro/storage/device.py": frozenset({"StorageDevice.read_into"}),
    "repro/storage/manager.py": frozenset(
        {
            "StorageManager.append",
            "StorageManager.load_layer",
            "StorageManager.read_granule_into",
        }
    ),
}
