"""Sharded parallel restoration across simulated GPUs (§5 extension).

The threaded executor (:mod:`repro.runtime.executor`) overlaps one
restoration's IO with its projections, but both still flow through a
single stream pair — one simulated GPU.  This module partitions one
restoration across ``pipeline_shards x tensor_shards`` simulated GPUs:

- **Pipeline dimension** (:func:`partition_layers`): the restore's
  layers split into contiguous stages, and :func:`repro.runtime.drain.drain`
  gets one granule plan per stage.  Stages share nothing but the IO
  worker pool, so their granule streams progress independently — the
  per-stage independence the modelled timeline takes a ``max`` over
  (:func:`repro.simulator.pipeline.sharded_restoration_makespan`).
- **Tensor dimension** (:func:`repro.core.gqa.partition_kv_heads`): KV
  heads split into GQA-group-aligned contiguous ranges.  Each rank of a
  stage contributes one read channel (a stage keeps ``tensor_shards *
  inflight_per_shard`` reads in flight) and owns one head range of the
  merge (:meth:`Transformer.project_kv_chunk` with ``head_ranges`` /
  :meth:`KVCache.install_packed_head_rows` write disjoint head slices).

**Merge discipline / bit-exactness.**  Restored bytes must be
bit-identical to the single-shard path for *every* shard shape, and
``project_kv_chunk`` is chunk-partition-sensitive in the last ulp — so
sharding changes *where bytes move*, never *what gets computed*:
granule plans per stage are byte-identical sub-sequences of the
single-shard plan, all projection compute runs at full GEMM width on
the one consuming thread, and the tensor dimension only partitions the
strictly elementwise merge (RoPE rotation, head-slice installs).  The
property tests sweep (pipeline x tensor) shapes against the naive
reference to pin this.

The executor's *measured* concurrency comes from the reads: device
latency emulation with ``channels=p*t``
(:meth:`repro.storage.array.StorageArray.emulate_latency`) sleeps the
shards' reads on independent channels, so wall clock genuinely floors
at the aggregated-bandwidth ``io_total / (p*t)`` the model prices.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from repro.errors import ConfigError
from repro.runtime.executor import RestoreExecutor
from repro.runtime.io_pool import IOWorkerPool


def partition_layers(
    layers: Sequence[int], n_stages: int
) -> tuple[tuple[int, ...], ...]:
    """Split ``layers`` into contiguous, balanced pipeline stages.

    Stage sizes differ by at most one (larger stages first).  A stage
    count above ``len(layers)`` is **clamped** — unlike the tensor
    dimension (where an over-split silently misprojects and is
    rejected), extra pipeline stages would merely be empty, so the plan
    degrades to one layer per stage.  Preserves the given layer order
    (the §4.1 drain order).

    Raises:
        ConfigError: for a non-positive stage count.
    """
    if n_stages < 1:
        raise ConfigError(f"pipeline shard count must be positive, got {n_stages}")
    layers = tuple(layers)
    if not layers:
        return ()
    n = min(n_stages, len(layers))
    base, extra = divmod(len(layers), n)
    bounds = list(
        accumulate((base + (1 if s < extra else 0) for s in range(n)), initial=0)
    )
    return tuple(layers[a:b] for a, b in zip(bounds[:-1], bounds[1:]))


class ShardedRestoreExecutor(RestoreExecutor):
    """Drives one restoration as ``pipeline x tensor`` concurrent shards.

    Subclasses :class:`RestoreExecutor` (pool ownership, context-manager
    lifetime, ``restore_contexts``) and adds the shard shape: the engine
    drains ``pipeline_shards`` stages of each restore, each with a window
    (:attr:`inflight`) of ``tensor_shards * inflight_per_shard`` reads.
    An engine handed a sharded executor restores through it automatically
    (:meth:`HCacheEngine.restore` resolves ``shards`` from
    :attr:`shard_shape` when not given explicitly), so
    ``restore_contexts`` and :class:`NumericServingEngine` shard with
    zero call-site changes.

    Args:
        shards: ``(pipeline_shards, tensor_shards)`` — the simulated GPU
            grid one restoration is partitioned over.
        pool: Shared :class:`IOWorkerPool`, an int size, or ``None`` for
            an owned pool with one worker per simulated GPU (``p * t`` —
            each shard's ingest link gets a thread, so emulated-latency
            reads genuinely overlap across shards).
        inflight_per_shard: Granule-read lookahead *per shard*.  Each
            pipeline stage keeps ``tensor_shards * inflight_per_shard``
            reads outstanding — its tensor ranks' aggregated read
            channels — bounded per stage so one stage's burst cannot
            starve the others' staging windows.
        max_concurrent_restores: As in :class:`RestoreExecutor`.
    """

    def __init__(
        self,
        shards: tuple[int, int],
        pool: IOWorkerPool | int | None = None,
        inflight_per_shard: int = 4,
        max_concurrent_restores: int = 4,
    ) -> None:
        pipeline_shards, tensor_shards = shards
        if pipeline_shards < 1 or tensor_shards < 1:
            raise ConfigError(
                f"shard shape {shards} needs positive pipeline and tensor counts"
            )
        if inflight_per_shard < 1:
            raise ConfigError("inflight_per_shard must be at least 1")
        if pool is None:
            pool = pipeline_shards * tensor_shards
        super().__init__(
            pool,
            inflight=tensor_shards * inflight_per_shard,
            max_concurrent_restores=max_concurrent_restores,
        )
        self.pipeline_shards = pipeline_shards
        self.tensor_shards = tensor_shards
        self.inflight_per_shard = inflight_per_shard

    @property
    def shard_shape(self) -> tuple[int, int]:
        """``(pipeline_shards, tensor_shards)``."""
        return (self.pipeline_shards, self.tensor_shards)
