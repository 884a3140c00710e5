"""Concurrency layer for the restore pipeline.

Every restoration streams its stored rows through one granule loop,
:func:`repro.runtime.drain.drain` (§4.1: hidden-state reads overlap the
K/V projection).  The drain takes one granule plan per pipeline stage, a
pool that runs the reads, and a per-stage window of reads in flight; the
restore flavors differ only in those three:

- no executor — one stage and an inline pool with a window of 1: each
  read runs on the calling thread just before its granule is consumed.
- :class:`RestoreExecutor` — one stage, a shareable :class:`IOWorkerPool`
  of background threads (device ``read_into`` memcpys and emulated-latency
  sleeps both release the GIL) and an ``inflight`` window, so reads run
  ahead while the calling thread projects in the exact single-threaded
  order and every pool size stays bit-exact with the naive reference.
  It also restores multiple contexts concurrently through one shared
  pool for the serving layer.
- :class:`ShardedRestoreExecutor` — partitions *one* restoration across
  ``pipeline x tensor`` simulated GPUs: one stage per contiguous layer
  range (:func:`partition_layers`), KV-head ranges merged through
  disjoint slices, bit-exact with the single-shard path for every shard
  shape.

The single-threaded path remains the default everywhere; pass an executor
to opt in.  See ``docs/ARCHITECTURE.md`` for the pipeline timeline.
"""

from repro.runtime.drain import StageTrace
from repro.runtime.executor import RestoreExecutor
from repro.runtime.io_pool import IOWorkerPool
from repro.runtime.sharded import ShardedRestoreExecutor, partition_layers

__all__ = [
    "IOWorkerPool",
    "RestoreExecutor",
    "ShardedRestoreExecutor",
    "StageTrace",
    "partition_layers",
]
