"""Threaded restore executor: real wall-clock IO/compute overlap (§4.1).

A :class:`RestoreExecutor` is what a restore passes to the one granule
loop, :func:`repro.runtime.drain.drain`, to make its overlap real: a
background :class:`~repro.runtime.io_pool.IOWorkerPool` for the reads and
an ``inflight`` window of reads kept running ahead of consumption.  The
calling thread projects each granule as soon as its read resolves, so
layer ``k``'s projection genuinely overlaps layer ``k+1``'s read.

Determinism and bit-exactness: the drain consumes granules in exactly
the order :meth:`StorageManager.granule_plan` enumerates them — the
order the single-threaded restore uses — and all projection compute runs
on the single calling thread into disjoint KV-cache row slices.  Worker
threads only ever fill staging slots they exclusively own (see the
threading rules on :class:`repro.storage.streaming.StagingRing`), so the
restored bytes are identical to the single-threaded path for every pool
size, and the tests assert exactly that against the naive reference.

Concurrent restorations of *different* contexts may share one executor
(:meth:`RestoreExecutor.restore_contexts_async` runs them on background
restore threads): each restore brings its own staging rings and workspace,
devices are read-only during restoration, and the pool is the only
shared resource — which is the point, since a shared IO path is the
contention a real serving system sees.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor, wait
from functools import partial
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import ConfigError
from repro.runtime.io_pool import IOWorkerPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.hcache import HCacheEngine
    from repro.models.kv_cache import KVCache


class RestoreExecutor:
    """Drives granule-streamed restores with background IO workers.

    Args:
        pool: The shared :class:`IOWorkerPool`, or an int to create an
            owned pool of that size.  ``close`` only shuts down owned
            pools.
        inflight: Maximum granule reads outstanding (submitted but not
            yet consumed).  Defaults to ``pool.size + lookahead``; an
            explicit value wins over ``lookahead``.  Memory cost is one
            staging slot per inflight granule; the staging ring is sized
            ``inflight + 1`` deep, which makes slot reuse safe (see
            :class:`StagingRing`).
        lookahead: Granules kept in flight *beyond* one per pool worker
            (default 6, the knob behind the former hard-coded ``pool.size
            + 6``).  Beyond keeping every worker busy, the lookahead is
            the elasticity buffer that absorbs bursty IO completion —
            real NVMe latency jitter, or the quantum-batched sleeps of
            device latency emulation — without stalling the projection
            stream: with ``lookahead=0`` (inflight equal to the pool
            size) there is no runway of completed-but-unconsumed
            granules, so every multi-granule completion burst stalls the
            consumer and the pipeline measurably serializes (a regression
            test pins this).  Ignored when ``inflight`` is given.
        max_concurrent_restores: Cap on the background threads that run
            :meth:`restore_contexts_async` restores.
    """

    def __init__(
        self,
        pool: IOWorkerPool | int = 2,
        inflight: int | None = None,
        max_concurrent_restores: int = 4,
        lookahead: int = 6,
    ) -> None:
        if isinstance(pool, int):
            pool = IOWorkerPool(pool)
            self._owns_pool = True
        else:
            self._owns_pool = False
        if lookahead < 0:
            raise ConfigError("lookahead must be non-negative")
        if inflight is None:
            inflight = pool.size + lookahead
        if inflight < 1:
            raise ConfigError("executor needs at least one granule in flight")
        if max_concurrent_restores < 1:
            raise ConfigError("max_concurrent_restores must be at least 1")
        self.pool = pool
        self.inflight = inflight
        self.lookahead = lookahead
        self.max_concurrent_restores = max_concurrent_restores
        #: Lazily created restore-thread pool for :meth:`restore_contexts_async`.
        self._async_drivers: ThreadPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "RestoreExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the async driver pool, and the IO pool if owned."""
        if self._async_drivers is not None:
            self._async_drivers.shutdown(wait=True)
            self._async_drivers = None
        if self._owns_pool:
            self.pool.shutdown()

    # -- concurrent multi-context restore ------------------------------

    def restore_contexts(
        self,
        engine: "HCacheEngine",
        context_ids: Sequence[str],
        *,
        reserve_tokens: "int | Mapping[str, int]" = 0,
        shards: "tuple[int, int] | int | None" = None,
    ) -> dict[str, "KVCache"]:
        """Restore several contexts concurrently and wait for all of them.

        :meth:`restore_contexts_async` plus a wait on every future; the
        options mean the same there.  Per-context results are
        bit-identical to restoring them one by one.  Returns
        ``{context_id: KVCache}``; if any restore fails, the first
        failure (in ``context_ids`` order) re-raises after every other
        restore has settled.
        """
        futures = self.restore_contexts_async(
            engine, context_ids, reserve_tokens=reserve_tokens, shards=shards
        )
        wait(futures.values())
        return {cid: future.result() for cid, future in futures.items()}

    def restore_contexts_async(
        self,
        engine: "HCacheEngine",
        context_ids: Sequence[str],
        *,
        reserve_tokens: "int | Mapping[str, int]" = 0,
        shards: "tuple[int, int] | int | None" = None,
    ) -> dict[str, "Future[KVCache]"]:
        """Restore several contexts concurrently through the shared pool.

        Returns ``{context_id: Future[KVCache]}`` immediately; each
        restoration is an ordinary ``engine.restore(..., executor=self)``
        on a persistent restore-thread pool (at most ``max_concurrent_restores``
        concurrently), and the caller installs the finished cache
        whenever it polls the future.  Their granule reads all contend
        for the same IO workers, which is the serving-layer scenario the
        simulator's ``restore_io_parallelism`` models in time.
        ``reserve_tokens`` is one capacity for every context or a
        per-context mapping (missing ids reserve 0).  ``shards`` forwards
        a ``(pipeline, tensor)`` shard shape to every ``engine.restore``
        (see :meth:`HCacheEngine.restore`); a
        :class:`~repro.runtime.sharded.ShardedRestoreExecutor` shards by
        its own shape even when this is ``None``.  This is the
        serving front end's restore/decode overlap: admitted-but-evicted
        sessions restore in the background — their granule reads on the
        shared :class:`IOWorkerPool`, their projection GEMMs on the
        driver threads (numpy BLAS releases the GIL) — while the calling
        thread keeps issuing fused decode iterations for GPU-resident
        sessions.  Restored bytes are bit-identical to a blocking
        restore; only completion *timing* differs.

        Safety: the restored context must not be saved to or dropped
        while its future is outstanding (the front end keeps such
        sessions in the RESTORING phase, outside every iteration plan);
        concurrent saves of *other* contexts are fine, per the
        :meth:`HCacheEngine.restore` concurrency contract.
        """
        ids = list(context_ids)
        if len(set(ids)) != len(ids):
            raise ConfigError("restore_contexts needs distinct context ids")
        if not ids:
            return {}
        if isinstance(reserve_tokens, int):
            reserve = dict.fromkeys(ids, reserve_tokens)
        else:
            reserve = {cid: int(reserve_tokens.get(cid, 0)) for cid in ids}
        # Build the shared projection-weight stacks once, up front; the
        # lazy build is idempotent but racing it wastes work.
        engine.transformer._projection_stack()
        if self._async_drivers is None:
            self._async_drivers = ThreadPoolExecutor(
                max_workers=self.max_concurrent_restores,
                thread_name_prefix="hcache-restore-async",
            )
        return {
            cid: self._async_drivers.submit(
                partial(
                    engine.restore,
                    cid,
                    reserve[cid],
                    executor=self,
                    shards=shards,
                )
            )
            for cid in ids
        }
