"""The restore pipeline's one granule loop (§4.1).

Every restoration — single-threaded, threaded, or sharded — streams its
stored rows through :func:`drain`: the storage manager's granule plans
(:meth:`~repro.storage.manager.StorageManager.granule_plan`, one per
pipeline stage) are read with
:meth:`~repro.storage.manager.StorageManager.read_granule_into` into
staging-ring slots, and each granule is handed to ``consume`` (projection
or KV install) on the calling thread.  What differs between the restore
flavors is only what the caller passes:

- **single-threaded** — one stage, an :class:`InlinePool` and a window
  of 1: each read runs on the calling thread when the drain waits for
  it, through a 2-deep staging ring, so ``stats.read_s`` is the total
  read time;
- **threaded** — one stage, the shared
  :class:`~repro.runtime.io_pool.IOWorkerPool` and the executor's
  ``inflight`` window: reads run ahead on workers while this thread
  projects, and ``stats.read_s`` is the exposed stall;
- **sharded** — one stage per :func:`~repro.runtime.sharded.partition_layers`
  range, each with its own ring and window, consumed by readiness across
  stages.

Bit-exactness: within a stage, granules are consumed strictly in plan
order, and every consume call sees the same granule boundaries whatever
the pool, window or stage count — so the restored bytes never depend on
the flavor.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, CancelledError, wait
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.runtime.io_pool import IOWorkerPool
from repro.storage.manager import StorageManager
from repro.storage.streaming import GranuleSpec, LayerChunk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.hcache import RestoreBreakdown


class _InlineTask:
    """Deferred call standing in for a future: runs when its result is asked."""

    __slots__ = ("_call", "_cancelled")

    def __init__(self, call: Callable[[], Any]) -> None:
        self._call = call
        self._cancelled = False

    def cancel(self) -> bool:
        self._cancelled = True
        return True

    def result(self) -> Any:
        if self._cancelled:
            raise CancelledError()
        return self._call()


class InlinePool:
    """Pool stand-in that runs each task on the calling thread, on demand.

    ``submit`` only records the call; the task runs when the drain waits
    on its result.  Used by restores without an executor: one stage, a
    window of 1, so reads stay on the calling thread and interleave with
    the projections.  Supports single-stage drains only (its tasks have
    no ``done`` to poll).
    """

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> _InlineTask:
        return _InlineTask(partial(fn, *args, **kwargs))


@dataclass
class StageTrace:
    """Per-granule accounting of one pipeline stage of a drain.

    Filled by :func:`drain` (when timing) in that stage's consumption
    order; the engine turns it into the per-stage
    :class:`~repro.simulator.pipeline.ShardedStageTimeline` the modelled
    sharded makespan is computed from.
    """

    stage: int
    io_seconds: list[float] = field(default_factory=list)
    compute_seconds: list[float] = field(default_factory=list)
    rows: list[int] = field(default_factory=list)


def drain(
    storage: StorageManager,
    context_id: str,
    plans: Sequence[Sequence[GranuleSpec]],
    granule_chunks: int,
    consume: Callable[[LayerChunk], None],
    pool: IOWorkerPool | InlinePool,
    window: int,
    stats: "RestoreBreakdown | None" = None,
    io_times: list[float] | None = None,
    compute_times: list[float] | None = None,
    traces: list[StageTrace] | None = None,
) -> None:
    """Read every granule of ``plans`` and ``consume`` it on this thread.

    Each plan (one per pipeline stage, all of one ``kind``) gets a
    staging ring ``window + 1`` deep and keeps up to ``window`` reads
    outstanding on ``pool``.  Within a stage granules are consumed in
    plan order; across stages, by readiness (whichever stage's next
    granule has landed).  With one live stage the loop blocks on that
    stage's head read directly.

    Accounting, when ``stats`` is given: ``stats.read_s`` gets the time
    this thread waited for reads, ``stats.dispatch_s`` the submit-side
    overhead (slot acquisition plus pool handoff), ``io_times`` each
    granule's modelled device seconds and ``compute_times`` its measured
    consume time, in consumption order.  ``traces`` additionally gets one
    :class:`StageTrace` per non-empty stage.

    Containment: if a read or a consume raises, every outstanding read
    is cancelled or settled before the error propagates, so no worker
    keeps filling a slot this drain abandoned and the pool stays usable.
    """
    plans = [plan for plan in plans if plan]
    if not plans:
        return
    timed = stats is not None
    if timed:
        io_times = io_times if io_times is not None else []
        compute_times = compute_times if compute_times is not None else []
    kind = plans[0][0].kind
    # Per-stage outstanding reads never exceed `window` (one refill per
    # consume), so the slot a refill recycles was acquired window + 1
    # submissions earlier in the same stage — a granule already consumed.
    rings = [
        storage.staging_ring(
            context_id, kind, depth=window + 1, granule_chunks=granule_chunks
        )
        for _ in plans
    ]
    stage_traces: list[StageTrace] | None = None
    if traces is not None and timed:
        stage_traces = [StageTrace(stage=s) for s in range(len(plans))]
        traces.extend(stage_traces)
    pending: list[deque] = [deque() for _ in plans]
    next_index = [0] * len(plans)

    def submit_next(s: int) -> None:
        if next_index[s] >= len(plans[s]):
            return
        spec = plans[s][next_index[s]]
        next_index[s] += 1
        t0 = perf_counter() if timed else 0.0
        view = rings[s].acquire()[: spec.n_tokens]
        future = pool.submit(storage.read_granule_into, context_id, spec, view)
        pending[s].append((spec, view, future))
        if timed:
            stats.dispatch_s += perf_counter() - t0

    for s in range(len(plans)):
        for _ in range(window):
            submit_next(s)
    live = list(range(len(plans)))
    turn = 0
    try:
        while live:
            if len(live) == 1:
                ready = live[0]
            else:
                ready = -1
                for offset in range(len(live)):
                    s = live[(turn + offset) % len(live)]
                    if pending[s][0][2].done():
                        ready = s
                        turn += offset + 1
                        break
                if ready < 0:
                    # No stage's head granule has landed: a cross-stage
                    # stall.  Wake on the first head to complete.
                    t0 = perf_counter() if timed else 0.0
                    wait([pending[s][0][2] for s in live], return_when=FIRST_COMPLETED)
                    if timed:
                        stats.read_s += perf_counter() - t0
                    continue
            spec, view, future = pending[ready].popleft()
            t0 = perf_counter() if timed else 0.0
            io_seconds, device_reads = future.result()
            if timed:
                stats.read_s += perf_counter() - t0
                stats.granules += 1
                stats.device_reads += device_reads
                io_times.append(io_seconds)
            # Refill the window before consuming, so the next read runs
            # under this granule's projection — the §4.1 overlap.
            submit_next(ready)
            if not pending[ready]:
                live.remove(ready)
            t0 = perf_counter() if timed else 0.0
            consume(
                LayerChunk(
                    layer=spec.layer,
                    kind=spec.kind,
                    start=spec.start,
                    stop=spec.stop,
                    data=view,
                    io_seconds=io_seconds,
                    device_reads=device_reads,
                )
            )
            if timed:
                consume_s = perf_counter() - t0
                compute_times.append(consume_s)
                if stage_traces is not None:
                    trace = stage_traces[ready]
                    trace.io_seconds.append(io_seconds)
                    trace.compute_seconds.append(consume_s)
                    trace.rows.append(spec.n_tokens)
    # lint: disable=exception-safety -- sanctioned drain containment: settles in-flight reads across all stages, then re-raises
    except BaseException:
        # A failed read (e.g. every replica of a device faulted) or a
        # failed consume must not leave workers filling staging slots
        # this drain abandoned.  (CancelledError is a BaseException.)
        for stage_pending in pending:
            for _, _, future in stage_pending:
                future.cancel()
                try:
                    future.result()
                # lint: disable=exception-safety -- settling a cancelled future; the original fault re-raises below
                except BaseException:
                    pass
        raise
