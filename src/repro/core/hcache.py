"""HCache end-to-end orchestration (§3.1, §4, Fig. 7).

:class:`HCacheEngine` is the public entry point for the *functional* side
of the reproduction: it persists a context's per-layer hidden states (and,
for scheduler-assigned layers, raw KV) into the chunked storage manager as
generation proceeds, evicts GPU state, and later restores a bit-accurate
KV cache by replaying only the K/V projections.  The same object reports
the modelled restoration timing for its platform, so the numeric and
performance views stay consistent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.gqa import partition_kv_heads
from repro.core.partition import PartitionScheme
from repro.core.profiler import profile_platform
from repro.core.restoration import RestorationTiming, scheme_timing
from repro.core.scheduler import BubbleFreeScheduler, ScheduleDecision
from repro.errors import ConfigError, RecoveryError, RestorationError, StateError
from repro.models.kv_cache import KVCache
from repro.models.transformer import ProjectionStats, Transformer
from repro.runtime.drain import InlinePool, StageTrace, drain
from repro.runtime.sharded import ShardedRestoreExecutor, partition_layers
from repro.simulator.hardware import InterconnectSpec, Platform
from repro.simulator.multi_gpu import allgather_time
from repro.simulator.pipeline import (
    LayerMethod,
    ShardedStageTimeline,
    sharded_restoration_makespan,
)
from repro.storage.manager import StorageManager
from repro.storage.streaming import pipelined_makespan

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    # BlockStateStore is typing-only to break the import cycle
    # core.hcache -> repro.state -> repro.cache -> repro.baselines ->
    # repro.core; the store arrives fully constructed by the caller.
    from repro.runtime.executor import RestoreExecutor
    from repro.state import BlockStateStore


@dataclass
class RestoreBreakdown:
    """Per-stage accounting of one chunk-streamed restoration.

    Filled by :meth:`HCacheEngine.restore` when passed in.  Measured
    fields are wall-clock seconds of this process.  ``modelled_io_s``
    comes from the storage devices' timing model; the two makespans are
    **hybrid** figures — modelled device IO overlapped against this
    run's *measured* per-granule compute — so they show the structure of
    the §4.1 pipeline (how much the overlap buys on this machine), not a
    host-independent prediction.  With compute overlapping transfer, the
    restoration critical path is ``modelled_pipelined_s``, not the
    serial sum.

    Attributes:
        n_tokens: Tokens restored.
        granules: Streamed granules consumed (across layers and kinds).
        device_reads: Chunk reads issued against storage devices.
        read_s: Measured wall time inside streamed storage reads.
        install_s: Measured wall time installing KV-offloaded chunks.
        recompute_s: Measured wall time replaying a RECOMPUTE prefix.
        projection: Per-stage (norm / GEMM / RoPE) projection times.
        modelled_io_s: Modelled device time of all chunk reads.
        modelled_serial_s: Hybrid makespan of the pre-pipeline shape
            (modelled reads, then all measured compute, serially).
        modelled_pipelined_s: Hybrid makespan with each granule's
            measured compute overlapping the next granule's modelled
            read — the §4.1 shape.
    """

    n_tokens: int = 0
    granules: int = 0
    device_reads: int = 0
    read_s: float = 0.0
    install_s: float = 0.0
    recompute_s: float = 0.0
    projection: ProjectionStats = field(default_factory=ProjectionStats)
    modelled_io_s: float = 0.0
    modelled_serial_s: float = 0.0
    modelled_pipelined_s: float = 0.0
    #: Tokens served from the shared block pool instead of storage (their
    #: chunk reads never reach a device).
    shared_tokens: int = 0
    #: Measured wall time projecting/installing pool-resident blocks.
    pool_s: float = 0.0
    #: Measured submit-side drain overhead: staging-slot acquisition
    #: plus pool handoff per granule.
    #: Together with the exposed ``read_s`` stall it itemizes the gap
    #: between wall clock and the modelled makespan.
    dispatch_s: float = 0.0
    #: Hybrid makespan of the sharded timeline: modelled device reads at
    #: the shards' aggregated bandwidth plus per-granule gathers on
    #: concurrent per-stage IO streams, merged against this run's
    #: measured compute on the one calling-thread merge stream (see
    #: :func:`repro.simulator.pipeline.sharded_restoration_makespan`).
    #: Zero for unsharded restores.
    modelled_sharded_s: float = 0.0
    #: ``(pipeline, tensor)`` shard shape of the restore; ``None`` when
    #: unsharded.
    shard_shape: "tuple[int, int] | None" = None


@dataclass(frozen=True)
class SavedContext:
    """Book-keeping for one context the engine manages.

    Attributes:
        context_id: Stable identity.
        scheme: Partition scheme its states were saved under.
        n_tokens: Tokens saved so far.
    """

    context_id: str
    scheme: PartitionScheme
    n_tokens: int


class HCacheEngine:
    """Saves and restores LLM contextual state via hidden states."""

    def __init__(
        self,
        transformer: Transformer,
        storage: StorageManager,
        platform: Platform | None = None,
        scheme: PartitionScheme | None = None,
        stream_granule_chunks: int = 4,
        shared_store: BlockStateStore | None = None,
    ) -> None:
        """Create an engine.

        Args:
            transformer: The serving model (provides the projection
                weights used for restoration).
            storage: Chunked host storage for hidden states / KV.
            platform: Hardware platform for timing queries; when given and
                ``scheme`` is omitted, the bubble-free scheduler picks the
                partition from an offline profile at a reference length.
            scheme: Fixed partition scheme; defaults to pure HCache when
                neither a scheme nor a platform is supplied.
            stream_granule_chunks: Storage chunks coalesced into each
                streamed restore granule.  IO stays chunk-granular; this
                only sets how many rows each fused projection call covers.
            shared_store: Optional block-paged state store
                (:class:`repro.state.BlockStateStore`).  When given,
                saves also publish each context's stored rows into the
                shared pool and restores serve any pool-resident shared
                prefix without touching storage — bit-exactly equal to
                the unshared path.  Its block size must be a multiple of
                the storage chunk size so shared prefixes are always
                chunk-aligned, and its geometry must match the model.
        """
        if stream_granule_chunks <= 0:
            raise ConfigError("stream_granule_chunks must be positive")
        self.transformer = transformer
        self.storage = storage
        self.platform = platform
        self.stream_granule_chunks = stream_granule_chunks
        config = transformer.config
        if scheme is not None:
            if scheme.n_layers != config.n_layers:
                raise ConfigError("scheme layer count mismatches the model")
            self.scheme = scheme
            self.decision: ScheduleDecision | None = None
        elif platform is not None:
            profile = profile_platform(config, platform, n_tokens=1024)
            self.decision = BubbleFreeScheduler(config.n_layers).schedule(profile)
            self.scheme = self.decision.scheme
        else:
            self.scheme = PartitionScheme.pure_hcache(config.n_layers)
            self.decision = None
        if shared_store is not None:
            pool = shared_store.pool
            if pool.block_tokens % storage.tokens_per_chunk != 0:
                raise ConfigError(
                    f"pool blocks of {pool.block_tokens} tokens must be a "
                    f"multiple of the {storage.tokens_per_chunk}-token chunk"
                )
            if (
                pool.n_layers != config.n_layers
                or pool.hidden_width != config.hidden_size
                or pool.n_kv_heads != config.n_kv_heads
                or pool.head_dim != config.head_dim
            ):
                raise ConfigError("shared store geometry mismatches the model")
            if self.scheme.n_recompute == config.n_layers:
                # A pure-recompute scheme stores no state rows at all;
                # tracking sessions would only pin empty blocks.
                shared_store = None
        self.shared_store = shared_store
        self._contexts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # saving
    # ------------------------------------------------------------------

    def register_context(self, context_id: str) -> None:
        """Declare a new context before saving states for it."""
        if context_id in self._contexts:
            raise StateError(f"context {context_id!r} already registered")
        self.storage.register_context(
            context_id,
            n_layers=self.transformer.config.n_layers,
            hidden_width=self.transformer.config.hidden_size,
            dtype=np.float32,
        )
        if self.shared_store is not None:
            self.shared_store.track(context_id)
        self._contexts[context_id] = 0

    def has_context(self, context_id: str) -> bool:
        return context_id in self._contexts

    def saved_tokens(self, context_id: str) -> int:
        if context_id not in self._contexts:
            raise StateError(f"context {context_id!r} not registered")
        return self._contexts[context_id]

    def save_states(
        self,
        context_id: str,
        hidden_states: list[np.ndarray],
        tokens: np.ndarray,
        kv_cache: KVCache | None = None,
    ) -> None:
        """Persist newly generated states for a block of tokens.

        Bit-exactness contract: the bytes stored here are snapshots of the
        arrays passed in (devices copy on write), and every restore flavor
        — naive reference, whole-layer batched, chunk-streamed, threaded —
        returns HIDDEN layers projected from, and KV layers equal to,
        exactly these bytes.  Threading rules: saving is single-threaded
        and must never run concurrently with a restore *of the same
        context* (tail buffers and device key sets would race); saving one
        context while other contexts restore is fine.

        Args:
            context_id: The context the block extends.
            hidden_states: Per-layer ``(n_new, hidden)`` arrays — the
                residual inputs captured during the forward pass.
            tokens: The block's token ids (needed by recompute layers and
                kept for all layers, mirroring the prompt log every serving
                system retains).
            kv_cache: Required when the scheme KV-offloads some layers;
                its trailing ``n_new`` rows for those layers are saved.
        """
        config = self.transformer.config
        if len(hidden_states) != config.n_layers:
            raise ConfigError(
                f"expected {config.n_layers} per-layer hidden states, got {len(hidden_states)}"
            )
        tokens = np.asarray(tokens)
        n_new = hidden_states[0].shape[0]
        if tokens.size != n_new:
            raise ConfigError("token block must match the hidden-state block length")
        if self.scheme.n_kv and kv_cache is None:
            raise ConfigError("scheme KV-offloads layers; a kv_cache is required to save them")
        start = self.saved_tokens(context_id)
        # Token ids are journaled ahead of the state rows: the durable log
        # then always covers the durable rows, so crash recovery can
        # truncate it to the recovered row count without inventing ids.
        self.storage.journal_tokens(context_id, tokens)
        shared_rows: dict[tuple[int, str], np.ndarray] = {}
        publish = (
            self.shared_store is not None
            and self.shared_store.is_tracked(context_id)
        )
        for layer, method in enumerate(self.scheme.methods):
            if method is LayerMethod.HIDDEN:
                self.storage.append(context_id, layer, hidden_states[layer], kind="hidden")
                if publish:
                    shared_rows[(layer, "hidden")] = hidden_states[layer]
            elif method is LayerMethod.KV:
                assert kv_cache is not None
                have = kv_cache.layer_len(layer)
                if have < start + n_new:
                    raise ConfigError(
                        f"kv_cache holds {have} tokens at layer {layer}, "
                        f"need {start + n_new}"
                    )
                # Pack only the new rows — O(block), not O(history).
                packed = kv_cache.packed_rows(layer, start, start + n_new)
                self.storage.append(context_id, layer, packed, kind="kv")
                if publish:
                    shared_rows[(layer, "kv")] = packed
        if publish:
            # Mirror the same bytes into the shared pool (dedup happens as
            # blocks fill).  A False return means the session fell back to
            # the unshared path — storage remains the source of truth, so
            # nothing else changes.
            assert self.shared_store is not None
            self.shared_store.append(context_id, start, tokens, shared_rows)
        self._contexts[context_id] = start + n_new

    def seal(self, context_id: str) -> None:
        """Flush tail chunks when a round ends and GPU state is evicted."""
        self.saved_tokens(context_id)
        self.storage.seal_context(context_id)

    def drop_context(self, context_id: str) -> None:
        """Remove a context's states entirely.

        Shared pool blocks are unreferenced, not destroyed: blocks other
        sessions still reference stay live, and committed refcount-0
        blocks linger as eviction candidates for future admissions.
        """
        self.saved_tokens(context_id)
        if self.shared_store is not None and self.shared_store.is_tracked(context_id):
            self.shared_store.release(context_id)
        self.storage.free_context(context_id)
        del self._contexts[context_id]

    def token_log(self, context_id: str) -> tuple[int, ...]:
        """The context's saved token ids (the prompt log), oldest first."""
        self.saved_tokens(context_id)
        return self.storage.token_log(context_id)

    def context_ids(self) -> tuple[str, ...]:
        return tuple(self._contexts)

    def saved_context(self, context_id: str) -> SavedContext:
        return SavedContext(context_id, self.scheme, self.saved_tokens(context_id))

    @classmethod
    def recover(
        cls,
        transformer: Transformer,
        storage: StorageManager,
        platform: Platform | None = None,
        scheme: PartitionScheme | None = None,
        stream_granule_chunks: int = 4,
        shared_store: BlockStateStore | None = None,
    ) -> "HCacheEngine":
        """Adopt a crash-recovered storage manager's contexts.

        ``storage`` comes from :meth:`StorageManager.recover`; every
        context it holds is re-registered with this engine at its durable
        token count, ready for a normal :meth:`restore`.  The model and
        scheme must match the ones the states were saved under — shape
        mismatches (wrong model) and per-layer row counts that contradict
        the scheme's layer methods raise
        :class:`~repro.errors.RecoveryError` rather than restoring wrong
        state.

        ``shared_store`` may be a fresh (empty) block store: the DRAM
        pool does not survive a crash, but each post-recovery
        :meth:`restore` re-admits its context and republishes the rows it
        streams back, so shared prefixes re-deduplicate to the same
        content-hash keys and refcounts rebuild as survivors restore.
        """
        engine = cls(
            transformer, storage, platform, scheme, stream_granule_chunks,
            shared_store=shared_store,
        )
        config = transformer.config
        for context_id in storage.context_ids():
            meta = storage.meta(context_id)
            if meta.n_layers != config.n_layers or meta.hidden_width != config.hidden_size:
                raise RecoveryError(
                    f"context {context_id!r} was saved for a "
                    f"{meta.n_layers}x{meta.hidden_width} model; this model is "
                    f"{config.n_layers}x{config.hidden_size}"
                )
            n_tokens = len(storage.token_log(context_id))
            for layer, method in enumerate(engine.scheme.methods):
                kind = None
                if method is LayerMethod.HIDDEN:
                    kind = "hidden"
                elif method is LayerMethod.KV:
                    kind = "kv"
                if kind is None:
                    continue
                stored = storage.tokens_stored(context_id, layer, kind=kind)
                if stored != n_tokens:
                    raise RecoveryError(
                        f"context {context_id!r} layer {layer} holds {stored} "
                        f"{kind} rows but {n_tokens} tokens are durable — was it "
                        f"saved under a different partition scheme?"
                    )
            engine._contexts[context_id] = n_tokens
        return engine

    # ------------------------------------------------------------------
    # restoration
    # ------------------------------------------------------------------

    def _check_stored(self, context_id: str, layers: list[int], kind: str, n_tokens: int) -> None:
        for layer in layers:
            stored = self.storage.tokens_stored(context_id, layer, kind=kind)
            if stored != n_tokens:
                raise RestorationError(
                    f"layer {layer} stores {stored} {kind} rows, expected {n_tokens}"
                )

    def restore(
        self,
        context_id: str,
        reserve_tokens: int = 0,
        *,
        stats: RestoreBreakdown | None = None,
        executor: "RestoreExecutor | None" = None,
        shards: "tuple[int, int] | int | None" = None,
    ) -> KVCache:
        """Rebuild the context's full KV cache, chunk-streamed (§4.1).

        Keyword contract (PR 10): ``stats``, ``executor``, and ``shards``
        are keyword-only — the options drifted in one by one across PRs
        3–9 and positional calls silently swapped meaning between
        revisions.  ``restore_sessions``, ``restore_contexts`` and
        ``restore_contexts_async`` follow the same rule for every option
        after the id list.

        Layers marked HIDDEN stream from storage as granules of a few
        chunks each and go through the fused per-chunk projection
        (:meth:`Transformer.project_kv_chunk`) straight into the cache's
        backing buffers; KV layers stream the same way and install chunk
        by chunk; a RECOMPUTE prefix is replayed from the retained
        tokens.  Every flavor below streams through the one granule loop,
        :func:`repro.runtime.drain.drain`, consuming granules in plan
        order; in the modelled timeline layer *k*'s projection overlaps
        layer *k+1*'s read — compute starts at IO start, which is exactly
        what the serving simulator's ``request_io_start`` assumes.

        By default the reads run on this thread, each just before its
        granule is consumed, through a 2-deep staging ring.  With
        ``executor`` (a :class:`repro.runtime.RestoreExecutor`), the
        granule reads actually run on background IO workers while this
        thread projects, making the overlap real wall clock instead of
        only modelled.  Threading
        rules: all projection compute runs on the calling thread in the
        single-threaded granule order, workers only fill staging slots
        they own, and concurrent ``restore`` calls are safe for
        *distinct* contexts sharing one executor (never concurrently with
        a save of the same context).

        Bit-exactness contract: HIDDEN and KV layers come back
        bit-identical to the states that were saved — for every granule
        size, pool size, and executor setting, and identical to the naive
        whole-layer reference path.  A RECOMPUTE prefix replays the
        forward pass as one block, which matches incrementally-decoded
        originals to float rounding (the same GEMM-blocking caveat as
        restoring any decode-produced state).

        ``shards`` partitions this one restoration across a
        ``(pipeline, tensor)`` grid of simulated GPUs (an int means
        ``(int, 1)``): contiguous layer stages drain concurrently, and
        with ``tensor > 1`` each granule's merge is split into
        GQA-group-aligned KV-head ranges
        (:meth:`Transformer.project_kv_chunk` with ``head_ranges`` /
        :meth:`KVCache.install_packed_head_rows`) — the restored bytes
        stay bit-identical to the single-shard path for every shard
        shape.  The shape resolves as follows: an explicit ``shards``
        wins (reusing ``executor``'s pool when one is given, else a
        transient pool of ``pipeline * tensor`` workers); with
        ``shards=None`` a
        :class:`~repro.runtime.sharded.ShardedRestoreExecutor` passed as
        ``executor`` shards by its own :attr:`shard_shape`; otherwise the
        restore is unsharded.

        ``reserve_tokens`` lets the serving engine size the cache for the
        upcoming round up front, so the restored history never has to be
        recopied by a post-restore capacity growth.  ``stats`` (optional)
        collects the per-stage :class:`RestoreBreakdown`; in threaded
        runs its ``read_s`` is the *exposed* IO stall (reads the pipeline
        failed to hide) rather than total read time, and sharded runs
        additionally fill ``shard_shape`` and ``modelled_sharded_s``.
        """
        shard_exec, transient = self._resolve_shards(executor, shards)
        try:
            return self._restore(context_id, reserve_tokens, stats, executor, shard_exec)
        finally:
            if transient:
                assert shard_exec is not None
                shard_exec.close()

    def _resolve_shards(
        self,
        executor: "RestoreExecutor | None",
        shards: "tuple[int, int] | int | None",
    ) -> "tuple[ShardedRestoreExecutor | None, bool]":
        """Resolve ``restore``'s (executor, shards) pair to a shard driver.

        Returns ``(shard_exec, transient)``; ``transient`` means this
        call created the executor and must close it (a no-op for pools it
        merely borrowed — ``close`` only shuts down owned pools).
        """
        if shards is None:
            if isinstance(executor, ShardedRestoreExecutor):
                return executor, False
            return None, False
        if isinstance(shards, int):
            shards = (shards, 1)
        shape = (int(shards[0]), int(shards[1]))
        if isinstance(executor, ShardedRestoreExecutor) and executor.shard_shape == shape:
            return executor, False
        if executor is not None:
            return ShardedRestoreExecutor(shape, pool=executor.pool), True
        return ShardedRestoreExecutor(shape), True

    def _restore(
        self,
        context_id: str,
        reserve_tokens: int,
        stats: RestoreBreakdown | None,
        executor: "RestoreExecutor | None",
        shard_exec: "ShardedRestoreExecutor | None",
    ) -> KVCache:
        n_tokens = self.saved_tokens(context_id)
        if n_tokens == 0:
            raise RestorationError(f"context {context_id!r} has no saved state")
        config = self.transformer.config
        positions = np.arange(n_tokens)
        hidden_layers = list(self.scheme.layers_with(LayerMethod.HIDDEN))
        kv_layers = list(self.scheme.layers_with(LayerMethod.KV))
        timed = stats is not None
        if timed:
            stats.n_tokens = n_tokens
        tensor_shards = shard_exec.tensor_shards if shard_exec is not None else 1
        # Resolve the head partition up front: an illegal tensor split
        # (more shards than KV heads would cut a GQA group) must raise
        # before any state is touched.
        head_ranges = (
            partition_kv_heads(config.n_kv_heads, tensor_shards)
            if tensor_shards > 1
            else None
        )
        if timed and shard_exec is not None:
            stats.shard_shape = shard_exec.shard_shape
        sharded_makespan_s = 0.0
        if self.scheme.n_recompute:
            tokens = np.array(self.storage.token_log(context_id)[:n_tokens])
            t0 = time.perf_counter() if timed else 0.0
            cache, _ = self.transformer.recompute_prefix(tokens, self.scheme.n_recompute)
            if timed:
                stats.recompute_s += time.perf_counter() - t0
        else:
            cache = KVCache(config)
        cache.reserve(max(n_tokens, reserve_tokens))
        self._check_stored(context_id, hidden_layers, "hidden", n_tokens)
        self._check_stored(context_id, kv_layers, "kv", n_tokens)
        shared, suffix_rows = self._shared_prefix(context_id, n_tokens)
        if timed:
            stats.shared_tokens = shared
        io_times: list[float] = []
        compute_times: list[float] = []
        # The three restore flavors differ only in what the drain gets: a
        # sharded restore drains one stage per pipeline shard, a threaded
        # one borrows the executor's pool, and the default reads inline.
        runner = shard_exec if shard_exec is not None else executor
        pool = runner.pool if runner is not None else InlinePool()
        window = runner.inflight if runner is not None else 1
        n_stages = shard_exec.pipeline_shards if shard_exec is not None else 1

        def stream(layers, kind, consume, gather_bytes_per_row) -> None:
            """Drain ``layers``' stored rows past the shared prefix."""
            nonlocal sharded_makespan_s
            plans = [
                self.storage.granule_plan(
                    context_id, stage, kind, self.stream_granule_chunks, shared
                )
                for stage in partition_layers(layers, n_stages)
            ]
            traces: list[StageTrace] | None = (
                [] if timed and shard_exec is not None else None
            )
            drain(
                self.storage, context_id, plans, self.stream_granule_chunks,
                consume, pool, window, stats, io_times, compute_times, traces,
            )
            if traces:
                sharded_makespan_s += self._sharded_makespan(
                    traces, tensor_shards, gather_bytes_per_row
                )
        if hidden_layers:
            granule_tokens = min(
                n_tokens,
                self.stream_granule_chunks * self.storage.tokens_per_chunk,
            )
            workspace = self.transformer.restore_workspace(
                positions, granule_tokens, sharded=head_ranges is not None
            )
            views = {
                layer: cache.install_view(layer, n_tokens) for layer in hidden_layers
            }
            proj_stats = stats.projection if timed else None
            if shared:
                t0 = time.perf_counter() if timed else 0.0
                # Pool-served rows MUST project in the exact granule
                # partition the storage stream would have used: the fused
                # projection is only bit-stable for a fixed chunk split,
                # not across splits, so serving a block-sized chunk here
                # would diverge from the private path in the last ulp.
                staging = np.empty(
                    (granule_tokens, config.hidden_size), dtype=np.float32
                )
                for layer in hidden_layers:
                    k_view, v_view = views[layer]
                    for span_start in range(0, shared, granule_tokens):
                        span_stop = min(span_start + granule_tokens, shared)
                        rows = span_stop - span_start
                        self._gather_pool_hidden(
                            context_id, layer, span_start, span_stop, staging
                        )
                        self.transformer.project_kv_chunk(
                            layer,
                            staging[:rows],
                            span_start,
                            k_view[span_start:span_stop],
                            v_view[span_start:span_stop],
                            workspace,
                            proj_stats,
                        )
                if timed:
                    stats.pool_s += time.perf_counter() - t0

            def project_hidden(chunk) -> None:
                k_view, v_view = views[chunk.layer]
                # With tensor shards: full-width norm+GEMMs, head-sliced
                # RoPE and installs covering every rank's disjoint range.
                self.transformer.project_kv_chunk(
                    chunk.layer,
                    chunk.data,
                    chunk.start,
                    k_view[chunk.start : chunk.stop],
                    v_view[chunk.start : chunk.stop],
                    workspace,
                    proj_stats,
                    head_ranges,
                )
                if suffix_rows is not None:
                    suffix_rows[(chunk.layer, "hidden")][
                        chunk.start - shared : chunk.stop - shared
                    ] = chunk.data

            if shared < n_tokens:
                stream(hidden_layers, "hidden", project_hidden, 4 * config.hidden_size)
        if kv_layers:
            for layer in kv_layers:
                cache.install_view(layer, n_tokens)
            if shared:
                t0 = time.perf_counter() if timed else 0.0
                block_tokens = self.shared_store.block_tokens
                for layer in kv_layers:
                    for index in range(-(-shared // block_tokens)):
                        bstart = index * block_tokens
                        k_rows, v_rows = self.shared_store.kv_rows(
                            context_id, index, layer
                        )
                        rows = min(k_rows.shape[0], shared - bstart)
                        cache.install_rows(layer, bstart, k_rows[:rows], v_rows[:rows])
                if timed:
                    stats.pool_s += time.perf_counter() - t0

            def install_kv(chunk) -> None:
                t0 = time.perf_counter() if timed else 0.0
                if head_ranges is not None:
                    # Each tensor rank installs its own head range of the
                    # packed granule; the ranges tile [0, n_kv_heads), so
                    # together they land the same bytes as the full-width
                    # install.
                    for head_start, head_stop in head_ranges:
                        cache.install_packed_head_rows(
                            chunk.layer, chunk.start, chunk.data, head_start, head_stop
                        )
                else:
                    cache.install_packed_rows(chunk.layer, chunk.start, chunk.data)
                if timed:
                    stats.install_s += time.perf_counter() - t0
                if suffix_rows is not None:
                    suffix_rows[(chunk.layer, "kv")][
                        chunk.start - shared : chunk.stop - shared
                    ] = chunk.data

            if shared < n_tokens:
                stream(kv_layers, "kv", install_kv, 0)
        if suffix_rows is not None:
            # Close the admission gap: the suffix rows just streamed from
            # storage are republished into the pool, so the session is
            # fully pool-resident (future appends stay contiguous) and its
            # suffix blocks become shareable for later admissions.  The
            # table may hold a few more blocks than the granule-aligned
            # ``shared`` (admission adopts whole blocks); append only what
            # the pool does not already have.
            assert self.shared_store is not None
            resident = self.shared_store.resident_tokens(context_id)
            tokens_all = self.storage.token_log(context_id)
            fresh = {
                key: rows[resident - shared :] for key, rows in suffix_rows.items()
            }
            self.shared_store.append(
                context_id, resident, list(tokens_all[resident:n_tokens]), fresh
            )
        if timed:
            stats.modelled_io_s = sum(io_times)
            compute_total = sum(compute_times) + stats.recompute_s + stats.pool_s
            stats.modelled_serial_s = stats.modelled_io_s + compute_total
            # The RECOMPUTE prefix and the pool-resident shared prefix
            # need no stored state, so their replay/projection overlaps
            # the stream from the very first read.
            pipeline_io = [0.0] + io_times
            pipeline_compute = [stats.recompute_s + stats.pool_s] + compute_times
            stats.modelled_pipelined_s = pipelined_makespan(pipeline_io, pipeline_compute)
            if shard_exec is not None:
                # The sequential hidden/kv drains each contribute their
                # sharded makespan; the recompute/pool prefix precedes both.
                stats.modelled_sharded_s = (
                    stats.recompute_s + stats.pool_s + sharded_makespan_s
                )
        if len(cache) != n_tokens:
            raise RestorationError("restored cache length mismatch")
        return cache

    def _shared_prefix(
        self, context_id: str, n_tokens: int
    ) -> tuple[int, dict[tuple[int, str], np.ndarray] | None]:
        """Resolve the pool-resident prefix before a restore.

        Returns ``(shared_tokens, suffix_rows)``.  A tracked session is
        fully pool-resident (saves mirror appends 1:1), so the whole
        restore is served from blocks.  An untracked one — evicted before
        the store existed, or re-registered after crash recovery — is
        admitted against the pool's committed prefixes; when that leaves
        a gap, ``suffix_rows`` carries preallocated collection buffers
        the drain fills so the gap can be republished afterwards.
        ``shared_tokens`` is always granule-aligned or equal to
        ``n_tokens``, so the streamed suffix sits on the same granule
        grid a private restore uses.
        """
        store = self.shared_store
        if store is None:
            return 0, None
        granule = self.stream_granule_chunks * self.storage.tokens_per_chunk
        if store.is_tracked(context_id):
            resident = store.resident_tokens(context_id)
            if resident > n_tokens:
                raise StateError(
                    f"context {context_id!r} has {resident} pool-resident tokens "
                    f"but only {n_tokens} saved"
                )
            if resident == n_tokens:
                return resident, None
            # Defensive: a tracked session should mirror its saves
            # exactly; serve whatever aligned prefix is resident.
            return (resident // granule) * granule, None
        tokens = self.storage.token_log(context_id)
        admitted = store.admit(context_id, list(tokens[:n_tokens]))
        if admitted >= n_tokens:
            return admitted, None
        # Rounding down to a granule boundary keeps the suffix stream on
        # the same granule grid a fully private restore walks — sharing
        # may only change where bytes come from, never the chunk split
        # the projection sees (bit-exactness is split-sensitive).
        shared = (admitted // granule) * granule
        config = self.transformer.config
        suffix = n_tokens - shared
        suffix_rows: dict[tuple[int, str], np.ndarray] = {}
        for layer, method in enumerate(self.scheme.methods):
            if method is LayerMethod.HIDDEN:
                suffix_rows[(layer, "hidden")] = np.empty(
                    (suffix, config.hidden_size), dtype=np.float32
                )
            elif method is LayerMethod.KV:
                suffix_rows[(layer, "kv")] = np.empty(
                    (suffix, 2 * config.kv_size), dtype=np.float32
                )
        return shared, suffix_rows

    def _gather_pool_hidden(
        self,
        context_id: str,
        layer: int,
        start: int,
        stop: int,
        out: np.ndarray,
    ) -> None:
        """Assemble pool-resident hidden rows ``[start, stop)`` into ``out``.

        Spans cross block boundaries, so the rows are copied into one
        contiguous staging buffer before projection — the projection must
        see the stream path's exact granule shapes, and a pool block view
        cannot provide a span that straddles two blocks.
        """
        store = self.shared_store
        assert store is not None
        block_tokens = store.block_tokens
        filled = 0
        position = start
        while position < stop:
            index = position // block_tokens
            offset = position % block_tokens
            data = store.hidden_rows(context_id, index, layer)
            take = min(stop - position, data.shape[0] - offset)
            out[filled : filled + take] = data[offset : offset + take]
            filled += take
            position += take

    def _sharded_makespan(
        self,
        traces: list[StageTrace],
        tensor_shards: int,
        gather_bytes_per_row: int,
    ) -> float:
        """Hybrid sharded makespan of one drain's per-stage traces.

        Per stage, the §4.1 two-stream recurrence over its measured
        granule trace with reads priced at the tensor ranks' aggregated
        bandwidth plus a per-granule all-gather of
        ``gather_bytes_per_row`` bytes per row (hidden granules must be
        reassembled across ranks before projection; KV installs pass 0 —
        nothing to gather): stage IO streams advance concurrently, while
        every granule merges through the single calling-thread compute
        stream.
        """
        interconnect = (
            self.platform.interconnect if self.platform is not None else InterconnectSpec()
        )
        timelines = [
            ShardedStageTimeline(
                stage=trace.stage,
                io_seconds=tuple(trace.io_seconds),
                compute_seconds=tuple(trace.compute_seconds),
                gather_seconds=tuple(
                    allgather_time(
                        rows * gather_bytes_per_row, tensor_shards, interconnect
                    )
                    if gather_bytes_per_row and tensor_shards > 1
                    else 0.0
                    for rows in trace.rows
                ),
            )
            for trace in traces
        ]
        return sharded_restoration_makespan(timelines, tensor_shards)

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------

    def restoration_timing(self, n_tokens: int) -> RestorationTiming:
        """Modelled restoration time for a context of ``n_tokens``.

        Requires the engine to have been built with a platform.
        """
        if self.platform is None:
            raise ConfigError("engine was built without a platform; timing unavailable")
        return scheme_timing(self.transformer.config, self.platform, n_tokens, self.scheme)

    def storage_bytes_per_token(self) -> int:
        """Per-token storage footprint of the active scheme (Table 3)."""
        return self.scheme.storage_bytes_per_token(self.transformer.config)
