"""Sharded parallel restoration tests (PR 9).

The headline contract: a restoration partitioned across any
``(pipeline x tensor)`` grid of simulated GPUs restores bytes
bit-identical to the single-shard path and the naive whole-layer
reference — across norm/rope flavors, GQA configs, mixed hidden+KV
schemes, partial tail chunks, and non-divisible layer/head counts.  Plus
the shard planners' invariants (GQA groups are never split), executor
resolution plumbing, the multi-channel latency emulator the benchmarks
lean on, and the executor-overhead satellites (``dispatch_s`` counters,
the ``lookahead`` serialization regression).
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.gqa import partition_kv_heads
from repro.core.hcache import HCacheEngine, RestoreBreakdown
from repro.core.partition import PartitionScheme
from repro.core.profiler import build_storage_array
from repro.engine.numeric_engine import NumericServingEngine
from repro.errors import ConfigError
from repro.models.config import model_preset
from repro.models.reference import NaiveKVCache
from repro.models.transformer import Transformer
from repro.runtime import IOWorkerPool, RestoreExecutor, ShardedRestoreExecutor, partition_layers
from repro.runtime.drain import drain
from repro.simulator import platform_preset
from repro.simulator.hardware import GPUS, GB, Platform, SSDSpec
from repro.simulator.pipeline import LayerMethod
from repro.storage import LatencyEmulator, StorageManager

SHARD_SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (8, 1)]

GQA_CONFIG = replace(
    model_preset("tiny-llama"), name="tiny-gqa", n_kv_heads=2, n_heads=4
)


def build_engine(config, scheme=None, granule_chunks=4):
    model = Transformer.from_seed(config, seed=11)
    manager = StorageManager(build_storage_array(platform_preset("default")))
    engine = HCacheEngine(
        model, manager, scheme=scheme, stream_granule_chunks=granule_chunks
    )
    return model, engine


def save_context(engine, model, config, n_tokens, context_id="c", seal=True, block=37):
    rng = np.random.default_rng(hash(context_id) % 2**32)
    tokens = rng.integers(0, config.vocab_size, size=n_tokens)
    engine.register_context(context_id)
    result, cache = model.prefill(tokens, capture_hidden=True)
    hidden = result.hidden_states
    for start in range(0, n_tokens, block):
        stop = min(start + block, n_tokens)
        engine.save_states(
            context_id,
            [h[start:stop] for h in hidden],
            tokens[start:stop],
            kv_cache=cache,
        )
    if seal:
        engine.seal(context_id)
    return cache


def reference_restore(model, engine, context_id, n_tokens):
    """The naive whole-layer oracle, fed from the same stored state."""
    config = model.config
    scheme = engine.scheme
    cache = NaiveKVCache(config)
    for layer in range(config.n_layers):
        if scheme.methods[layer] is LayerMethod.HIDDEN:
            h = engine.storage.load_layer(context_id, layer, kind="hidden")
            k, v = model.project_kv(layer, h, np.arange(n_tokens))
            cache.install(layer, k, v)
        elif scheme.methods[layer] is LayerMethod.KV:
            cache.install_packed(
                layer, engine.storage.load_layer(context_id, layer, kind="kv")
            )
    return cache


def assert_bit_equal(restored, reference, layers):
    for layer in layers:
        k1, v1 = restored.get(layer)
        k2, v2 = reference.get(layer)
        assert np.array_equal(k1, k2), f"layer {layer} keys differ"
        assert np.array_equal(v1, v2), f"layer {layer} values differ"


# ---------------------------------------------------------------------------
# shard planners
# ---------------------------------------------------------------------------


class TestPartitionLayers:
    def test_balanced_contiguous_order_preserving(self):
        stages = partition_layers(range(7), 3)
        assert stages == ((0, 1, 2), (3, 4), (5, 6))
        assert [x for s in stages for x in s] == list(range(7))

    def test_divisible(self):
        assert partition_layers([0, 1, 2, 3], 2) == ((0, 1), (2, 3))

    def test_clamps_to_layer_count(self):
        """Extra pipeline stages would be empty — clamp, don't reject."""
        assert partition_layers([4, 5], 8) == ((4,), (5,))

    def test_single_stage_identity(self):
        assert partition_layers([2, 0, 5], 1) == ((2, 0, 5),)

    def test_empty_layers(self):
        assert partition_layers([], 3) == ()

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigError):
            partition_layers([0, 1], 0)


class TestPartitionKVHeads:
    def test_covers_contiguously(self):
        ranges = partition_kv_heads(8, 4)
        assert ranges == ((0, 2), (2, 4), (4, 6), (6, 8))

    def test_non_divisible_balanced_larger_first(self):
        assert partition_kv_heads(4, 3) == ((0, 2), (2, 3), (3, 4))

    def test_one_shard_per_head_allowed(self):
        assert partition_kv_heads(3, 3) == ((0, 1), (1, 2), (2, 3))

    def test_splitting_a_gqa_group_rejected(self):
        """More shards than KV heads would force a boundary through a GQA
        group (the naive split-by-query-heads mistake) — must raise, never
        silently misproject."""
        with pytest.raises(ConfigError, match="GQA group"):
            partition_kv_heads(2, 3)

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigError):
            partition_kv_heads(0, 1)
        with pytest.raises(ConfigError):
            partition_kv_heads(4, 0)


# ---------------------------------------------------------------------------
# bit-exactness across shard shapes
# ---------------------------------------------------------------------------


class TestShardedBitExactness:
    @pytest.mark.parametrize("shards", SHARD_SHAPES)
    @pytest.mark.parametrize("n_tokens", [100, 197, 256])
    def test_rmsnorm_rope_partial_tails(self, shards, n_tokens):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, n_tokens)
        single = engine.restore("c")
        reference = reference_restore(model, engine, "c", n_tokens)
        sharded = engine.restore("c", shards=shards)
        assert sharded.equals(single, atol=0.0)
        assert_bit_equal(sharded, reference, range(config.n_layers))

    @pytest.mark.parametrize("shards", SHARD_SHAPES)
    def test_layernorm_no_rope(self, shards):
        # tiny-opt: 3 layers (non-divisible by 2) and no rope.
        config = model_preset("tiny-opt")
        model, engine = build_engine(config)
        save_context(engine, model, config, 130)
        reference = reference_restore(model, engine, "c", 130)
        sharded = engine.restore("c", shards=shards)
        assert_bit_equal(sharded, reference, range(config.n_layers))

    @pytest.mark.parametrize("shards", [(1, 2), (2, 2), (4, 2)])
    def test_gqa_config(self, shards):
        """2 KV heads serving 4 query heads: legal tensor splits stay
        bit-exact (group boundaries only)."""
        model, engine = build_engine(GQA_CONFIG)
        save_context(engine, model, GQA_CONFIG, 150)
        reference = reference_restore(model, engine, "c", 150)
        sharded = engine.restore("c", shards=shards)
        assert_bit_equal(sharded, reference, range(GQA_CONFIG.n_layers))

    def test_gqa_oversplit_raises_before_restoring(self):
        model, engine = build_engine(GQA_CONFIG)
        save_context(engine, model, GQA_CONFIG, 64)
        with pytest.raises(ConfigError, match="GQA group"):
            engine.restore("c", shards=(1, 3))

    @pytest.mark.parametrize("shards", [(2, 2), (3, 3)])
    def test_non_divisible_head_split(self, shards):
        """4 KV heads over 3 shards exercises uneven head ranges."""
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 197)
        reference = reference_restore(model, engine, "c", 197)
        sharded = engine.restore("c", shards=shards)
        assert_bit_equal(sharded, reference, range(config.n_layers))

    @pytest.mark.parametrize("shards", [(2, 1), (2, 2)])
    def test_mixed_hidden_kv_scheme(self, shards):
        config = model_preset("tiny-llama")
        scheme = PartitionScheme.with_kv_suffix(config.n_layers, 2)
        model, engine = build_engine(config, scheme=scheme)
        cache = save_context(engine, model, config, 145)
        reference = reference_restore(model, engine, "c", 145)
        sharded = engine.restore("c", shards=shards)
        assert_bit_equal(sharded, reference, range(config.n_layers))
        for layer in scheme.layers_with(LayerMethod.KV):
            k1, v1 = sharded.get(layer)
            k2, v2 = cache.get(layer)
            assert np.array_equal(k1, k2) and np.array_equal(v1, v2)

    def test_recompute_prefix_scheme(self):
        config = model_preset("tiny-llama")
        scheme = PartitionScheme.with_recompute_prefix(config.n_layers, 1)
        model, engine = build_engine(config, scheme=scheme)
        save_context(engine, model, config, 128)
        single = engine.restore("c")
        sharded = engine.restore("c", shards=(2, 2))
        assert sharded.equals(single, atol=0.0)

    @pytest.mark.parametrize("granule_chunks", [1, 2, 8])
    def test_granule_size_invariant(self, granule_chunks):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config, granule_chunks=granule_chunks)
        save_context(engine, model, config, 197)
        reference = reference_restore(model, engine, "c", 197)
        sharded = engine.restore("c", shards=(2, 2))
        assert_bit_equal(sharded, reference, range(config.n_layers))

    def test_repeated_runs_stable_through_shared_executor(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 197)
        single = engine.restore("c")
        with ShardedRestoreExecutor((2, 2)) as executor:
            for _ in range(5):
                assert engine.restore("c", executor=executor).equals(single, atol=0.0)


# ---------------------------------------------------------------------------
# executor construction + shard resolution
# ---------------------------------------------------------------------------


class TestShardResolution:
    def test_int_shards_means_pipeline_only(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 100)
        stats = RestoreBreakdown()
        engine.restore("c", stats=stats, shards=2)
        assert stats.shard_shape == (2, 1)

    def test_sharded_executor_shards_implicitly(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 100)
        stats = RestoreBreakdown()
        with ShardedRestoreExecutor((2, 2)) as executor:
            engine.restore("c", stats=stats, executor=executor)
        assert stats.shard_shape == (2, 2)
        assert stats.modelled_sharded_s > 0.0

    def test_explicit_shards_override_executor_shape(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 100)
        single = engine.restore("c")
        stats = RestoreBreakdown()
        with ShardedRestoreExecutor((2, 2)) as executor:
            before = executor.pool.tasks_submitted
            cache = engine.restore("c", stats=stats, executor=executor, shards=(4, 1))
            # The transient driver borrows the executor's pool...
            assert executor.pool.tasks_submitted > before
            # ...and that pool survives the transient's close.
            assert not executor.pool.closed
        assert stats.shard_shape == (4, 1)
        assert cache.equals(single, atol=0.0)

    def test_plain_executor_with_shards_borrows_pool(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 100)
        single = engine.restore("c")
        with RestoreExecutor(2) as executor:
            before = executor.pool.tasks_submitted
            cache = engine.restore("c", executor=executor, shards=(2, 2))
            assert executor.pool.tasks_submitted > before
        assert cache.equals(single, atol=0.0)

    def test_unsharded_stats_have_no_shape(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 100)
        stats = RestoreBreakdown()
        engine.restore("c", stats=stats)
        assert stats.shard_shape is None
        assert stats.modelled_sharded_s == 0.0

    def test_owned_pool_sized_to_grid(self):
        with ShardedRestoreExecutor((3, 2)) as executor:
            assert executor.pool.size == 6
            assert executor.shard_shape == (3, 2)

    def test_shared_pool_accepted(self):
        with IOWorkerPool(2) as pool:
            executor = ShardedRestoreExecutor((2, 2), pool=pool)
            executor.close()  # borrowed pool: close is a no-op
            assert not pool.closed

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ConfigError):
            ShardedRestoreExecutor((0, 1))
        with pytest.raises(ConfigError):
            ShardedRestoreExecutor((1, 0))
        with pytest.raises(ConfigError):
            ShardedRestoreExecutor((2, 2), inflight_per_shard=0)


# ---------------------------------------------------------------------------
# serving integration
# ---------------------------------------------------------------------------


class TestServingIntegration:
    def test_restore_contexts_forwards_shards(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        for cid in ("a", "b"):
            save_context(engine, model, config, 150, context_id=cid)
        singles = {cid: engine.restore(cid) for cid in ("a", "b")}
        with ShardedRestoreExecutor((2, 2)) as executor:
            caches = executor.restore_contexts(engine, ["a", "b"])
        for cid, cache in caches.items():
            assert cache.equals(singles[cid], atol=0.0)

    def test_restore_sessions_with_shards(self):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=3)
        manager = StorageManager(build_storage_array(platform_preset("default")))
        hcache = HCacheEngine(model, manager)
        engine = NumericServingEngine(model, hcache)
        rng = np.random.default_rng(4)
        expected = {}
        for sid in ("s1", "s2"):
            engine.open_session(sid)
            prompt = rng.integers(0, config.vocab_size, size=23)
            engine.chat_round(sid, prompt, n_output_tokens=3)
            engine.evict(sid)
            expected[sid] = hcache.restore(sid)
        engine.restore_sessions(["s1", "s2"], shards=(2, 2))
        for sid, cache in expected.items():
            restored = engine.session(sid).kv_cache
            assert restored is not None
            assert restored.equals(cache, atol=0.0)

    def test_sharded_executor_shards_chat_round_restores(self):
        """A sharded executor configured on the engine shards the implicit
        chat_round restore with zero call-site changes — and the session's
        outputs still match the uninterrupted conversation."""
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=3)

        def run(executor=None):
            manager = StorageManager(build_storage_array(platform_preset("default")))
            engine = NumericServingEngine(
                model, HCacheEngine(model, manager), executor=executor
            )
            engine.open_session("s")
            rng = np.random.default_rng(7)
            outputs = []
            for _ in range(3):
                prompt = rng.integers(0, config.vocab_size, size=11)
                outputs.append(engine.chat_round(sid := "s", prompt, n_output_tokens=4))
                engine.evict(sid)
            return outputs

        baseline = run()
        with ShardedRestoreExecutor((2, 2)) as executor:
            assert run(executor) == baseline


# ---------------------------------------------------------------------------
# satellite: executor-overhead accounting (dispatch_s) + lookahead knob
# ---------------------------------------------------------------------------


class TestDispatchAccounting:
    def test_threaded_restore_fills_dispatch_counters(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 197)
        stats = RestoreBreakdown()
        with RestoreExecutor(2) as executor:
            engine.restore("c", stats=stats, executor=executor)
            assert stats.dispatch_s > 0.0
            assert executor.pool.dispatch_s > 0.0
            # The pool-side handoff is part of the restore-side total's
            # scope (slot acquisition + handoff), measured per submit.
            assert stats.granules > 0

    def test_sharded_restore_fills_dispatch_counters(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 197)
        stats = RestoreBreakdown()
        engine.restore("c", stats=stats, shards=(2, 2))
        assert stats.dispatch_s > 0.0

    def test_lookahead_knob_sets_inflight(self):
        with RestoreExecutor(2, lookahead=0) as executor:
            assert executor.inflight == executor.pool.size
        with RestoreExecutor(2, lookahead=3) as executor:
            assert executor.inflight == 5
        with RestoreExecutor(IOWorkerPool(1), inflight=9, lookahead=0) as executor:
            assert executor.inflight == 9  # explicit inflight wins
        with pytest.raises(ConfigError):
            RestoreExecutor(2, lookahead=-1)


class TestLookaheadSerialization:
    def test_zero_lookahead_serializes_under_bursty_completion(self):
        """Regression for the PR-3 executor-overhead gap: the lookahead is
        the runway that absorbs bursty IO completion.  Latency emulation
        with a coarse sleep quantum completes granules in bursts — cheap
        reads return instantly while debt accrues, then one read pays the
        whole accumulated sleep.  With the default lookahead the window
        holds enough granules that the burst sleep overlaps consumption;
        with ``lookahead=0`` on a one-worker pool the window is a single
        granule, the burst sleep lands with no runway banked, and the
        consumer stalls for it in full — the pipeline measurably
        serializes and the stall shows up in ``stats.read_s``."""
        config = model_preset("tiny-llama")
        # 20 MB/s: each 128-token granule (32 KiB of fp32 hidden) models
        # ~1.6 ms of device time; 8 granules accrue ~13 ms of debt that a
        # 10 ms sleep quantum releases as one late burst.
        slow_ssd = SSDSpec(
            name="slow", read_bandwidth=0.02 * GB, write_bandwidth=1.0 * GB
        )
        platform = Platform(GPUS["A100"]).with_ssds(4, slow_ssd)
        model = Transformer.from_seed(config, seed=11)
        manager = StorageManager(build_storage_array(platform))
        engine = HCacheEngine(model, manager, stream_granule_chunks=2)
        save_context(engine, model, config, 256)
        layers = list(range(config.n_layers))

        def timed_drain(lookahead):
            engine.storage.array.emulate_latency(min_sleep_s=10e-3)
            try:
                stats = RestoreBreakdown()
                plan = engine.storage.granule_plan(
                    "c", layers, "hidden", engine.stream_granule_chunks
                )
                with RestoreExecutor(1, lookahead=lookahead) as executor:
                    t0 = time.perf_counter()
                    drain(
                        engine.storage, "c", [plan],
                        engine.stream_granule_chunks,
                        lambda chunk: time.sleep(2e-3),
                        executor.pool, executor.inflight,
                        stats=stats,
                    )
                    wall = time.perf_counter() - t0
                return wall, stats
            finally:
                engine.storage.array.stop_latency_emulation()

        serial_wall, serial_stats = timed_drain(lookahead=0)
        overlap_wall, overlap_stats = timed_drain(lookahead=6)
        assert serial_stats.granules == overlap_stats.granules > 0
        # Expected ≈1.6x (the ~11 ms burst sleep is fully exposed at
        # lookahead=0 and fully hidden at the default); 1.2x leaves slack
        # for scheduler noise without ever passing on a non-serialized run.
        assert serial_wall > 1.2 * overlap_wall, (serial_wall, overlap_wall)
        assert serial_stats.read_s > overlap_stats.read_s + 5e-3


# ---------------------------------------------------------------------------
# multi-channel latency emulation
# ---------------------------------------------------------------------------


class TestMultiChannelEmulator:
    def test_channels_validated(self):
        with pytest.raises(ConfigError):
            LatencyEmulator(channels=0)

    def test_channel_count_conflict_rejected(self):
        config = model_preset("tiny-llama")
        _, engine = build_engine(config)
        array = engine.storage.array
        first = array.emulate_latency(channels=2)
        assert array.emulate_latency(channels=2) is first  # idempotent
        with pytest.raises(ConfigError, match="channel"):
            array.emulate_latency(channels=4)
        array.stop_latency_emulation()
        assert array.emulate_latency(channels=4).channels == 4
        array.stop_latency_emulation()

    def test_concurrent_threads_overlap_across_channels(self):
        """Two threads charging one 2-channel emulator sleep on distinct
        channel locks, so the emulated wall clock floors near total/2 —
        the aggregated-bandwidth model the sharded benchmarks rely on."""
        emulator = LatencyEmulator(min_sleep_s=1e-3, channels=2)
        per_thread = 0.04

        def burn():
            for _ in range(40):
                emulator.charge(per_thread / 40)
            emulator.flush()

        threads = [threading.Thread(target=burn) for _ in range(2)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        # Overshoot credit means slept_s lands a touch under the 80ms
        # charged, but the debt must be nearly fully converted to sleeps.
        assert emulator.slept_s > 0.060
        assert emulator.pending_s <= 0.0
        # Serial would be ≥ 80ms; two channels should land well under —
        # but never below the 40ms single-channel share.
        assert 0.035 < wall < 0.070, wall

    def test_single_thread_still_pays_full_debt(self):
        """One thread cannot overlap with itself: channels only help
        concurrent chargers, so the single-shard baseline stays honest."""
        emulator = LatencyEmulator(min_sleep_s=1e-3, channels=4)
        t0 = time.perf_counter()
        for _ in range(40):
            emulator.charge(1e-3)
        emulator.flush()
        wall = time.perf_counter() - t0
        assert wall >= 0.037, wall
        # slept_s + residual debt accounts for the full 40ms charged,
        # minus whatever overshoot the emulator credited back.
        assert emulator.slept_s > 0.030
