"""Determinism and bit-exactness tests for the threaded restore executor.

The executor moves granule reads onto background IO workers; everything
it restores must stay bit-identical to the single-threaded streamed path
and to the naive whole-layer reference (:mod:`repro.models.reference`) —
for every pool size, across GQA / layernorm / mixed hidden+KV schemes and
partial tail chunks, and stably across repeated runs (ordering races
would show up as flaky mismatches).
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine, RestoreBreakdown
from repro.core.partition import PartitionScheme
from repro.core.profiler import build_storage_array
from repro.engine.numeric_engine import NumericServingEngine
from repro.errors import ConfigError, DeviceFault, StateError
from repro.models.config import model_preset
from repro.models.reference import NaiveKVCache
from repro.models.transformer import Transformer
from repro.runtime import IOWorkerPool, RestoreExecutor
from repro.runtime.drain import drain
from repro.simulator import platform_preset
from repro.simulator.hardware import GB, SSDSpec
from repro.simulator.pipeline import LayerMethod
from repro.storage import FaultPolicy, LatencyEmulator, StorageArray, StorageManager

POOL_SIZES = [1, 2, 4]


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


GQA_CONFIG = replace(
    model_preset("tiny-llama"), name="tiny-gqa", n_kv_heads=2, n_heads=4
)


class TestThreadedBitExactness:
    @pytest.mark.parametrize("pool_size", POOL_SIZES)
    @pytest.mark.parametrize("n_tokens", [5, 100, 197, 256])
    def test_partial_tails_match_single_threaded_and_reference(
        self, pool_size, n_tokens
    ):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, n_tokens)
        single = engine.restore("c")
        reference = reference_restore(model, engine, "c", n_tokens)
        with RestoreExecutor(pool_size) as executor:
            threaded = engine.restore("c", executor=executor)
        assert threaded.equals(single, atol=0.0)
        assert_bit_equal(threaded, reference, range(config.n_layers))

    @pytest.mark.parametrize("pool_size", POOL_SIZES)
    def test_gqa_config(self, pool_size):
        model, engine = build_engine(GQA_CONFIG)
        save_context(engine, model, GQA_CONFIG, 150)
        reference = reference_restore(model, engine, "c", 150)
        with RestoreExecutor(pool_size) as executor:
            threaded = engine.restore("c", executor=executor)
        assert_bit_equal(threaded, reference, range(GQA_CONFIG.n_layers))

    @pytest.mark.parametrize("pool_size", POOL_SIZES)
    def test_layernorm_no_rope_config(self, pool_size):
        config = model_preset("tiny-opt")
        model, engine = build_engine(config)
        save_context(engine, model, config, 130)
        reference = reference_restore(model, engine, "c", 130)
        with RestoreExecutor(pool_size) as executor:
            threaded = engine.restore("c", executor=executor)
        assert_bit_equal(threaded, reference, range(config.n_layers))

    @pytest.mark.parametrize("pool_size", POOL_SIZES)
    def test_mixed_hidden_kv_scheme(self, pool_size):
        config = model_preset("tiny-llama")
        scheme = PartitionScheme.with_kv_suffix(config.n_layers, 2)
        model, engine = build_engine(config, scheme=scheme)
        cache = save_context(engine, model, config, 145)
        reference = reference_restore(model, engine, "c", 145)
        with RestoreExecutor(pool_size) as executor:
            threaded = engine.restore("c", executor=executor)
        assert_bit_equal(threaded, reference, range(config.n_layers))
        for layer in scheme.layers_with(LayerMethod.KV):
            k1, v1 = threaded.get(layer)
            k2, v2 = cache.get(layer)
            assert np.array_equal(k1, k2) and np.array_equal(v1, v2)

    def test_recompute_prefix_scheme(self):
        config = model_preset("tiny-llama")
        scheme = PartitionScheme.with_recompute_prefix(config.n_layers, 1)
        model, engine = build_engine(config, scheme=scheme)
        save_context(engine, model, config, 128)
        single = engine.restore("c")
        with RestoreExecutor(2) as executor:
            threaded = engine.restore("c", executor=executor)
        assert threaded.equals(single, atol=0.0)

    def test_unsealed_tail_restores_from_host_buffer(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        cache = save_context(engine, model, config, 97, seal=False)
        with RestoreExecutor(2) as executor:
            threaded = engine.restore("c", executor=executor)
        assert threaded.equals(cache, atol=0.0)

    @pytest.mark.parametrize("pool_size", POOL_SIZES)
    def test_repeated_runs_are_stable(self, pool_size):
        """Shake out ordering races: repeated threaded restores through
        one shared executor must all produce identical bytes."""
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 197)
        single = engine.restore("c")
        with RestoreExecutor(pool_size) as executor:
            for _ in range(5):
                assert engine.restore("c", executor=executor).equals(single, atol=0.0)

    @pytest.mark.parametrize("granule_chunks", [1, 2, 8])
    def test_granule_size_invariant(self, granule_chunks):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config, granule_chunks=granule_chunks)
        save_context(engine, model, config, 197)
        reference = reference_restore(model, engine, "c", 197)
        with RestoreExecutor(2) as executor:
            threaded = engine.restore("c", executor=executor)
        assert_bit_equal(threaded, reference, range(config.n_layers))


class TestDrainDirectUse:
    def test_drain_with_stats_but_default_lists(self):
        """The documented defaults (io_times/compute_times omitted) must
        work when stats is given — drain owns its own accumulators."""
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 128)
        chunks = []
        stats = RestoreBreakdown()
        layers = list(range(config.n_layers))
        plan = engine.storage.granule_plan(
            "c", layers, "hidden", engine.stream_granule_chunks
        )
        with RestoreExecutor(1) as executor:
            drain(
                engine.storage, "c", [plan], engine.stream_granule_chunks,
                chunks.append, executor.pool, executor.inflight, stats=stats,
            )
        assert stats.granules == len(chunks) > 0


class TestBreakdownParity:
    def test_threaded_accounting_matches_single_threaded(self):
        """Granule/read counts and modelled makespans are identical; only
        the wall-clock split differs (threaded read_s is exposed stall)."""
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 256)
        single_stats = RestoreBreakdown()
        engine.restore("c", stats=single_stats)
        threaded_stats = RestoreBreakdown()
        with RestoreExecutor(2) as executor:
            engine.restore("c", stats=threaded_stats, executor=executor)
        assert threaded_stats.granules == single_stats.granules
        assert threaded_stats.device_reads == single_stats.device_reads
        assert threaded_stats.n_tokens == single_stats.n_tokens
        assert threaded_stats.modelled_io_s == pytest.approx(
            single_stats.modelled_io_s
        )
        assert threaded_stats.projection.chunks == single_stats.projection.chunks
        assert threaded_stats.modelled_pipelined_s <= threaded_stats.modelled_serial_s


class TestConcurrentContexts:
    def test_concurrent_restores_match_sequential(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        lengths = {"a": 197, "b": 64, "c3": 130, "d": 5}
        for cid, n in lengths.items():
            save_context(engine, model, config, n, context_id=cid)
        sequential = {cid: engine.restore(cid) for cid in lengths}
        with RestoreExecutor(2) as executor:
            concurrent = executor.restore_contexts(engine, list(lengths))
        for cid in lengths:
            assert concurrent[cid].equals(sequential[cid], atol=0.0), cid

    def test_duplicate_context_ids_rejected(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 64)
        with RestoreExecutor(1) as executor:
            with pytest.raises(ConfigError):
                executor.restore_contexts(engine, ["c", "c"])

    def test_empty_context_list(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        with RestoreExecutor(1) as executor:
            assert executor.restore_contexts(engine, []) == {}

    def test_failure_reraises_after_the_other_restore_settles(self, monkeypatch):
        """One of two contexts loses every replica of a device: its
        DeviceFault re-raises only after the other restore has finished,
        and the same executor then restores both bit-exact."""
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=11)
        spec = SSDSpec("t-ssd", read_bandwidth=3 * GB, write_bandwidth=1 * GB,
                       capacity_bytes=1 * GB)
        array = StorageArray([spec] * 5, link_bandwidth=8 * GB, replication=2)
        engine = HCacheEngine(model, StorageManager(array))
        # Chunk i of layer L lives on slot (i + L) % 5.  "lost" stores four
        # device chunks per layer, so layers 1-3 reach slot 4; "ok" stores
        # one (its partial tail stays on the host), on slots 0-3 only.
        save_context(engine, model, config, 300, context_id="lost")
        save_context(engine, model, config, 100, context_id="ok")
        expected = {cid: engine.restore(cid) for cid in ("lost", "ok")}
        restore = engine.restore
        lost_failed = threading.Event()
        finished = []

        def observed(cid, *args, **kwargs):
            if cid == "ok":
                # Start only after the other restore failed, so a caller
                # that re-raised at once would return before this ends.
                assert lost_failed.wait(timeout=30)
                cache = restore(cid, *args, **kwargs)
                finished.append(cid)
                return cache
            try:
                return restore(cid, *args, **kwargs)
            except DeviceFault:
                lost_failed.set()
                raise

        monkeypatch.setattr(engine, "restore", observed)
        with RestoreExecutor(2) as executor:
            for role in ("primary", "mirror"):
                array.replica(4, role).fault_policy = FaultPolicy.dead()
            try:
                with pytest.raises(DeviceFault):
                    executor.restore_contexts(engine, ["lost", "ok"])
                assert finished == ["ok"]
            finally:
                for role in ("primary", "mirror"):
                    array.replica(4, role).fault_policy = None
            restored = executor.restore_contexts(engine, ["lost", "ok"])
        for cid, cache in expected.items():
            assert restored[cid].equals(cache, atol=0.0), cid


class TestNumericServingEngineIntegration:
    def _run_session(self, executor):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=3)
        manager = StorageManager(build_storage_array(platform_preset("default")))
        hcache = HCacheEngine(model, manager)
        engine = NumericServingEngine(model, hcache, executor=executor)
        engine.open_session("s")
        rng = np.random.default_rng(9)
        outputs = []
        for round_idx in range(3):
            prompt = rng.integers(0, config.vocab_size, size=17 + round_idx)
            outputs.append(engine.chat_round("s", prompt, n_output_tokens=4))
            engine.evict("s")
        return outputs

    def test_chat_rounds_identical_with_and_without_executor(self):
        baseline = self._run_session(None)
        with RestoreExecutor(2) as executor:
            threaded = self._run_session(executor)
        assert baseline == threaded

    def test_restore_sessions_concurrently(self):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=3)
        manager = StorageManager(build_storage_array(platform_preset("default")))
        hcache = HCacheEngine(model, manager)
        with RestoreExecutor(2) as executor:
            engine = NumericServingEngine(model, hcache, executor=executor)
            rng = np.random.default_rng(4)
            expected = {}
            for sid in ("s1", "s2", "s3"):
                engine.open_session(sid)
                prompt = rng.integers(0, config.vocab_size, size=23)
                engine.chat_round(sid, prompt, n_output_tokens=3)
                engine.evict(sid)
                # Oracle: the single-threaded restore of the same stored
                # state.  (The *live* cache matches only to float rounding
                # for decode-produced rows — the GEMV-vs-GEMM caveat.)
                expected[sid] = hcache.restore(sid)
            engine.restore_sessions(["s1", "s2", "s3"])
            for sid, cache in expected.items():
                restored = engine.session(sid).kv_cache
                assert restored is not None
                assert restored.equals(cache, atol=0.0)

    def test_restore_sessions_rejects_resident_session(self):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=3)
        manager = StorageManager(build_storage_array(platform_preset("default")))
        engine = NumericServingEngine(model, HCacheEngine(model, manager))
        engine.open_session("s")
        engine.chat_round("s", np.arange(5), n_output_tokens=2)
        with pytest.raises(StateError):
            engine.restore_sessions(["s"])


class TestLatencyEmulation:
    def test_emulator_batches_sub_quantum_charges(self):
        sleeps = []
        emulator = LatencyEmulator(min_sleep_s=1e-3, sleep_fn=sleeps.append)
        for _ in range(9):
            emulator.charge(1e-4)
        assert sleeps == []  # 0.9 ms of debt: below the quantum
        emulator.charge(1e-4)
        assert len(sleeps) == 1 and sleeps[0] == pytest.approx(1e-3)
        assert emulator.pending_s == 0.0
        assert emulator.slept_s == pytest.approx(1e-3)

    def test_emulator_flush_drains_remainder(self):
        sleeps = []
        emulator = LatencyEmulator(min_sleep_s=1.0, sleep_fn=sleeps.append)
        emulator.charge(0.25)
        emulator.flush()
        assert sleeps == [pytest.approx(0.25)]
        assert emulator.pending_s == 0.0

    def test_emulator_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            LatencyEmulator(min_sleep_s=0.0)
        emulator = LatencyEmulator(sleep_fn=lambda s: None)
        with pytest.raises(ConfigError):
            emulator.charge(-1.0)

    def test_concurrent_sleeps_serialize_like_one_io_stream(self):
        """Two workers charging at once must not halve emulated IO wall
        clock: sleeps serialize on the emulator's sleep lock, matching
        the single serial IO stream the makespan model costs."""
        import threading
        import time as _time

        emulator = LatencyEmulator(min_sleep_s=1e-4)
        def worker():
            emulator.charge(5e-3)
        threads = [threading.Thread(target=worker) for _ in range(2)]
        t0 = _time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = _time.perf_counter() - t0
        assert elapsed >= 9e-3  # ~10ms of modelled IO cannot run 2-parallel

    def test_array_emulation_charges_modelled_read_seconds(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 256)
        array = engine.storage.array
        emulator = array.emulate_latency()
        # Swap the real sleep for a recorder: totals must equal the
        # modelled device seconds of the restore's reads.
        charged = []
        emulator._sleep = charged.append
        stats = RestoreBreakdown()
        restored = engine.restore("c", stats=stats)
        emulator.flush()
        array.stop_latency_emulation()
        assert len(restored) == 256
        assert sum(charged) == pytest.approx(stats.modelled_io_s)

    def test_emulation_is_idempotent_and_detachable(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        array = engine.storage.array
        first = array.emulate_latency()
        assert array.emulate_latency() is first
        array.stop_latency_emulation()
        assert array.latency_emulator is None
        assert all(d.emulator is None for d in array.devices)


class TestPoolAndExecutorValidation:
    def test_pool_needs_positive_size(self):
        with pytest.raises(ConfigError):
            IOWorkerPool(0)

    def test_pool_rejects_submit_after_shutdown(self):
        pool = IOWorkerPool(1)
        pool.shutdown()
        with pytest.raises(StateError):
            pool.submit(lambda: None)

    def test_pool_counts_tasks(self):
        with IOWorkerPool(1) as pool:
            futures = [pool.submit(lambda x: x * 2, i) for i in range(5)]
            assert [f.result() for f in futures] == [0, 2, 4, 6, 8]
            assert pool.tasks_submitted == 5

    def test_executor_validates_inflight(self):
        with pytest.raises(ConfigError):
            RestoreExecutor(1, inflight=0)

    def test_executor_validates_max_concurrent(self):
        with pytest.raises(ConfigError):
            RestoreExecutor(1, max_concurrent_restores=0)

    def test_executor_shared_pool_not_closed(self):
        with IOWorkerPool(1) as pool:
            executor = RestoreExecutor(pool)
            executor.close()  # does not own the pool
            assert not pool.closed
