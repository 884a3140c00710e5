"""The fixed server every workload runs against, and its set-up.

Set-up builds the model, prefills each workload's base history once in
chunks, saves every session's prefix of those states through the HCache
engine, seals them (as eviction would), and reopens the sessions with
``NumericServingEngine.recover`` so the front end finds them evicted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from perfbench import constants as C
from perfbench.workloads import Population
from repro.core.hcache import HCacheEngine
from repro.engine.batching import MemoryBudget
from repro.engine.frontend import ServingFrontend
from repro.engine.numeric_engine import NumericServingEngine
from repro.engine.splitfuse import SplitFuseScheduler
from repro.models.config import ModelConfig
from repro.models.hidden_capture import HiddenCapture
from repro.models.kv_cache import KVCache
from repro.models.transformer import Transformer
from repro.runtime.executor import RestoreExecutor
from repro.runtime.io_pool import IOWorkerPool
from repro.simulator.hardware import GB, SSDSpec
from repro.storage.array import StorageArray
from repro.storage.manager import StorageManager

MODEL_CONFIG = ModelConfig(**C.MODEL)
SSD_SPEC = SSDSpec(
    name=C.SSD["name"],
    read_bandwidth=C.SSD["read_gb_s"] * GB,
    write_bandwidth=C.SSD["write_gb_s"] * GB,
    io_latency=C.SSD["io_latency_s"],
)


@dataclass
class Server:
    """One serving stack; ``close`` stops its threads."""

    model: Transformer
    array: StorageArray
    storage: StorageManager
    hcache: HCacheEngine
    pool: IOWorkerPool
    executor: RestoreExecutor
    frontend: ServingFrontend
    #: Seeded history length per session (0 for sessions opened later).
    histories: dict[str, int]
    setup_s: float

    def close(self) -> None:
        self.executor.close()
        self.pool.shutdown()


def prefill_states(model: Transformer, tokens: np.ndarray) -> list[np.ndarray]:
    """Per-layer hidden states of ``tokens``, prefilled in fixed chunks."""
    config = model.config
    cache = KVCache(config)
    cache.reserve(tokens.size)
    capture = HiddenCapture(config.n_layers, config.hidden_size)
    capture.reserve(tokens.size)
    for start in range(0, tokens.size, C.SEED_PREFILL_CHUNK):
        model.forward(tokens[start : start + C.SEED_PREFILL_CHUNK], cache, capture=capture)
    return capture.block_views(0, tokens.size)


def build_server(population: Population) -> Server:
    """Build the fixed server and seed ``population``; time all of it."""
    t0 = time.perf_counter()
    model = Transformer.from_seed(MODEL_CONFIG, C.MODEL_WEIGHT_SEED)
    array = StorageArray([SSD_SPEC], link_bandwidth=C.LINK_GB_S * GB)
    storage = StorageManager(array)
    hcache = HCacheEngine(model, storage)
    if population.histories:
        states = prefill_states(model, population.base_tokens)
        for session_id, length in population.histories.items():
            hcache.register_context(session_id)
            hcache.save_states(
                session_id,
                [layer[:length] for layer in states],
                population.base_tokens[:length],
            )
            hcache.seal(session_id)
    pool = IOWorkerPool(C.IO_POOL_WORKERS)
    executor = RestoreExecutor(pool, max_concurrent_restores=C.RESTORE_THREADS)
    engine = NumericServingEngine.recover(model, hcache, executor=executor)
    frontend = ServingFrontend(
        engine,
        MemoryBudget(capacity_tokens=C.KV_BUDGET_TOKENS),
        scheduler=SplitFuseScheduler(C.SPLITFUSE_TOKENS),
        max_running=C.MAX_RUNNING,
        max_queue=C.MAX_QUEUE,
        evict_on_finish=True,
    )
    # Seeding writes are set-up, not serving: emulated device time starts here.
    array.emulate_latency()
    return Server(
        model=model,
        array=array,
        storage=storage,
        hcache=hcache,
        pool=pool,
        executor=executor,
        frontend=frontend,
        histories=dict(population.histories),
        setup_s=time.perf_counter() - t0,
    )
