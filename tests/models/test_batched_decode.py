"""Batched multi-session decode vs the serial per-session loop.

``Transformer.decode_batch`` must reproduce the serial decode path for
every session of the batch — unequal lengths, GQA, layernorm/no-rope —
within the documented batched-GEMM tolerance
(:data:`repro.models.transformer.BATCHED_DECODE_ATOL`), with identical
post-step cache contents, and the stacked-block and gather flavors of
the batched path must agree bit for bit.  The stacked block itself has
adoption/growth/repointing invariants tested here too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, StateError
from repro.models.config import ModelConfig, model_preset
from repro.models.hidden_capture import HiddenCapture
from repro.models.kv_cache import KVCache, StackedKVCacheBlock
from repro.models.transformer import BATCHED_DECODE_ATOL, Transformer

GQA_CONFIG = ModelConfig(
    name="tiny-gqa",
    n_layers=3,
    hidden_size=48,
    n_heads=6,
    n_kv_heads=2,
    ffn_hidden_size=96,
    n_ffn_mats=3,
    vocab_size=64,
    max_context=256,
)

CONFIGS = {
    "tiny-llama": model_preset("tiny-llama"),
    "tiny-opt": model_preset("tiny-opt"),
    "tiny-gqa": GQA_CONFIG,
}

_MODELS: dict[str, Transformer] = {}


def get_model(name: str) -> Transformer:
    if name not in _MODELS:
        _MODELS[name] = Transformer.from_seed(CONFIGS[name], seed=11)
    return _MODELS[name]


def prefilled_caches(model, lengths, seed, copies=1):
    """``copies`` independent-but-identical cache sets for the given lengths."""
    config = model.config
    rng = np.random.default_rng(seed)
    prompts = [rng.integers(0, config.vocab_size, size=n) for n in lengths]
    sets = [[] for _ in range(copies)]
    for prompt in prompts:
        for group in sets:
            cache = KVCache(config)
            model.forward(prompt, cache)
            group.append(cache)
    return prompts, sets


def serial_decode(model, tokens, caches, captures=None):
    """Per-session single-token forwards; logits stacked like decode_batch."""
    rows = []
    for b, cache in enumerate(caches):
        capture = captures[b] if captures is not None else None
        result = model.forward(np.array([tokens[b]]), cache, capture=capture)
        rows.append(result.logits[-1])
    return np.stack(rows)


def caches_close(a, b, atol):
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert ca.equals(cb, atol=atol)


class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_matches_serial_loop(self, name):
        """Batched == serial decode outputs and post-step cache contents."""
        model = get_model(name)
        config = model.config
        lengths = [3, 17, 9, 1]
        _, (serial, batched) = prefilled_caches(model, lengths, seed=1, copies=2)
        StackedKVCacheBlock.adopt(batched, reserve_tokens=max(lengths) + 8)
        rng = np.random.default_rng(2)
        tokens = rng.integers(0, config.vocab_size, size=len(lengths))
        for _ in range(6):
            ref = serial_decode(model, tokens, serial)
            got = model.decode_batch(tokens, batched)
            assert got.shape == (len(lengths), config.vocab_size)
            np.testing.assert_allclose(got, ref, atol=BATCHED_DECODE_ATOL, rtol=0)
            assert np.array_equal(np.argmax(got, 1), np.argmax(ref, 1))
            tokens = np.argmax(ref, axis=1)
        caches_close(batched, serial, BATCHED_DECODE_ATOL)
        for cache in batched:
            assert len(cache) == lengths[batched.index(cache)] + 6

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_stacked_and_gather_paths_bit_identical(self, name):
        model = get_model(name)
        lengths = [5, 2, 11]
        _, (stacked, gather) = prefilled_caches(model, lengths, seed=3, copies=2)
        StackedKVCacheBlock.adopt(stacked)
        assert StackedKVCacheBlock.of(stacked) is not None
        assert StackedKVCacheBlock.of(gather) is None
        tokens = np.array([4, 9, 0])
        for _ in range(4):
            a = model.decode_batch(tokens, stacked)
            b = model.decode_batch(tokens, gather)
            assert np.array_equal(a, b)
            tokens = np.argmax(a, axis=1)
        for cs, cg in zip(stacked, gather):
            assert cs.equals(cg, atol=0.0)

    def test_capture_rows_match_serial_capture(self):
        model = get_model("tiny-llama")
        config = model.config
        lengths = [4, 8]
        _, (serial, batched) = prefilled_caches(model, lengths, seed=4, copies=2)
        StackedKVCacheBlock.adopt(batched)

        def fresh_captures():
            captures = []
            for _ in lengths:
                capture = HiddenCapture(config.n_layers, config.hidden_size)
                capture.reserve(3)
                captures.append(capture)
            return captures

        serial_caps = fresh_captures()
        batched_caps = fresh_captures()
        tokens = np.array([1, 2])
        for _ in range(3):
            ref = serial_decode(model, tokens, serial, captures=serial_caps)
            model.decode_batch(tokens, batched, captures=batched_caps)
            tokens = np.argmax(ref, axis=1)
        for cs, cb in zip(serial_caps, batched_caps):
            assert len(cs) == len(cb) == 3
            for layer in range(config.n_layers):
                # Layer 0's input is the embedding (pre-GEMM): bit-equal.
                # Deeper layers differ only within the GEMM tolerance.
                np.testing.assert_allclose(
                    cb.layer_view(layer),
                    cs.layer_view(layer),
                    atol=BATCHED_DECODE_ATOL,
                    rtol=0,
                )
            assert np.array_equal(cb.layer_view(0), cs.layer_view(0))

    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        name=st.sampled_from(sorted(CONFIGS)),
        lengths=st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**16),
        stack=st.booleans(),
    )
    def test_property_random_batches(self, name, lengths, seed, stack):
        """Random batch sizes, unequal lengths, all config families."""
        model = get_model(name)
        config = model.config
        _, (serial, batched) = prefilled_caches(model, lengths, seed=seed, copies=2)
        if stack:
            StackedKVCacheBlock.adopt(batched)
        rng = np.random.default_rng(seed + 1)
        tokens = rng.integers(0, config.vocab_size, size=len(lengths))
        for _ in range(2):
            ref = serial_decode(model, tokens, serial)
            got = model.decode_batch(tokens, batched)
            np.testing.assert_allclose(got, ref, atol=BATCHED_DECODE_ATOL, rtol=0)
            tokens = np.argmax(ref, axis=1)
        caches_close(batched, serial, BATCHED_DECODE_ATOL)


class TestValidation:
    def test_token_cache_count_mismatch(self):
        model = get_model("tiny-llama")
        _, (caches,) = prefilled_caches(model, [2, 2], seed=0)
        with pytest.raises(ConfigError):
            model.decode_batch(np.array([1]), caches)

    def test_empty_batch_rejected(self):
        model = get_model("tiny-llama")
        with pytest.raises(ConfigError):
            model.decode_batch(np.array([], dtype=int), [])

    def test_foreign_config_rejected(self):
        model = get_model("tiny-llama")
        with pytest.raises(ConfigError):
            model.decode_batch(np.array([1]), [KVCache(CONFIGS["tiny-opt"])])

    def test_duplicate_cache_rejected(self):
        model = get_model("tiny-llama")
        _, (caches,) = prefilled_caches(model, [3], seed=0)
        with pytest.raises(ConfigError):
            model.decode_batch(np.array([1, 2]), [caches[0], caches[0]])
        # fail-fast: the cache must not have been mutated
        assert len(caches[0]) == 3

    def test_capture_count_mismatch(self):
        model = get_model("tiny-llama")
        _, (caches,) = prefilled_caches(model, [2], seed=0)
        with pytest.raises(ConfigError):
            model.decode_batch(np.array([1]), caches, captures=[])

    def test_context_overflow_rejected(self):
        model = get_model("tiny-llama")
        cache = KVCache(model.config)
        rng = np.random.default_rng(0)
        model.forward(rng.integers(0, model.config.vocab_size, size=model.config.max_context), cache)
        with pytest.raises(ConfigError):
            model.decode_batch(np.array([1]), [cache])


class TestStackedBlock:
    def test_adopt_preserves_content_and_repoints(self):
        model = get_model("tiny-llama")
        _, (caches, reference) = prefilled_caches(model, [3, 7], seed=5, copies=2)
        block = StackedKVCacheBlock.adopt(caches)
        for cache, ref in zip(caches, reference):
            assert cache.block is block
            assert cache.equals(ref, atol=0.0)
        k, v = block.stacked_kv(0, 7)
        assert k.shape == (2, 7, model.config.n_kv_heads, model.config.head_dim)
        k0, _ = caches[0].get(0)
        assert np.shares_memory(k, k0)

    def test_append_token_advances_every_slot(self):
        config = CONFIGS["tiny-llama"]
        caches = [KVCache(config) for _ in range(3)]
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(3, config.n_kv_heads, config.head_dim)).astype(np.float32)
        block = StackedKVCacheBlock.adopt(caches)
        for layer in range(config.n_layers):
            block.append_token(layer, rows, rows + 1)
        assert [len(c) for c in caches] == [1, 1, 1]
        for b, cache in enumerate(caches):
            k, v = cache.get(1)
            assert np.array_equal(k[0], rows[b])
            assert np.array_equal(v[0], rows[b] + 1)
        assert np.array_equal(block.layer_lengths(0), [1, 1, 1])

    def test_growth_repoints_all_adopted_caches(self):
        config = CONFIGS["tiny-llama"]
        caches = [KVCache(config) for _ in range(2)]
        block = StackedKVCacheBlock.adopt(caches, reserve_tokens=4)
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(2, config.n_kv_heads, config.head_dim)).astype(np.float32)
        for step in range(40):  # forces several doublings
            for layer in range(config.n_layers):
                block.append_token(layer, rows + step, rows - step)
        assert block.capacity >= 40
        for cache in caches:
            assert len(cache) == 40
            assert cache.block is block
            k, _ = cache.get(0)
            assert np.shares_memory(k, block.stacked_kv(0, 40)[0])

    def test_adopt_keeps_each_cache_reservation(self):
        """Re-stacking caches reserved to N tokens presizes the block to
        N: appending up to N tokens never regrows it, so earlier
        stacked views keep sharing the block's memory."""
        model = get_model("tiny-llama")
        config = model.config
        _, (caches,) = prefilled_caches(model, [3, 7], seed=9)
        reserved = 40
        caches[0].reserve(reserved)
        block = StackedKVCacheBlock.adopt(caches)
        capacity = block.capacity
        assert capacity >= reserved
        early_k, early_v = block.stacked_kv(0, 7)
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(2, config.n_kv_heads, config.head_dim)).astype(np.float32)
        for _ in range(reserved - 7):
            for layer in range(config.n_layers):
                block.append_token(layer, rows, rows)
        assert [len(c) for c in caches] == [reserved - 4, reserved]
        assert block.capacity == capacity
        k, v = block.stacked_kv(0, reserved)
        assert np.shares_memory(early_k, k)
        assert np.shares_memory(early_v, v)

    def test_per_cache_append_goes_through_block(self):
        """A plain append on an adopted cache writes into block storage
        and block growth is triggered transparently."""
        config = CONFIGS["tiny-llama"]
        caches = [KVCache(config) for _ in range(2)]
        block = StackedKVCacheBlock.adopt(caches)
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(20, config.n_kv_heads, config.head_dim)).astype(np.float32)
        for layer in range(config.n_layers):
            caches[0].append(layer, rows, rows)
        assert len(caches[0]) == 20
        assert len(caches[1]) == 0
        assert caches[0].block is block and caches[1].block is block
        k, _ = block.stacked_kv(0, 20)
        assert np.array_equal(k[0], rows)

    def test_of_requires_exact_slot_order(self):
        config = CONFIGS["tiny-llama"]
        caches = [KVCache(config) for _ in range(3)]
        block = StackedKVCacheBlock.adopt(caches)
        assert StackedKVCacheBlock.of(caches) is block
        assert StackedKVCacheBlock.of(caches[::-1]) is None
        assert StackedKVCacheBlock.of(caches[:2]) is None
        assert StackedKVCacheBlock.of([]) is None

    def test_ensure_stacked_reuses_and_restacks(self):
        config = CONFIGS["tiny-llama"]
        caches = [KVCache(config) for _ in range(2)]
        block = StackedKVCacheBlock.ensure_stacked(caches)
        assert StackedKVCacheBlock.ensure_stacked(caches) is block
        reordered = caches[::-1]
        block2 = StackedKVCacheBlock.ensure_stacked(reordered)
        assert block2 is not block
        assert StackedKVCacheBlock.of(reordered) is block2

    def test_migration_releases_old_slot(self):
        config = CONFIGS["tiny-llama"]
        caches = [KVCache(config) for _ in range(2)]
        old = StackedKVCacheBlock.adopt(caches)
        StackedKVCacheBlock.adopt([caches[0]])
        with pytest.raises(StateError):
            old.layer_lengths(0)  # slot 0 was released

    def test_detach_copies_out(self):
        model = get_model("tiny-llama")
        _, (caches, reference) = prefilled_caches(model, [5, 5], seed=9, copies=2)
        block = StackedKVCacheBlock.adopt(caches)
        caches[0].detach()
        assert caches[0].block is None
        assert caches[0].equals(reference[0], atol=0.0)
        k_block, _ = block.stacked_kv(0, 5)
        k_detached, _ = caches[0].get(0)
        assert not np.shares_memory(k_block, k_detached)

    def test_install_all_on_block_backed_cache_copies(self):
        config = CONFIGS["tiny-llama"]
        caches = [KVCache(config) for _ in range(2)]
        block = StackedKVCacheBlock.adopt(caches)
        rng = np.random.default_rng(10)
        shape = (config.n_layers, 6, config.n_kv_heads, config.head_dim)
        k = rng.normal(size=shape).astype(np.float32)
        v = rng.normal(size=shape).astype(np.float32)
        caches[0].install_all(k, v)
        assert caches[0].block is block  # still block-backed
        got_k, got_v = caches[0].get(0)
        assert np.array_equal(got_k, k[0])
        assert np.array_equal(got_v, v[0])

    def test_adopt_rejects_mixed_configs_and_duplicates(self):
        a = KVCache(CONFIGS["tiny-llama"])
        b = KVCache(CONFIGS["tiny-opt"])
        with pytest.raises(ConfigError):
            StackedKVCacheBlock.adopt([a, b])
        with pytest.raises(ConfigError):
            StackedKVCacheBlock.adopt([a, a])
        with pytest.raises(ConfigError):
            StackedKVCacheBlock.adopt([])
