"""Per-layer KV cache with exact content semantics and O(1) appends.

The cache stores keys and values per layer as ``(n_tokens, n_kv_heads,
head_dim)`` arrays.  It supports the three ways state enters it in this
reproduction: normal prefill/decode appends, bulk installation from a
restoration (HCache projection, KV offload fetch, or prefix recompute),
and truncation for eviction experiments.

Storage layout: all layers share two 4-D backing buffers of shape
``(n_layers, capacity, n_kv_heads, head_dim)`` that grow by amortized
doubling, so ``append`` is an O(block) slice write instead of an
O(history) ``np.concatenate`` — the difference between O(n) and O(n^2)
decode over a whole conversation.  ``get`` returns zero-copy views of the
live prefix; restoration paths can write straight into the backing
buffers (:meth:`KVCache.install_view`) or donate whole pre-projected
tensors (:meth:`KVCache.install_all`) without any defensive copy.

View semantics: views returned by :meth:`get` alias the backing buffer.
An in-capacity ``append`` only writes past the live prefix, so earlier
views keep their content; an ``append`` that triggers a capacity-growth
reallocation detaches them to a stale snapshot of the old buffer, and
``install``/``truncate`` repoint the live region in place.  Callers that
need a durable, current snapshot across any of those operations must
copy, exactly as a real serving system snapshots KV pages before reuse.

Batched serving: several same-config caches can share one stacked
``(n_slots, n_layers, capacity, n_kv_heads, head_dim)`` backing via
:class:`StackedKVCacheBlock`, which gives the batched decode path
zero-copy ``(B, n_tokens, heads, head_dim)`` views across every session
at once while each per-session :class:`KVCache` keeps its normal API
(its buffers simply become views of one block slot).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, StateError
from repro.models.config import ModelConfig
from repro.models.growth import grown_capacity


class KVCache:
    """Key/value tensors for every layer of one sequence."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self._n_layers = config.n_layers
        self._row_shape = (config.n_kv_heads, config.head_dim)
        self._k = np.empty((self._n_layers, 0, *self._row_shape), dtype=np.float32)
        self._v = np.empty_like(self._k)
        self._lens = [0] * self._n_layers
        #: length -> number of layers currently at that length.  Keeping the
        #: histogram as an invariant makes ``__len__`` (called on every
        #: forward pass) O(1) while still detecting layer disagreement.
        self._len_counts: dict[int, int] = {0: self._n_layers}
        #: Set when this cache's buffers are views of one slot of a
        #: :class:`StackedKVCacheBlock`; capacity management is then
        #: delegated to the block (which repoints the views on growth).
        self._block: "StackedKVCacheBlock | None" = None
        self._block_slot = -1

    # ------------------------------------------------------------------
    # lengths
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Token count of the sequence (equal across layers)."""
        if len(self._len_counts) != 1:
            raise StateError(
                f"layers disagree on cached length: {sorted(self._len_counts)}"
            )
        return next(iter(self._len_counts))

    def layer_len(self, layer: int) -> int:
        return self._lens[layer]

    @property
    def capacity(self) -> int:
        """Allocated token capacity shared by every layer."""
        return self._k.shape[1]

    def _set_len(self, layer: int, new_len: int) -> None:
        old = self._lens[layer]
        if new_len == old:
            return
        self._lens[layer] = new_len
        counts = self._len_counts
        remaining = counts[old] - 1
        if remaining:
            counts[old] = remaining
        else:
            del counts[old]
        counts[new_len] = counts.get(new_len, 0) + 1

    def debug_validate(self) -> None:
        """Expensive invariant check (tests / debugging only).

        Recomputes the length histogram from scratch and verifies it
        matches the incrementally maintained one.
        """
        recount: dict[int, int] = {}
        for n in self._lens:
            recount[n] = recount.get(n, 0) + 1
        if recount != self._len_counts:
            raise StateError(
                f"length histogram {self._len_counts} out of sync with {recount}"
            )
        if any(n < 0 or n > self.capacity for n in self._lens):
            raise StateError(f"layer length out of range: {self._lens}")

    # ------------------------------------------------------------------
    # capacity management
    # ------------------------------------------------------------------

    def _ensure_capacity(self, min_capacity: int) -> None:
        cap = self.capacity
        if cap >= min_capacity:
            return
        if self._block is not None:
            # Block-backed: growth must reallocate the whole stacked
            # buffer (and repoint every adopted cache, including this
            # one), so it is the block's job.
            self._block.reserve(min_capacity)
            return
        new_cap = grown_capacity(cap, min_capacity)
        new_k = np.empty((self._n_layers, new_cap, *self._row_shape), dtype=np.float32)
        new_v = np.empty_like(new_k)
        live = max(self._lens, default=0)
        if live:
            new_k[:, :live] = self._k[:, :live]
            new_v[:, :live] = self._v[:, :live]
        self._k = new_k
        self._v = new_v

    def reserve(self, n_tokens: int) -> None:
        """Preallocate capacity for ``n_tokens`` across every layer.

        Callers that know the final context length (restoration, a chat
        round with a fixed output budget) use this to skip the doubling
        reallocations entirely.
        """
        if n_tokens < 0:
            raise ConfigError("cannot reserve a negative capacity")
        self._ensure_capacity(n_tokens)

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------

    def _check_layer(self, layer: int) -> None:
        if not 0 <= layer < self._n_layers:
            raise ConfigError(f"layer {layer} out of range")

    def _check_shape(self, tensor: np.ndarray, name: str) -> np.ndarray:
        tensor = np.asarray(tensor, dtype=np.float32)
        if tensor.ndim != 3 or tensor.shape[1:] != self._row_shape:
            raise ConfigError(
                f"{name} must be (n, {self.config.n_kv_heads}, {self.config.head_dim}), "
                f"got {tensor.shape}"
            )
        return tensor

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def append(self, layer: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Append newly computed K/V rows for one layer (O(block))."""
        self._check_layer(layer)
        keys = self._check_shape(keys, "keys")
        values = self._check_shape(values, "values")
        if keys.shape[0] != values.shape[0]:
            raise ConfigError("keys and values must cover the same tokens")
        n = self._lens[layer]
        m = keys.shape[0]
        self._ensure_capacity(n + m)
        self._k[layer, n : n + m] = keys
        self._v[layer, n : n + m] = values
        self._set_len(layer, n + m)

    def install(self, layer: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Replace one layer's content wholesale (restoration path).

        Writes into the preallocated backing buffer — no fresh defensive
        copy is allocated per layer.
        """
        self._check_layer(layer)
        keys = self._check_shape(keys, "keys")
        values = self._check_shape(values, "values")
        if keys.shape[0] != values.shape[0]:
            raise ConfigError("keys and values must cover the same tokens")
        n = keys.shape[0]
        self._ensure_capacity(n)
        self._k[layer, :n] = keys
        self._v[layer, :n] = values
        self._set_len(layer, n)

    def install_view(self, layer: int, n_tokens: int) -> tuple[np.ndarray, np.ndarray]:
        """Size one layer to ``n_tokens`` and return writable K/V views.

        The restoration hot path uses this to project straight into cache
        storage; the previous content of the layer is undefined until the
        caller fills the views.
        """
        self._check_layer(layer)
        if n_tokens < 0:
            raise ConfigError("cannot install a negative token count")
        self._ensure_capacity(n_tokens)
        self._set_len(layer, n_tokens)
        return self._k[layer, :n_tokens], self._v[layer, :n_tokens]

    def install_all(self, keys_all: np.ndarray, values_all: np.ndarray) -> None:
        """Adopt pre-projected K/V for every layer at once, zero-copy.

        ``keys_all``/``values_all`` have shape ``(n_layers, n, n_kv_heads,
        head_dim)``.  Fresh C-contiguous float32 arrays (what the batched
        restoration GEMM produces) become the backing buffers directly;
        anything else is copied once.  The caller must not mutate donated
        arrays afterwards.
        """
        keys_all = np.asarray(keys_all, dtype=np.float32)
        values_all = np.asarray(values_all, dtype=np.float32)
        expected_tail = (self._n_layers, *self._row_shape)
        for name, arr in (("keys", keys_all), ("values", values_all)):
            if arr.ndim != 4 or (arr.shape[0], *arr.shape[2:]) != expected_tail:
                raise ConfigError(
                    f"{name} must be ({self._n_layers}, n, {self._row_shape[0]}, "
                    f"{self._row_shape[1]}), got {arr.shape}"
                )
        if keys_all.shape[1] != values_all.shape[1]:
            raise ConfigError("keys and values must cover the same tokens")
        n = keys_all.shape[1]
        if self._block is not None:
            # Block-backed storage cannot adopt foreign arrays: the
            # stacked buffer is shared with the other slots, so the
            # content is copied into this slot instead.
            self._ensure_capacity(n)
            self._k[:, :n] = keys_all
            self._v[:, :n] = values_all
        else:
            self._k = self._adoptable(keys_all)
            self._v = self._adoptable(values_all)
        self._lens = [n] * self._n_layers
        self._len_counts = {n: self._n_layers}

    @staticmethod
    def _adoptable(arr: np.ndarray) -> np.ndarray:
        if arr.flags["C_CONTIGUOUS"] and arr.flags["OWNDATA"]:
            return arr
        return np.ascontiguousarray(arr)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def get(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(keys, values)`` zero-copy views for one layer."""
        self._check_layer(layer)
        n = self._lens[layer]
        return self._k[layer, :n], self._v[layer, :n]

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------

    def truncate(self, n_tokens: int) -> None:
        """Drop cached state beyond ``n_tokens`` on every layer.

        Capacity is retained; only the live lengths shrink (O(layers)).
        """
        if n_tokens < 0:
            raise ConfigError("cannot truncate to a negative length")
        for layer in range(self._n_layers):
            if self._lens[layer] > n_tokens:
                self._set_len(layer, n_tokens)

    def clear(self) -> None:
        """Evict everything (state moves to host storage in HCache)."""
        self.truncate(0)

    # ------------------------------------------------------------------
    # packed (on-storage) format
    # ------------------------------------------------------------------

    def packed_rows(self, layer: int, start: int, stop: int) -> np.ndarray:
        """K and V of rows ``[start, stop)`` concatenated per token.

        Shape ``(stop - start, 2 * kv_size)`` — K elements then V
        elements, flattened per token.  Packing only the requested rows
        keeps incremental saving O(block) instead of O(history).
        """
        keys, values = self.get(layer)
        if not 0 <= start <= stop <= keys.shape[0]:
            raise ConfigError(
                f"rows [{start}, {stop}) out of range for {keys.shape[0]} cached tokens"
            )
        n = stop - start
        kv_size = self.config.kv_size
        out = np.empty((n, 2 * kv_size), dtype=np.float32)
        out[:, :kv_size] = keys[start:stop].reshape(n, kv_size)
        out[:, kv_size:] = values[start:stop].reshape(n, kv_size)
        return out

    def packed_layer(self, layer: int) -> np.ndarray:
        """One layer's K and V concatenated per token: ``(n, 2 * kv_size)``.

        This is the on-storage format for KV-offloaded layers.
        """
        return self.packed_rows(layer, 0, self._lens[layer])

    def _check_packed(self, packed: np.ndarray) -> np.ndarray:
        packed = np.asarray(packed, dtype=np.float32)
        kv_size = self.config.kv_size
        if packed.ndim != 2 or packed.shape[1] != 2 * kv_size:
            raise ConfigError(f"packed KV must be (n, {2 * kv_size}), got {packed.shape}")
        return packed

    def install_packed(self, layer: int, packed: np.ndarray) -> None:
        """Inverse of :meth:`packed_layer`, writing directly into storage."""
        self._check_layer(layer)
        packed = self._check_packed(packed)
        self.install_view(layer, packed.shape[0])
        self.install_packed_rows(layer, 0, packed)

    def install_packed_rows(self, layer: int, start: int, packed: np.ndarray) -> None:
        """Write packed K|V rows into ``[start, start + n)`` of a layer.

        The rows must lie inside the layer's live region (size it first
        with :meth:`install_view`).  This is the chunk-granular inverse of
        :meth:`packed_rows` — the streamed restore installs each arriving
        granule of a KV-offloaded layer through it, so the packed-layout
        knowledge stays in one place.
        """
        self._check_layer(layer)
        packed = self._check_packed(packed)
        n = packed.shape[0]
        if not 0 <= start <= start + n <= self._lens[layer]:
            raise ConfigError(
                f"rows [{start}, {start + n}) outside the layer's "
                f"{self._lens[layer]} live tokens"
            )
        kv_size = self.config.kv_size
        self._k[layer, start : start + n].reshape(n, kv_size)[...] = packed[:, :kv_size]
        self._v[layer, start : start + n].reshape(n, kv_size)[...] = packed[:, kv_size:]

    def install_packed_head_rows(
        self,
        layer: int,
        start: int,
        packed: np.ndarray,
        head_start: int,
        head_stop: int,
    ) -> None:
        """Write KV heads ``[head_start, head_stop)`` of packed K|V rows.

        The tensor-shard merge primitive: ``packed`` carries *full-width*
        rows (the on-storage layout), but only the named KV-head range
        lands in the cache — each tensor rank of a sharded restore owns a
        disjoint range, so the ranks' installs tile the layer without
        overlap.  Pure strided slice copies, so the installed bytes are
        bit-identical to a full-width :meth:`install_packed_rows` of the
        same rows.  The rows must lie inside the layer's live region
        (size it first with :meth:`install_view`).
        """
        self._check_layer(layer)
        packed = self._check_packed(packed)
        n_kv_heads, head_dim = self._row_shape
        if not 0 <= head_start < head_stop <= n_kv_heads:
            raise ConfigError(
                f"head range [{head_start}, {head_stop}) invalid for "
                f"{n_kv_heads} KV heads"
            )
        n = packed.shape[0]
        if not 0 <= start <= start + n <= self._lens[layer]:
            raise ConfigError(
                f"rows [{start}, {start + n}) outside the layer's "
                f"{self._lens[layer]} live tokens"
            )
        kv_size = self.config.kv_size
        k_heads = packed[:, :kv_size].reshape(n, n_kv_heads, head_dim)
        v_heads = packed[:, kv_size:].reshape(n, n_kv_heads, head_dim)
        rows = slice(start, start + n)
        heads = slice(head_start, head_stop)
        self._k[layer, rows, heads] = k_heads[:, heads]
        self._v[layer, rows, heads] = v_heads[:, heads]

    def install_rows(
        self, layer: int, start: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Write already-split K/V rows into ``[start, start + n)`` of a layer.

        The unpacked sibling of :meth:`install_packed_rows`: block-paged
        restores hold K and V as separate ``(n, n_kv_heads, head_dim)``
        pool views and land them here without packing through a scratch
        buffer first.  The rows must lie inside the layer's live region
        (size it first with :meth:`install_view`).
        """
        self._check_layer(layer)
        keys = self._check_shape(keys, "keys")
        values = self._check_shape(values, "values")
        if keys.shape[0] != values.shape[0]:
            raise ConfigError("keys and values must cover the same tokens")
        n = keys.shape[0]
        if not 0 <= start <= start + n <= self._lens[layer]:
            raise ConfigError(
                f"rows [{start}, {start + n}) outside the layer's "
                f"{self._lens[layer]} live tokens"
            )
        self._k[layer, start : start + n] = keys
        self._v[layer, start : start + n] = values

    # ------------------------------------------------------------------
    # accounting / comparison
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Total live cached bytes across layers (at the array dtype width)."""
        row_bytes = self._k.itemsize * self._row_shape[0] * self._row_shape[1]
        return 2 * row_bytes * sum(self._lens)

    def equals(self, other: "KVCache", atol: float = 0.0) -> bool:
        """Exact (default) or tolerant comparison with another cache."""
        if self.config.n_layers != other.config.n_layers:
            return False
        for layer in range(self.config.n_layers):
            k1, v1 = self.get(layer)
            k2, v2 = other.get(layer)
            if k1.shape != k2.shape or v1.shape != v2.shape:
                return False
            if atol == 0.0:
                if not (np.array_equal(k1, k2) and np.array_equal(v1, v2)):
                    return False
            else:
                if not (np.allclose(k1, k2, atol=atol) and np.allclose(v1, v2, atol=atol)):
                    return False
        return True

    # ------------------------------------------------------------------
    # stacked-block membership
    # ------------------------------------------------------------------

    @property
    def block(self) -> "StackedKVCacheBlock | None":
        """The stacked block backing this cache, or ``None``."""
        return self._block

    def detach(self) -> None:
        """Leave the stacked block, copying live content to private buffers.

        A no-op for caches that are not block-backed.  The block slot is
        released (it keeps its storage until the block grows or is
        dropped, like any evicted page).
        """
        if self._block is None:
            return
        live = max(self._lens, default=0)
        new_k = np.empty((self._n_layers, live, *self._row_shape), dtype=np.float32)
        new_v = np.empty_like(new_k)
        if live:
            new_k[...] = self._k[:, :live]
            new_v[...] = self._v[:, :live]
        self._block.release_slot(self._block_slot)
        self._block = None
        self._block_slot = -1
        self._k = new_k
        self._v = new_v

    def release_block_slot(self) -> None:
        """Leave the stacked block *discarding* this cache's content.

        The eviction path: the GPU copy is being dropped (host storage
        keeps everything), so unlike :meth:`detach` nothing is copied
        out — the slot is released and this cache resets to empty.
        Without this, an evicted session's cache object would keep its
        whole block (every slot) reachable and recopied on growth.
        A no-op for caches that are not block-backed.
        """
        if self._block is None:
            return
        self._block.release_slot(self._block_slot)
        self._block = None
        self._block_slot = -1
        self._k = np.empty((self._n_layers, 0, *self._row_shape), dtype=np.float32)
        self._v = np.empty_like(self._k)
        self._lens = [0] * self._n_layers
        self._len_counts = {0: self._n_layers}


class StackedKVCacheBlock:
    """Shared stacked backing for a batch of same-config KV caches.

    Holds one ``(n_slots, n_layers, capacity, n_kv_heads, head_dim)``
    buffer pair and *adopts* per-session :class:`KVCache` objects into
    its slots: each adopted cache's ``_k``/``_v`` become zero-copy views
    of one slot, so every normal cache operation (append, get, packed
    rows, truncate) keeps working unchanged, while the batched decode
    path reads **all sessions of one layer at once** through
    :meth:`stacked_kv` and appends one token per session with a single
    vectorized write (:meth:`append_token`).

    Growth uses the same amortized-doubling policy as a private cache,
    reallocating the whole stacked buffer and repointing every adopted
    cache — the stacked analog of the documented view-detachment
    semantics (outstanding :meth:`KVCache.get` views snapshot the old
    buffer after a growth).

    Buffers are zero-initialized (unlike a private cache's
    ``np.empty``): slots shorter than the batch's longest session are
    read by the masked batched attention with probability-0 weights,
    and zero filling guarantees those padding rows are finite, so
    ``0 * pad`` contributes exactly ``0.0`` — the stacked and
    gather-with-zero-padding attention paths stay bit-identical.
    """

    def __init__(self, config: ModelConfig, n_slots: int) -> None:
        if n_slots <= 0:
            raise ConfigError("a stacked block needs at least one slot")
        self.config = config
        self._n_slots = n_slots
        self._n_layers = config.n_layers
        self._row_shape = (config.n_kv_heads, config.head_dim)
        self._k = np.zeros(
            (n_slots, self._n_layers, 0, *self._row_shape), dtype=np.float32
        )
        self._v = np.zeros_like(self._k)
        self._caches: list[KVCache | None] = [None] * n_slots

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def adopt(
        cls, caches: "list[KVCache]", reserve_tokens: int = 0
    ) -> "StackedKVCacheBlock":
        """Stack ``caches`` into a fresh block (slot ``b`` = ``caches[b]``).

        Each cache's live content is copied into its slot once (the
        numpy stand-in for remapping KV pages into a contiguous batch
        region) and the cache is repointed to block-backed views.  A
        cache already adopted by another block is migrated — the old
        block's slot is released.  The shared capacity is presized to
        the larger of ``reserve_tokens`` and every cache's own capacity
        (which covers its live length), so a reservation made before
        adoption (e.g. a request's whole ``total_context``) survives the
        re-stack and the batch's first appends do not regrow the block.
        """
        caches = list(caches)
        if not caches:
            raise ConfigError("need at least one cache to stack")
        if len({id(c) for c in caches}) != len(caches):
            raise ConfigError("the same cache cannot occupy two slots")
        config = caches[0].config
        for cache in caches:
            if cache.config != config:
                raise ConfigError("stacked caches must share one model config")
        block = cls(config, len(caches))
        need = max([reserve_tokens] + [c.capacity for c in caches])
        block._grow_to(grown_capacity(0, need) if need else 0)
        for slot, cache in enumerate(caches):
            live = max(cache._lens, default=0)
            if live:
                block._k[slot, :, :live] = cache._k[:, :live]
                block._v[slot, :, :live] = cache._v[:, :live]
            if cache._block is not None:
                cache._block.release_slot(cache._block_slot)
            cache._block = block
            cache._block_slot = slot
            cache._k = block._k[slot]
            cache._v = block._v[slot]
            block._caches[slot] = cache
        return block

    @staticmethod
    def of(caches: "list[KVCache]") -> "StackedKVCacheBlock | None":
        """The block stacking exactly ``caches`` in slot order, or ``None``.

        This is the batched decode path's fast-path test: when it
        returns a block, ``stacked_kv`` views cover the batch zero-copy;
        otherwise callers fall back to gathering per-session views.
        """
        if not caches:
            return None
        block = caches[0]._block
        if block is None or block.n_slots != len(caches):
            return None
        for slot, cache in enumerate(caches):
            if cache._block is not block or cache._block_slot != slot:
                return None
        return block

    @classmethod
    def ensure_stacked(
        cls, caches: "list[KVCache]", reserve_tokens: int = 0
    ) -> "StackedKVCacheBlock":
        """Reuse the block already stacking ``caches``, or adopt a new one.

        The engine calls this at the start of every batched decode
        phase: a stable batch pays the adoption copy once, and only a
        membership or order change re-stacks.
        """
        block = cls.of(caches)
        if block is None:
            return cls.adopt(caches, reserve_tokens)
        block.reserve(reserve_tokens)
        return block

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return self._n_slots

    @property
    def capacity(self) -> int:
        """Allocated token capacity shared by every slot and layer."""
        return self._k.shape[2]

    def _grow_to(self, new_cap: int) -> None:
        new_k = np.zeros(
            (self._n_slots, self._n_layers, new_cap, *self._row_shape),
            dtype=np.float32,
        )
        new_v = np.zeros_like(new_k)
        for slot, cache in enumerate(self._caches):
            if cache is None:
                continue
            live = max(cache._lens, default=0)
            if live:
                new_k[slot, :, :live] = self._k[slot, :, :live]
                new_v[slot, :, :live] = self._v[slot, :, :live]
        self._k = new_k
        self._v = new_v
        for slot, cache in enumerate(self._caches):
            if cache is not None:
                cache._k = new_k[slot]
                cache._v = new_v[slot]

    def reserve(self, n_tokens: int) -> None:
        """Grow the shared capacity to at least ``n_tokens`` (amortized)."""
        if n_tokens < 0:
            raise ConfigError("cannot reserve a negative capacity")
        if n_tokens <= self.capacity:
            return
        self._grow_to(grown_capacity(self.capacity, n_tokens))

    def release_slot(self, slot: int) -> None:
        """Forget the cache occupying ``slot`` (it detached or migrated)."""
        if not 0 <= slot < self._n_slots:
            raise ConfigError(f"slot {slot} out of range")
        self._caches[slot] = None

    def _full_batch(self) -> "list[KVCache]":
        caches = []
        for slot, cache in enumerate(self._caches):
            if cache is None:
                raise StateError(f"block slot {slot} has no adopted cache")
            caches.append(cache)
        return caches

    # ------------------------------------------------------------------
    # batched access
    # ------------------------------------------------------------------

    def layer_lengths(self, layer: int) -> np.ndarray:
        """Per-slot live token counts of ``layer``, shape ``(n_slots,)``."""
        return np.array(
            [c._lens[layer] for c in self._full_batch()], dtype=np.intp
        )

    def append_token(self, layer: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Append one K/V row per slot to ``layer`` in a single write.

        ``keys``/``values`` carry row ``b`` for slot ``b``, shape
        ``(n_slots, n_kv_heads, head_dim)``.  Rows land at each slot's
        own current length (sessions may be at different positions), via
        one fancy-indexed write instead of ``n_slots`` per-cache appends
        — the per-step write path of the batched decode loop.
        """
        caches = self._full_batch()
        keys = np.asarray(keys, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        expected = (self._n_slots, *self._row_shape)
        if keys.shape != expected or values.shape != expected:
            raise ConfigError(
                f"batched rows must be {expected}, got {keys.shape} / {values.shape}"
            )
        if not 0 <= layer < self._n_layers:
            raise ConfigError(f"layer {layer} out of range")
        lens = np.array([c._lens[layer] for c in caches], dtype=np.intp)
        self.reserve(int(lens.max()) + 1)
        slots = np.arange(self._n_slots)
        self._k[slots, layer, lens] = keys
        self._v[slots, layer, lens] = values
        for cache, n in zip(caches, lens):
            cache._set_len(layer, int(n) + 1)

    def stacked_kv(self, layer: int, n_tokens: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(n_slots, n_tokens, heads, head_dim)`` K/V views.

        ``n_tokens`` is normally the batch's longest session; slots
        shorter than that expose zero-filled (or stale-but-finite)
        padding rows that the masked batched attention ignores.
        """
        if not 0 <= layer < self._n_layers:
            raise ConfigError(f"layer {layer} out of range")
        if not 0 <= n_tokens <= self.capacity:
            raise ConfigError(
                f"{n_tokens} tokens outside the block's capacity {self.capacity}"
            )
        return self._k[:, layer, :n_tokens], self._v[:, layer, :n_tokens]
