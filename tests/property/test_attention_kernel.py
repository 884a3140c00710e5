"""Property tests: the BLAS attention kernel against the einsum oracle.

``scaled_dot_product_attention`` (head-major GEMMs, band-only causal
mask, in-place float32 softmax) must match
``naive_scaled_dot_product_attention`` — the original einsum contraction
with a full ``(heads, n_q, n_k)`` mask — for arbitrary shapes and
offsets, including GQA inputs and keys that run past the query block,
and a prefill split into chunks must reproduce the one-shot rows.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.models.attention import repeat_kv, scaled_dot_product_attention
from repro.models.reference import naive_scaled_dot_product_attention

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ATOL = 1e-5

heads = st.integers(1, 6)
head_dims = st.sampled_from([2, 4, 8, 16, 32])
seeds = st.integers(0, 2**31 - 1)


def _qkv(seed, n_q, n_k, n_heads, head_dim, n_kv_heads=None):
    rng = np.random.default_rng(seed)
    n_kv_heads = n_heads if n_kv_heads is None else n_kv_heads
    q = rng.normal(size=(n_q, n_heads, head_dim)).astype(np.float32)
    k = rng.normal(size=(n_k, n_kv_heads, head_dim)).astype(np.float32)
    v = rng.normal(size=(n_k, n_kv_heads, head_dim)).astype(np.float32)
    return q, k, v


def _assert_matches_oracle(q, k, v, query_offset):
    out = scaled_dot_product_attention(q, k, v, query_offset)
    expected = naive_scaled_dot_product_attention(q, k, v, query_offset)
    assert out.dtype == np.float32
    assert out.shape == q.shape
    np.testing.assert_allclose(out, expected, rtol=0, atol=ATOL)


@SETTINGS
@given(
    n_q=st.integers(1, 48),
    history=st.integers(0, 160),
    n_heads=heads,
    head_dim=head_dims,
    seed=seeds,
)
def test_block_at_end_of_history_matches_oracle(n_q, history, n_heads, head_dim, seed):
    """The prefill/decode shape: the block's keys end the history."""
    n_k = history + n_q
    q, k, v = _qkv(seed, n_q, n_k, n_heads, head_dim)
    _assert_matches_oracle(q, k, v, query_offset=n_k - n_q)


@SETTINGS
@given(
    n_q=st.integers(1, 32),
    history=st.integers(0, 96),
    overhang=st.integers(1, 40),
    n_heads=heads,
    head_dim=head_dims,
    seed=seeds,
)
def test_keys_past_the_block_are_masked(n_q, history, overhang, n_heads, head_dim, seed):
    """Keys beyond the block's last position are invisible to every query."""
    n_k = history + n_q + overhang
    q, k, v = _qkv(seed, n_q, n_k, n_heads, head_dim)
    _assert_matches_oracle(q, k, v, query_offset=history)


@SETTINGS
@given(
    n_q=st.integers(1, 32),
    history=st.integers(0, 96),
    n_kv_heads=st.integers(1, 3),
    n_rep=st.integers(2, 4),
    head_dim=head_dims,
    seed=seeds,
)
def test_gqa_expanded_inputs_match_oracle(n_q, history, n_kv_heads, n_rep, head_dim, seed):
    n_k = history + n_q
    q, k, v = _qkv(seed, n_q, n_k, n_kv_heads * n_rep, head_dim, n_kv_heads)
    _assert_matches_oracle(q, repeat_kv(k, n_rep), repeat_kv(v, n_rep), n_k - n_q)


@SETTINGS
@given(
    n_tokens=st.integers(4, 96),
    cuts=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
    n_heads=heads,
    head_dim=head_dims,
    seed=seeds,
)
def test_chunked_prefill_matches_one_shot(n_tokens, cuts, n_heads, head_dim, seed):
    """Prefilling in 2-4 chunks, each attending over the keys so far,
    gives the rows of a one-shot prefill."""
    q, k, v = _qkv(seed, n_tokens, n_tokens, n_heads, head_dim)
    one_shot = scaled_dot_product_attention(q, k, v, query_offset=0)
    bounds = sorted({0, n_tokens, *(max(1, int(c * n_tokens)) for c in cuts)})
    for start, end in zip(bounds, bounds[1:]):
        chunk = scaled_dot_product_attention(q[start:end], k[:end], v[:end], start)
        np.testing.assert_allclose(chunk, one_shot[start:end], rtol=0, atol=ATOL)
