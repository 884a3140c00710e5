"""Multi-head attention with KV-cache semantics.

Implements the attention equations of §2.1: per-token Q/K/V projections,
softmaxed scaled dot-product over all cached positions, weighted average of
values, and the output projection.  Supports GQA by repeating KV heads,
which the paper lists as an extension (§7); all paper experiments use MHA.

Both kernels are head-major BLAS: the token-major ``(n, heads, head_dim)``
cache layout is read through transposed views, so per-head score and value
products are batched ``np.matmul`` calls whose strides map straight onto
BLAS leading dimensions — no transposition copies, no ``np.einsum`` loops.
Masks touch only what some query cannot see (the causal band of a prefill
block, the padded tail of a batched decode row), and the softmax runs in
place on the one float32 scores buffer.  This matters beyond speed: the
per-layer prefill cost is the recomputation baseline's ``C_token`` (§4.1.2),
so it should measure the model's arithmetic, not an unblocked contraction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.models.config import ModelConfig


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """Reshape ``(n, heads * head_dim)`` to ``(n, heads, head_dim)``."""
    n, width = x.shape
    if width % n_heads != 0:
        raise ConfigError(f"width {width} not divisible by {n_heads} heads")
    return x.reshape(n, n_heads, width // n_heads)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`."""
    n, heads, head_dim = x.shape
    return x.reshape(n, heads * head_dim)


def repeat_kv(x: np.ndarray, n_rep: int, axis: int = 1) -> np.ndarray:
    """Repeat KV heads for grouped-query attention.

    ``axis`` is the head axis: 1 for the per-session ``(n, heads,
    head_dim)`` layout, 2 for the batched ``(B, n, heads, head_dim)``
    stacked layout.
    """
    if n_rep == 1:
        return x
    return np.repeat(x, n_rep, axis=axis)


def scaled_dot_product_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    query_offset: int,
) -> np.ndarray:
    """Causal attention over cached keys/values, as head-major BLAS GEMMs.

    One kernel serves every caller — a prefill block, a chunked-prefill
    segment, a recompute restore and a single-token decode step:

    - scores come from one batched ``np.matmul`` over head-major
      *transposed views* of the token-major inputs (strided batch slices
      map onto BLAS leading dimensions, so nothing is transposed by
      copy) into a single ``(heads, n_q, n_k)`` float32 buffer;
    - only the causal band is masked: keys before ``query_offset`` are
      visible to every query, so just columns ``[query_offset, n_k)``
      get the ``triu(k=1)`` pattern (pinned to ``-1e30``, whose softmax
      weight underflows to an exact ``0.0``);
    - the softmax runs in place on that buffer (max, subtract, exp,
      sum, divide), and the value GEMM writes straight into the
      token-major output through a transposed ``out=`` view.

    A decode step (``n_q == 1`` at ``query_offset == n_k - 1``) has an
    empty band and takes exactly the same code path.

    Args:
        queries: ``(n_q, n_heads, head_dim)`` for the new tokens.
        keys: ``(n_k, n_heads, head_dim)`` — full history including the new
            tokens' own keys.
        values: Same shape as ``keys``.
        query_offset: Absolute position of the first query token; query
            ``i`` may attend to key positions ``<= query_offset + i``.

    Returns:
        ``(n_q, n_heads, head_dim)`` float32 attention output.
    """
    n_q, n_heads, head_dim = queries.shape
    n_k = keys.shape[0]
    if keys.shape != values.shape:
        raise ConfigError("keys and values must share a shape")
    if keys.shape[1] != n_heads:
        raise ConfigError(f"key heads {keys.shape[1]} mismatch query heads {n_heads}")
    if query_offset < 0:
        raise ConfigError(f"query_offset must be non-negative, got {query_offset}")
    scale = 1.0 / np.sqrt(head_dim)
    scores = np.empty((n_heads, n_q, n_k), dtype=np.float32)
    np.matmul(queries.transpose(1, 0, 2), keys.transpose(1, 2, 0), out=scores)
    scores *= scale
    band = n_k - query_offset
    if band > 1:
        # Query i sees band column j only when j <= i; keys left of the
        # band are visible to every query and need no mask at all.
        future = np.triu(np.ones((n_q, band), dtype=bool), k=1)
        np.copyto(scores[:, :, query_offset:], np.float32(-1e30), where=future)
    peak = np.max(scores, axis=-1, keepdims=True)
    np.subtract(scores, peak, out=scores)
    np.exp(scores, out=scores)
    np.sum(scores, axis=-1, keepdims=True, out=peak)
    np.divide(scores, peak, out=scores)
    out = np.empty((n_q, n_heads, head_dim), dtype=np.float32)
    np.matmul(scores, values.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
    return out


def batched_decode_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Single-token causal attention for a batch of sessions at once.

    The multi-session generalization of the single-token (decode) case of
    :func:`scaled_dot_product_attention`: every session contributes one
    query token that may attend to its whole cached history, so no
    causal mask is needed — only a *length* mask, because the sessions
    sit at different positions and share one padded key/value stack.

    Args:
        queries: ``(B, n_heads, head_dim)`` — one decode token per session.
        keys: ``(B, max_len, n_heads, head_dim)`` stacked histories
            (GQA already repeated), where ``max_len >= lengths.max()``.
            Rows at or beyond a session's length are padding; they must
            be finite (the stacked block zero-fills) but their values
            are irrelevant.
        values: Same shape as ``keys``.
        lengths: ``(B,)`` valid key counts per session, each ``>= 1``
            (the decode token's own key is already appended).

    Returns:
        ``(B, n_heads, head_dim)`` attention output.  Row ``b`` is
        computed with the same shapes and reduction order as the
        per-session fast path up to the padded tail, whose scores are
        masked to ``-1e30`` (their softmax terms underflow to exactly
        ``0.0``, and summing extra zeros can differ from the unpadded
        reduction only in the last ulp — see the batched-decode
        equivalence note in :mod:`repro.models.transformer`).
    """
    if queries.ndim != 3:
        raise ConfigError(f"queries must be (B, heads, head_dim), got {queries.shape}")
    n_batch, n_heads, head_dim = queries.shape
    if keys.shape != values.shape:
        raise ConfigError("keys and values must share a shape")
    if keys.ndim != 4 or keys.shape[0] != n_batch or keys.shape[2:] != (n_heads, head_dim):
        raise ConfigError(
            f"keys must be ({n_batch}, max_len, {n_heads}, {head_dim}), got {keys.shape}"
        )
    lengths = np.asarray(lengths)
    max_len = keys.shape[1]
    if lengths.shape != (n_batch,) or lengths.min() < 1 or lengths.max() > max_len:
        raise ConfigError(
            f"lengths must be (B,) in [1, {max_len}], got {lengths!r}"
        )
    scale = np.float32(1.0 / np.sqrt(head_dim))
    # (B, heads, max_len, head_dim) @ (B, heads, head_dim, 1): per-session,
    # per-head matvecs over the token-major stacked views, no copies.
    # Every elementwise stage below runs in place on the scores buffer —
    # same operations in the same order as the per-session kernel, so
    # each row's arithmetic is unchanged; only the temporaries disappear.
    scores4 = np.empty((n_batch, n_heads, max_len, 1), dtype=np.float32)
    np.matmul(keys.transpose(0, 2, 1, 3), queries[:, :, :, None], out=scores4)
    scores = scores4[..., 0]
    scores *= scale  # (B, heads, max_len)
    if int(lengths.min()) < max_len:
        # Length mask: sessions shorter than the longest one get their
        # padded tail pinned to -1e30 (softmax weight underflows to an
        # exact 0.0), equivalent to the all-valid case with no padding.
        for b in range(n_batch):
            n_valid = int(lengths[b])
            if n_valid < max_len:
                scores[b, :, n_valid:] = np.float32(-1e30)
    peak = np.max(scores, axis=-1, keepdims=True)
    np.subtract(scores, peak, out=scores)
    np.exp(scores, out=scores)
    np.sum(scores, axis=-1, keepdims=True, out=peak)
    np.divide(scores, peak, out=scores)
    out = np.empty((n_batch, n_heads, 1, head_dim), dtype=np.float32)
    np.matmul(scores[:, :, None, :], values.transpose(0, 2, 1, 3), out=out)
    return out[:, :, 0, :]


def attention_module(
    hidden_norm: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    config: ModelConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project normalized hidden states into per-head Q, K, V.

    Returns Q of shape ``(n, n_heads, head_dim)`` and K/V of shape
    ``(n, n_kv_heads, head_dim)`` — RoPE is applied by the caller because
    it needs absolute positions (the detail HCache's restoration kernel
    must replay, §5).
    """
    q = split_heads(hidden_norm @ wq, config.n_heads)
    k = split_heads(hidden_norm @ wk, config.n_kv_heads)
    v = split_heads(hidden_norm @ wv, config.n_kv_heads)
    return q, k, v
