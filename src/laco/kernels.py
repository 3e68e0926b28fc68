"""Attention kernels in numpy.

Keys/values/weights are float32 values (cached keys/values arrive widened to
float64, which the single-query kernel reads in place); dot products, softmax
sums and weighted value sums accumulate in float64, as batched float64 matmuls
over heads.  Softmax is computed with the usual max-shift for stability.
"""

import functools

import numpy as np


def backend_name() -> str:
    return "numpy"


@functools.lru_cache(maxsize=256)
def _future_mask(T: int) -> np.ndarray:
    """Read-only (T, T) mask of the positions j > t a causal row must not see."""
    mask = np.triu(np.ones((T, T), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def attend_single(keys, values, query, inv_sqrt_dh):
    """Single-query attention over a cached context.

    keys/values: (H, n, d_h) float32 values (a float64 array is not copied),
    query: (H, d_h) float32.  Returns (out (H, d_h) float32, rows (H, n) float32).
    """
    # One (H, n) float64 block, reused in place for logits, weights and widened rows.
    p = (np.asarray(keys, np.float64) @ np.asarray(query, np.float64)[:, :, None])[:, :, 0]
    p *= inv_sqrt_dh
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    rows = p.astype(np.float32)
    np.copyto(p, rows)
    out64 = (p[:, None, :] @ np.asarray(values, np.float64))[:, 0, :]
    return out64.astype(np.float32), rows


def attend_causal(queries, keys, values, inv_sqrt_dh):
    """Causal self-attention over a full block (prefill).

    queries/keys/values: (H, T, d_h) float32 values (a float64 array is not
    copied).  Returns (out (H, T, d_h) float32, rows (H, T, T) float32) with
    rows[h, t, j] = 0 for j > t.
    """
    q64 = np.asarray(queries, np.float64)
    k64 = np.asarray(keys, np.float64)
    # One (H, T, T) float64 block, reused in place, for a batch folded into H.
    p = q64 @ k64.transpose(0, 2, 1)
    p *= inv_sqrt_dh
    np.copyto(p, -np.inf, where=_future_mask(queries.shape[1]))
    p -= p.max(axis=2, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=2, keepdims=True)
    rows = p.astype(np.float32)
    np.copyto(p, rows)
    out64 = p @ np.asarray(values, np.float64)
    return out64.astype(np.float32), rows
