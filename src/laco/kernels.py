"""Attention kernels in numpy.

Keys/values/weights are stored in float32; dot products, softmax sums and
weighted value sums accumulate in float64.  Softmax is computed with the
usual max-shift for stability.
"""

import numpy as np


def backend_name() -> str:
    return "numpy"


def attend_single(keys, values, query, inv_sqrt_dh):
    """Single-query attention over a cached context.

    keys/values: (H, n, d_h) float32, query: (H, d_h) float32.
    Returns (out (H, d_h) float32, rows (H, n) float32).
    """
    k64 = keys.astype(np.float64)
    q64 = query.astype(np.float64)
    logits = np.einsum("hd,hjd->hj", q64, k64) * inv_sqrt_dh
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    p = e / e.sum(axis=1, keepdims=True)
    rows = p.astype(np.float32)
    out64 = np.einsum("hj,hjd->hd", rows.astype(np.float64), values.astype(np.float64))
    return out64.astype(np.float32), rows


def attend_causal(queries, keys, values, inv_sqrt_dh):
    """Causal self-attention over a full block (prefill).

    queries/keys/values: (H, T, d_h) float32.
    Returns (out (H, T, d_h) float32, rows (H, T, T) float32) with
    rows[h, t, j] = 0 for j > t.
    """
    H, T, _ = queries.shape
    q64 = queries.astype(np.float64)
    k64 = keys.astype(np.float64)
    logits = np.einsum("htd,hjd->htj", q64, k64) * inv_sqrt_dh
    mask = np.triu(np.ones((T, T), dtype=bool), k=1)
    logits[:, mask] = -np.inf
    logits -= logits.max(axis=2, keepdims=True)
    e = np.exp(logits)
    p = e / e.sum(axis=2, keepdims=True)
    rows = p.astype(np.float32)
    out64 = np.einsum("htj,hjd->htd", rows.astype(np.float64), values.astype(np.float64))
    return out64.astype(np.float32), rows
