"""Attention kernels in numpy.

Keys/values/weights are float32 values (cached keys/values arrive widened to
float64, which the kernels read in place); dot products, softmax sums and
weighted value sums accumulate in float64: one ``np.matvec``/``np.vecmat``
product per head in ``attend_single`` (bit-equal to the batched ``@`` form
with numpy 2.4.6 / OpenBLAS 0.3.31 on x86-64), batched ``@`` products in
``attend_causal``.  Softmax is computed with the usual max-shift for stability.
"""

import functools

import numpy as np


def backend_name() -> str:
    return "numpy"


@functools.lru_cache(maxsize=256)
def _causal_masks(T: int) -> np.ndarray:
    """Read-only (2, T, T): the positions j <= t a causal row sees, and j > t."""
    masks = np.stack((np.tri(T, dtype=bool), ~np.tri(T, dtype=bool)))
    masks.flags.writeable = False
    return masks


def attend_single(keys, values, query, inv_sqrt_dh, rows=None):
    """Single-query attention over a cached context.

    keys/values: (H, n, d_h) and query: (H, d_h), float32 values (a float64
    array is not copied).  Returns (out (H, d_h) float32, rows), the weights
    written into ``rows``: an (H, n) float32 buffer the caller owns, or new.
    """
    # One (H, n) float64 block, reused in place for logits, weights and widened rows.
    p = np.matvec(np.asarray(keys, np.float64), np.asarray(query, np.float64))
    p *= inv_sqrt_dh
    p -= np.maximum.reduce(p, axis=1, keepdims=True)
    np.exp(p, out=p)
    if rows is None:
        rows = np.empty(p.shape, np.float32)
    np.divide(p, np.add.reduce(p, axis=1, keepdims=True), out=rows, casting="same_kind")
    np.copyto(p, rows)
    return np.vecmat(p, np.asarray(values, np.float64)).astype(np.float32), rows


def attend_causal(queries, keys, values, inv_sqrt_dh):
    """Causal attention of T positions over themselves (prefill).

    queries/keys/values: (H, T, d_h), float32 values (a float64 array is not
    copied).  Returns (out (H, T, d_h) float32, rows (H, T, T) float32) with
    rows[h, i, j] = 0 for j > i: the max and exp run over visible positions
    only, so no -inf reaches ``np.exp``, whose SIMD loop is slow on it.
    """
    q64 = np.asarray(queries, np.float64)
    k64 = np.asarray(keys, np.float64)
    # One (H, T, T) float64 block, reused in place, for a batch folded into H.
    p = q64 @ k64.transpose(0, 2, 1)
    p *= inv_sqrt_dh
    past, future = _causal_masks(p.shape[2])
    p -= np.maximum.reduce(p, axis=2, keepdims=True, initial=-np.inf, where=past)
    np.exp(p, out=p, where=past)
    np.copyto(p, 0.0, where=future)  # the +0.0 that exp(-inf) gives
    p /= np.add.reduce(p, axis=2, keepdims=True)
    rows = p.astype(np.float32)
    np.copyto(p, rows)
    out64 = p @ np.asarray(values, np.float64)
    return out64.astype(np.float32), rows
