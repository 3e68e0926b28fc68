"""Independent straight-line oracles used by the test suite.

Everything here recomputes from first principles in float64 with no caching
and no shared code with the package's hot paths, so tests can compare the two
implementations against each other.
"""

import numpy as np


def ref_forward_block(model, xs):
    """Cache-free causal forward over layer-0 inputs ``xs`` (list of (d,)).

    Recomputes all positions from scratch each call; returns the (T, d)
    float64 matrix of final-layer states.
    """
    X = np.array(xs, dtype=np.float64)
    T = X.shape[0]
    H, dh = model.config.num_heads, model.config.head_dim
    for lw in model.layers:
        Q = X @ lw.w_q.astype(np.float64)
        K = X @ lw.w_k.astype(np.float64)
        V = X @ lw.w_v.astype(np.float64)
        out = np.zeros_like(X)
        for h in range(H):
            qh = Q[:, h * dh : (h + 1) * dh]
            kh = K[:, h * dh : (h + 1) * dh]
            vh = V[:, h * dh : (h + 1) * dh]
            logits = qh @ kh.T / np.sqrt(dh)
            for t in range(T):
                row = logits[t, : t + 1]
                row = np.exp(row - row.max())
                row /= row.sum()
                out[t, h * dh : (h + 1) * dh] = row @ vh[: t + 1]
        X = X + out @ lw.w_o.astype(np.float64)
        X = X + np.maximum(X @ lw.w_mlp1.astype(np.float64), 0.0) @ lw.w_mlp2.astype(np.float64)
    return X


def ref_prefill_hidden(model, tokens):
    """Final-layer state of the last prefill position, float64."""
    xs = [
        model.w_in[t].astype(np.float64) + model.pos[i].astype(np.float64)
        for i, t in enumerate(tokens)
    ]
    return ref_forward_block(model, xs)[-1]


def ref_decode_hiddens(model, tokens, extra_inputs):
    """Hidden states after feeding each extra input as one decode step.

    Each decode is simulated by appending the (position-encoded) input and
    recomputing the whole causal block, which is equivalent to cached
    incremental decoding.
    """
    xs = [
        model.w_in[t].astype(np.float64) + model.pos[i].astype(np.float64)
        for i, t in enumerate(tokens)
    ]
    hiddens = []
    for vec in extra_inputs:
        xs.append(np.asarray(vec, dtype=np.float64) + model.pos[len(xs)].astype(np.float64))
        hiddens.append(ref_forward_block(model, xs)[-1])
    return hiddens


def ref_deliberate_hidden(model, tokens, w_a, m):
    """Unrolled latent loop: h -> h @ W_a fed back m times, float64."""
    xs = [
        model.w_in[t].astype(np.float64) + model.pos[i].astype(np.float64)
        for i, t in enumerate(tokens)
    ]
    h = ref_forward_block(model, xs)[-1]
    wa = np.asarray(w_a, dtype=np.float64)
    for _ in range(m):
        e_hat = h @ wa
        xs.append(e_hat + model.pos[len(xs)].astype(np.float64))
        h = ref_forward_block(model, xs)[-1]
    return h


def ref_saliency(trace_array, lengths, prefill_len):
    """Quadruple-loop saliency: mean over steps of max over (layer, head)."""
    steps, L, H, _ = trace_array.shape
    scores = np.zeros(prefill_len, dtype=np.float64)
    for j in range(prefill_len):
        total = 0.0
        for t in range(steps):
            best = 0.0
            for l in range(L):
                for h in range(H):
                    a = float(trace_array[t, l, h, j])
                    if a > best:
                        best = a
            total += best
        scores[j] = total / steps
    return scores


def ref_topk(scores, k):
    """Sort-based selection: largest scores, ties to lower index, ascending."""
    ranked = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return sorted(ranked[:k])


def ref_layer_entropy(rows, epsilon):
    """Straight-line sum over heads and positions, float64."""
    H = len(rows)
    total = 0.0
    for h in range(H):
        for a in rows[h]:
            a = float(a)
            total += a * np.log(a + epsilon)
    return -total / H


def ref_sparsity(mass):
    """Sort-descending, prefix-sum, normalized cumulative curve."""
    order = sorted(range(len(mass)), key=lambda j: (-mass[j], j))
    cum = np.cumsum([mass[j] for j in order])
    return cum / cum[-1]


def ref_matmul_row(vec, mat):
    """Naive triple-loop (here: row) matrix multiply, float64."""
    n, m = mat.shape
    out = np.zeros(m, dtype=np.float64)
    for j in range(m):
        acc = 0.0
        for i in range(n):
            acc += float(vec[i]) * float(mat[i, j])
        out[j] = acc
    return out


def ref_attend_single(keys, values, query, inv_sqrt_dh):
    """Single-query attention written with einsum, float64 accumulation."""
    k64 = keys.astype(np.float64)
    q64 = query.astype(np.float64)
    logits = np.einsum("hd,hjd->hj", q64, k64) * inv_sqrt_dh
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    p = e / e.sum(axis=1, keepdims=True)
    rows = p.astype(np.float32)
    out64 = np.einsum("hj,hjd->hd", rows.astype(np.float64), values.astype(np.float64))
    return out64.astype(np.float32), rows


def ref_attend_causal(queries, keys, values, inv_sqrt_dh):
    """Causal block attention written with einsum and a freshly built mask."""
    T = queries.shape[1]
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


def ref_chsa_payload(k, v, length, prefill_len, indices, l_comm, np_dtype):
    """Slice, assemble, truncate: the payload keys/values cut in three copies.

    ``k``/``v`` are a cache's (L, H, capacity, d_h) arrays holding ``length``
    positions.  The prefill run and the latent run are copied out at full
    depth, the selected prefill positions are concatenated with the whole
    latent run, and the first ``l_comm`` layers of that are cast to
    ``np_dtype``.
    """
    sel = np.asarray(list(indices), dtype=np.int64)
    out = []
    for arr in (k, v):
        prefill_run = arr[:, :, :prefill_len, :].copy()
        latent_run = arr[:, :, prefill_len:length, :].copy()
        assembled = np.concatenate([prefill_run[:, :, sel, :], latent_run], axis=2)
        out.append(np.ascontiguousarray(assembled[:l_comm].astype(np_dtype)))
    return tuple(out)


def ref_segment_hits_box(p0, p1, lo_r, lo_c):
    """Scalar slab test: does the segment p0->p1 touch the closed unit cell?"""
    t0, t1 = 0.0, 1.0
    for axis, lo in ((0, float(lo_r)), (1, float(lo_c))):
        d = p1[axis] - p0[axis]
        if abs(d) < 1e-12:
            if p0[axis] < lo or p0[axis] > lo + 1.0:
                return False
        else:
            a = (lo - p0[axis]) / d
            b = (lo + 1.0 - p0[axis]) / d
            if a > b:
                a, b = b, a
            t0 = max(t0, a)
            t1 = min(t1, b)
            if t0 > t1:
                return False
    return True


def ref_visible(grid, frm, to):
    """Line of sight between two cell centers; endpoint cells never block."""
    if frm == to:
        return True
    p0 = (frm[0] + 0.5, frm[1] + 0.5)
    p1 = (to[0] + 0.5, to[1] + 0.5)
    for r, row in enumerate(grid):
        for c, ch in enumerate(row):
            if ch != "#" or (r, c) in (frm, to):
                continue
            if ref_segment_hits_box(p0, p1, r, c):
                return False
    return True
