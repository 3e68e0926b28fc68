"""Independent straight-line oracles used by the test suite.

Most helpers recompute from first principles in float64 with no caching and
no shared code with the package's hot paths, so tests can compare the two
implementations against each other.  Four groups differ:

* ``init_model`` builds the seeded random-weight ``Model`` that most tests
  run on, from the writable arrays of ``init_weights``, which a test edits
  before it makes a ``Model`` (whose arrays are read-only); the package
  itself builds only the hazard model.
* ``ref_prefill``, ``ref_forward_decode`` and ``ref_deliberate`` are the
  package's own float32 forward passes, run one agent at a time on the
  package kernels: the bit-exact oracle for the lock-step batch.
* ``ref_snapshot`` and ``ref_naive_full_fusion`` copy or fully fuse whole
  caches for tests, and ``sent_as`` narrows a payload to float16.
* ``ref_trace_entropy`` and ``ref_emit`` are a one-step-at-a-time entropy
  loop and the package's per-value CSV writer: the bit- and byte-exact
  oracles for ``trace_entropy`` and ``emit``.  ``ref_analyze`` is ``laco
  analyze`` one record at a time on them: the byte-exact oracle for the
  block-at-a-time command.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from laco import kernels
from laco.fusion import FusedContext, collaborative_decode
from laco.model import FOREIGN_LATENT, FOREIGN_PREFILL, KVCache, LayerWeights, Model
from laco.telemetry import DEFAULT_EPSILON, TraceRecord
from laco.wire import DTYPE_F32, Payload


def sinusoidal_table(n: int, d: int) -> np.ndarray:
    """Fixed additive positional encoding, shape (n, d) float32."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / d)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(np.float32)


def init_model(config, seed: int) -> Model:
    """The seeded random model of :func:`init_weights`."""
    return Model(config, *init_weights(config, seed))


def init_weights(config, seed: int):
    """Seeded random weights ``(w_in, w_out, pos, layers)``, writable: every weight
    matrix uniform(-1/sqrt(d), 1/sqrt(d)), a sinusoidal positional table.

    Draws come from a PCG64 stream in a fixed order: w_in, w_out, then per
    layer w_q, w_k, w_v, w_o, w_mlp1, w_mlp2.  Identical (config, seed) gives
    bit-identical weights.
    """
    d = config.model_dim
    rng = np.random.Generator(np.random.PCG64(seed))
    bound = 1.0 / float(np.sqrt(d))

    def draw(shape):
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)

    w_in = draw((config.vocab_size, d))
    w_out = draw((d, config.vocab_size))
    d_ff = 2 * d
    layers = []
    for _ in range(config.num_layers):
        layers.append(
            LayerWeights(
                w_qkv=np.concatenate([draw((d, d)), draw((d, d)), draw((d, d))], axis=1),
                w_o=draw((d, d)),
                w_mlp1=draw((d, d_ff)),
                w_mlp2=draw((d_ff, d)),
            )
        )
    return w_in, w_out, sinusoidal_table(config.max_context, d), layers


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


class RefCache:
    """One agent's own (L, H, capacity, d_h) keys/values, prefill length and length."""

    def __init__(self, config):
        shape = (config.num_layers, config.num_heads, config.max_context, config.head_dim)
        self.k = np.zeros(shape, dtype=np.float32)
        self.v = np.zeros(shape, dtype=np.float32)
        self.prefill_len = self.length = 0


def _ref_mlp(x, lw):
    hidden = x @ lw.w_mlp1
    np.maximum(hidden, 0.0, out=hidden)
    return hidden @ lw.w_mlp2


def ref_prefill(model, tokens):
    """Per-agent prefill of one (T,) sequence: (hidden (d,), RefCache)."""
    cfg = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    T = tokens.shape[0]
    H, dh, d = cfg.num_heads, cfg.head_dim, cfg.model_dim
    cache = RefCache(cfg)
    x = model.w_in[tokens] + model.pos[:T]
    for l, lw in enumerate(model.layers):
        q = np.ascontiguousarray((x @ lw.w_q).reshape(T, H, dh).transpose(1, 0, 2))
        k = np.ascontiguousarray((x @ lw.w_k).reshape(T, H, dh).transpose(1, 0, 2))
        v = np.ascontiguousarray((x @ lw.w_v).reshape(T, H, dh).transpose(1, 0, 2))
        cache.k[l, :, :T, :] = k
        cache.v[l, :, :T, :] = v
        out, _ = kernels.attend_causal(q, k, v, model.inv_sqrt_head_dim)
        x = x + out.transpose(1, 0, 2).reshape(T, d) @ lw.w_o
        x = x + _ref_mlp(x, lw)
    cache.prefill_len = cache.length = T
    return x[-1].copy(), cache


def ref_forward_decode(model, input_vec, cache, payloads=()):
    """Per-agent decode of one (d,) input: (hidden (d,), rows per layer (H, n_l)).

    Each layer l attends over the agent's cache followed by ``keys[l]`` and
    ``values[l]`` of every payload with l < ``l_comm``, in the order given.
    """
    cfg = model.config
    H, dh, d = cfg.num_heads, cfg.head_dim, cfg.model_dim
    n = cache.length
    x = np.asarray(input_vec, dtype=np.float32) + model.pos[n]
    rows_per_layer = []
    for l, lw in enumerate(model.layers):
        q = (x @ lw.w_q).reshape(H, dh)
        cache.k[l, :, n, :] = (x @ lw.w_k).reshape(H, dh)
        cache.v[l, :, n, :] = (x @ lw.w_v).reshape(H, dh)
        fused = [p for p in payloads if l < p.l_comm]
        ctx_k = np.concatenate([cache.k[l, :, : n + 1, :]] + [p.keys[l] for p in fused], axis=1)
        ctx_v = np.concatenate([cache.v[l, :, : n + 1, :]] + [p.values[l] for p in fused], axis=1)
        out, rows = kernels.attend_single(ctx_k, ctx_v, q, model.inv_sqrt_head_dim)
        rows_per_layer.append(rows)
        x = x + out.reshape(d) @ lw.w_o
        x = x + _ref_mlp(x, lw)
    cache.length = n + 1
    return x, rows_per_layer


def ref_deliberate(model, w_a, h0, cache, m):
    """Per-agent latent loop: (final hidden, (m, L, H, n0 + m) trace, lengths)."""
    cfg = model.config
    n0 = cache.length
    array = np.zeros((m, cfg.num_layers, cfg.num_heads, n0 + m), dtype=np.float32)
    lengths = np.zeros(m, dtype=np.int64)
    h = np.asarray(h0, dtype=np.float32)
    for t in range(m):
        h, rows_per_layer = ref_forward_decode(model, h @ w_a, cache)
        for l, rows in enumerate(rows_per_layer):
            array[t, l, :, : rows.shape[1]] = rows
        lengths[t] = rows_per_layer[0].shape[1]
    return h, array, lengths


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


def ref_trace_entropy(trace, epsilon=DEFAULT_EPSILON):
    """Per-layer entropy of each step's ``[:, :, :n]`` block alone, summed in
    step order, divided by the step count."""
    acc = None
    for t in range(trace.num_steps):
        n = int(trace.lengths[t])
        a = trace.array[t, :, :, :n].astype(np.float64)
        L, H = a.shape[:2]
        values = -(a * np.log(a + epsilon)).reshape(L, -1).sum(axis=1) / H
        acc = values if acc is None else acc + values
    return acc / trace.num_steps


def ref_emit(out_dir, entropy_rows, sparsity_rows, confusion_rows):
    """The three diagnostics CSVs, one value at a time: a float (Python or
    numpy) as ``format(x, '.9g')``, anything else as ``str(x)``."""
    def fmt(x):
        return format(float(x), ".9g") if isinstance(x, (float, np.floating)) else str(x)

    files = {
        "entropy.csv": (("tick", "agent", "layer", "entropy"), entropy_rows),
        "sparsity.csv": (("tick", "agent", "rank", "token_fraction", "cumulative_mass",
                          "fraction_for_80"), sparsity_rows),
        "confusion.csv": (("tick", "agent", "layer", "foreign_fraction"), confusion_rows),
    }
    for name, (header, rows) in files.items():
        lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
        (Path(out_dir) / name).write_text("\n".join(lines) + "\n", encoding="ascii")


def ref_sparsity_curve(trace):
    """(cumulative, fraction_for_80) of one (steps, L, H, n) trace: its mean mass
    per position in float64 through ``ref_sparsity``."""
    n = int(trace.lengths.max())
    cum = ref_sparsity(trace.array[:, :, :, :n].astype(np.float64).mean(axis=(0, 1, 2)))
    return cum, min(sum(1 for c in cum if c < 0.8 - 1e-12) + 1, n) / n


def ref_confusion(rows_per_layer, tags_per_layer):
    """Per-layer foreign fraction of one decision's (H, n_l) rows, one layer at a time."""
    out = []
    for rows, tags in zip(rows_per_layer, tags_per_layer):
        r = np.asarray(rows, dtype=np.float64)
        total = r.sum()
        foreign = r[:, np.isin(tags, (FOREIGN_PREFILL, FOREIGN_LATENT))].sum()
        out.append(float(foreign / total) if total > 0 else 0.0)
    return out


def ref_analyze(records, out_dir):
    """The three diagnostics CSVs of ``records`` (trace and decision records in
    stream order), one record at a time: ``ref_trace_entropy``,
    ``ref_sparsity_curve`` and ``ref_confusion``, written by ``ref_emit``."""
    entropy_rows, sparsity_rows, confusion_rows = [], [], []
    for rec in records:
        tick, agent = rec.tick, rec.agent
        if isinstance(rec, TraceRecord):
            entropies = ref_trace_entropy(rec.trace).tolist()
            entropy_rows += [(tick, agent, layer, e) for layer, e in enumerate(entropies, start=1)]
            cum, f80 = ref_sparsity_curve(rec.trace)
            sparsity_rows += [(tick, agent, rank, rank / len(cum), c, f80)
                              for rank, c in enumerate(cum.tolist(), start=1)]
        else:
            fractions = ref_confusion(rec.rows, rec.tags)
            confusion_rows += [(tick, agent, layer, f) for layer, f in enumerate(fractions, start=1)]
    ref_emit(out_dir, entropy_rows, sparsity_rows, confusion_rows)


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
    """Causal block attention written with einsum and a freshly built mask
    over T query rows and T key positions."""
    T = keys.shape[1]
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


def sent_as(p, dtype_flag):
    """``p`` sent with ``dtype_flag``: as it is for float32, else its float32 values
    rounded to float16 (exact widening back; ``distill`` makes float32 only)."""
    if dtype_flag == DTYPE_F32:
        return p
    return replace(p, keys=p.keys.astype(np.float16), values=p.values.astype(np.float16))


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


def ref_snapshot(cache):
    """A copy of one agent's cache, alone in a store of its own."""
    dup = KVCache(cache.config, np.zeros((2, *cache.k.shape)), 0)
    dup.k[...] = cache.k
    dup.v[...] = cache.v
    dup.prefill_len, dup.length = cache.prefill_len, cache.length
    return dup


def ref_naive_full_fusion(model, input_vec, ego, foreign):
    """Full-depth fusion baseline: every layer attends over [ego || all of foreign].

    A batch of one: ``input_vec`` is (1, d) and ``ego`` one cache; all of
    ``foreign``'s prefill and latent positions are sent unpruned as one
    payload over a float32 copy of the whole cache (exact: the store holds
    float32 values).
    """
    n, prefill_len = foreign.length, foreign.prefill_len
    payload = Payload(
        sender_id=0, frame_id=0, source_indices=tuple(range(prefill_len)),
        keys=foreign.k[:, :, :n].astype(np.float32), values=foreign.v[:, :, :n].astype(np.float32),
    )
    return collaborative_decode(model, input_vec, FusedContext([ego], [[payload]]))
