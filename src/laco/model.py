"""Minimal deterministic transformer with an exposed, appendable KV cache.

The model is a plain pre-activation residual decoder: per layer, multi-head
self-attention (keys/values cached per layer and head) followed by a ReLU MLP,
no normalization, no biases.  The sinusoidal positional encoding is added to
the layer-0 input at write time, so every stored key/value is
position-complete and meaningful to any reader; foreign cache entries are
consumed as-is with no re-encoding.

Numeric conventions: weights, activations and cached keys/values are float32
values (the cache stores keys/values widened to float64 when written);
attention logits, softmax sums and weighted value sums accumulate in float64
inside the kernels (see :mod:`laco.kernels`).
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, ContextOverflowError

# Cache position origin tags.
EGO_PREFILL = 0
EGO_LATENT = 1
FOREIGN_PREFILL = 2
FOREIGN_LATENT = 3

# Reserved vocabulary for the driving harness.  Ids 0..4 are the action logit
# slots; the rest are observation tokens.  Hazard and ego-marker tokens are
# lane-tagged (the hazard circuit is lane-indexed, see make_hazard_model).
TOKEN_BRAKE = 0
TOKEN_KEEP = 1
TOKEN_ACCEL = 2
TOKEN_LEFT = 3
TOKEN_RIGHT = 4
TOKEN_CLEAR = 5
TOKEN_OBSTACLE = 6
TOKEN_GOAL = 7
TOKEN_OCCLUDED = 8
TOKEN_VEHICLE = 9
TOKEN_HAZARD_A = 10
TOKEN_HAZARD_B = 11
TOKEN_EGO_A = 12
TOKEN_EGO_B = 13
ACTION_TOKENS = (TOKEN_BRAKE, TOKEN_KEEP, TOKEN_ACCEL, TOKEN_LEFT, TOKEN_RIGHT)
ACTION_NAMES = ("BRAKE", "KEEP", "ACCEL", "LEFT", "RIGHT")
MIN_HAZARD_VOCAB = 14


@dataclass(frozen=True)
class ModelConfig:
    """Model dimensions plus the seed that fully determines random weights."""

    num_layers: int
    num_heads: int
    model_dim: int
    vocab_size: int
    max_context: int
    seed: int

    def __post_init__(self):
        if min(self.num_layers, self.num_heads, self.model_dim, self.vocab_size, self.max_context) <= 0:
            raise ConfigError("all dimensions must be positive")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.num_layers < 2:
            raise ConfigError("num_layers must be >= 2 (shallow/deep split)")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads


@dataclass
class LayerWeights:
    """One layer's weights; ``w_qkv`` is the (d, 3d) block ``[w_q | w_k | w_v]``.

    ``w_q``/``w_k``/``w_v`` are read-only column views of it, so in-place
    writes land in the one buffer.  A decode layer takes ``x @ w_qkv`` in one
    product: for a (1, d) row, bit-equal to three products for every d <= 48
    with numpy 2.4.6 / OpenBLAS 0.3.31 on x86-64 (not for 49 <= d <= 63).
    """

    w_qkv: np.ndarray
    w_o: np.ndarray
    w_mlp1: np.ndarray
    w_mlp2: np.ndarray
    w_q = property(lambda lw: lw.w_qkv[:, : lw.w_o.shape[0]])
    w_k = property(lambda lw: lw.w_qkv[:, lw.w_o.shape[0] : 2 * lw.w_o.shape[0]])
    w_v = property(lambda lw: lw.w_qkv[:, 2 * lw.w_o.shape[0] :])


@dataclass
class ModelStats:
    """Instrumentation counters: forward passes per agent id, logit projections."""

    forward_passes: Counter = field(default_factory=Counter)
    logit_projections: int = 0


class Model:
    """Weights plus instrumentation; pure data, no hidden state besides caches."""

    def __init__(self, config: ModelConfig, w_in, w_out, pos, layers):
        self.config = config
        self.w_in = w_in
        self.w_out = w_out
        self.pos = pos
        self.layers = layers
        self.stats = ModelStats()
        self._alignment = None  # memoized by laco.ild.compute_alignment
        self.inv_sqrt_head_dim = 1.0 / float(np.sqrt(config.head_dim))


def sinusoidal_table(n: int, d: int) -> np.ndarray:
    """Fixed additive positional encoding, shape (n, d) float32."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / d)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(np.float32)


def init_model(config: ModelConfig) -> Model:
    """Seeded random model: all weight matrices uniform(-1/sqrt(d), 1/sqrt(d)).

    Draws come from a PCG64 stream in a fixed order: w_in, w_out, then per
    layer w_q, w_k, w_v, w_o, w_mlp1, w_mlp2.  Identical (config, seed) gives
    bit-identical weights.
    """
    d = config.model_dim
    rng = np.random.Generator(np.random.PCG64(config.seed))
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
    pos = sinusoidal_table(config.max_context, d)
    return Model(config, w_in, w_out, pos, layers)


# Residual-stream channels used by the handcrafted hazard model.
CH_BASE = 0     # constant 1 in every token embedding; query probe source
CH_HAZ_A = 1    # lane-A hazard evidence (source in embeddings, import target)
CH_HAZ_B = 2    # lane-B hazard evidence
CH_MARK_A = 3   # lane-A ego marker
CH_MARK_B = 4   # lane-B ego marker
CH_DETECT = 5   # lane-gated hazard detection (written by the layer-1 MLP)
CH_DECIDE = 6   # brake decision (written by the last layer's copy head)

_SPOTLIGHT = 30.0   # target attention logit for a matching key
_EVIDENCE = 2.0     # amplitude of imported hazard evidence
_GATE_BIAS = 3.0    # AND-gate threshold, paid out of the constant channel


def make_hazard_model(config: ModelConfig) -> Model:
    """Analytic weights implementing an occluded-hazard braking policy.

    The circuit, end to end (channel indices are residual-stream dimensions):

    * Every token embedding carries a constant 1 on CH_BASE.  HAZARD_A/B
      tokens additionally set CH_HAZ_A/B; EGO_A/B marker tokens set
      CH_MARK_A/B.  The positional table is all zeros so the channels above
      are exact.
    * Layer 1, head 0 ("lane-A spotlight"): queries read CH_BASE, keys read
      CH_HAZ_A scaled so a matching key gets attention logit ~30 (softmax mass
      ~1 on hazard positions), values carry CH_HAZ_A with amplitude 2, and the
      output projection writes the collected mass back to CH_HAZ_A of the
      attending position.  Head 1 is the same circuit for lane B.  A position
      with no hazard in context imports exactly 0 because every non-hazard
      value is exactly 0 on the evidence channel.
    * Layer 1 MLP ("lane gate"): one ReLU unit per lane computes
      relu(evidence + 2*marker - 3), which is ~1 only when the position both
      imported hazard evidence for lane X and carries the lane-X marker in its
      own input embedding; the result is written to CH_DETECT.  Evidence for
      the other lane, or evidence without the marker, stays strictly below the
      threshold.
    * Last layer, head 0 ("decision copy"): queries read CH_BASE, keys read
      CH_DETECT with the same spotlight scale, values pass CH_DETECT, and the
      output projection writes to CH_DECIDE.  Any context position whose
      residual carried CH_DETECT when this layer's keys were written (its own
      freshly appended entry included) flips the decision channel.
    * Output head: KEEP logit = CH_BASE, BRAKE logit = 2 * CH_DECIDE, every
      other vocab column is zero.  With no detection the argmax is KEEP (~1 vs
      0); with detection BRAKE (~2) wins.

    Because detection is gated by the observer's own lane marker while raw
    evidence is not, shallow (layer-1) cache entries are decision-free and
    shareable across agents, whereas last-layer entries of a detecting agent
    encode its brake decision.  All intermediate layers are identity
    (zero-weight) passthroughs.
    """
    cfg = config
    if cfg.head_dim < 4:
        raise ConfigError("hazard construction needs head_dim >= 4")
    if cfg.num_heads < 2:
        raise ConfigError("hazard construction needs at least 2 heads")
    if cfg.vocab_size < MIN_HAZARD_VOCAB:
        raise ConfigError(f"hazard construction needs vocab_size >= {MIN_HAZARD_VOCAB}")

    d = cfg.model_dim
    dh = cfg.head_dim
    d_ff = 2 * d
    key_scale = _SPOTLIGHT * float(np.sqrt(dh))

    w_in = np.zeros((cfg.vocab_size, d), dtype=np.float32)
    w_in[:, CH_BASE] = 1.0
    w_in[TOKEN_HAZARD_A, CH_HAZ_A] = 1.0
    w_in[TOKEN_HAZARD_B, CH_HAZ_B] = 1.0
    w_in[TOKEN_EGO_A, CH_MARK_A] = 1.0
    w_in[TOKEN_EGO_B, CH_MARK_B] = 1.0

    w_out = np.zeros((d, cfg.vocab_size), dtype=np.float32)
    w_out[CH_BASE, TOKEN_KEEP] = 1.0
    w_out[CH_DECIDE, TOKEN_BRAKE] = 2.0

    def zero_layer():
        return LayerWeights(
            w_qkv=np.zeros((d, 3 * d), dtype=np.float32),
            w_o=np.zeros((d, d), dtype=np.float32),
            w_mlp1=np.zeros((d, d_ff), dtype=np.float32),
            w_mlp2=np.zeros((d_ff, d), dtype=np.float32),
        )

    layers = [zero_layer() for _ in range(cfg.num_layers)]

    # Layer 1: per-lane hazard spotlights plus the lane gate.
    first = layers[0]
    for head, ch_evidence in ((0, CH_HAZ_A), (1, CH_HAZ_B)):
        lo = head * dh
        first.w_q[CH_BASE, lo] = 1.0
        first.w_k[ch_evidence, lo] = key_scale
        first.w_v[ch_evidence, lo] = _EVIDENCE
        first.w_o[lo, ch_evidence] = 1.0
    first.w_mlp1[CH_HAZ_A, 0] = 1.0
    first.w_mlp1[CH_MARK_A, 0] = 2.0
    first.w_mlp1[CH_BASE, 0] = -_GATE_BIAS
    first.w_mlp1[CH_HAZ_B, 1] = 1.0
    first.w_mlp1[CH_MARK_B, 1] = 2.0
    first.w_mlp1[CH_BASE, 1] = -_GATE_BIAS
    first.w_mlp2[0, CH_DETECT] = 1.0
    first.w_mlp2[1, CH_DETECT] = 1.0

    # Last layer: decision copy head.
    last = layers[-1]
    last.w_q[CH_BASE, 0] = 1.0
    last.w_k[CH_DETECT, 0] = key_scale
    last.w_v[CH_DETECT, 0] = 1.0
    last.w_o[0, CH_DECIDE] = 1.0

    pos = np.zeros((cfg.max_context, d), dtype=np.float32)
    return Model(cfg, w_in, w_out, pos, layers)


class KVCache:
    """One agent's per-layer, per-head keys/values with origin tags.

    ``k``/``v`` are (L, H, capacity, d_h) views of heads [row·H, (row+1)·H)
    of a (2, L, A·H, capacity, d_h) store shared by a lock-step batch of A
    agents (see :func:`prefill`).  ``length``, ``tags`` and ``agent`` (whose
    forward-pass counter this cache's passes increment) are the agent's own.
    The store is float64 holding float32 values, widened once when written so
    attention reads the context without a copy.

    Positions are append-only: existing entries are never mutated, only new
    ones committed.  Pruning happens by copying selected positions out (see
    :func:`laco.wire.distill`), never in place.
    """

    def __init__(self, config: ModelConfig, agent: int = 0, store=None, row: int = 0):
        L, H, cap, dh = config.num_layers, config.num_heads, config.max_context, config.head_dim
        if store is None:
            store = np.zeros((2, L, H, cap, dh), dtype=np.float64)
        self.config = config
        self.agent = agent
        self.store = store
        self.row = row
        self.k = store[0, :, row * H : (row + 1) * H]
        self.v = store[1, :, row * H : (row + 1) * H]
        self.tags = np.zeros(cap, dtype=np.uint8)
        self.length = 0

    @property
    def capacity(self) -> int:
        return self.k.shape[2]

    def commit(self, tag: int):
        self.tags[self.length] = tag
        self.length += 1


@dataclass(frozen=True)
class AttentionTrace:
    """Recorded attention weights A[step, layer, head, j], zero-padded.

    ``lengths[t]`` is the context size of step t.  Building a trace checks
    every row once: each weight lies in [0, 1 + 1e-6], each row sums to 1
    within 1e-6, and every weight beyond ``lengths[t]`` is exactly 0.
    """

    array: np.ndarray    # (steps, L, H, max_context) float32
    lengths: np.ndarray  # (steps,) int64

    def __post_init__(self):
        a, lengths = self.array, self.lengths
        if a.ndim != 4 or lengths.shape != a.shape[:1] or 0 in a.shape[1:3]:
            raise AssertionError("trace shape must be (steps, L>0, H>0, n) with one length per step")
        if np.any((lengths < 1) | (lengths > a.shape[3])):
            raise AssertionError("trace context length outside [1, n]")
        if a.size and (a.min() < 0.0 or a.max() > 1.0 + 1e-6):
            raise AssertionError("attention weight outside [0, 1]")
        if not np.all(np.abs(a.sum(axis=3, dtype=np.float64) - 1.0) <= 1e-6):
            raise AssertionError("attention row does not sum to 1 within 1e-6")
        beyond = np.arange(a.shape[3]) >= lengths[:, None]
        if np.any((a != 0) & beyond[:, None, None, :]):
            raise AssertionError("attention weight beyond the step's context length")

    @property
    def num_steps(self) -> int:
        return self.array.shape[0]


@dataclass
class PrefillResult:
    hidden: np.ndarray
    cache: KVCache  # a list of A cache views for a batch of A sequences


def _mlp(x: np.ndarray, lw: LayerWeights) -> np.ndarray:
    hidden = x @ lw.w_mlp1
    np.maximum(hidden, 0.0, out=hidden)
    return hidden @ lw.w_mlp2


def rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for (d,) or (A, d) ``x`` as one vector-matrix product per row,
    so a row gives the same bits batched or alone (a matrix product may not)."""
    return (x[..., None, :] @ w)[..., 0, :]


def prefill(model: Model, tokens, agents=None) -> PrefillResult:
    """Causal forward pass over token sequences, populating fresh caches.

    ``tokens`` is one sequence (T,) or a batch (A, T), run as one pass with
    the agents folded into the head axis of one store.  Returns the last
    hidden state, (d,) or (A, d), and the cache, or a list of A cache views
    counting passes for ``agents`` (default 0..A-1).
    """
    cfg = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim not in (1, 2) or tokens.size == 0:
        raise ConfigError("prefill needs one or a batch of non-empty token sequences")
    rows = tokens.reshape(-1, tokens.shape[-1])
    A, T = rows.shape
    agents = range(A) if agents is None else agents
    if T > cfg.max_context:
        raise ContextOverflowError(f"prefill of {T} tokens exceeds max_context {cfg.max_context}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ConfigError("token id out of vocabulary range")

    H, dh, d = cfg.num_heads, cfg.head_dim, cfg.model_dim
    store = np.zeros((2, cfg.num_layers, A * H, cfg.max_context, dh), dtype=np.float64)

    def heads(y):  # (A, T, d) -> (A·H, T, d_h)
        return y.reshape(A, T, H, dh).transpose(0, 2, 1, 3).reshape(A * H, T, dh)

    x = model.w_in[rows] + model.pos[:T]
    for l, lw in enumerate(model.layers):
        q, k, v = heads(x @ lw.w_q), heads(x @ lw.w_k), heads(x @ lw.w_v)
        store[0, l, :, :T] = k
        store[1, l, :, :T] = v
        out, _ = kernels.attend_causal(q, k, v, model.inv_sqrt_head_dim)
        x = x + out.reshape(A, H, T, dh).transpose(0, 2, 1, 3).reshape(A, T, d) @ lw.w_o
        x = x + _mlp(x, lw)

    caches = [KVCache(cfg, agent, store, row) for row, agent in zip(range(A), agents, strict=True)]
    for cache in caches:
        cache.tags[:T] = EGO_PREFILL
        cache.length = T
        model.stats.forward_passes[cache.agent] += 1
    if tokens.ndim == 1:
        return PrefillResult(hidden=x[0, -1].copy(), cache=caches[0])
    return PrefillResult(hidden=x[:, -1].copy(), cache=caches)


def forward_decode(model: Model, input_vec, cache, payloads=(), tag: int = EGO_LATENT):
    """Append one position and attend over ego cache plus received payloads.

    ``cache`` is one :class:`KVCache` with a (d,) input, or a lock-step batch
    (a list of A caches from one :func:`prefill`, all of one length) with an
    (A, d) input, run as one pass with the agents folded into the head axis.
    ``payloads`` (single cache only) are :class:`laco.wire.Payload` read as
    they are: each layer l < ``l_comm`` joins a payload's ``keys[l]`` and
    ``values[l]`` (float32 or float16, widened exactly) to the context.  The
    new position's keys/values go to the ego cache only.  Returns (hidden
    (d,) or (A, d) float32, rows: list over layers of (A·H, n_l) float32).

    This is the single decode path: plain decoding is the degenerate case
    with no payloads, so the two are bit-identical by construction.
    """
    cfg = model.config
    single = isinstance(cache, KVCache)
    caches = [cache] if single else list(cache)
    first, A, n = caches[0], len(caches), caches[0].length
    if any(c.store is not first.store or c.row != first.row + i or c.length != n
           for i, c in enumerate(caches)):
        raise ConfigError("a decode batch must be consecutive caches of one store at one length")
    if n == 0:
        raise ConfigError("decode requires a non-empty cache")
    if n >= first.capacity:
        raise ContextOverflowError(f"cache full at {n} positions")
    if payloads and not single:
        raise ConfigError("foreign payloads attach to a single cache")
    x = np.asarray(input_vec, dtype=np.float32)
    shape = (cfg.model_dim,) if single else (A, cfg.model_dim)
    if x.shape != shape:
        raise ConfigError(f"decode input must have shape {shape}")
    if not np.isfinite(x).all():
        raise ConfigError("decode input must be finite")

    H, dh, d = cfg.num_heads, cfg.head_dim, cfg.model_dim
    # (A, 1, d): every product below is one vector-matrix product per agent.
    x = x.reshape(A, 1, d) + model.pos[n]
    kv = first.store[:, :, first.row * H : (first.row + A) * H]
    kv_by_agent = kv.reshape(kv.shape[:2] + (A, H) + kv.shape[3:])  # a view, for one K/V write
    rows_per_layer = []
    for l, lw in enumerate(model.layers):
        qkv = (x @ lw.w_qkv).reshape(A, 3, H, dh)
        kv_by_agent[:, l, :, :, n] = qkv[:, 1:].swapaxes(0, 1)
        ctx_k = kv[0, l, :, : n + 1]
        ctx_v = kv[1, l, :, : n + 1]
        if payloads:
            fused = [p for p in payloads if l < p.l_comm]
            if fused:
                ctx_k = np.concatenate([ctx_k] + [p.keys[l] for p in fused], axis=1)
                ctx_v = np.concatenate([ctx_v] + [p.values[l] for p in fused], axis=1)
        out, rows = kernels.attend_single(ctx_k, ctx_v, qkv[:, 0].reshape(A * H, dh),
                                          model.inv_sqrt_head_dim)
        rows_per_layer.append(rows)
        x += out.reshape(A, 1, d) @ lw.w_o
        x += _mlp(x, lw)

    for c in caches:
        c.commit(tag)
        model.stats.forward_passes[c.agent] += 1
    return (x[0, 0] if single else x[:, 0]), rows_per_layer


def project_to_logits(model: Model, hidden) -> np.ndarray:
    """Apply the bias-free output head: logits = hidden @ W_out, per row."""
    h = np.asarray(hidden, dtype=np.float32)
    if not np.all(np.isfinite(h)):
        raise ConfigError("hidden vector must be finite")
    model.stats.logit_projections += 1
    return rowwise_matmul(h, model.w_out)
