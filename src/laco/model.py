"""Minimal deterministic transformer with an exposed, appendable KV cache.

The model is a plain pre-activation residual decoder: per layer, multi-head
self-attention (keys/values cached per layer and head) followed by a ReLU MLP,
no normalization, no biases.  The sinusoidal positional encoding is added to
the layer-0 input at write time, so every stored key/value is
position-complete and meaningful to any reader; foreign cache entries are
consumed as-is with no re-encoding.

Numeric conventions: weights, activations and cached keys/values are float32;
attention logits, softmax sums and weighted value sums accumulate in float64
inside the kernels (see :mod:`laco.kernels`).
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, ContextOverflowError

# Cache position origin tags.
EGO_PREFILL = 0
EGO_LATENT = 1
FOREIGN_PREFILL = 2
FOREIGN_LATENT = 3
TAG_NAMES = ("ego_prefill", "ego_latent", "foreign_prefill", "foreign_latent")

# Reserved vocabulary for the driving harness.  Ids 0..4 are the action logit
# slots; the rest are observation tokens.  HAZARD/EGO_MARKER alias the lane-A
# variants (the hazard circuit is lane-indexed, see make_hazard_model).
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
TOKEN_HAZARD = TOKEN_HAZARD_A
TOKEN_EGO_MARKER = TOKEN_EGO_A
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
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    w_mlp1: np.ndarray
    w_mlp2: np.ndarray


@dataclass
class ModelStats:
    """Instrumentation counters (per Model instance)."""

    forward_passes: int = 0
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

    @property
    def inv_sqrt_head_dim(self) -> float:
        return 1.0 / float(np.sqrt(self.config.head_dim))


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
                w_q=draw((d, d)),
                w_k=draw((d, d)),
                w_v=draw((d, d)),
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
            w_q=np.zeros((d, d), dtype=np.float32),
            w_k=np.zeros((d, d), dtype=np.float32),
            w_v=np.zeros((d, d), dtype=np.float32),
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


@dataclass
class KVSegment:
    """A run of cache positions with the provenance of each one.

    The one in-memory form of copied, pruned, assembled or received cache
    entries: ``tags`` say whether a position is ego or foreign, prefill or
    latent, and ``source_ids`` which agent wrote it.
    """

    keys: np.ndarray    # (L, H, t, d_h) float32
    values: np.ndarray  # (L, H, t, d_h) float32
    tags: np.ndarray    # (t,) uint8
    source_ids: np.ndarray  # (t,) int32

    @property
    def num_layers(self) -> int:
        return self.keys.shape[0]

    @property
    def num_positions(self) -> int:
        return self.keys.shape[2]


class KVCache:
    """Per-layer, per-head key/value store with origin tags.

    Positions are append-only: existing entries are never mutated, only new
    ones committed.  Pruning happens by copying selected positions into a
    :class:`KVSegment`, never in place.
    """

    def __init__(self, config: ModelConfig):
        L, H, cap, dh = config.num_layers, config.num_heads, config.max_context, config.head_dim
        self.config = config
        self.k = np.zeros((L, H, cap, dh), dtype=np.float32)
        self.v = np.zeros((L, H, cap, dh), dtype=np.float32)
        self.tags = np.zeros(cap, dtype=np.uint8)
        self.source_ids = np.zeros(cap, dtype=np.int32)
        self.length = 0

    @property
    def capacity(self) -> int:
        return self.k.shape[2]

    def put_layer(self, layer: int, pos: int, k_heads: np.ndarray, v_heads: np.ndarray):
        self.k[layer, :, pos, :] = k_heads
        self.v[layer, :, pos, :] = v_heads

    def commit(self, tag: int, source_id: int):
        self.tags[self.length] = tag
        self.source_ids[self.length] = source_id
        self.length += 1

    def slice(self, start: int, stop: int) -> KVSegment:
        if not 0 <= start <= stop <= self.length:
            raise IndexError(f"slice [{start}, {stop}) outside cache of length {self.length}")
        return KVSegment(
            keys=self.k[:, :, start:stop, :].copy(),
            values=self.v[:, :, start:stop, :].copy(),
            tags=self.tags[start:stop].copy(),
            source_ids=self.source_ids[start:stop].copy(),
        )

    def select(self, indices) -> KVSegment:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.length):
            raise IndexError("selection index out of range")
        return KVSegment(
            keys=self.k[:, :, idx, :].copy(),
            values=self.v[:, :, idx, :].copy(),
            tags=self.tags[idx].copy(),
            source_ids=self.source_ids[idx].copy(),
        )

    def snapshot(self) -> "KVCache":
        dup = KVCache.__new__(KVCache)
        dup.config = self.config
        dup.k = self.k.copy()
        dup.v = self.v.copy()
        dup.tags = self.tags.copy()
        dup.source_ids = self.source_ids.copy()
        dup.length = self.length
        return dup

    def validate(self):
        """Check the tag-partition invariant: ego prefill precedes ego latent."""
        tags = self.tags[: self.length]
        ego = tags[(tags == EGO_PREFILL) | (tags == EGO_LATENT)]
        if ego.size and np.any(np.diff(ego.astype(np.int8)) < 0):
            raise AssertionError("ego prefill positions must precede ego latent positions")


class AttentionTrace:
    """Recorded attention weights A[step, layer, head, j], zero-padded.

    ``lengths[t]`` is the context size of step t; entries beyond it are 0.
    Every recorded row is checked to be a probability distribution.
    """

    def __init__(self, num_steps: int, num_layers: int, num_heads: int, max_context: int):
        self.array = np.zeros((num_steps, num_layers, num_heads, max_context), dtype=np.float32)
        self.lengths = np.zeros(num_steps, dtype=np.int64)
        self._filled = 0

    @property
    def num_steps(self) -> int:
        return self._filled

    def record(self, rows: np.ndarray, context_len: int):
        """rows: (L, H, context_len) float32 softmax rows for one step."""
        t = self._filled
        sums = rows.sum(axis=2, dtype=np.float64)
        if not np.all(np.abs(sums - 1.0) <= 1e-6):
            raise AssertionError("attention row does not sum to 1 within 1e-6")
        if rows.min() < 0.0 or rows.max() > 1.0 + 1e-6:
            raise AssertionError("attention weight outside [0, 1]")
        self.array[t, :, :, :context_len] = rows
        self.lengths[t] = context_len
        self._filled += 1


@dataclass
class PrefillResult:
    hidden: np.ndarray
    cache: KVCache
    trace: AttentionTrace


def _mlp(x: np.ndarray, lw: LayerWeights) -> np.ndarray:
    hidden = x @ lw.w_mlp1
    np.maximum(hidden, 0.0, out=hidden)
    return hidden @ lw.w_mlp2


def prefill(model: Model, tokens, source_id: int = 0) -> PrefillResult:
    """Causal forward pass over a token sequence, populating a fresh cache."""
    cfg = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    T = tokens.shape[0]
    if T < 1:
        raise ConfigError("prefill needs at least one token")
    if T > cfg.max_context:
        raise ContextOverflowError(f"prefill of {T} tokens exceeds max_context {cfg.max_context}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ConfigError("token id out of vocabulary range")

    H, dh, d = cfg.num_heads, cfg.head_dim, cfg.model_dim
    cache = KVCache(cfg)
    trace = AttentionTrace(T, cfg.num_layers, H, T)

    x = model.w_in[tokens] + model.pos[:T]
    step_rows = np.zeros((T, cfg.num_layers, H, T), dtype=np.float32)
    for l, lw in enumerate(model.layers):
        q = np.ascontiguousarray((x @ lw.w_q).reshape(T, H, dh).transpose(1, 0, 2))
        k = np.ascontiguousarray((x @ lw.w_k).reshape(T, H, dh).transpose(1, 0, 2))
        v = np.ascontiguousarray((x @ lw.w_v).reshape(T, H, dh).transpose(1, 0, 2))
        cache.k[l, :, :T, :] = k
        cache.v[l, :, :T, :] = v
        out, rows = kernels.attend_causal(q, k, v, model.inv_sqrt_head_dim)
        step_rows[:, l, :, :] = rows.transpose(1, 0, 2)
        x = x + out.transpose(1, 0, 2).reshape(T, d) @ lw.w_o
        x = x + _mlp(x, lw)

    for t in range(T):
        trace.record(step_rows[t, :, :, : t + 1], t + 1)
    cache.tags[:T] = EGO_PREFILL
    cache.source_ids[:T] = source_id
    cache.length = T
    model.stats.forward_passes += 1
    return PrefillResult(hidden=x[-1].copy(), cache=cache, trace=trace)


def forward_decode(model: Model, input_vec, cache: KVCache, segments=(), tag: int = EGO_LATENT,
                   source_id: int = 0):
    """Append one position and attend over ego cache plus foreign segments.

    ``segments`` is a sequence of :class:`KVSegment` with (L_comm, H, t, d_h)
    ``keys`` and ``values``; a segment participates at layer l only when
    l < its layer count.  The new position's keys/values go to the ego cache only.  Returns
    (hidden (d,) float32, rows: list over layers of (H, n_l) float32).

    This is the single decode path: plain decoding is the degenerate case
    with no segments, so the two are bit-identical by construction.
    """
    cfg = model.config
    n = cache.length
    if n == 0:
        raise ConfigError("decode requires a non-empty cache")
    if n >= cache.capacity:
        raise ContextOverflowError(f"cache full at {n} positions")
    x = np.asarray(input_vec, dtype=np.float32)
    if x.shape != (cfg.model_dim,):
        raise ConfigError(f"decode input must have shape ({cfg.model_dim},)")
    if not np.all(np.isfinite(x)):
        raise ConfigError("decode input must be finite")

    H, dh, d = cfg.num_heads, cfg.head_dim, cfg.model_dim
    x = x + model.pos[n]
    rows_per_layer = []
    for l, lw in enumerate(model.layers):
        q = (x @ lw.w_q).reshape(H, dh)
        k = (x @ lw.w_k).reshape(H, dh)
        v = (x @ lw.w_v).reshape(H, dh)
        cache.put_layer(l, n, k, v)
        ks = [cache.k[l, :, : n + 1, :]]
        vs = [cache.v[l, :, : n + 1, :]]
        for seg in segments:
            if l < seg.keys.shape[0]:
                ks.append(seg.keys[l])
                vs.append(seg.values[l])
        ctx_k = np.ascontiguousarray(np.concatenate(ks, axis=1))
        ctx_v = np.ascontiguousarray(np.concatenate(vs, axis=1))
        out, rows = kernels.attend_single(ctx_k, ctx_v, q, model.inv_sqrt_head_dim)
        rows_per_layer.append(rows)
        x = x + out.reshape(d) @ lw.w_o
        x = x + _mlp(x, lw)

    cache.commit(tag, source_id)
    model.stats.forward_passes += 1
    return x, rows_per_layer


def decode_step(model: Model, input_vec, cache: KVCache):
    """Single forward pass appending one position to the ego cache."""
    return forward_decode(model, input_vec, cache)


def project_to_logits(model: Model, hidden) -> np.ndarray:
    """Apply the bias-free output head: logits = hidden @ W_out."""
    h = np.asarray(hidden, dtype=np.float32)
    if not np.all(np.isfinite(h)):
        raise ConfigError("hidden vector must be finite")
    model.stats.logit_projections += 1
    return h @ model.w_out
