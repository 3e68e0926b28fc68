"""Minimal deterministic transformer with an exposed, appendable KV cache.

The model is a plain pre-activation residual decoder: per layer, multi-head
self-attention (keys/values cached per layer and head) followed by a ReLU MLP,
no normalization, no biases.  The positional table ``Model.pos`` is added to
the layer-0 input at write time, so every stored key/value is
position-complete and meaningful to any reader; foreign cache entries are
consumed as-is with no re-encoding.

Numeric conventions: weights, activations and cached keys/values are float32
values (the cache stores keys/values widened to float64 when written);
attention logits, softmax sums and weighted value sums accumulate in float64
inside the kernels (see :mod:`laco.kernels`).
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, ContextOverflowError, ShapeMismatchError

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

# The one switch for every exactness shortcut below (README "Numeric conventions"). False runs
# every product, bit for bit the same: no passthrough, zero-MLP or zero-context skip, no
# DecodeBatch.repeat, and prefill's last layer attends for all T positions.
SHORTCUTS = True


@dataclass(frozen=True)
class ModelConfig:
    """Model dimensions.  Each ``ConfigError`` here and in
    :func:`check_hazard_config` begins with its field."""

    num_layers: int
    num_heads: int
    model_dim: int
    vocab_size: int
    max_context: int

    def __post_init__(self):
        for name in ("num_layers", "num_heads", "model_dim", "vocab_size", "max_context"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.num_layers < 2:
            raise ConfigError("num_layers must be >= 2 (shallow/deep split)")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads


@dataclass
class LayerWeights:
    """One layer's weights; ``w_qkv`` is the (d, 3d) block ``[w_q | w_k | w_v]``.

    ``w_q``/``w_k``/``w_v`` are read-only column views of it, so in-place
    writes land in the one buffer.  A decode layer takes ``x @ w_qkv`` in one
    product: for a (1, d) row, bit-equal to three products for every d <= 48 (not
    49-63) with numpy 2.4.6 / OpenBLAS 0.3.31's SkylakeX kernel, not its Haswell one.
    """

    w_qkv: np.ndarray
    w_o: np.ndarray
    w_mlp1: np.ndarray
    w_mlp2: np.ndarray
    w_q = property(lambda lw: lw.w_qkv[:, : lw.w_o.shape[0]])
    w_k = property(lambda lw: lw.w_qkv[:, lw.w_o.shape[0] : 2 * lw.w_o.shape[0]])
    w_v = property(lambda lw: lw.w_qkv[:, 2 * lw.w_o.shape[0] :])


class Model:
    """Weights only: every agent, of any episode, runs the same frozen model.

    ``passthrough[l]`` flags a layer whose four weights are all exactly zero,
    ``zero_mlp[l]`` one whose ``w_mlp1`` and ``w_mlp2`` are; prefill and decode
    skip those products.  Every array is read-only, so a write can leave no flag stale and
    no :class:`DecodeBatch` record out of date.
    """

    def __init__(self, config: ModelConfig, w_in, w_out, pos, layers):
        self.config = config
        self.w_in = w_in
        self.w_out = w_out
        self.pos = pos
        self.layers = layers
        self._alignment = None  # memoized by laco.ild.compute_alignment
        self.inv_sqrt_head_dim = 1.0 / float(np.sqrt(config.head_dim))
        self.zero_mlp = tuple(not (lw.w_mlp1.any() or lw.w_mlp2.any()) for lw in layers)
        self.passthrough = tuple(z and not (lw.w_qkv.any() or lw.w_o.any())
                                 for z, lw in zip(self.zero_mlp, layers))
        for w in (w_in, w_out, pos, *(w for lw in layers for w in vars(lw).values())):
            w.flags.writeable = False


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


def check_hazard_config(cfg: ModelConfig):
    """Raise ``ConfigError`` if :func:`make_hazard_model` cannot build ``cfg``'s weights."""
    if cfg.num_heads < 2:
        raise ConfigError("num_heads must be >= 2 for the hazard construction")
    if cfg.head_dim < 4:
        raise ConfigError("model_dim must be >= 4 per head for the hazard construction")
    if cfg.vocab_size < MIN_HAZARD_VOCAB:
        raise ConfigError(f"vocab_size must be >= {MIN_HAZARD_VOCAB} for the hazard construction")


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
    encode its brake decision.  The intermediate layers are zero-weight
    passthroughs and the last layer's MLP is zero: ``passthrough`` and
    ``zero_mlp`` flag them, and prefill and decode skip them (at L = 4, half of every pass).
    """
    cfg = config
    check_hazard_config(cfg)
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
    """One store row's per-layer, per-head keys/values and two lengths.

    ``k``/``v`` are (L, H, capacity, d_h) views of heads [row·H, (row+1)·H)
    of a (2, L, A·H, capacity, d_h) store shared by a lock-step batch of A
    rows (see :func:`prefill`).  Positions [0, ``prefill_len``) are ego prefill
    and [``prefill_len``, ``length``) ego latent (decoded).  The store is
    float64 holding float32 values, widened once when written so attention
    reads the context without a copy.

    Positions are append-only: existing entries are never mutated, only new
    ones committed.  Pruning copies selected positions out (:func:`laco.wire.distill`).
    ``nonzero`` (L, rows), shared by the store's caches, is False at [l, r] only if
    row r's K/V at layer l are all exactly zero: :func:`prefill` sets it, each decode step
    ORs in its new position (a step that repeats the last one copies K/V already ORed in, so
    sets none); a cache made otherwise has all True ("may be non-zero").
    """

    def __init__(self, config: ModelConfig, store: np.ndarray, row: int, nonzero=None):
        H = config.num_heads
        self.config = config
        self.store = store
        self.row = row
        self.k = store[0, :, row * H : (row + 1) * H]
        self.v = store[1, :, row * H : (row + 1) * H]
        self.prefill_len = self.length = 0
        self.nonzero = np.ones((config.num_layers, store.shape[2] // H), bool) if nonzero is None else nonzero

    @property
    def capacity(self) -> int:
        return self.k.shape[2]


@dataclass(frozen=True)
class AttentionTrace:
    """Recorded attention weights A[..., step, layer, head, j], zero-padded.

    ``lengths[t]`` is the context size of step t.  Leading axes, if any,
    index traces of one shape that share ``lengths`` (a block).  Building a
    trace checks every row once: each weight lies in [0, 1 + 1e-6], each row
    sums to 1 within 1e-6, and every weight beyond ``lengths[t]`` is exactly 0.
    """

    array: np.ndarray    # (..., steps, L, H, max_context) float32
    lengths: np.ndarray  # (steps,) int64

    def __post_init__(self):
        a, lengths = self.array, self.lengths
        if a.ndim < 4 or lengths.shape != a.shape[-4:-3] or 0 in a.shape[-3:-1]:
            raise AssertionError("trace shape must be (..., steps, L>0, H>0, n) with one length per step")
        n = a.shape[-1]
        lo, hi = (lengths.min(), lengths.max()) if lengths.size else (1, n)
        if lo < 1 or hi > n:
            raise AssertionError("trace context length outside [1, n]")
        if a.size and (a.min() < 0.0 or a.max() > 1.0 + 1e-6):
            raise AssertionError("attention weight outside [0, 1]")
        if not np.all(np.abs(a.sum(axis=-1, dtype=np.float64) - 1.0) <= 1e-6):
            raise AssertionError("attention row does not sum to 1 within 1e-6")
        if lo < n:  # else no position lies beyond a step's length
            beyond = a != 0
            beyond &= (np.arange(n) >= lengths[:, None])[:, None, None, :]
            if np.any(beyond):
                raise AssertionError("attention weight beyond the step's context length")

    @property
    def num_steps(self) -> int:
        return self.array.shape[-4]

    def part(self, key) -> "AttentionTrace":
        """``array[key]`` as a trace, not checked again: a part that keeps the
        step and position axes whole holds only rows this trace checked."""
        part = object.__new__(AttentionTrace)
        object.__setattr__(part, "array", self.array[key])
        object.__setattr__(part, "lengths", self.lengths)
        return part


@dataclass
class PrefillResult:
    hidden: np.ndarray  # (A, d)
    caches: list  # A cache views of one store, in batch order


def _mlp(x: np.ndarray, lw: LayerWeights) -> np.ndarray:
    hidden = x @ lw.w_mlp1
    np.maximum(hidden, 0.0, out=hidden)
    return hidden @ lw.w_mlp2


def rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for (..., d) ``x`` as one vector-matrix product per row,
    so a row gives the same bits batched or alone (a matrix product may not)."""
    return (x[..., None, :] @ w)[..., 0, :]


def prefill(model: Model, tokens) -> PrefillResult:
    """Causal forward pass over a batch of token sequences, populating fresh caches.

    ``tokens`` is an (A, T) batch, run as one pass over positions 0 .. T-1 with the
    rows folded into the head axis of one store.  Returns the (A, d) last hidden
    states and A cache views of length T.  With ``SHORTCUTS`` on, the last layer attends
    for position T-1 only, but keeps ``w_o`` and an unflagged MLP at (A, T, .): a one-row
    product may sum in another order.  A ``model.passthrough`` layer is skipped: its K/V
    would be ``x @ 0 = +0.0``, the store's own zeros, and its residual updates ``+0.0``;
    so is a ``model.zero_mlp`` MLP, whose update ``relu(x @ 0) @ 0`` is ±0.0.
    One ``.any()`` per layer over the K/V of [0, T) sets ``nonzero``; a layer
    with no row flagged skips attention and ``w_o``, whose update is ±0.0 for a finite query.
    """
    cfg = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2 or tokens.size == 0:
        raise ConfigError("prefill needs an (A, T) batch of non-empty token sequences")
    A, T = tokens.shape
    if T > cfg.max_context:
        raise ContextOverflowError(f"prefill of {T} tokens exceeds max_context {cfg.max_context}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ConfigError("token id out of vocabulary range")

    L, H, dh, d = cfg.num_layers, cfg.num_heads, cfg.head_dim, cfg.model_dim
    store = np.zeros((2, L, A * H, cfg.max_context, dh), dtype=np.float64)
    kv_by_agent = store.reshape(2, L, A, H, cfg.max_context, dh)  # a view, for the K/V writes
    nonzero = np.zeros((L, A), bool)  # a passthrough layer's K/V are the store's zeros
    caches = [KVCache(cfg, store, row, nonzero) for row in range(A)]
    for cache in caches:  # append-only: decode writes through the store, not these views
        cache.prefill_len = cache.length = T
        cache.k.flags.writeable = cache.v.flags.writeable = False

    def split(y):  # (A, T, d) -> (A, H, T, d_h), a view
        return y.reshape(A, T, H, dh).transpose(0, 2, 1, 3)

    x = model.w_in[tokens] + model.pos[:T]
    for l, lw in enumerate(model.layers):
        if SHORTCUTS and model.passthrough[l]:
            continue
        kv_by_agent[0, l, :, :, :T] = split(x @ lw.w_k)
        kv_by_agent[1, l, :, :, :T] = split(x @ lw.w_v)
        nonzero[l] = kv_by_agent[:, l, :, :, :T].any(axis=(0, 2, 3, 4))
        if nonzero[l].any() or not SHORTCUTS:
            q, k, v = split(x @ lw.w_q).reshape(A * H, T, dh), store[0, l, :, :T], store[1, l, :, :T]
            if l < L - 1 or not SHORTCUTS:
                out, _ = kernels.attend_causal(q, k, v, model.inv_sqrt_head_dim)
            else:  # only position T-1 leaves the last layer: its other rows stay zero
                out = np.zeros_like(q)
                out[:, -1], _ = kernels.attend_single(k, v, q[:, -1], model.inv_sqrt_head_dim)
            x = x + out.reshape(A, H, T, dh).transpose(0, 2, 1, 3).reshape(A, T, d) @ lw.w_o
        if not (SHORTCUTS and model.zero_mlp[l]):
            x = x + _mlp(x, lw)
    return PrefillResult(hidden=x[:, -1].copy(), caches=caches)


class DecodeBatch:
    """A lock-step decode batch, checked and laid out once; each call runs one step.

    ``caches``: A caches from one :func:`prefill`, on consecutive store rows at one length,
    agents folded into the head axis.  ``payloads``: empty or one list per agent, of one
    signature (each payload's ``(l_comm, num_positions)``), scanned here, read as they are and
    left so while the batch runs; layer l < ``l_comm`` joins ``keys[l]``/``values[l]`` (float32
    or float16, widened exactly) to its agent's rows.  The scan is the one check that a payload
    fits the model (heads, ``head_dim``, ``l_comm <= L``; else ``ShapeMismatchError``).  A step
    raises ``ConfigError`` once another decode moved a cache, so the kept ``nonzero`` flags stay
    exact (only a decode raises one).  ``record`` keeps what :meth:`repeat` reads of the last step.
    """

    def __init__(self, model: Model, caches, payloads=()):
        cfg, first, A, n = model.config, caches[0], len(caches), caches[0].length
        if any(c.store is not first.store or c.row != row or c.length != n
               for row, c in enumerate(caches, first.row)):
            raise ConfigError("a decode batch must be consecutive caches of one store at one length")
        if n == 0:
            raise ConfigError("decode requires a non-empty cache")
        L, H, dh, depth, sent = cfg.num_layers, cfg.num_heads, cfg.head_dim, 0, ()
        if payloads:
            signatures = {tuple((p.l_comm, p.num_positions) for p in box) for box in payloads}
            if len(payloads) != A or len(signatures) != 1:
                raise ConfigError("a decode batch needs one payload list per agent, all of one signature")
            depth = max((l_comm for l_comm, _ in signatures.pop()), default=0)
            # A sender's one Payload sits in every peer's inbox: scan each once.
            sent = {id(p): p for box in payloads for p in box}.values()
            for p in sent:
                l_comm, heads, _, head_dim = p.keys.shape
                if heads != H or head_dim != dh or l_comm > L:
                    raise ShapeMismatchError(f"a payload of {l_comm} layers of {heads} heads of {head_dim} "
                                             f"does not fit a model of {L} layers of {H} heads of {dh}")
        self.model, self.caches, self.payloads, self.length = model, caches, payloads, n
        self.dims = A, H, dh, cfg.model_dim
        self.ctx = first.store[:, :, first.row * H : (first.row + A) * H]  # (2, L, A·H, capacity, d_h)
        self.new = self.ctx.reshape(2, L, A, H, -1, dh).transpose(1, 4, 2, 0, 3, 5)  # [l, n]: K/V
        self.ego = first.nonzero[:, first.row : first.row + A]  # (L, A) view: the batch rows' flags
        # Per layer: may a batch row or joined slice be non-zero (NaN, inf count); P joined or None.
        self.flagged = [bool(f) or any(a[l].any() for p in sent if l < p.l_comm for a in (p.keys, p.values))
                        for l, f in enumerate(self.ego.any(axis=1))]
        self.joined = [sum(p.num_positions for p in payloads[0] if l < p.l_comm) if l < depth else None
                       for l in range(L)]
        # The last step: (layer-0 input bytes, per layer (query, None where passthrough, and
        # attention output bytes), (None, None) where the layer read an all-zero context).
        self.record = None

    def _input(self, input_vec, k):  # the checked (A, 1, d) float32 input of k steps from n
        n, (A, _, _, d) = self.length, self.dims
        if any(c.length != n for c in self.caches):
            raise ConfigError("a decode batch's caches were decoded outside it")
        if n + k > self.new.shape[1]:
            raise ContextOverflowError(f"{k} step(s) from {n} positions overflow {self.new.shape[1]}")
        x = np.asarray(input_vec, dtype=np.float32)
        if x.shape != (A, d):
            raise ConfigError(f"decode input must have shape {(A, d)}")
        if not np.isfinite(x).all():
            raise ConfigError("decode input must be finite")
        return x.reshape(A, 1, d)  # every product below is one vector-matrix product per agent

    def _attend(self, l, n, q, rows):
        """Layer l's (attention output (A·H, d_h) or None, rows (A·H, n + 1 + P_l)) for the step
        at n and the (A, H, d_h) float32 query ``q`` (None where passthrough: x @ 0).  A layer
        with no batch row or joined slice flagged writes rows of ``float32(1/w)`` and gives None."""
        A, H, dh, _ = self.dims
        w = n + 1 + (self.joined[l] or 0)
        r = np.empty((A * H, w), np.float32) if rows is None else rows[l, :, :w]
        if SHORTCUTS and not self.flagged[l]:
            r[...] = 1.0 / w  # rounded once to float32, as the kernel's division
            return None, r
        keys, values = ctx = self.ctx[:, l, :, : n + 1]
        if self.joined[l] is not None:  # each agent's H rows go on with its own payloads'
            keys, values = np.concatenate([ctx, np.concatenate([np.concatenate(
                [np.stack((p.keys[l], p.values[l])) for p in box if l < p.l_comm], axis=2)
                for box in self.payloads], axis=1)], axis=2)
        q = np.zeros((A * H, dh)) if q is None else q.astype(np.float64).reshape(A * H, dh)  # exact
        return kernels.attend_single(keys, values, q, self.model.inv_sqrt_head_dim, r)

    def __call__(self, input_vec, rows=None):
        """Append one position per agent for an (A, d) input; returns (hidden (A, d) float32,
        rows: per layer (A·H, n_l), views of ``rows[l]`` given an (L, A·H, >= n_l) buffer).
        A layer with no batch row or joined slice flagged (the new position ORed in) skips
        attention and ``w_o`` (±0.0 for a finite query); a ``model.passthrough`` layer skips its
        QKV product (query 0, K/V the store's zeros), a ``model.zero_mlp`` MLP is skipped.
        Each skip needs ``SHORTCUTS``; exact for a finite x (README "Zero contexts").
        """
        model, n, (A, H, dh, d) = self.model, self.length, self.dims
        x = self._input(input_vec, 1) + model.pos[n]  # (A, 1, d)
        x0, layers, rows_per_layer = x.tobytes(), [], []
        for l, lw in enumerate(model.layers):
            q = None
            if not (SHORTCUTS and model.passthrough[l]):
                qkv = (x @ lw.w_qkv).reshape(A, 3, H, dh)
                self.new[l, n] = kv = qkv[:, 1:]
                if kv.any():  # one reduction while, as usual, the new K/V are all zero
                    self.ego[l] |= kv.reshape(A, -1).any(axis=1)
                    self.flagged[l] = True
                q = qkv[:, 0]
            out, r = self._attend(l, n, q, rows)
            rows_per_layer.append(r)
            layers.append((None, None) if out is None else (q, out.tobytes()))
            if out is not None:
                x = x + out.reshape(A, 1, d) @ lw.w_o
            if not (SHORTCUTS and model.zero_mlp[l]):
                x = x + _mlp(x, lw)
        self.record = (x0, layers)
        for c in (self, *self.caches):
            c.length = n + 1
        return x[:, 0], rows_per_layer

    def repeat(self, input_vec, k, rows=None):
        """Run up to k steps as repeats of the ``record``ed step; returns how many ran, 0 .. k
        (0 with ``SHORTCUTS`` off).

        Only attention depends on n; every other product of a step is a function of its layer-0
        input bits.  So if ``input_vec + pos[j]`` has the recorded bytes for every j in
        [n, n + k), the K/V of n - 1 are copied into [n, n + k) (ORed in when recorded: no flag
        rises), the zero-context layers' rows are filled for all k steps, and step n + t reruns
        attention at the recorded attending layers with their queries, into ``rows[t]`` given a
        (k, L, A·H, >= w) buffer.  The first step whose attention output differs does not count:
        the caller runs it in full.  A step that ran gives the recorded hidden state, the
        caller's own.  Raises as a step of k positions (README "Repeated steps").
        """
        if self.record is None or not SHORTCUTS:
            return 0
        n, (x0, layers), pos = self.length, self.record, self.model.pos
        x = self._input(input_vec, k)[:, 0]  # (A, d); compared as bytes, so +0.0 is not -0.0
        if (x + pos[n]).tobytes() != x0 or (x + pos[n : n + k, None]).tobytes() != x0 * k:
            return 0  # step n first: most calls stop there; then the (k, A, d) run
        self.ctx[..., n : n + k, :] = self.ctx[..., n - 1 : n, :]  # the recorded step's K/V, exactly
        if rows is not None:
            for l, (_, out) in enumerate(layers):
                if out is None:
                    w = np.arange(n + 1, n + k + 1)[:, None, None] + (self.joined[l] or 0)  # (k, 1, 1)
                    np.copyto(rows[:, l], 1.0 / w, where=np.arange(rows.shape[-1]) < w)
        attending = [(l, q, out) for l, (q, out) in enumerate(layers) if out is not None]
        ran = 0
        while ran < k and all(self._attend(l, n + ran, q, None if rows is None else rows[ran])[0]
                              .tobytes() == out for l, q, out in attending):
            ran += 1
        for c in (self, *self.caches):
            c.length = n + ran
        return ran


def forward_decode(model: Model, input_vec, caches, payloads=()):
    """One step of a fresh :class:`DecodeBatch`, the one decode path (plain decoding: no payloads)."""
    return DecodeBatch(model, caches, payloads)(input_vec)


def project_to_logits(model: Model, hidden) -> np.ndarray:
    """Apply the bias-free output head: logits = hidden @ W_out, per row."""
    h = np.asarray(hidden, dtype=np.float32)
    if not np.isfinite(h).all():
        raise ConfigError("hidden vector must be finite")
    return rowwise_matmul(h, model.w_out)
