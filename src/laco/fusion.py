"""Asymmetric collaborative inference over received shallow-layer caches.

Layers covered by a payload attend over [ego KV || foreign KV]; all deeper
layers attend over the ego cache alone.  Received payloads are read as they
are, with no copy; foreign entries are read-only: the new position's
keys/values land in the ego cache only.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .model import (
    FOREIGN_LATENT,
    FOREIGN_PREFILL,
    KVCache,
    Model,
    forward_decode,
    project_to_logits,
)


@dataclass
class FusedContext:
    """Ego cache plus received payloads ordered by ascending sender id.

    For a lock-step batch ``ego`` is a list of caches and ``segments`` holds
    each agent's payloads in turn, as many for every agent.
    """

    ego: KVCache | list
    segments: list  # of Payload; perfbench/tracing.py reads the field by this name


def attach_payload(ego, payloads) -> FusedContext:
    """Build the fused context; multiple payloads concatenate by sender id.

    ``ego`` is one :class:`KVCache` with a payload list, or a list of caches
    with one payload list each, all of one length.
    """
    caches, inboxes = ([ego], [payloads]) if isinstance(ego, KVCache) else (ego, list(payloads))
    cfg = caches[0].config
    if len(inboxes) != len(caches) or len({len(box) for box in inboxes}) > 1:
        raise ShapeMismatchError("a batch needs one payload list per cache, all of one length")
    for p in (p for box in inboxes for p in box):
        if p.num_heads != cfg.num_heads or p.head_dim != cfg.head_dim:
            raise ShapeMismatchError(f"payload heads/head_dim ({p.num_heads}, {p.head_dim}) do "
                                     f"not match model ({cfg.num_heads}, {cfg.head_dim})")
        if p.l_comm > cfg.num_layers:
            raise ShapeMismatchError(
                f"payload spans {p.l_comm} layers but the model has {cfg.num_layers}")
    return FusedContext(ego, [p for box in inboxes for p in sorted(box, key=lambda p: p.sender_id)])


@dataclass
class CollabResult:
    hidden: np.ndarray     # (d,), or (A, d) for a batch of A agents
    logits: np.ndarray     # (V,) or (A, V)
    attention_rows: list   # per layer: (H, n_l) float32; a batch: one such list per agent
    context_tags: list     # per layer: (n_l,) uint8, aligned with the rows; likewise


def collaborative_decode(model: Model, input_vec, ctx: FusedContext) -> CollabResult:
    """One decision decode over the fused context, for one agent or a batch.

    Shallow layers see [ego || foreign]; deep layers see ego only; the
    appended position goes to the ego cache.  With no payloads this is the
    plain decode path (same code, bit-identical outputs).
    """
    single = isinstance(ctx.ego, KVCache)
    caches = [ctx.ego] if single else ctx.ego
    k, H = len(ctx.segments) // len(caches), model.config.num_heads
    inboxes = [ctx.segments[i * k : (i + 1) * k] for i in range(len(caches))]
    hidden, rows = forward_decode(model, input_vec, ctx.ego, inboxes[0] if single else inboxes)
    tags = []
    for cache, box in zip(caches, inboxes):
        # Origin tags of each layer's context, ego (with the appended position) first.
        foreign = [np.array([FOREIGN_PREFILL, FOREIGN_LATENT], np.uint8).repeat(
            [p.salient_count, p.num_positions - p.salient_count]) for p in box]
        tags.append([np.concatenate([cache.tags[: cache.length]]
                                    + [t for p, t in zip(box, foreign) if l < p.l_comm])
                     for l in range(model.config.num_layers)])
    logits = project_to_logits(model, hidden)
    if single:
        return CollabResult(hidden, logits, rows, tags[0])
    return CollabResult(hidden, logits, [[r[i * H : (i + 1) * H] for r in rows]
                                         for i in range(len(caches))], tags)
