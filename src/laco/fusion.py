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
    EGO_LATENT,
    FOREIGN_LATENT,
    FOREIGN_PREFILL,
    KVCache,
    Model,
    forward_decode,
    project_to_logits,
)


@dataclass
class FusedContext:
    """Ego cache plus received payloads ordered by ascending sender id."""

    ego: KVCache
    segments: list  # of Payload; perfbench/tracing.py reads the field by this name


def attach_payload(ego: KVCache, payloads) -> FusedContext:
    """Build the fused context; multiple payloads concatenate by sender id."""
    cfg = ego.config
    for p in payloads:
        if p.num_heads != cfg.num_heads or p.head_dim != cfg.head_dim:
            raise ShapeMismatchError(
                f"payload heads/head_dim ({p.num_heads}, {p.head_dim}) do not match "
                f"model ({cfg.num_heads}, {cfg.head_dim})"
            )
        if p.l_comm > cfg.num_layers:
            raise ShapeMismatchError(
                f"payload spans {p.l_comm} layers but the model has {cfg.num_layers}"
            )
    return FusedContext(ego=ego, segments=sorted(payloads, key=lambda p: p.sender_id))


@dataclass
class CollabResult:
    hidden: np.ndarray
    logits: np.ndarray
    attention_rows: list   # per layer: (H, n_l) float32
    context_tags: list     # per layer: (n_l,) uint8, aligned with the rows


def collaborative_decode(model: Model, input_vec, ctx: FusedContext) -> CollabResult:
    """One decision decode over the fused context.

    Shallow layers see [ego || foreign]; deep layers see ego only; the
    appended position goes to the ego cache.  With no payloads this is the
    plain decode path (same code, bit-identical outputs).
    """
    hidden, rows = forward_decode(model, input_vec, ctx.ego, ctx.segments, tag=EGO_LATENT)
    # Origin tags of each layer's context, ego (with the appended position) first.
    ego_tags = ctx.ego.tags[: ctx.ego.length]
    foreign = [np.array([FOREIGN_PREFILL, FOREIGN_LATENT], np.uint8).repeat(
        [p.salient_count, p.num_positions - p.salient_count]) for p in ctx.segments]
    tags = [np.concatenate([ego_tags] + [t for p, t in zip(ctx.segments, foreign) if l < p.l_comm])
            for l in range(model.config.num_layers)]
    logits = project_to_logits(model, hidden)
    return CollabResult(hidden=hidden, logits=logits, attention_rows=rows, context_tags=tags)
