"""Asymmetric collaborative inference over received shallow-layer caches.

Layers covered by a payload attend over [ego KV || foreign KV]; all deeper
layers attend over the ego cache alone.  Foreign entries are read-only: the
new position's keys/values land in the ego cache only.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .model import (
    EGO_LATENT,
    FOREIGN_LATENT,
    FOREIGN_PREFILL,
    KVCache,
    KVSegment,
    Model,
    forward_decode,
    project_to_logits,
)
from .wire import Payload


@dataclass
class FusedContext:
    """Ego cache plus foreign KV segments ordered by ascending sender id."""

    ego: KVCache
    segments: list


def segment_from_payload(payload: Payload) -> KVSegment:
    """Materialize a payload for attention (float16 bodies widen to float32)."""
    tags = np.empty(payload.num_positions, dtype=np.uint8)
    tags[: payload.salient_count] = FOREIGN_PREFILL
    tags[payload.salient_count :] = FOREIGN_LATENT
    return KVSegment(
        keys=np.ascontiguousarray(payload.keys.astype(np.float32)),
        values=np.ascontiguousarray(payload.values.astype(np.float32)),
        tags=tags,
    )


def attach_payload(ego: KVCache, payloads) -> FusedContext:
    """Build the fused context; multiple payloads concatenate by sender id."""
    if isinstance(payloads, Payload):
        payloads = [payloads]
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
    ordered = sorted(payloads, key=lambda p: p.sender_id)
    return FusedContext(ego=ego, segments=[segment_from_payload(p) for p in ordered])


@dataclass
class CollabResult:
    hidden: np.ndarray
    logits: np.ndarray
    attention_rows: list   # per layer: (H, n_l) float32
    context_tags: list     # per layer: (n_l,) uint8, aligned with the rows


def collaborative_decode(model: Model, input_vec, ctx: FusedContext) -> CollabResult:
    """One decision decode over the fused context.

    Shallow layers see [ego || foreign]; deep layers see ego only; the
    appended position goes to the ego cache.  With no segments this is the
    plain decode path (same code, bit-identical outputs).
    """
    hidden, rows = forward_decode(model, input_vec, ctx.ego, ctx.segments, tag=EGO_LATENT)
    # Origin tags of each layer's context, ego (with the appended position) first.
    ego_tags = ctx.ego.tags[: ctx.ego.length]
    tags = [np.concatenate([ego_tags] + [seg.tags for seg in ctx.segments if l < seg.num_layers])
            for l in range(model.config.num_layers)]
    logits = project_to_logits(model, hidden)
    return CollabResult(hidden=hidden, logits=logits, attention_rows=rows, context_tags=tags)
