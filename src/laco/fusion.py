"""Asymmetric collaborative inference over received shallow-layer caches.

Layers covered by a payload attend over [ego KV || foreign KV]; all deeper
layers attend over the ego cache alone.  Received payloads are read as they
are, with no copy; foreign entries are read-only: the new position's
keys/values land in the ego cache only.
"""

from dataclasses import dataclass

import numpy as np

from .model import (EGO_LATENT, EGO_PREFILL, FOREIGN_LATENT, FOREIGN_PREFILL, Model,
                    forward_decode, project_to_logits)


@dataclass(frozen=True)
class FusedContext:
    """A lock-step batch of ego caches, each with its own inbox of received
    payloads in delivery order.  It checks nothing itself: the
    decode (:class:`laco.model.DecodeBatch`) checks the inbox count, their one
    signature and that every payload fits the model."""

    caches: list
    inboxes: list

    @property
    def segments(self) -> list:
        """Every inbox's payloads in turn (perfbench/tracing.py reads this name)."""
        return [p for box in self.inboxes for p in box]


def attach_payload(caches, inboxes) -> FusedContext:
    """Wrap A caches of one length and their A payload lists, each kept in the
    order given (the episode delivers by ascending sender id); the decode checks them."""
    return FusedContext(caches, inboxes)


@dataclass
class CollabResult:
    hidden: np.ndarray     # (A, d)
    logits: np.ndarray     # (A, V)
    attention_rows: list   # per agent, per layer: (H, n_l) float32
    context_tags: list     # per agent, per layer: (n_l,) uint8, aligned with the rows


def collaborative_decode(model: Model, input_vec, ctx: FusedContext) -> CollabResult:
    """One decision decode of an (A, d) input over the fused context.

    Shallow layers see [ego || foreign]; deep layers see ego only; the
    appended position goes to the ego cache.  With no payloads this is the
    plain decode path (same code, bit-identical outputs).  Each layer's context
    is tagged ego prefill, ego latent (from each cache's ``prefill_len`` and
    ``length``, the appended position included), then each payload's runs.
    """
    A, H = len(ctx.caches), model.config.num_heads
    hidden, rows = forward_decode(model, input_vec, ctx.caches, ctx.inboxes)
    tags = []
    for cache, box in zip(ctx.caches, ctx.inboxes):
        ego = np.array([EGO_PREFILL, EGO_LATENT], np.uint8).repeat(
            [cache.prefill_len, cache.length - cache.prefill_len])
        foreign = [np.array([FOREIGN_PREFILL, FOREIGN_LATENT], np.uint8).repeat(
            [p.salient_count, p.num_positions - p.salient_count]) for p in box]
        tags.append([np.concatenate([ego] + [t for p, t in zip(box, foreign) if l < p.l_comm])
                     for l in range(model.config.num_layers)])
    return CollabResult(hidden, project_to_logits(model, hidden),
                        [[r[a * H : (a + 1) * H] for r in rows] for a in range(A)], tags)
