"""Saliency-based pruning of the prefill cache ahead of transmission.

Each prefill token is scored by the attention it drew during latent
deliberation (max over layers and heads, mean over steps), the top-K scorers
are kept in their original order, and the surviving prefill entries are
concatenated with the complete latent segment to form the transmissible
cache.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyTraceError
from .model import AttentionTrace, KVSegment


@dataclass
class SaliencyVector:
    """Per-prefill-position scores plus the retention parameters."""

    scores: np.ndarray  # (T,) float64, each in [0, 1]
    retention_ratio: float
    top_k: int


def saliency_scores(trace: AttentionTrace, prefill_len: int, retention_ratio: float = 0.3) -> SaliencyVector:
    """Score prefill positions from the deliberation trace.

    score[j] = mean over steps of (max over layers and heads of A[t, l, h, j]),
    for j < prefill_len only; latent positions are never scored.
    """
    if trace.num_steps == 0:
        raise EmptyTraceError("saliency needs at least one deliberation step (m >= 1)")
    if prefill_len < 1:
        raise ConfigError("prefill_len must be >= 1")
    if not 0.0 < retention_ratio <= 1.0:
        raise ConfigError("retention ratio must be in (0, 1]")
    a = trace.array[: trace.num_steps, :, :, :prefill_len].astype(np.float64)
    scores = a.max(axis=(1, 2)).mean(axis=0)
    k = math.ceil(retention_ratio * prefill_len)
    return SaliencyVector(scores=scores, retention_ratio=retention_ratio, top_k=k)


def select_topk(saliency: SaliencyVector):
    """Indices of the K largest scores, ties to the smaller index, ascending."""
    scores = saliency.scores
    k = saliency.top_k
    if k > scores.shape[0]:
        raise ConfigError(f"top_k {k} exceeds {scores.shape[0]} scored positions")
    # argsort on (-score, index) keeps ties deterministic toward lower indices
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return sorted(int(i) for i in order[:k])


def build_chsa_cache(prefill: KVSegment, latent: KVSegment, indices) -> KVSegment:
    """Assemble [salient prefill || full latent] from selected indices."""
    idx = list(indices)
    if any(i < 0 or i >= prefill.num_positions for i in idx):
        raise IndexError("selected index outside the prefill segment")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ConfigError("selected indices must be strictly increasing")
    if prefill.num_layers != latent.num_layers:
        raise ConfigError("prefill and latent segments must span the same layers")
    sel = np.asarray(idx, dtype=np.int64)
    return KVSegment(
        keys=np.concatenate([prefill.keys[:, :, sel, :], latent.keys], axis=2),
        values=np.concatenate([prefill.values[:, :, sel, :], latent.values], axis=2),
        tags=np.concatenate([prefill.tags[sel], latent.tags]),
        source_ids=np.concatenate([prefill.source_ids[sel], latent.source_ids]),
    )
