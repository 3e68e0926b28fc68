"""Iterative latent deliberation: recursive forward passes in hidden space.

Instead of projecting the hidden state to vocabulary space and decoding a
token, each step maps the previous hidden state through a fixed alignment
projection back toward the input-embedding distribution and feeds it in as
the next input.  The cache grows by one ego-latent position per step and no
vocabulary projection ever happens.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigError
from .model import EGO_LATENT, AttentionTrace, KVCache, Model, forward_decode, rowwise_matmul

# Singular values below this fraction of the largest are truncated by pinv.
_RCOND = 1e-6


def compute_alignment(model: Model) -> np.ndarray:
    """Build (once) the (d, d) float32 alignment W_a from the output head and input embedding.

    W_a sends hidden states toward the input-embedding manifold.  The hidden
    state is read out to a minimum-norm vocabulary weighting through the
    pseudo-inverse of the output head, then re-embedded through the input
    matrix, so every aligned vector is a mixture of real token embeddings.
    The pseudo-inverse is SVD-based with singular values below
    ``_RCOND * sigma_max`` truncated.  The result is memoized on the model
    and returned unchanged by later calls.
    """
    if model._alignment is not None:
        return model._alignment
    try:
        # pinv of the (vocab, d)-shaped head weight; (d, vocab) @ (vocab, d) -> (d, d)
        inv = np.linalg.pinv(model.w_out.T.astype(np.float64), rcond=_RCOND)
    except np.linalg.LinAlgError as exc:
        raise AlignmentError(f"SVD failed while building alignment: {exc}") from exc
    model._alignment = (inv @ model.w_in.astype(np.float64)).astype(np.float32)
    return model._alignment


@dataclass
class DeliberationResult:
    final_hidden: np.ndarray
    trace: AttentionTrace  # a list of A traces for a batch of A caches
    steps: int


def deliberate(
    model: Model,
    w_a: np.ndarray,
    h0: np.ndarray,
    cache,
    m: int,
) -> DeliberationResult:
    """Run m latent steps, appending ego-latent positions to the cache.

    ``cache`` is one :class:`KVCache` with a (d,) ``h0``, or a lock-step batch
    of A caches with an (A, d) ``h0`` (see :func:`laco.model.forward_decode`);
    every step is then one pass for all A agents, and the result holds one
    trace per agent.  Deliberation is ego-local: received context joins only
    the final decision decode.

    With m = 0 the cache and hidden state are returned untouched and the
    trace is empty.
    """
    if m < 0:
        raise ConfigError("step count m must be >= 0")
    single = isinstance(cache, KVCache)
    A = 1 if single else len(cache)
    L, H = model.config.num_layers, model.config.num_heads
    n0 = (cache if single else cache[0]).length
    array = np.zeros((A, m, L, H, n0 + m), dtype=np.float32)
    lengths = np.arange(n0 + 1, n0 + m + 1, dtype=np.int64)
    h = np.asarray(h0, dtype=np.float32)
    logit_calls_before = model.stats.logit_projections
    for t in range(m):
        h, rows_per_layer = forward_decode(model, rowwise_matmul(h, w_a), cache,
                                           tag=EGO_LATENT)
        n = n0 + t + 1
        for l, rows in enumerate(rows_per_layer):
            array[:, t, l, :, :n] = rows.reshape(A, H, n)
    assert model.stats.logit_projections == logit_calls_before, "deliberation must not decode"
    traces = [AttentionTrace(a, lengths) for a in array]
    return DeliberationResult(final_hidden=h, trace=traces[0] if single else traces, steps=m)
