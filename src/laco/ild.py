"""Iterative latent deliberation: recursive forward passes in hidden space.

Instead of projecting the hidden state to vocabulary space and decoding a
token, each step maps the previous hidden state through a fixed alignment
projection back toward the input-embedding distribution and feeds it in as
the next input.  The cache grows by one ego-latent position per step and no
vocabulary projection ever happens.
"""

from dataclasses import dataclass

import numpy as np

from . import model as model_module
from .errors import AlignmentError, ConfigError, ContextOverflowError
from .model import AttentionTrace, DecodeBatch, Model, rowwise_matmul

forward_decode = model_module.forward_decode  # not called here; perfbench/tracing.py looks it up
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
    final_hidden: np.ndarray  # (A, d)
    traces: list  # one AttentionTrace per agent
    steps: int


def deliberate(model: Model, w_a: np.ndarray, h0: np.ndarray, caches, m: int) -> DeliberationResult:
    """Run m latent steps, appending ego-latent positions to every cache.

    ``caches`` is a lock-step batch of A caches with an (A, d) ``h0`` (see
    :class:`laco.model.DecodeBatch`, made once); every step is one pass for all A
    agents, and the result holds one trace per agent.  Deliberation is ego-local:
    received context joins only the final decision decode.  Each step's rows go
    straight into its (L, A·H, n0 + m) slot of one buffer, checked once; agent a
    views heads [a·H, (a+1)·H).  Steps that repeat the last one's input rerun only attention,
    in one ``DecodeBatch.repeat`` call, until an attention output changes.  A run that would
    overflow the caches raises :class:`ContextOverflowError` before its first step.  With m = 0
    the caches are untouched, ``final_hidden`` is ``h0``'s value and each trace has zero steps.
    The buffer and ``final_hidden`` are read-only once checked: ticks may share one result.
    """
    if m < 0:
        raise ConfigError("step count m must be >= 0")
    first, A = caches[0], len(caches)
    L, H, n0 = model.config.num_layers, model.config.num_heads, first.length
    if n0 + m > first.capacity:
        raise ContextOverflowError(f"{m} latent steps from {n0} positions overflow {first.capacity}")
    array = np.zeros((m, L, A * H, n0 + m), dtype=np.float32)
    lengths = np.arange(n0 + 1, n0 + m + 1, dtype=np.int64)
    h, batch, t = np.array(h0, dtype=np.float32), DecodeBatch(model, caches), 0
    while t < m:
        x = rowwise_matmul(h, w_a)
        t += batch.repeat(x, m - t, array[t:])  # the steps that repeat step t - 1
        if t < m:  # the step it stopped at runs in full
            h, _ = batch(x, array[t])
            t += 1
    whole = AttentionTrace(array, lengths)  # one row check for every agent's heads
    array.flags.writeable = h.flags.writeable = False
    traces = [whole.part(np.s_[:, :, a * H : (a + 1) * H]) for a in range(A)]
    return DeliberationResult(final_hidden=h, traces=traces, steps=m)
