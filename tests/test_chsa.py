import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laco.chsa import SaliencyVector, saliency_scores, select_topk
from laco.errors import ConfigError, EmptyTraceError, PayloadFormatError
from laco.ild import compute_alignment, deliberate
from laco.model import AttentionTrace, ModelConfig, prefill
from laco.wire import distill
from reference import init_model, ref_saliency, ref_topk


def random_trace(rng, steps, L, H, prefill_len, extra=0):
    """Synthetic trace: each row a random distribution over a growing context."""
    maxn = prefill_len + extra + steps
    array = np.zeros((steps, L, H, maxn), dtype=np.float32)
    lengths = np.arange(1, steps + 1) + prefill_len + extra
    for t, n in enumerate(lengths):
        raw = rng.random((L, H, n)) + 1e-3
        rows = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
        rows = rows / rows.sum(axis=2, keepdims=True, dtype=np.float64).astype(np.float32)
        array[t, :, :, :n] = rows
    return AttentionTrace(array, lengths)


class TestSaliency:
    def test_uniform_rows_uniform_scores(self):
        n = 10
        trace = AttentionTrace(np.full((1, 2, 2, n), 1.0 / n, dtype=np.float32), np.array([n]))
        sal = saliency_scores(trace, n, 0.3)
        np.testing.assert_allclose(sal.scores, 1.0 / n, atol=1e-7)

    def test_one_hot_head_dominates(self):
        n = 8
        array = np.full((2, 2, 2, n), 1.0 / n, dtype=np.float32)
        array[:, 0, 0, :] = 0.0
        array[:, 0, 0, 3] = 1.0
        trace = AttentionTrace(array, np.array([n, n]))
        sal = saliency_scores(trace, n, 0.3)
        np.testing.assert_allclose(sal.scores[3], 1.0, atol=1e-7)
        assert np.argmax(sal.scores) == 3

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        trace = random_trace(rng, steps=3, L=2, H=2, prefill_len=6)
        sal = saliency_scores(trace, 6, 0.3)
        ref = ref_saliency(trace.array[:3], trace.lengths[:3], 6)
        np.testing.assert_allclose(sal.scores, ref, atol=1e-9)

    def test_scores_bounded(self):
        rng = np.random.default_rng(1)
        trace = random_trace(rng, steps=4, L=3, H=2, prefill_len=9)
        sal = saliency_scores(trace, 9, 0.3)
        assert np.all(sal.scores >= 0.0) and np.all(sal.scores <= 1.0)

    def test_latent_positions_not_scored(self):
        rng = np.random.default_rng(2)
        trace = random_trace(rng, steps=3, L=2, H=2, prefill_len=5, extra=4)
        sal = saliency_scores(trace, 5, 0.3)
        assert sal.scores.shape == (5,)

    def test_empty_trace_rejected(self):
        trace = AttentionTrace(np.zeros((0, 2, 2, 4), dtype=np.float32),
                               np.zeros(0, dtype=np.int64))
        with pytest.raises(EmptyTraceError):
            saliency_scores(trace, 4, 0.3)

    def test_k_is_ceiling(self):
        rng = np.random.default_rng(3)
        trace = random_trace(rng, steps=1, L=1, H=1, prefill_len=10)
        assert saliency_scores(trace, 10, retention_ratio=0.3).top_k == 3
        assert saliency_scores(trace, 10, retention_ratio=0.25).top_k == 3
        assert saliency_scores(trace, 10, retention_ratio=0.01).top_k == 1

    def test_bad_ratio_rejected(self):
        rng = np.random.default_rng(4)
        trace = random_trace(rng, steps=1, L=1, H=1, prefill_len=4)
        with pytest.raises(ConfigError):
            saliency_scores(trace, 4, retention_ratio=0.0)


class TestTopK:
    def test_full_retention(self):
        sal = SaliencyVector(scores=np.array([0.3, 0.9, 0.1]), top_k=3)
        assert select_topk(sal) == [0, 1, 2]

    def test_ties_break_low(self):
        sal = SaliencyVector(scores=np.full(10, 0.5), top_k=3)
        assert select_topk(sal) == [0, 1, 2]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        scores = rng.random(12)
        sal = SaliencyVector(scores=scores, top_k=math.ceil(0.3 * 12))
        assert select_topk(sal) == ref_topk(scores, 4)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=24),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_property_matches_oracle(self, scores, ratio):
        k = math.ceil(ratio * len(scores))
        sal = SaliencyVector(scores=np.array(scores), top_k=k)
        got = select_topk(sal)
        assert got == ref_topk(scores, k)
        assert got == sorted(got)
        assert len(got) == k

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=16, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_monotone_payload_on_distinct_scores(self, scores):
        n = len(scores)
        picks = []
        for k in range(1, n + 1):
            sal = SaliencyVector(scores=np.array(scores), top_k=k)
            picks.append(set(select_topk(sal)))
        for small, large in zip(picks, picks[1:]):
            assert small <= large


class TestBuildCache:
    """The transmitted [salient prefill || latent] cache, cut by ``distill``."""

    def _cache(self, seed=0, T=6, m=3):
        mdl = init_model(ModelConfig(2, 2, 8, 16, 32), seed)
        res = prefill(mdl, [list(range(T))])
        deliberate(mdl, compute_alignment(mdl), res.hidden, res.caches, m)
        return res.caches[0]

    def _distill(self, cache, indices):
        return distill(cache, indices, 1.0, sender_id=0, frame_id=0)

    def test_identity_selection_keeps_everything(self):
        p = self._distill(self._cache(), list(range(6)))
        assert p.num_positions == 9

    def test_selected_bytes_exact(self):
        cache = self._cache(seed=1)
        p = self._distill(cache, [2, 5])
        np.testing.assert_array_equal(p.keys[:, :, 0, :], cache.k[:, :, 2, :])
        np.testing.assert_array_equal(p.values[:, :, 1, :], cache.v[:, :, 5, :])
        assert p.keys[:, :, :2, :].tobytes() == cache.k[:, :, [2, 5], :].astype(np.float32).tobytes()
        assert p.salient_count == 2 and p.source_indices == (2, 5)
        assert cache.prefill_len == 6  # positions 2 and 5 are ego prefill

    def test_latent_segment_copied_whole(self):
        cache = self._cache(seed=2)
        p = self._distill(cache, [0])
        assert p.num_positions == 1 + 3
        np.testing.assert_array_equal(p.keys[:, :, 1:, :], cache.k[:, :, 6:9, :])
        assert p.latent_count == 3
        assert (cache.prefill_len, cache.length) == (6, 9)  # positions 6..8 are ego latent

    def test_out_of_range_index(self):
        cache = self._cache()
        # 6 and 7 are latent positions of the cache, past the prefill run
        for indices in ([0, 7], [0, 6], [-1, 2]):
            with pytest.raises(IndexError):
                self._distill(cache, indices)

    def test_unsorted_indices_rejected(self):
        # the Payload that distill makes checks the order
        cache = self._cache()
        with pytest.raises(PayloadFormatError, match="strictly increase"):
            self._distill(cache, [3, 1])
        with pytest.raises(PayloadFormatError, match="strictly increase"):
            self._distill(cache, [1, 1])
