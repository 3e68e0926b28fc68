import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laco.chsa import SaliencyVector, build_chsa_cache, saliency_scores, select_topk
from laco.errors import ConfigError, EmptyTraceError
from laco.ild import compute_alignment, deliberate
from laco.model import AttentionTrace, ModelConfig, init_model, prefill
from reference import ref_saliency, ref_topk


def random_trace(rng, steps, L, H, prefill_len, extra=0):
    """Synthetic trace: each row a random distribution over a growing context."""
    maxn = prefill_len + extra + steps
    trace = AttentionTrace(steps, L, H, maxn)
    for t in range(steps):
        n = prefill_len + extra + t + 1
        raw = rng.random((L, H, n)) + 1e-3
        rows = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
        rows = rows / rows.sum(axis=2, keepdims=True, dtype=np.float64).astype(np.float32)
        trace.record(rows, n)
    return trace


class TestSaliency:
    def test_uniform_rows_uniform_scores(self):
        n = 10
        trace = AttentionTrace(1, 2, 2, n)
        trace.record(np.full((2, 2, n), 1.0 / n, dtype=np.float32), n)
        sal = saliency_scores(trace, prefill_len=n)
        np.testing.assert_allclose(sal.scores, 1.0 / n, atol=1e-7)

    def test_one_hot_head_dominates(self):
        n = 8
        trace = AttentionTrace(2, 2, 2, n)
        for _ in range(2):
            rows = np.full((2, 2, n), 1.0 / n, dtype=np.float32)
            rows[0, 0, :] = 0.0
            rows[0, 0, 3] = 1.0
            trace.record(rows, n)
        sal = saliency_scores(trace, prefill_len=n)
        np.testing.assert_allclose(sal.scores[3], 1.0, atol=1e-7)
        assert np.argmax(sal.scores) == 3

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        trace = random_trace(rng, steps=3, L=2, H=2, prefill_len=6)
        sal = saliency_scores(trace, prefill_len=6)
        ref = ref_saliency(trace.array[:3], trace.lengths[:3], 6)
        np.testing.assert_allclose(sal.scores, ref, atol=1e-9)

    def test_scores_bounded(self):
        rng = np.random.default_rng(1)
        trace = random_trace(rng, steps=4, L=3, H=2, prefill_len=9)
        sal = saliency_scores(trace, prefill_len=9)
        assert np.all(sal.scores >= 0.0) and np.all(sal.scores <= 1.0)

    def test_latent_positions_not_scored(self):
        rng = np.random.default_rng(2)
        trace = random_trace(rng, steps=3, L=2, H=2, prefill_len=5, extra=4)
        sal = saliency_scores(trace, prefill_len=5)
        assert sal.scores.shape == (5,)

    def test_empty_trace_rejected(self):
        trace = AttentionTrace(0, 2, 2, 4)
        with pytest.raises(EmptyTraceError):
            saliency_scores(trace, prefill_len=4)

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
        sal = SaliencyVector(scores=np.array([0.3, 0.9, 0.1]), retention_ratio=1.0, top_k=3)
        assert select_topk(sal) == [0, 1, 2]

    def test_ties_break_low(self):
        sal = SaliencyVector(scores=np.full(10, 0.5), retention_ratio=0.3, top_k=3)
        assert select_topk(sal) == [0, 1, 2]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        scores = rng.random(12)
        sal = SaliencyVector(scores=scores, retention_ratio=0.3, top_k=math.ceil(0.3 * 12))
        assert select_topk(sal) == ref_topk(scores, 4)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=24),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_property_matches_oracle(self, scores, ratio):
        k = math.ceil(ratio * len(scores))
        sal = SaliencyVector(scores=np.array(scores), retention_ratio=ratio, top_k=k)
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
            sal = SaliencyVector(scores=np.array(scores), retention_ratio=k / n, top_k=k)
            picks.append(set(select_topk(sal)))
        for small, large in zip(picks, picks[1:]):
            assert small <= large


class TestBuildCache:
    def _segments(self, seed=0, T=6, m=3):
        mdl = init_model(ModelConfig(2, 2, 8, 16, 32, seed=seed))
        res = prefill(mdl, list(range(T)))
        deliberate(mdl, compute_alignment(mdl), res.hidden, res.cache, m)
        return res.cache.slice(0, T), res.cache.slice(T, T + m)

    def test_identity_selection_keeps_everything(self):
        pre, lat = self._segments()
        cc = build_chsa_cache(pre, lat, list(range(6)))
        assert cc.num_positions == 9

    def test_selected_bytes_exact(self):
        pre, lat = self._segments(seed=1)
        cc = build_chsa_cache(pre, lat, [2, 5])
        np.testing.assert_array_equal(cc.keys[:, :, 0, :], pre.keys[:, :, 2, :])
        np.testing.assert_array_equal(cc.values[:, :, 1, :], pre.values[:, :, 5, :])
        assert cc.keys[:, :, :2, :].tobytes() == pre.keys[:, :, [2, 5], :].tobytes()
        np.testing.assert_array_equal(cc.tags[:2], pre.tags[[2, 5]])

    def test_latent_segment_copied_whole(self):
        pre, lat = self._segments(seed=2)
        cc = build_chsa_cache(pre, lat, [0])
        assert cc.num_positions == 1 + 3
        np.testing.assert_array_equal(cc.keys[:, :, 1:, :], lat.keys)
        np.testing.assert_array_equal(cc.tags[1:], lat.tags)

    def test_out_of_range_index(self):
        pre, lat = self._segments()
        with pytest.raises(IndexError):
            build_chsa_cache(pre, lat, [0, 7])

    def test_unsorted_indices_rejected(self):
        pre, lat = self._segments()
        with pytest.raises(ConfigError):
            build_chsa_cache(pre, lat, [3, 1])
