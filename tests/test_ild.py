import numpy as np
import pytest

from laco.errors import ConfigError, ContextOverflowError
from laco.ild import compute_alignment, deliberate
from laco.model import (
    EGO_LATENT,
    TOKEN_CLEAR,
    TOKEN_EGO_A,
    TOKEN_HAZARD_A,
    ModelConfig,
    init_model,
    make_hazard_model,
    prefill,
)
from reference import ref_check_tag_partition, ref_deliberate_hidden


def cfg(seed=0, **kw):
    base = dict(num_layers=2, num_heads=2, model_dim=8, vocab_size=16, max_context=64, seed=seed)
    base.update(kw)
    return ModelConfig(**base)


def householder(n, rng):
    """Random symmetric orthogonal matrix (reflection), float32."""
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    return (np.eye(n) - 2.0 * np.outer(u, u)).astype(np.float32)


class TestAlignment:
    def test_orthogonal_square_case(self):
        # with an orthogonal square output head, pinv(W_out) = W_out^T,
        # so the alignment collapses to W_out^T @ W_in
        rng = np.random.default_rng(0)
        m = init_model(cfg(vocab_size=8))
        m.w_out = householder(8, rng)
        m.w_in = rng.normal(size=(8, 8)).astype(np.float32)
        m._alignment = None
        proj = compute_alignment(m)
        expected = m.w_out.T.astype(np.float64) @ m.w_in.astype(np.float64)
        np.testing.assert_allclose(proj, expected, atol=1e-5)

    def test_pinv_defining_identity(self):
        m = init_model(cfg(seed=2))
        w = m.w_out.T.astype(np.float64)
        pinv = np.linalg.pinv(w, rcond=1e-6)
        err = np.linalg.norm(w @ pinv @ w - w) / np.linalg.norm(w)
        assert err < 1e-5

    def test_memoized_same_object(self):
        m = init_model(cfg(seed=3))
        a = compute_alignment(m)
        b = compute_alignment(m)
        assert a is b
        assert a.tobytes() == b.tobytes()

    def test_shape(self):
        m = init_model(cfg(seed=4, vocab_size=20))
        proj = compute_alignment(m)
        assert proj.shape == (8, 8) and proj.dtype == np.float32


class TestDeliberate:
    def test_m0_no_change(self):
        m = init_model(cfg(seed=5))
        res = prefill(m, [1, 2, 3])
        h0 = res.hidden.copy()
        before = res.cache.length
        out = deliberate(m, compute_alignment(m), h0, res.cache, 0)
        assert res.cache.length == before
        np.testing.assert_array_equal(out.final_hidden, h0)
        assert out.trace.num_steps == 0

    @pytest.mark.parametrize("m_steps", [1, 3, 5])
    def test_cache_growth_law(self, m_steps):
        mdl = init_model(cfg(seed=6))
        res = prefill(mdl, [1, 2, 3, 4])
        deliberate(mdl, compute_alignment(mdl), res.hidden, res.cache, m_steps)
        assert res.cache.length == 4 + m_steps
        assert np.all(res.cache.tags[4 : 4 + m_steps] == EGO_LATENT)
        ref_check_tag_partition(res.cache)

    def test_default_ten_steps_on_stable_model(self):
        mdl = make_hazard_model(cfg())
        res = prefill(mdl, [TOKEN_CLEAR, TOKEN_HAZARD_A, TOKEN_EGO_A])
        out = deliberate(mdl, compute_alignment(mdl), res.hidden, res.cache, 10)
        assert res.cache.length == 3 + 10
        assert out.trace.num_steps == 10

    def test_no_vocabulary_projections(self):
        mdl = init_model(cfg(seed=7))
        res = prefill(mdl, [1, 2])
        before = mdl.stats.logit_projections
        deliberate(mdl, compute_alignment(mdl), res.hidden, res.cache, 4)
        assert mdl.stats.logit_projections == before

    def test_forward_pass_count(self):
        mdl = init_model(cfg(seed=8))
        res = prefill(mdl, [1, 2])
        before = mdl.stats.forward_passes[0]
        deliberate(mdl, compute_alignment(mdl), res.hidden, res.cache, 6)
        assert mdl.stats.forward_passes[0] == before + 6

    def test_trace_context_lengths(self):
        mdl = init_model(cfg(seed=9))
        res = prefill(mdl, [1, 2, 3])
        out = deliberate(mdl, compute_alignment(mdl), res.hidden, res.cache, 4)
        np.testing.assert_array_equal(out.trace.lengths[:4], [4, 5, 6, 7])

    def test_negative_m_rejected(self):
        mdl = init_model(cfg())
        res = prefill(mdl, [1])
        with pytest.raises(ConfigError):
            deliberate(mdl, compute_alignment(mdl), res.hidden, res.cache, -1)

    def test_overflow_mid_run(self):
        mdl = init_model(cfg(max_context=5))
        res = prefill(mdl, [1, 2, 3])
        with pytest.raises(ContextOverflowError):
            deliberate(mdl, compute_alignment(mdl), res.hidden, res.cache, 4)

    def test_matches_unrolled_reference_hazard(self):
        mdl = make_hazard_model(cfg())
        tokens = [TOKEN_CLEAR, TOKEN_HAZARD_A, TOKEN_CLEAR, TOKEN_EGO_A]
        res = prefill(mdl, tokens)
        proj = compute_alignment(mdl)
        out = deliberate(mdl, proj, res.hidden, res.cache, 3)
        ref = ref_deliberate_hidden(mdl, tokens, proj, 3)
        np.testing.assert_allclose(out.final_hidden, ref, atol=1e-6)

    def test_matches_unrolled_reference_random(self):
        mdl = init_model(cfg(seed=10))
        tokens = [3, 9, 14]
        res = prefill(mdl, tokens)
        proj = compute_alignment(mdl)
        out = deliberate(mdl, proj, res.hidden, res.cache, 3)
        ref = ref_deliberate_hidden(mdl, tokens, proj, 3)
        np.testing.assert_allclose(out.final_hidden, ref, rtol=1e-5, atol=1e-6)
