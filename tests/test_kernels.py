import numpy as np

from laco import kernels


def test_rows_are_distributions():
    rng = np.random.default_rng(3)
    k = rng.normal(size=(2, 11, 8)).astype(np.float32)
    q = rng.normal(size=(2, 8)).astype(np.float32)
    _, rows = kernels.attend_single(k, k, q, 0.35)
    assert rows.min() >= 0.0
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-6)


def test_causal_mask_zeroes_future():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 6, 4)).astype(np.float32)
    _, rows = kernels.attend_causal(x, x, x, 0.5)
    for t in range(6):
        assert np.all(rows[:, t, t + 1 :] == 0.0)
        np.testing.assert_allclose(rows[:, t, : t + 1].sum(axis=1), 1.0, atol=1e-6)


def test_singleton_context_weight_is_one():
    k = np.ones((3, 1, 4), dtype=np.float32)
    q = np.ones((3, 4), dtype=np.float32)
    _, rows = kernels.attend_single(k, k, q, 0.5)
    np.testing.assert_array_equal(rows, np.ones((3, 1), dtype=np.float32))


def test_extreme_logits_stay_finite():
    k = np.full((1, 4, 4), 80.0, dtype=np.float32)
    k[0, 0] = -80.0
    q = np.full((1, 4), 80.0, dtype=np.float32)
    out, rows = kernels.attend_single(k, k, q, 1.0)
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(rows))
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-6)
