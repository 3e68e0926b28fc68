import numpy as np
import pytest

from laco import kernels
from laco import scenario as sc
from reference import ref_attend_causal, ref_attend_single


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


H, DH = 2, 8
# Both forms accumulate in float64 and differ only in summation order, so
# after the float32 cast they may differ by at most one float32 ulp.
ONE_ULP = {"rtol": np.finfo(np.float32).eps, "atol": 0.0}


def _rand(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


def test_zero_context_gives_uniform_rows_and_a_zero_output():
    """Over keys and values of ±0.0 (all +0.0, all −0.0, or mixed; float32 or
    widened to float64) a finite query's logits are ±0.0: each row is exactly
    ``float32(1/n)`` and the output ±0.0, which is what the model writes when
    it skips a zero context."""
    rng = np.random.default_rng(9)
    for n in range(1, 201):
        q = (rng.normal(size=(H, DH)) * 10.0 ** rng.integers(-30, 30, size=(H, DH))).astype(np.float32)
        for signs in (np.zeros((2, H, n, DH)), np.ones((2, H, n, DH)),
                      rng.integers(0, 2, size=(2, H, n, DH))):
            for dtype in (np.float32, np.float64):
                k, v = np.where(signs == 1, -0.0, 0.0).astype(dtype)
                out, rows = kernels.attend_single(k, v, q, 0.35)
                assert out.dtype == np.float32 and np.all(out == 0.0)
                assert rows.tobytes() == np.full((H, n), 1.0 / n, np.float32).tobytes()


@pytest.mark.parametrize("n", [1, 42, 412])
def test_single_matches_einsum_oracle(n):
    rng = np.random.default_rng(n)
    k, v, q = _rand(rng, H, n, DH), _rand(rng, H, n, DH), _rand(rng, H, DH)
    out, rows = kernels.attend_single(k, v, q, 0.35)
    ref_out, ref_rows = ref_attend_single(k, v, q, 0.35)
    np.testing.assert_allclose(rows, ref_rows, **ONE_ULP)
    np.testing.assert_allclose(out, ref_out, **ONE_ULP)


@pytest.mark.parametrize("n", [1, 42, 412])
def test_single_on_widened_cache_rows_is_bit_equal(n):
    """Keys/values read from a float64 store (a strided view) give the float32 call's bits."""
    rng = np.random.default_rng(100 + n)
    k, v, q = _rand(rng, H, n, DH), _rand(rng, H, n, DH), _rand(rng, H, DH)
    store = np.zeros((2, H, n + 5, DH))
    store[0, :, :n], store[1, :, :n] = k, v
    out, rows = kernels.attend_single(k, v, q, 0.35)
    out64, rows64 = kernels.attend_single(store[0, :, :n], store[1, :, :n], q, 0.35)
    assert out64.dtype == rows64.dtype == np.float32
    np.testing.assert_array_equal(rows64, rows)
    np.testing.assert_array_equal(out64, out)


@pytest.mark.parametrize("T", [1, 2, 41, 97])
def test_causal_matches_einsum_oracle(T):
    rng = np.random.default_rng(T)
    q, k, v = _rand(rng, H, T, DH), _rand(rng, H, T, DH), _rand(rng, H, T, DH)
    out, rows = kernels.attend_causal(q, k, v, 0.35)
    ref_out, ref_rows = ref_attend_causal(q, k, v, 0.35)
    np.testing.assert_allclose(rows, ref_rows, **ONE_ULP)
    np.testing.assert_allclose(out, ref_out, **ONE_ULP)
    assert np.all(rows[:, ~np.tri(T, dtype=bool)] == 0.0)


@pytest.mark.parametrize("name", sc.builtin_scenario_names())
def test_hazard_model_calls_equal_oracle_exactly(monkeypatch, name):
    """Every kernel call of one LACO tick on a shipped layout is bit-equal to einsum.

    A decode hands ``attend_single`` a rows buffer as a fifth
    argument.  The spy checks that the kernel fills and returns a given
    buffer, copies the rows (the caller's buffer outlives the call) and gives
    the oracle the four inputs.
    """
    calls, buffered = [], []

    def spy(kernel):
        def wrapped(*args):
            out, rows = kernel(*args)
            if len(args) > 4 and args[4] is not None:
                assert rows is args[4]
                buffered.append(rows.shape)
            calls.append((kernel.__name__, args[:4], (out, rows.copy())))
            return out, rows
        return wrapped

    monkeypatch.setattr(kernels, "attend_causal", spy(kernels.attend_causal))
    monkeypatch.setattr(kernels, "attend_single", spy(kernels.attend_single))
    sc.run_tick(sc.Simulation(sc.load_scenario(sc.builtin_scenario_path(name)), "LACO"))
    oracles = {"attend_causal": ref_attend_causal, "attend_single": ref_attend_single}
    assert {kind for kind, _, _ in calls} == set(oracles)
    assert buffered, "deliberation writes its rows into the trace buffer"
    for kind, args, (out, rows) in calls:
        ref_out, ref_rows = oracles[kind](*args)
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(out, ref_out)
