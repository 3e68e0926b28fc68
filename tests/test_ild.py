import numpy as np
import pytest

from laco import ild
from laco import model as model_module
from laco.errors import ConfigError, ContextOverflowError
from laco.ild import compute_alignment, deliberate
from laco.model import (
    TOKEN_CLEAR,
    TOKEN_EGO_A,
    TOKEN_HAZARD_A,
    DecodeBatch,
    Model,
    ModelConfig,
    forward_decode,
    make_hazard_model,
    prefill,
)
from laco.scenario import builtin_scenario_path, load_scenario, run_episode
from laco.wire import distill
from reference import init_model, init_weights, ref_deliberate_hidden


def cfg(**kw):
    base = dict(num_layers=2, num_heads=2, model_dim=8, vocab_size=16, max_context=64)
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
        m = init_model(cfg(vocab_size=8), 0)
        m.w_out = householder(8, rng)
        m.w_in = rng.normal(size=(8, 8)).astype(np.float32)
        m._alignment = None
        proj = compute_alignment(m)
        expected = m.w_out.T.astype(np.float64) @ m.w_in.astype(np.float64)
        np.testing.assert_allclose(proj, expected, atol=1e-5)

    def test_pinv_defining_identity(self):
        m = init_model(cfg(), 2)
        w = m.w_out.T.astype(np.float64)
        pinv = np.linalg.pinv(w, rcond=1e-6)
        err = np.linalg.norm(w @ pinv @ w - w) / np.linalg.norm(w)
        assert err < 1e-5

    def test_memoized_same_object(self):
        m = init_model(cfg(), 3)
        a = compute_alignment(m)
        b = compute_alignment(m)
        assert a is b
        assert a.tobytes() == b.tobytes()

    def test_shape(self):
        m = init_model(cfg(vocab_size=20), 4)
        proj = compute_alignment(m)
        assert proj.shape == (8, 8) and proj.dtype == np.float32


class TestDeliberate:
    def test_m0_no_change(self):
        m = init_model(cfg(), 5)
        res = prefill(m, [[1, 2, 3]])
        h0 = res.hidden.copy()
        before = res.caches[0].length
        out = deliberate(compute_alignment(m), res, 0)
        assert res.caches[0].length == before
        np.testing.assert_array_equal(out.final_hidden, h0)
        assert out.traces[0].num_steps == 0

    @pytest.mark.parametrize("m_steps", [1, 3, 5])
    def test_cache_growth_law(self, m_steps):
        mdl = init_model(cfg(), 6)
        res = prefill(mdl, [[1, 2, 3, 4]])
        deliberate(compute_alignment(mdl), res, m_steps)
        # Positions 4 .. 4 + m_steps - 1 are ego latent.
        assert (res.caches[0].prefill_len, res.caches[0].length) == (4, 4 + m_steps)

    def test_default_ten_steps_on_stable_model(self):
        mdl = make_hazard_model(cfg())
        res = prefill(mdl, [[TOKEN_CLEAR, TOKEN_HAZARD_A, TOKEN_EGO_A]])
        out = deliberate(compute_alignment(mdl), res, 10)
        assert res.caches[0].length == 3 + 10
        assert out.traces[0].num_steps == 10

    def test_no_vocabulary_projections(self, monkeypatch):
        mdl = init_model(cfg(), 7)
        res = prefill(mdl, [[1, 2]])
        w_a = compute_alignment(mdl)

        def refuse(*_):
            raise AssertionError("deliberation projected to logits")

        monkeypatch.setattr(model_module, "project_to_logits", refuse)
        monkeypatch.setattr(ild, "project_to_logits", refuse, raising=False)
        assert deliberate(w_a, res, 4).steps == 4

    def test_forward_pass_count(self, monkeypatch):
        """The prefill's own batch, stepped once per latent step."""
        mdl = init_model(cfg(), 8)
        res = prefill(mdl, [[1, 2]])
        steps, step = [], model_module.DecodeBatch.__call__

        def counted(batch, *args, **kwargs):
            steps.append(batch)
            return step(batch, *args, **kwargs)

        monkeypatch.setattr(model_module.DecodeBatch, "__call__", counted)
        deliberate(compute_alignment(mdl), res, 6)
        assert len(steps) == 6 and all(b is res for b in steps)
        assert steps[0].caches is res.caches
        assert res.caches[0].length - res.caches[0].prefill_len == 6  # one position per pass

    def test_trace_context_lengths(self):
        mdl = init_model(cfg(), 9)
        res = prefill(mdl, [[1, 2, 3]])
        out = deliberate(compute_alignment(mdl), res, 4)
        np.testing.assert_array_equal(out.traces[0].lengths[:4], [4, 5, 6, 7])

    def test_negative_m_rejected(self):
        mdl = init_model(cfg(), 0)
        res = prefill(mdl, [[1]])
        with pytest.raises(ConfigError):
            deliberate(compute_alignment(mdl), res, -1)

    def test_a_batch_with_no_prefill_state_rejected(self):
        """A batch made over existing caches holds no hidden states to deliberate from."""
        mdl = init_model(cfg(), 0)
        res = prefill(mdl, [[1, 2]])
        with pytest.raises(ConfigError, match="hidden states") as info:
            deliberate(compute_alignment(mdl), DecodeBatch(mdl, res.caches), 3)
        assert "\n" not in str(info.value)
        assert res.caches[0].length == 2

    def test_overflow_mid_run(self):
        mdl = init_model(cfg(max_context=5), 0)
        res = prefill(mdl, [[1, 2, 3]])
        with pytest.raises(ContextOverflowError):
            deliberate(compute_alignment(mdl), res, 4)

    def test_overflow_raises_before_the_first_step(self):
        """A run that cannot fit leaves caches and store untouched."""
        mdl = init_model(cfg(max_context=60), 11)
        res = prefill(mdl, np.random.default_rng(11).integers(0, 16, size=(2, 50)))
        store = res.caches[0].store.copy()
        with pytest.raises(ContextOverflowError):
            deliberate(compute_alignment(mdl), res, 20)
        assert [(c.prefill_len, c.length) for c in res.caches] == [(50, 50), (50, 50)]
        np.testing.assert_array_equal(res.caches[0].store, store)
        out = deliberate(compute_alignment(mdl), res, 10)
        assert out.steps == 10 and [c.length for c in res.caches] == [60, 60]

    def test_matches_unrolled_reference_hazard(self):
        mdl = make_hazard_model(cfg())
        tokens = [TOKEN_CLEAR, TOKEN_HAZARD_A, TOKEN_CLEAR, TOKEN_EGO_A]
        res = prefill(mdl, [tokens])
        proj = compute_alignment(mdl)
        out = deliberate(proj, res, 3)
        ref = ref_deliberate_hidden(mdl, tokens, proj, 3)
        np.testing.assert_allclose(out.final_hidden[0], ref, atol=1e-6)

    def test_matches_unrolled_reference_random(self):
        mdl = init_model(cfg(), 10)
        tokens = [3, 9, 14]
        res = prefill(mdl, [tokens])
        proj = compute_alignment(mdl)
        out = deliberate(proj, res, 3)
        ref = ref_deliberate_hidden(mdl, tokens, proj, 3)
        np.testing.assert_allclose(out.final_hidden[0], ref, rtol=1e-5, atol=1e-6)


def zero_kv_model(d=16, num_layers=4, pos="zero", passthrough=(), seed=0, max_context=64):
    """Random weights with ``w_k`` and ``w_v`` zero at every layer, so every
    context stays exactly zero, and the layers ``passthrough`` all zero.
    Channel 0 is 1 in every embedding and no layer writes it, so with
    :func:`fixed_alignment` every step's input is the same vector."""
    config = ModelConfig(num_layers=num_layers, num_heads=2, model_dim=d, vocab_size=32,
                         max_context=max_context)
    w_in, w_out, sinusoidal, layers = init_weights(config, seed)
    w_in[:, 0] = 1.0
    for l, lw in enumerate(layers):
        lw.w_qkv[:, d:] = 0.0
        lw.w_o[:, 0] = lw.w_mlp2[:, 0] = 0.0
        if l in passthrough:
            for w in (lw.w_qkv, lw.w_o, lw.w_mlp1, lw.w_mlp2):
                w[...] = 0.0
    table = {"zero": np.zeros_like(sinusoidal), "sinusoidal": sinusoidal,
             "negative zero": np.full_like(sinusoidal, -0.0)}[pos]
    model = Model(config, w_in, w_out, table, layers)
    assert not any(model.zero_mlp[l] for l in range(num_layers) if l not in passthrough)
    return model


def fixed_alignment(model, seed=0):
    """A (d, d) W_a that sends a hidden state with channel 0 = 1 to one fixed
    vector, itself with channel 0 = 1."""
    d = model.config.model_dim
    w_a = np.zeros((d, d), np.float32)
    w_a[0] = np.random.default_rng(seed).uniform(-1, 1, d)
    w_a[0, 0] = 1.0
    return w_a


class TestRepeat:
    """A deliberation whose steps repeat over an all-zero context runs them in
    one ``DecodeBatch.repeat`` call, bit for bit as stepping them."""

    def deliberation(self, model, A, m, seed):
        """The bytes of a deliberation's hidden states, traces, store and lengths."""
        tokens = np.random.default_rng(seed).integers(0, model.config.vocab_size, size=(A, 12))
        pre = prefill(model, tokens)
        out = deliberate(fixed_alignment(model, seed), pre, m)
        arrays = [out.final_hidden, *(t.array for t in out.traces), pre.caches[0].store]
        return ([np.ascontiguousarray(a).tobytes() for a in arrays],
                [(c.prefill_len, c.length) for c in pre.caches], out.traces[0].lengths.tolist())

    @pytest.mark.parametrize("passthrough", [(), (1, 2)])
    @pytest.mark.parametrize("A", [1, 3])
    @pytest.mark.parametrize("d", [8, 16, 18])
    def test_matches_stepping(self, d, A, passthrough, monkeypatch, full_steps):
        """Hidden states, traces, store and lengths equal those of the full path,
        which steps to the end, and only step 0 ran in full: steps 1 .. m-1 ran in one call."""
        model = zero_kv_model(d, passthrough=passthrough, seed=d)
        got = self.deliberation(model, A, 20, d)
        assert full_steps == [1]
        monkeypatch.setattr(model_module, "SHORTCUTS", False)
        assert got == self.deliberation(model, A, 20, d)

    def test_never_runs_with_sinusoidal_positions(self, monkeypatch, full_steps):
        """Every step reads an all-zero context, but no two steps have one layer-0 input."""
        model = zero_kv_model(pos="sinusoidal")
        got = self.deliberation(model, 2, 20, 1)
        assert full_steps == [20]
        monkeypatch.setattr(model_module, "SHORTCUTS", False)
        assert got == self.deliberation(model, 2, 20, 1)

    def test_random_weights_never_record(self):
        """With non-zero keys every layer of each recorded step attended; with a
        sinusoidal table no step repeats the record's input."""
        mdl = init_model(cfg(), 8)
        res = prefill(mdl, [[1, 2]])
        batch = DecodeBatch(mdl, res.caches)
        x = decode_input(mdl, 1)
        for _ in range(3):
            batch(x)
            assert all(q is not None and out is not None for q, out in batch.record[1])
            assert batch.repeat(x, 1, np.zeros((1, 2, 2, 8), np.float32)) == 0

    @pytest.mark.parametrize("l_comm", [1, 4])
    def test_matches_stepping_with_joined_payloads(self, l_comm):
        """A batch that joins all-zero payload positions repeats k steps as k
        steps of the same input: hidden state, rows, store and lengths."""
        model = zero_kv_model()
        A, T, k = 2, 12, 6
        tokens = np.random.default_rng(3).integers(0, 32, size=(A, T))
        senders = prefill(model, tokens[::-1])
        inboxes = [[distill(senders.caches[1 - a], range(a, T, 2), l_comm / 4, sender_id=1 - a,
                            frame_id=0)] for a in range(A)]
        x = decode_input(model, A)
        outs = []
        for fast in (True, False):
            pre = prefill(model, tokens)
            batch = DecodeBatch(model, pre.caches, inboxes)
            rows = np.zeros((k + 1, 4, A * 2, T + k + 1 + T), np.float32)
            hidden, _ = batch(x, rows[0])
            if fast:
                assert batch.repeat(x, k, rows[1:]) == k
            else:
                for t in range(1, k + 1):
                    hidden, _ = batch(x, rows[t])
            outs.append([hidden.tobytes(), rows.tobytes(), pre.caches[0].store.tobytes(),
                         [c.length for c in pre.caches], batch.length])
        assert outs[0] == outs[1]

    def test_writes_every_position_it_appends(self):
        """Positions past the length hold NaN here; a repeat overwrites each one
        it appends at every non-passthrough layer, with a step's K/V bits."""
        model = zero_kv_model(passthrough=(1, 2))
        x, stores = decode_input(model, 2), []
        for fast in (True, False):
            pre = prefill(model, [[1, 2, 3], [4, 5, 6]])
            pre.caches[0].store[:, :, :, 3:] = np.nan
            batch = DecodeBatch(model, pre.caches)
            batch(x)
            if fast:
                assert batch.repeat(x, 5, np.zeros((5, 4, 4, 9), np.float32)) == 5
            else:
                for _ in range(5):
                    batch(x)
            stores.append(pre.caches[0].store)
        assert stores[0].tobytes() == stores[1].tobytes()
        assert not np.isnan(stores[0][:, [0, 3], :, :9]).any() and np.isnan(stores[0][:, 1:3, :, 3:]).all()

    def test_the_sign_of_a_zero_input_stops_it(self):
        """An input that differs from the recorded one only by the sign of a zero
        does not repeat it; a -0.0 positional table keeps the sign."""
        model = zero_kv_model(pos="negative zero")
        pre = prefill(model, [[1, 2, 3]])
        batch = DecodeBatch(model, pre.caches)
        x = decode_input(model, 1)
        x[0, 1] = 0.0
        batch(x)
        rows = np.zeros((3, 4, 2, 8), np.float32)
        flipped = x.copy()
        flipped[0, 1] = -0.0
        assert batch.repeat(flipped, 3, rows) == 0 and batch.length == 4
        assert batch.repeat(x, 3, rows) == 3 and batch.length == 7

    def test_each_position_of_the_run_is_checked(self):
        """A positional row that differs at any position of the run stops it
        before its first step."""
        model = zero_kv_model()
        pos = model.pos.copy()
        pos[7, 5] = 1e-3
        model = Model(model.config, model.w_in, model.w_out, pos, model.layers)
        pre = prefill(model, [[1, 2, 3]])
        batch = DecodeBatch(model, pre.caches)
        x = decode_input(model, 1)
        batch(x)
        assert batch.repeat(x, 4, np.zeros((4, 4, 2, 8), np.float32)) == 0 and batch.length == 4
        assert batch.repeat(x, 3, np.zeros((3, 4, 2, 8), np.float32)) == 3 and batch.length == 7
        assert batch.repeat(x, 0, np.zeros((0, 4, 2, 8), np.float32)) == 0 and batch.length == 7

    def test_a_decode_outside_the_batch_raises(self):
        model = zero_kv_model()
        pre = prefill(model, [[1, 2, 3], [4, 5, 6]])
        batch = DecodeBatch(model, pre.caches)
        x = decode_input(model, 2)
        batch(x)
        assert batch.record[1] == [(None, None)] * 4  # no layer attended
        forward_decode(model, x[:1], pre.caches[:1])
        with pytest.raises(ConfigError, match="decoded outside"):
            batch.repeat(x, 2, np.zeros((2, 4, 4, 8), np.float32))

    def test_steps_past_capacity_raise(self):
        model = zero_kv_model(max_context=8)
        pre = prefill(model, [[1, 2, 3]])
        batch = DecodeBatch(model, pre.caches)
        x = decode_input(model, 1)
        batch(x)
        store = pre.caches[0].store.copy()
        with pytest.raises(ContextOverflowError):
            batch.repeat(x, 5, np.zeros((5, 4, 2, 9), np.float32))
        assert batch.length == pre.caches[0].length == 4
        np.testing.assert_array_equal(pre.caches[0].store, store)
        assert batch.repeat(x, 4, np.zeros((4, 4, 2, 8), np.float32)) == 4
        assert pre.caches[0].length == 8

    def test_runs_on_occluded_1_under_laco(self, monkeypatch, full_steps):
        """Fewer full steps run than with ``SHORTCUTS`` off."""
        spec = load_scenario(builtin_scenario_path("occluded_1"))
        run_episode(spec, "LACO")
        on = full_steps[0]
        monkeypatch.setattr(model_module, "SHORTCUTS", False)
        run_episode(spec, "LACO")
        assert on < full_steps[0] - on


def decode_input(model, A, seed=0):
    """An (A, d) float32 decode input."""
    return np.random.default_rng(seed).uniform(-1, 1, size=(A, model.config.model_dim)).astype(np.float32)
