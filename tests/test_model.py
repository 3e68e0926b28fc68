from dataclasses import fields

import numpy as np
import pytest

from laco import kernels
from laco import model as model_module
from laco.errors import ConfigError, ContextOverflowError
from laco.fusion import attach_payload, collaborative_decode
from laco.ild import compute_alignment, deliberate
from laco.model import (
    TOKEN_KEEP,
    AttentionTrace,
    DecodeBatch,
    Model,
    ModelConfig,
    forward_decode,
    prefill,
    project_to_logits,
)
from laco.scenario import (
    Simulation,
    builtin_scenario_names,
    builtin_scenario_path,
    load_scenario,
    observe,
)
from laco.wire import distill
from reference import (
    init_model,
    init_weights,
    ref_decode_hiddens,
    ref_matmul_row,
    ref_prefill,
    ref_prefill_hidden,
    ref_snapshot,
    sinusoidal_table,
)
from test_hazard import count_kernel_calls


def small_config(**kw):
    base = dict(num_layers=2, num_heads=2, model_dim=8, vocab_size=16, max_context=32)
    base.update(kw)
    return ModelConfig(**base)


def prefill_rows(monkeypatch, model, tokens):
    """The attention rows a prefill computes, as one (L, H, T, T) array.

    Layers 0..L-2 hold the causal rows ``attend_causal`` returns.  The last
    layer attends for position T-1 alone (``attend_single``), so only its row
    T-1 is computed; its other rows stay zero here.
    """
    calls = []
    for name in ("attend_causal", "attend_single"):
        def spy(*args, kernel=getattr(kernels, name)):
            out = kernel(*args)
            calls.append(out[1])
            return out

        monkeypatch.setattr(kernels, name, spy)
    prefill(model, [tokens])
    *causal, last = calls
    H, T = last.shape
    rows = np.zeros((len(calls), H, T, T), dtype=np.float32)
    rows[:-1] = causal
    rows[-1, :, -1] = last
    return rows


class TestConfig:
    def test_head_dim(self):
        assert small_config(model_dim=8, num_heads=2).head_dim == 4

    def test_holds_only_the_model_dimensions(self):
        assert [f.name for f in fields(ModelConfig)] == [
            "num_layers", "num_heads", "model_dim", "vocab_size", "max_context"]

    @pytest.mark.parametrize(
        "kw",
        [
            {"model_dim": 10, "num_heads": 4},
            {"num_layers": 1},
            {"vocab_size": 0},
            {"max_context": 0},
        ],
    )
    def test_rejects_bad_config(self, kw):
        with pytest.raises(ConfigError):
            small_config(**kw)


class TestInit:
    def test_same_seed_bit_identical(self):
        a, b = init_model(small_config(), 9), init_model(small_config(), 9)
        assert a.w_in.tobytes() == b.w_in.tobytes()
        assert a.w_out.tobytes() == b.w_out.tobytes()
        for la, lb in zip(a.layers, b.layers):
            for name in ("w_q", "w_k", "w_v", "w_o", "w_mlp1", "w_mlp2"):
                assert getattr(la, name).tobytes() == getattr(lb, name).tobytes()

    def test_different_seeds_differ(self):
        a, b = init_model(small_config(), 1), init_model(small_config(), 2)
        assert not np.array_equal(a.w_in, b.w_in)

    def test_weights_bounded_and_finite(self):
        m = init_model(small_config(), 3)
        bound = 1.0 / np.sqrt(m.config.model_dim)
        for w in (m.w_in, m.w_out, m.layers[0].w_q):
            assert np.all(np.isfinite(w))
            assert np.all(np.abs(w) <= bound)

    def test_positional_table_values(self):
        t = sinusoidal_table(4, 6)
        assert t.shape == (4, 6)
        np.testing.assert_allclose(t[0, ::2], 0.0, atol=1e-7)
        np.testing.assert_allclose(t[0, 1::2], 1.0, atol=1e-7)
        np.testing.assert_allclose(t[2, 0], np.sin(2.0), atol=1e-6)


class TestPrefill:
    def test_cache_length_and_tags(self):
        m = init_model(small_config(), 0)
        (cache,) = prefill(m, [[1, 2, 3, 4, 5]]).caches
        assert (cache.prefill_len, cache.length) == (5, 5)  # every position ego prefill

    def test_trace_rows_normalized(self, monkeypatch):
        m = init_model(small_config(), 4)
        rows = prefill_rows(monkeypatch, m, [0, 1, 2, 3])
        assert rows.shape == (2, 2, 4, 4)
        for t in range(4):
            computed = rows[:, :, t] if t == 3 else rows[:-1, :, t]  # the last layer: row T-1
            n = int(np.count_nonzero(computed.any(axis=(0, 1))))
            assert n == t + 1
            np.testing.assert_allclose(computed[:, :, :n].sum(axis=2), 1.0, atol=1e-6)

    def test_deterministic(self):
        m1, m2 = init_model(small_config(), 5), init_model(small_config(), 5)
        r1, r2 = prefill(m1, [[3, 1, 4]]), prefill(m2, [[3, 1, 4]])
        np.testing.assert_array_equal(r1.hidden, r2.hidden)

    def test_single_token_row_is_one(self, monkeypatch):
        m = init_model(small_config(), 21)
        rows = prefill_rows(monkeypatch, m, [7])
        np.testing.assert_array_equal(rows[:, :, 0, 0], 1.0)

    def test_overflow(self):
        m = init_model(small_config(max_context=4), 0)
        with pytest.raises(ContextOverflowError):
            prefill(m, [[0] * 5])

    def test_empty_rejected(self):
        m = init_model(small_config(), 0)
        with pytest.raises(ConfigError):
            prefill(m, [[]])

    @pytest.mark.parametrize("d", [16, 24, 40, 48])
    def test_hidden_and_store_equal_the_per_agent_prefill(self, d):
        # At d >= 24 a one-row product sums in another order than the (T, k)
        # product, so the last layer keeps w_o and the MLP at (A, T, .).
        model = init_model(ModelConfig(3, 4, d, 16, 48), d)
        tokens = np.random.default_rng(d).integers(0, 16, size=(2, 41))
        pre = prefill(model, tokens)
        refs = [ref_prefill(model, row) for row in tokens]
        for a, (h, _) in enumerate(refs):
            np.testing.assert_array_equal(pre.hidden[a], h)
        # Every entry of the (2, L, A·H, capacity, d_h) store, zeros included.
        want = np.concatenate([np.stack([ref.k, ref.v]) for _, ref in refs], axis=2)
        np.testing.assert_array_equal(pre.caches[0].store, want)

    @pytest.mark.parametrize("A", [1, 3])
    @pytest.mark.parametrize("T", [1, 7, 40])
    @pytest.mark.parametrize("L, d", [(2, 8), (3, 16), (4, 32)])
    def test_the_full_path_attends_the_last_layer_at_every_position(self, L, d, T, A, monkeypatch):
        """With ``SHORTCUTS`` off, the last layer runs ``attend_causal`` over all T
        positions as every other layer does, and hidden states and store keep their bytes."""
        model = init_model(ModelConfig(L, 2, d, 16, 48), d + T)
        tokens = np.random.default_rng(T).integers(0, 16, size=(A, T))
        calls = []
        for name in ("attend_causal", "attend_single"):
            def spy(*args, name=name, kernel=getattr(kernels, name)):
                calls.append((name, args[0].shape[1] if name == "attend_causal" else 1))
                return kernel(*args)

            monkeypatch.setattr(kernels, name, spy)
        runs = []
        for _ in range(2):
            calls.clear()
            pre = prefill(model, tokens)
            runs.append(([pre.hidden.tobytes(), pre.caches[0].store.tobytes()], list(calls)))
            full_path(monkeypatch)
        (got, on), (want, off) = runs
        assert got == want
        assert on == [("attend_causal", T)] * (L - 1) + [("attend_single", 1)]
        assert off == [("attend_causal", T)] * L

    def test_matches_reference_forward(self):
        m = init_model(small_config(), 11)
        tokens = [2, 7, 1, 9, 4]
        res = prefill(m, [tokens])
        ref = ref_prefill_hidden(m, tokens)
        np.testing.assert_allclose(res.hidden[0], ref, rtol=1e-5, atol=1e-6)


class TestDecode:
    def test_grows_by_one_with_latent_tag(self):
        m = init_model(small_config(), 6)
        res = prefill(m, [[1, 2, 3]])
        forward_decode(m, np.zeros((1, 8), dtype=np.float32), res.caches)
        (cache,) = res.caches
        assert (cache.prefill_len, cache.length) == (3, 4)  # position 3 is ego latent

    def test_existing_positions_never_mutate(self):
        m = init_model(small_config(), 7)
        (cache,) = prefill(m, [[1, 2, 3]]).caches
        before_k = cache.k[:, :, :3, :].copy()
        before_v = cache.v[:, :, :3, :].copy()
        forward_decode(m, np.ones((1, 8), dtype=np.float32), [cache])
        np.testing.assert_array_equal(cache.k[:, :, :3, :], before_k)
        np.testing.assert_array_equal(cache.v[:, :, :3, :], before_v)

    def test_prefill_caches_are_read_only(self):
        """A prefill cache's ``k``/``v`` refuse a write, which could leave a ``nonzero``
        flag stale; decode appends through the store."""
        m = init_model(small_config(), 15)
        (cache,) = prefill(m, [[1, 2, 3]]).caches
        for kv in (cache.k, cache.v):
            with pytest.raises(ValueError, match="read-only"):
                kv[0, 0, 0, 0] = 1.0
        forward_decode(m, np.ones((1, 8), dtype=np.float32), [cache])
        assert cache.length == 4 and cache.k[:, :, 3].any()

    def test_repeat_from_snapshot_identical(self):
        m = init_model(small_config(), 8)
        (cache,) = prefill(m, [[5, 6]]).caches
        x = np.linspace(-1, 1, 8).astype(np.float32)[None]
        h1, r1 = forward_decode(m, x, [ref_snapshot(cache)])
        h2, r2 = forward_decode(m, x, [ref_snapshot(cache)])
        np.testing.assert_array_equal(h1, h2)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a, b)

    def test_rows_land_in_the_callers_buffer(self):
        """With a rows buffer, each layer's rows are views of its slot, bit-equal
        to a decode that allocates them; the slot's tail stays as it was."""
        m = init_model(small_config(), 12)
        tokens = np.random.default_rng(12).integers(0, 16, size=(2, 5))
        x = np.linspace(-1, 1, 16).astype(np.float32).reshape(2, 8)
        h1, r1 = forward_decode(m, x, prefill(m, tokens).caches)
        buffer = np.full((2, 4, 9), -1.0, dtype=np.float32)
        h2, r2 = DecodeBatch(m, prefill(m, tokens).caches)(x, buffer)
        np.testing.assert_array_equal(h1, h2)
        for l, (a, b) in enumerate(zip(r1, r2)):
            assert b.base is buffer and b.shape == (4, 6)
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(buffer[l, :, :6], a)
        assert np.all(buffer[:, :, 6:] == -1.0)

    def test_rows_cover_context_including_self(self):
        m = init_model(small_config(), 9)
        res = prefill(m, [[1, 2, 3]])
        _, rows = forward_decode(m, np.zeros((1, 8), dtype=np.float32), res.caches)
        assert all(r.shape == (2, 4) for r in rows)
        for r in rows:
            np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-6)

    def test_overflow(self):
        m = init_model(small_config(max_context=3), 0)
        res = prefill(m, [[1, 2, 3]])
        with pytest.raises(ContextOverflowError):
            forward_decode(m, np.zeros((1, 8), dtype=np.float32), res.caches)

    def test_nonfinite_input_rejected(self):
        m = init_model(small_config(), 0)
        res = prefill(m, [[1]])
        bad = np.full((1, 8), np.nan, dtype=np.float32)
        with pytest.raises(ConfigError):
            forward_decode(m, bad, res.caches)

    def test_matches_reference_forward(self):
        m = init_model(small_config(), 13)
        tokens = [2, 5, 8]
        res = prefill(m, [tokens])
        rng = np.random.default_rng(0)
        extras = [rng.normal(scale=0.5, size=8).astype(np.float32) for _ in range(2)]
        h = None
        for x in extras:
            h, _ = forward_decode(m, x[None], res.caches)
        ref = ref_decode_hiddens(m, tokens, extras)[-1]
        np.testing.assert_allclose(h[0], ref, rtol=1e-5, atol=1e-6)


    def test_an_in_place_weight_write_raises(self):
        """Every array of a Model is read-only, the q/k/v views of ``w_qkv`` too."""
        m = init_model(small_config(), 14)
        lw = m.layers[0]
        assert np.shares_memory(lw.w_k, lw.w_qkv) and np.shares_memory(lw.w_v, lw.w_qkv)
        for w in (m.w_in, m.w_out, m.pos, *(w for lw in m.layers for w in (
                lw.w_qkv, lw.w_q, lw.w_k, lw.w_v, lw.w_o, lw.w_mlp1, lw.w_mlp2))):
            with pytest.raises(ValueError, match="read-only"):
                w[0, 0] = 0.5


def zeroed_model(config, seed, zeroed=(), zeroed_mlp=(), zeroed_kv=()):
    """``init_model(config, seed)`` weights with the layers ``zeroed`` set to zero, the MLPs
    of ``zeroed_mlp`` and the ``w_k`` and ``w_v`` of ``zeroed_kv``."""
    weights = init_weights(config, seed)
    layers = weights[-1]
    for l in zeroed:
        for w in (layers[l].w_qkv, layers[l].w_o):
            w[...] = 0.0
    for l in zeroed_kv:
        layers[l].w_qkv[:, config.model_dim :] = 0.0
    for l in {*zeroed, *zeroed_mlp}:
        layers[l].w_mlp1[...] = layers[l].w_mlp2[...] = 0.0
    return Model(config, *weights)


def full_path(monkeypatch):
    """Turn every exactness shortcut off, for the rest of the test."""
    monkeypatch.setattr(model_module, "SHORTCUTS", False)


class TestPassthrough:
    """A layer of all-zero weights, an all-zero MLP, or attention over an
    all-zero context is skipped, bit for bit."""

    def run(self, model, l_comm, seed):
        """The bytes of a prefill, a deliberation, a fused decision decode and
        a plain decode, with every store after them."""
        A, T, m = 3, 40, 20
        L, d = model.config.num_layers, model.config.model_dim
        rng = np.random.default_rng(seed)
        tokens = rng.integers(0, model.config.vocab_size, size=(A, T))
        w_a = compute_alignment(model)
        senders = prefill(model, tokens[::-1])
        deliberate(w_a, senders, 5)
        pre = prefill(model, tokens)
        out = [pre.hidden, pre.caches[0].store]
        delib = deliberate(w_a, pre, m)
        out += [delib.final_hidden, *(t.array for t in delib.traces)]
        inboxes = [[distill(senders.caches[s], range(a, a + 36, 3), l_comm / L, sender_id=s,
                            frame_id=0) for s in range(A) if s != a] for a in range(A)]
        x = rng.uniform(-1, 1, size=(A, d)).astype(np.float32)
        res = collaborative_decode(model, x, attach_payload(pre.caches, inboxes))
        out += [res.hidden, res.logits]
        for rows, tags in zip(res.attention_rows, res.context_tags, strict=True):
            out += rows + tags
        out += forward_decode(model, res.hidden, pre.caches)[1] + [pre.caches[0].store]
        return [np.ascontiguousarray(a).tobytes() for a in out]  # tells -0.0 from +0.0

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("l_comm", [1, 2, 4])
    @pytest.mark.parametrize("d", [16, 18, 22, 24, 32])
    def test_skip_matches_the_full_path(self, d, l_comm, seed, monkeypatch):
        """Store, hidden states, traces, rows and tags equal the full path's.
        At l_comm 2 and 4, flagged layers join the finite payloads and are skipped."""
        config = ModelConfig(num_layers=4, num_heads=2, model_dim=d, vocab_size=64,
                             max_context=64)
        model = zeroed_model(config, seed, zeroed=(1, 2))
        assert model.passthrough == model.zero_mlp == (False, True, True, False)
        got = self.run(model, l_comm, seed)
        full_path(monkeypatch)
        assert got == self.run(model, l_comm, seed)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("l_comm", [1, 4])
    @pytest.mark.parametrize("d", [16, 18, 22, 24, 32])
    def test_zero_mlp_skip_matches_the_full_path(self, d, l_comm, seed, monkeypatch):
        """With only the last layer's MLP zeroed, its skip changes no byte."""
        config = ModelConfig(num_layers=4, num_heads=2, model_dim=d, vocab_size=64,
                             max_context=64)
        model = zeroed_model(config, seed, zeroed_mlp=(3,))
        assert model.passthrough == (False,) * 4 and model.zero_mlp == (False, False, False, True)
        got = self.run(model, l_comm, seed)
        full_path(monkeypatch)
        assert got == self.run(model, l_comm, seed)

    @pytest.mark.parametrize("l_comm", [1, 2, 4])
    def test_zero_context_skip_matches_the_full_path(self, l_comm, monkeypatch):
        """Layer 1's ``w_k`` and ``w_v`` are zero while its ``w_q``, ``w_o`` and
        MLP are not: calls skip its attention, so fewer kernel calls run than on
        the full path, and the outputs keep their bytes."""
        config = ModelConfig(num_layers=4, num_heads=2, model_dim=16, vocab_size=64,
                             max_context=64)
        model = zeroed_model(config, l_comm, zeroed_kv=(1,))
        assert model.passthrough == model.zero_mlp == (False,) * 4
        lw = model.layers[1]
        assert lw.w_q.any() and lw.w_o.any() and lw.w_mlp1.any() and lw.w_mlp2.any()
        calls = count_kernel_calls(monkeypatch)
        got = self.run(model, l_comm, l_comm)
        on = sum(calls.values())
        full_path(monkeypatch)
        assert got == self.run(model, l_comm, l_comm)
        assert on < sum(calls.values()) - on

    def test_a_hand_filled_cache_runs_in_full(self, monkeypatch):
        """A cache that prefill did not make reports every row "may be
        non-zero", so K/V written into it by hand are attended over, as on the
        full path, even at a layer whose ``w_k`` and ``w_v`` are zero."""
        model = zeroed_model(small_config(), 5, zeroed_kv=(0,))
        pre = prefill(model, [[1, 2, 3, 4]])
        assert not pre.caches[0].nonzero[0].any()
        rng = np.random.default_rng(5)
        kv = rng.normal(size=(2, 2, 4, 4)).astype(np.float32)
        x = rng.uniform(-1, 1, size=(1, 8)).astype(np.float32)
        outs = []
        for full in (False, True):
            cache = ref_snapshot(pre.caches[0])
            cache.k[0, :, :4], cache.v[0, :, :4] = kv
            assert cache.nonzero.all()
            if full:
                full_path(monkeypatch)
            hidden, rows = forward_decode(model, x, [cache])
            outs.append([hidden.tobytes(), *(r.tobytes() for r in rows)])
        assert outs[0] == outs[1]

    def test_flagged_weights_are_read_only(self):
        """A write into a skipped layer raises; it could not reach a decode.
        The unflagged layers' weights are read-only too."""
        model = zeroed_model(small_config(num_layers=3), 0, zeroed=(1,))
        zero = model.layers[1]
        for w in (zero.w_qkv, zero.w_k, zero.w_o, zero.w_mlp1, zero.w_mlp2):
            with pytest.raises(ValueError, match="read-only"):
                w[0, 0] = 1.0
        for lw in (model.layers[0], model.layers[2]):
            assert not any(w.flags.writeable for w in (lw.w_qkv, lw.w_o, lw.w_mlp1, lw.w_mlp2))


def reuse_model(zero_values=(), spotlight=None):
    """``init_weights`` with a zero positional table, so one input gives
    one layer-0 input at every position, and ``w_v`` zeroed at the layers
    ``zero_values``: their keys are not zero, but every attention output is
    exactly 0 however the context grows, so it repeats.  With a ``spotlight``
    logit, layer 0's heads attend from channel 0 to the one token with
    channel 1 set (token 1), whose value is 1: the output is that token's
    weight, whose float32 bytes change every few steps as the context grows."""
    config = small_config(num_layers=4, model_dim=16, max_context=64)
    w_in, w_out, pos, layers = init_weights(config, 21)
    for l in zero_values:
        layers[l].w_v[...] = 0.0
    if spotlight is not None:
        w_in[:, :2] = 0.0
        w_in[:, 0] = w_in[1, 1] = 1.0
        first = layers[0]
        first.w_qkv[...] = 0.0
        for lo in (0, 8):
            first.w_q[0, lo] = first.w_v[1, lo] = 1.0
            first.w_k[1, lo] = spotlight * np.sqrt(8)
    return Model(config, w_in, w_out, np.zeros_like(pos), layers)


class TestStepReuse:
    """``repeat`` reruns attention at each layer that attends; the steps it runs and
    the full step after the one it stops at keep the bytes of stepping in full."""

    def steps(self, model, joined, k=6):
        """The bytes of k steps of one input after a prefill, run as ``deliberate`` runs
        them (hidden states, rows, store, lengths and ``nonzero`` flags), and each
        ``repeat`` call's (steps run, steps asked)."""
        A, T, L, H = 2, 12, 4, 2
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, 16, size=(A, T))
        tokens[:, 3] = 1
        inboxes = []
        if joined:
            senders = prefill(model, tokens[::-1])
            inboxes = [[distill(senders.caches[1 - a], range(a, T, 2), 0.5, sender_id=1 - a,
                                frame_id=0)] for a in range(A)]
        pre = prefill(model, tokens)
        batch = DecodeBatch(model, pre.caches, inboxes)
        x = rng.uniform(-1, 1, size=(A, 16)).astype(np.float32)
        x[:, :2] = (1.0, 0.0)  # the spotlight's query, and no key of its own
        rows = np.zeros((k, L, A * H, T + k + T), np.float32)
        out, calls, t, hidden = [], [], 0, pre.hidden
        while t < k:
            calls.append((batch.repeat(x, k - t, rows[t:]), k - t))
            out += [hidden.tobytes()] * calls[-1][0]  # a step that ran gives the last hidden state
            t += calls[-1][0]
            if t < k:
                hidden, _ = batch(x, rows[t])
                out.append(hidden.tobytes())
                t += 1
        out += [rows.tobytes(), pre.caches[0].store.tobytes(), pre.caches[0].nonzero.tobytes(),
                [c.length for c in pre.caches], batch.length]
        return out, calls

    @pytest.mark.parametrize("joined", [False, True])
    @pytest.mark.parametrize("zero_values, kept", [
        ((0, 1, 2, 3), 4),  # every output repeats: steps 1 .. 5 run in one call
        ((), 0),  # layer 0's output changes as the context grows: each call stops at once
        ((0, 1, 2), 3),  # only the last layer's changes: each call stops there
    ])
    def test_matches_stepping_in_full(self, zero_values, kept, joined, monkeypatch):
        """``kept`` leading layers give the recorded attention output."""
        model = reuse_model(zero_values)
        got, calls = self.steps(model, joined)
        assert calls == ([(0, 6), (5, 5)] if kept == 4 else [(0, k) for k in range(6, 0, -1)])
        full_path(monkeypatch)
        full, calls = self.steps(model, joined)
        assert [ran for ran, _ in calls] == [0] * 6
        assert got == full

    @pytest.mark.parametrize("joined", [False, True])
    def test_a_run_stops_where_an_output_changes(self, joined, monkeypatch):
        """Layer 0's spotlight output changes every few steps: a run stops there,
        and the full step that follows it gives the bytes of stepping in full."""
        model = reuse_model((1, 2, 3), spotlight=18.0)
        got, calls = self.steps(model, joined, k=16)
        assert any(0 < ran < k for ran, k in calls)
        full_path(monkeypatch)
        assert got == self.steps(model, joined, k=16)[0]

    def test_a_decode_outside_the_batch_raises(self):
        model = reuse_model()
        pre = prefill(model, [[1, 2, 3], [4, 5, 6]])
        batch = DecodeBatch(model, pre.caches)
        x = np.ones((2, 16), np.float32)
        batch(x)
        forward_decode(model, x[:1], pre.caches[:1])
        with pytest.raises(ConfigError, match="decoded outside"):
            batch.repeat(x, 1, np.zeros((1, 4, 4, 8), np.float32))
        with pytest.raises(ConfigError, match="decoded outside"):
            batch(x)


class TestWidenedStore:
    @pytest.mark.parametrize("weights", ["hazard", "random"])
    @pytest.mark.parametrize("name", builtin_scenario_names())
    def test_written_entries_are_float32_values(self, name, weights):
        """Prefill, deliberation, a Language step and a fused decision decode
        all write float32 values into the float64 store."""
        spec = load_scenario(builtin_scenario_path(name))
        sim = Simulation(spec, "LACO")
        model = sim.model if weights == "hazard" else init_model(spec.model_config(), 0)
        live = sim.live_agents()
        obs = np.stack([observe(sim.world, sim.agents, spec.hazards, aid, 0) for aid in live])
        pre = prefill(model, obs)
        deliberate(compute_alignment(model), pre, spec.m)
        forward_decode(model, model.w_in[np.full(len(live), TOKEN_KEEP)], pre.caches)
        sender, receiver = pre.caches[0], pre.caches[-1]
        payload = distill(sender, range(spec.observation_len), 0.5, sender_id=live[0], frame_id=0)
        marker = model.w_in[[sim.agents[live[-1]].spec.marker_token]]
        collaborative_decode(model, marker, attach_payload([receiver], [[payload]]))
        assert receiver.store.dtype == np.float64
        assert receiver.length == sender.length + 1
        for cache in pre.caches:
            for kv in (cache.k, cache.v):
                written = kv[:, :, : cache.length]
                np.testing.assert_array_equal(written, written.astype(np.float32))


class TestLogits:
    def test_zero_hidden_zero_logits(self):
        m = init_model(small_config(), 0)
        np.testing.assert_array_equal(
            project_to_logits(m, np.zeros(8, dtype=np.float32)), np.zeros(16, dtype=np.float32)
        )

    def test_shape(self):
        m = init_model(small_config(), 0)
        assert project_to_logits(m, np.ones(8, dtype=np.float32)).shape == (16,)

    def test_matches_loop_matmul(self):
        m = init_model(small_config(), 15)
        rng = np.random.default_rng(1)
        h = rng.normal(size=8).astype(np.float32)
        ref = ref_matmul_row(h, m.w_out)
        np.testing.assert_allclose(project_to_logits(m, h), ref, atol=1e-6)


class TestAttentionTrace:
    """Every trace is checked once, when it is built."""

    def _one_row(self, row, length):
        return AttentionTrace(np.array(row, dtype=np.float32).reshape(1, 1, 1, -1),
                              np.array([length]))

    def test_valid_row_accepted(self):
        trace = self._one_row([0.25, 0.75, 0.0], 2)
        assert trace.num_steps == 1

    @pytest.mark.parametrize(
        "row, length, message",
        [
            ([0.5, 0.50001], 2, "sum to 1"),
            ([-0.1, 0.6, 0.5], 3, r"outside \[0, 1\]"),
            ([1.5], 1, r"outside \[0, 1\]"),
            ([0.5, 0.4, 0.1], 2, "beyond"),
            ([0.5, 0.5], 3, "context length"),
            ([1.0, 0.0], 0, "context length"),
        ],
        ids=["row_sum_off_by_1e-5", "negative_weight", "weight_above_1",
             "weight_beyond_length", "length_past_width", "zero_length"],
    )
    def test_bad_trace_rejected(self, row, length, message):
        with pytest.raises(AssertionError, match=message):
            self._one_row(row, length)

    def _padded(self, pad):
        """Two steps of width 3; step 0 has length 2 and ``pad`` beyond it."""
        array = np.full((2, 1, 2, 3), 1.0 / 3.0, dtype=np.float32)
        array[0, :, :, :2] = 0.5
        array[0, :, :, 2] = pad
        return AttentionTrace(array, np.array([2, 3]))

    def test_negative_zero_beyond_length_accepted(self):
        assert np.signbit(self._padded(-0.0).array[0, 0, 0, 2])

    @pytest.mark.parametrize("pad", [np.nan, np.inf, np.float32(1e-45)],
                             ids=["nan", "inf", "float32_subnormal"])
    def test_nonzero_beyond_length_rejected(self, pad):
        with pytest.raises(AssertionError):
            self._padded(pad)

    def test_block_of_traces_checked_as_one(self):
        """Leading axes index traces sharing ``lengths``; one bad trace fails the block."""
        array = np.zeros((3, 2, 1, 2, 4), dtype=np.float32)
        array[:, 0, :, :, :2], array[:, 1] = 0.5, 0.25
        block = AttentionTrace(array, np.array([2, 4]))
        assert block.num_steps == 2
        array[1, 0, 0, 1, 3] = 1e-45
        with pytest.raises(AssertionError, match="beyond"):
            AttentionTrace(array, np.array([2, 4]))

    def test_part_is_not_checked_again(self, monkeypatch):
        trace = self._padded(0.0)

        def refuse(_):
            raise AssertionError("checked again")

        monkeypatch.setattr(AttentionTrace, "__post_init__", refuse)
        part = trace.part(np.s_[:, :, 1:])
        assert part.array.base is trace.array and part.array.shape == (2, 1, 1, 3)
        np.testing.assert_array_equal(part.lengths, [2, 3])

    def test_one_bad_row_among_many_rejected(self):
        array = np.full((3, 2, 2, 4), 0.25, dtype=np.float32)
        array[2, 1, 0, 3] = 0.2501
        with pytest.raises(AssertionError, match="sum to 1"):
            AttentionTrace(array, np.full(3, 4))
