"""Behavioral contract of the handcrafted hazard-braking model."""

from dataclasses import replace

import numpy as np
import pytest

from laco import kernels
from laco import model as model_module
from laco.errors import ConfigError
from laco.fusion import attach_payload, collaborative_decode
from laco.ild import compute_alignment, deliberate
from laco.model import (
    TOKEN_BRAKE,
    TOKEN_CLEAR,
    TOKEN_EGO_A,
    TOKEN_EGO_B,
    TOKEN_HAZARD_A,
    TOKEN_HAZARD_B,
    TOKEN_KEEP,
    TOKEN_OCCLUDED,
    ModelConfig,
    forward_decode,
    make_hazard_model,
    prefill,
    project_to_logits,
)
from laco.scenario import AgentSpec, Simulation, builtin_scenario_path, load_scenario, observe
from laco.wire import distill
from reference import init_model, ref_decode_hiddens, ref_forward_decode, ref_prefill


def hazard_config(layers=2, **kw):
    base = dict(num_layers=layers, num_heads=2, model_dim=8, vocab_size=16, max_context=64)
    base.update(kw)
    return ModelConfig(**base)


def decide(model, tokens, marker=TOKEN_EGO_A):
    res = prefill(model, [tokens])
    hidden, _ = forward_decode(model, model.w_in[[marker]], res.caches)
    return project_to_logits(model, hidden)[0]


class TestConstruction:
    def test_too_small_head_dim_rejected(self):
        with pytest.raises(ConfigError):
            make_hazard_model(hazard_config(model_dim=4))  # head_dim 2

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ConfigError):
            make_hazard_model(hazard_config(vocab_size=8))

    def test_single_head_rejected(self):
        with pytest.raises(ConfigError):
            make_hazard_model(hazard_config(num_heads=1, model_dim=8))

    def test_deterministic_weights(self):
        a = make_hazard_model(hazard_config())
        b = make_hazard_model(hazard_config())
        assert a.w_in.tobytes() == b.w_in.tobytes()
        assert a.layers[0].w_k.tobytes() == b.layers[0].w_k.tobytes()


def occluded_1_decision(l_comm, agents=2):
    """forward_decode's arguments for a decision: occluded_1's model, its live
    agents' marker inputs, their caches after one prefill and deliberation, and
    one inbox per agent holding the others' payloads at ``l_comm`` layers.
    ``agents=3`` adds a lane-B agent on row 1; the model stays the same."""
    spec = load_scenario(builtin_scenario_path("occluded_1"))
    if agents == 3:
        row_1 = AgentSpec(agent_id=2, lane="B", route=tuple((1, c) for c in range(spec.cols)))
        spec = replace(spec, agents=spec.agents + (row_1,))
    sim = Simulation(spec, "LACO")
    model, live = sim.model, sim.live_agents()
    obs = np.stack([observe(sim.world, sim.agents, spec.hazards, aid, 0) for aid in live])
    pre = prefill(model, obs)
    deliberate(compute_alignment(model), pre, spec.m)
    T, L = spec.observation_len, model.config.num_layers
    sent = [distill(cache, range(0, T, 3), l_comm / L, sender_id=aid, frame_id=0)
            for aid, cache in zip(live, pre.caches)]
    inboxes = [[p for p in sent if p.sender_id != aid] for aid in live]
    markers = model.w_in[[sim.agents[aid].spec.marker_token for aid in live]]
    return model, markers, pre.caches, inboxes


def count_kernel_calls(monkeypatch):
    """Route both attention kernels through counters; returns the counts."""
    calls = dict.fromkeys(("attend_causal", "attend_single"), 0)
    for name in calls:
        def counted(*args, name=name, kernel=getattr(kernels, name)):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(kernels, name, counted)
    return calls


class TestPassthrough:
    """The zero-weight middle layers and the last layer's zero MLP are flagged,
    and prefill and decode call no kernel for the flagged layers."""

    @pytest.mark.parametrize("layers", [2, 3, 4, 6])
    def test_middle_layers_flagged(self, layers):
        flags = (False, *[True] * (layers - 2), False)
        assert make_hazard_model(hazard_config(layers)).passthrough == flags
        assert init_model(hazard_config(layers), 0).passthrough == (False,) * layers

    @pytest.mark.parametrize("layers", [2, 3, 4, 6])
    def test_last_layer_mlp_flagged(self, layers):
        assert make_hazard_model(hazard_config(layers)).zero_mlp == (False,) + (True,) * (layers - 1)
        assert init_model(hazard_config(layers), 0).zero_mlp == (False,) * layers

    def test_flagged_mlp_is_read_only(self):
        last = make_hazard_model(hazard_config(2)).layers[-1]
        for w in (last.w_mlp1, last.w_mlp2):
            with pytest.raises(ValueError, match="read-only"):
                w[0, 0] = 1.0
        assert not (last.w_qkv.flags.writeable or last.w_o.flags.writeable)

    def test_flagged_layers_call_no_kernel(self, monkeypatch):
        """On occluded_1's model a layer calls a kernel only when some K/V entry
        of the batch's context is non-zero: the flagged layers never do, and at
        tick 0, where only agent 1's layer-0 keys see the lane-A hazard and no
        agent detects, an observation prefill calls attend_causal for layer 0
        alone and one deliberation step calls attend_single for layer 0 alone."""
        spec = load_scenario(builtin_scenario_path("occluded_1"))
        sim = Simulation(spec, "LACO")
        model, live = sim.model, sim.live_agents()
        L, A = model.config.num_layers, len(live)
        assert model.passthrough == (False, *[True] * (L - 2), False) and L > 2

        def scanned(cache):  # (L, A): a row's K/V at a layer hold a non-zero entry
            kv = cache.store[:, :, :, : cache.length].reshape(2, L, A, -1)
            return kv.any(axis=(0, 3))

        calls = count_kernel_calls(monkeypatch)
        obs = np.stack([observe(sim.world, sim.agents, spec.hazards, aid, 0) for aid in live])
        pre = prefill(model, obs)
        flags = pre.caches[0].nonzero
        np.testing.assert_array_equal(flags, scanned(pre.caches[0]))
        assert flags.any(axis=1).tolist() == [True] + [False] * (L - 1)
        assert calls == {"attend_causal": int(flags[0].any()), "attend_single": int(flags[-1].any())}
        calls.update(attend_causal=0, attend_single=0)
        deliberate(compute_alignment(model), pre, 1)
        np.testing.assert_array_equal(flags, scanned(pre.caches[0]))
        assert calls == {"attend_causal": 0, "attend_single": int(flags.any(axis=1).sum())}
        assert calls["attend_single"] == 1  # layer 0: the step added no non-zero K/V elsewhere

    def test_finite_payload_layers_call_no_kernel(self, monkeypatch):
        """A decision decode over full-depth payloads skips the flagged layers
        that join them; a NaN in one payload's layer-1 slice runs layer 1 in
        full, also when that payload sits in two inboxes (A = 3), while layer 2,
        whose payload slices and ego context are zero, is still skipped."""
        calls = count_kernel_calls(monkeypatch)
        for agents in (2, 3):
            model, markers, caches, inboxes = occluded_1_decision(l_comm=4, agents=agents)
            assert model.config.num_layers == 4
            calls["attend_single"] = 0
            forward_decode(model, markers, caches, inboxes)
            assert calls["attend_single"] == 2
            model, markers, caches, inboxes = occluded_1_decision(l_comm=4, agents=agents)
            poisoned = inboxes[0][0]
            assert sum(any(p is poisoned for p in box) for box in inboxes) == agents - 1
            poisoned.keys[1, 0, 0, 0] = np.nan
            calls["attend_single"] = 0
            forward_decode(model, markers, caches, inboxes)
            assert calls["attend_single"] == 3

    @pytest.mark.parametrize("l_comm", [1, 4])
    def test_nan_payload_ends_alike_on_both_paths(self, l_comm, monkeypatch):
        """A NaN in a received payload's keys at any layer it spans (layer 0,
        and at l_comm 4 also layers 1-3, whose ego context is zero): the
        skipping and the full path give the same NaN-aware hidden bits,
        bit-identical batch-mates, and the same ConfigError from collaborative_decode."""

        def poisoned(layer):
            args = occluded_1_decision(l_comm)
            args[3][0][0].keys[layer, 0, 0, 0] = np.nan  # agent 0's one payload
            return args

        clean = forward_decode(*occluded_1_decision(l_comm))
        for layer in range(l_comm):
            hiddens, errors = [], []
            for full in (False, True):
                with monkeypatch.context() as patch:
                    patch.setattr(model_module, "SHORTCUTS", not full)
                    hidden, rows = forward_decode(*poisoned(layer))
                    H = len(rows[0]) // len(hidden)
                    assert np.isnan(hidden[0]).all()
                    assert hidden[1:].tobytes() == clean[0][1:].tobytes()
                    assert [r[H:].tobytes() for r in rows] == [r[H:].tobytes() for r in clean[1]]
                    hiddens.append(hidden)
                    model, markers, caches, inboxes = poisoned(layer)
                    with pytest.raises(ConfigError) as err:
                        collaborative_decode(model, markers, attach_payload(caches, inboxes))
                    errors.append(str(err.value))
            skip, full = hiddens
            assert np.array_equal(np.isnan(skip), np.isnan(full))
            assert skip[~np.isnan(skip)].tobytes() == full[~np.isnan(full)].tobytes()
            assert errors[0] == errors[1] == "hidden vector must be finite"


class TestPolicy:
    def test_hazard_in_own_lane_brakes(self):
        m = make_hazard_model(hazard_config())
        logits = decide(m, [TOKEN_CLEAR, TOKEN_HAZARD_A, TOKEN_CLEAR, TOKEN_EGO_A])
        assert int(np.argmax(logits)) == TOKEN_BRAKE

    def test_all_clear_keeps(self):
        m = make_hazard_model(hazard_config())
        logits = decide(m, [TOKEN_CLEAR] * 6 + [TOKEN_EGO_A])
        assert int(np.argmax(logits)) == TOKEN_KEEP

    def test_other_lane_hazard_ignored(self):
        m = make_hazard_model(hazard_config())
        logits = decide(m, [TOKEN_HAZARD_B, TOKEN_CLEAR, TOKEN_EGO_A])
        assert int(np.argmax(logits)) == TOKEN_KEEP

    def test_lane_b_agent_brakes_for_lane_b(self):
        m = make_hazard_model(hazard_config())
        logits = decide(m, [TOKEN_HAZARD_B, TOKEN_CLEAR, TOKEN_EGO_B], marker=TOKEN_EGO_B)
        assert int(np.argmax(logits)) == TOKEN_BRAKE

    def test_occluded_cells_are_inert(self):
        m = make_hazard_model(hazard_config())
        logits = decide(m, [TOKEN_OCCLUDED] * 5 + [TOKEN_EGO_A])
        assert int(np.argmax(logits)) == TOKEN_KEEP

    def test_deeper_models_work_too(self):
        m = make_hazard_model(hazard_config(layers=4, model_dim=16))
        logits = decide(m, [TOKEN_CLEAR, TOKEN_HAZARD_A, TOKEN_EGO_A])
        assert int(np.argmax(logits)) == TOKEN_BRAKE

    def test_brake_logit_closed_form(self):
        # detection saturates: evidence ~2, gate output ~1, brake logit ~2
        m = make_hazard_model(hazard_config())
        logits = decide(m, [TOKEN_CLEAR, TOKEN_HAZARD_A, TOKEN_CLEAR, TOKEN_EGO_A])
        np.testing.assert_allclose(logits[TOKEN_BRAKE], 2.0, atol=1e-3)
        np.testing.assert_allclose(logits[TOKEN_KEEP], 1.0, atol=1e-3)

    def test_matches_manual_forward(self):
        m = make_hazard_model(hazard_config())
        tokens = [TOKEN_CLEAR, TOKEN_HAZARD_A, TOKEN_CLEAR, TOKEN_EGO_A]
        res = prefill(m, [tokens])
        marker = m.w_in[TOKEN_EGO_A].copy()
        (hidden,), _ = forward_decode(m, marker[None], res.caches)
        ref = ref_decode_hiddens(m, tokens, [marker])[-1]
        np.testing.assert_allclose(hidden, ref, atol=1e-6)
        ref_logits = ref @ m.w_out.astype(np.float64)
        np.testing.assert_allclose(project_to_logits(m, hidden), ref_logits, atol=1e-6)

    def test_fused_qkv_decode_exact_at_model_dim_56(self):
        # A random (1, 56) @ (56, 168) product may differ from three (56, 56)
        # products in the last bits; the hazard model's q/k/v columns each
        # hold at most one non-zero weight, so its decode stays bit-equal.
        m = make_hazard_model(hazard_config(model_dim=56))
        tokens = [TOKEN_CLEAR, TOKEN_HAZARD_A, TOKEN_CLEAR, TOKEN_HAZARD_B, TOKEN_EGO_A]
        (cache,) = prefill(m, [tokens]).caches
        _, ref_cache = ref_prefill(m, tokens)
        for marker in (TOKEN_EGO_A, TOKEN_EGO_B, TOKEN_CLEAR):
            (hidden,), rows = forward_decode(m, m.w_in[[marker]], [cache])
            ref_hidden, ref_rows = ref_forward_decode(m, m.w_in[marker], ref_cache)
            np.testing.assert_array_equal(hidden, ref_hidden)
            for got, want in zip(rows, ref_rows, strict=True):
                np.testing.assert_array_equal(got, want)
            assert int(np.argmax(project_to_logits(m, hidden))) == TOKEN_BRAKE
        n = ref_cache.length
        np.testing.assert_array_equal(cache.k[:, :, :n], ref_cache.k[:, :, :n])
        np.testing.assert_array_equal(cache.v[:, :, :n], ref_cache.v[:, :, :n])
