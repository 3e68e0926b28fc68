"""Behavioral contract of the handcrafted hazard-braking model."""

import numpy as np
import pytest

from laco import kernels
from laco.errors import ConfigError
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
    init_model,
    make_hazard_model,
    prefill,
    project_to_logits,
)
from laco.scenario import Simulation, builtin_scenario_path, load_scenario, observe
from reference import ref_decode_hiddens, ref_forward_decode, ref_prefill


def hazard_config(layers=2, seed=0, **kw):
    base = dict(num_layers=layers, num_heads=2, model_dim=8, vocab_size=16,
                max_context=64, seed=seed)
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


class TestPassthrough:
    """The zero-weight middle layers are flagged, and prefill and decode call
    no kernel for them."""

    @pytest.mark.parametrize("layers", [2, 3, 4, 6])
    def test_middle_layers_flagged(self, layers):
        flags = (False, *[True] * (layers - 2), False)
        assert make_hazard_model(hazard_config(layers)).passthrough == flags
        assert init_model(hazard_config(layers)).passthrough == (False,) * layers

    def test_flagged_layers_call_no_kernel(self, monkeypatch):
        """On occluded_1's model an observation prefill calls attend_causal
        for layer 0 alone, and one deliberation step calls attend_single L-2 times."""
        spec = load_scenario(builtin_scenario_path("occluded_1"))
        sim = Simulation(spec, "LACO")
        model, live = sim.model, sim.live_agents()
        L = model.config.num_layers
        assert model.passthrough == (False, *[True] * (L - 2), False) and L > 2
        calls = dict.fromkeys(("attend_causal", "attend_single"), 0)
        for name in calls:
            def counted(*args, name=name, kernel=getattr(kernels, name)):
                calls[name] += 1
                return kernel(*args)

            monkeypatch.setattr(kernels, name, counted)
        obs = np.stack([observe(sim.world, sim.agents, spec.hazards, aid, 0) for aid in live])
        pre = prefill(model, obs)
        assert calls == {"attend_causal": 1, "attend_single": 1}
        calls.update(attend_causal=0, attend_single=0)
        deliberate(model, compute_alignment(model), pre.hidden, pre.caches, 1)
        assert calls == {"attend_causal": 0, "attend_single": L - 2}


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
