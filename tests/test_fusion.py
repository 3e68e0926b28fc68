import numpy as np
import pytest

from laco.errors import ShapeMismatchError
from laco.fusion import attach_payload, collaborative_decode
from laco.ild import compute_alignment, deliberate
from laco.model import (
    FOREIGN_LATENT,
    FOREIGN_PREFILL,
    TOKEN_BRAKE,
    TOKEN_CLEAR,
    TOKEN_EGO_A,
    TOKEN_EGO_B,
    TOKEN_HAZARD_A,
    TOKEN_HAZARD_B,
    TOKEN_KEEP,
    ModelConfig,
    forward_decode,
    init_model,
    make_hazard_model,
    prefill,
    project_to_logits,
)
from laco.wire import distill
from reference import ref_naive_full_fusion, ref_snapshot


def cfg(seed=0, **kw):
    base = dict(num_layers=4, num_heads=2, model_dim=8, vocab_size=16, max_context=96, seed=seed)
    base.update(kw)
    return ModelConfig(**base)


def build_payload(model, tokens, m=3, rho_indices=None, fraction=1.0, sender=1):
    res = prefill(model, tokens)
    deliberate(model, compute_alignment(model), res.hidden, res.cache, m)
    T = len(tokens)
    idx = rho_indices if rho_indices is not None else list(range(T))
    return distill(res.cache, T, idx, fraction, sender_id=sender, frame_id=0), res.cache


class TestAttach:
    def test_empty_payload_list_keeps_ego_only(self):
        mdl = init_model(cfg())
        res = prefill(mdl, [1, 2, 3])
        ctx = attach_payload(res.cache, [])
        assert ctx.segments == []

    def test_zero_token_payload_positionless(self):
        mdl = init_model(cfg(seed=1))
        res = prefill(mdl, [1, 2, 3])
        payload, _ = build_payload(init_model(cfg(seed=1)), [4, 5], m=0, rho_indices=[])
        assert payload.num_positions == 0
        ctx = attach_payload(res.cache, payload)
        assert ctx.segments[0].num_positions == 0
        x = np.full(8, 0.5, dtype=np.float32)
        out = collaborative_decode(mdl, x, ctx)
        mdl2 = init_model(cfg(seed=1))
        res2 = prefill(mdl2, [1, 2, 3])
        h, _ = forward_decode(mdl2, x, res2.cache)
        np.testing.assert_array_equal(out.hidden, h)

    def test_sender_order(self):
        mdl = init_model(cfg(seed=2))
        res = prefill(mdl, [1, 2, 3])
        p3, _ = build_payload(init_model(cfg(seed=2)), [4, 5], sender=3)
        p1, _ = build_payload(init_model(cfg(seed=2)), [6, 7], sender=1)
        ctx = attach_payload(res.cache, [p3, p1])
        assert [s.num_positions for s in ctx.segments] == [5, 5]
        assert p1.keys.tobytes() != p3.keys.tobytes()
        for seg, p in zip(ctx.segments, [p1, p3]):
            assert seg.keys.tobytes() == p.keys.tobytes()
            assert seg.values.tobytes() == p.values.tobytes()

    def test_shape_mismatch_rejected(self):
        mdl = init_model(cfg(seed=3))
        res = prefill(mdl, [1, 2])
        other = init_model(cfg(seed=3, model_dim=16))
        payload, _ = build_payload(other, [1, 2])
        with pytest.raises(ShapeMismatchError):
            attach_payload(res.cache, payload)

    def test_foreign_tags(self):
        payload, _ = build_payload(init_model(cfg(seed=4)), [1, 2, 3], m=2)
        mdl = init_model(cfg(seed=4))
        res = prefill(mdl, [5, 6])
        ctx = attach_payload(res.cache, payload)
        tags = ctx.segments[0].tags
        assert np.all(tags[:3] == FOREIGN_PREFILL)
        assert np.all(tags[3:] == FOREIGN_LATENT)


class TestEquivalences:
    def test_zero_payload_bit_identical(self):
        mdl_a = init_model(cfg(seed=5))
        mdl_b = init_model(cfg(seed=5))
        res_a = prefill(mdl_a, [3, 1, 4, 1])
        res_b = prefill(mdl_b, [3, 1, 4, 1])
        x = np.linspace(-1, 1, 8).astype(np.float32)
        h, rows = forward_decode(mdl_a, x, res_a.cache)
        logits = project_to_logits(mdl_a, h)
        out = collaborative_decode(mdl_b, x, attach_payload(res_b.cache, []))
        assert np.array_equal(out.hidden, h)
        assert np.array_equal(out.logits, logits)
        assert all(np.array_equal(a, b) for a, b in zip(out.attention_rows, rows))

    def test_full_depth_full_rho_equals_naive(self):
        sender = init_model(cfg(seed=6))
        payload, foreign_cache = build_payload(sender, [2, 4, 6], m=2, fraction=1.0)
        mdl_a = init_model(cfg(seed=6))
        mdl_b = init_model(cfg(seed=6))
        res_a = prefill(mdl_a, [7, 8])
        res_b = prefill(mdl_b, [7, 8])
        x = np.full(8, 0.25, dtype=np.float32)
        via_payload = collaborative_decode(mdl_a, x, attach_payload(res_a.cache, payload))
        via_naive = ref_naive_full_fusion(mdl_b, x, res_b.cache, foreign_cache)
        np.testing.assert_array_equal(via_payload.hidden, via_naive.hidden)
        np.testing.assert_array_equal(via_payload.logits, via_naive.logits)

    def test_naive_empty_foreign_equals_plain(self):
        mdl = init_model(cfg(seed=7))
        res = prefill(mdl, [1, 2, 3])
        foreign = prefill(init_model(cfg(seed=7)), [9]).cache
        foreign.length = 0  # empty view of a fresh cache
        x = np.zeros(8, dtype=np.float32)
        out = ref_naive_full_fusion(mdl, x, res.cache, foreign)
        mdl2 = init_model(cfg(seed=7))
        res2 = prefill(mdl2, [1, 2, 3])
        h, _ = forward_decode(mdl2, x, res2.cache)
        np.testing.assert_array_equal(out.hidden, h)

    def test_symmetric_split_with_identical_foreign(self):
        # a foreign copy of the ego cache halves every row's mass
        mdl = init_model(cfg(seed=8))
        res = prefill(mdl, [1, 2, 3, 4])
        twin = prefill(init_model(cfg(seed=8)), [1, 2, 3, 4]).cache
        x = np.linspace(0, 1, 8).astype(np.float32)
        out = ref_naive_full_fusion(mdl, x, res.cache, twin)
        for rows, tags in zip(out.attention_rows, out.context_tags):
            foreign = (tags == FOREIGN_PREFILL) | (tags == FOREIGN_LATENT)
            ego_mass = rows[:, ~foreign].sum(axis=1, dtype=np.float64)
            foreign_mass = rows[:, foreign].sum(axis=1, dtype=np.float64)
            # ego side holds one extra position (the fresh decode entry)
            assert rows.shape[1] == 9
            np.testing.assert_allclose(
                ego_mass - rows[:, 4].astype(np.float64), foreign_mass, atol=1e-6
            )


class TestDepthIsolation:
    def test_deep_layers_never_see_foreign(self):
        sender = init_model(cfg(seed=9))
        payload, _ = build_payload(sender, [2, 4, 6], m=2, fraction=0.25)
        assert payload.l_comm == 1
        mdl = init_model(cfg(seed=9))
        res = prefill(mdl, [7, 8])
        out = collaborative_decode(mdl, np.zeros(8, dtype=np.float32),
                                   attach_payload(res.cache, payload))
        assert out.attention_rows[0].shape[1] == 3 + payload.num_positions
        for rows in out.attention_rows[1:]:
            assert rows.shape[1] == 3

    def test_deep_source_bytes_irrelevant(self):
        # two source caches differing only in deep layers produce identical payloads
        sender_a = init_model(cfg(seed=10))
        sender_b = init_model(cfg(seed=10))
        pa, cache_a = build_payload(sender_a, [2, 4, 6], m=2, fraction=0.25)
        cache_b = ref_snapshot(cache_a)
        cache_b.k[1:] += 17.0
        cache_b.v[1:] -= 3.0
        T = 3
        pb = distill(cache_b, T, list(range(T)), 0.25, sender_id=1, frame_id=0)
        assert pa.keys.tobytes() == pb.keys.tobytes()
        assert pa.values.tobytes() == pb.values.tobytes()

    def test_foreign_positions_never_enter_ego_cache(self):
        sender = init_model(cfg(seed=11))
        payload, _ = build_payload(sender, [2, 4, 6], m=2)
        mdl = init_model(cfg(seed=11))
        res = prefill(mdl, [7, 8])
        collaborative_decode(mdl, np.zeros(8, dtype=np.float32),
                             attach_payload(res.cache, payload))
        assert res.cache.length == 3
        tags = res.cache.tags[:3]
        assert not np.any((tags == FOREIGN_PREFILL) | (tags == FOREIGN_LATENT))


class TestHazardFusion:
    """Constructed shallow-benefit and deep-interference behaviors."""

    def _clear_ego(self, layers=4):
        c = cfg(seed=0, num_layers=layers)
        mdl = make_hazard_model(c)
        tokens = [TOKEN_CLEAR] * 5 + [TOKEN_EGO_A]
        res = prefill(mdl, tokens)
        return mdl, res

    def test_shallow_hazard_kv_raises_brake_logit(self):
        # collaborator saw a lane-A hazard; its shallow cache alone must push
        # the lane-A receiver's brake logit above the no-payload run
        sender = make_hazard_model(cfg(seed=0))
        payload, _ = build_payload(sender, [TOKEN_HAZARD_A, TOKEN_CLEAR, TOKEN_EGO_B],
                                   m=2, fraction=0.25, sender=1)
        mdl, res = self._clear_ego()
        marker = mdl.w_in[TOKEN_EGO_A].copy()
        base_mdl, base_res = self._clear_ego()
        h0, _ = forward_decode(base_mdl, marker, base_res.cache)
        base_logits = project_to_logits(base_mdl, h0)
        out = collaborative_decode(mdl, marker, attach_payload(res.cache, payload))
        assert out.logits[TOKEN_BRAKE] > base_logits[TOKEN_BRAKE]
        assert int(np.argmax(out.logits)) == TOKEN_BRAKE

    def test_deep_decision_flips_naive_but_not_shallow(self):
        # foreign agent braked for a hazard in its own lane; its deep cache
        # flips the clear-lane ego under full-depth fusion only
        sender = make_hazard_model(cfg(seed=0))
        foreign_tokens = [TOKEN_HAZARD_B, TOKEN_CLEAR, TOKEN_EGO_B]
        payload_shallow, foreign_cache = build_payload(
            sender, foreign_tokens, m=2, fraction=0.25, sender=1)

        mdl_naive, res_naive = self._clear_ego()
        marker = mdl_naive.w_in[TOKEN_EGO_A].copy()
        naive = ref_naive_full_fusion(mdl_naive, marker, res_naive.cache, foreign_cache)
        assert int(np.argmax(naive.logits)) == TOKEN_BRAKE

        mdl_shallow, res_shallow = self._clear_ego()
        shallow = collaborative_decode(mdl_shallow, marker,
                                       attach_payload(res_shallow.cache, payload_shallow))
        assert int(np.argmax(shallow.logits)) == TOKEN_KEEP

        mdl_plain, res_plain = self._clear_ego()
        h, _ = forward_decode(mdl_plain, marker, res_plain.cache)
        assert int(np.argmax(project_to_logits(mdl_plain, h))) == TOKEN_KEEP
