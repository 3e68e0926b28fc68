from dataclasses import replace

import numpy as np
import pytest

from laco.errors import ConfigError, ShapeMismatchError
from laco.fusion import attach_payload, collaborative_decode
from laco.ild import compute_alignment, deliberate
from laco.model import (
    EGO_LATENT,
    EGO_PREFILL,
    FOREIGN_LATENT,
    FOREIGN_PREFILL,
    TOKEN_BRAKE,
    TOKEN_CLEAR,
    TOKEN_EGO_A,
    TOKEN_EGO_B,
    TOKEN_HAZARD_A,
    TOKEN_HAZARD_B,
    TOKEN_KEEP,
    DecodeBatch,
    ModelConfig,
    forward_decode,
    make_hazard_model,
    prefill,
    project_to_logits,
)
from laco.wire import DTYPE_F16, DTYPE_F32, distill
from reference import init_model, ref_naive_full_fusion, ref_snapshot, sent_as


def cfg(**kw):
    base = dict(num_layers=4, num_heads=2, model_dim=8, vocab_size=16, max_context=96)
    base.update(kw)
    return ModelConfig(**base)


def build_payload(model, tokens, m=3, rho_indices=None, fraction=1.0, sender=1):
    res = prefill(model, [tokens])
    deliberate(compute_alignment(model), res, m)
    idx = rho_indices if rho_indices is not None else list(range(len(tokens)))
    return distill(res.caches[0], idx, fraction, sender_id=sender, frame_id=0), res.caches[0]


class TestAttach:
    def test_empty_payload_list_keeps_ego_only(self):
        mdl = init_model(cfg(), 0)
        res = prefill(mdl, [[1, 2, 3]])
        ctx = attach_payload(res.caches, [[]])
        assert ctx.segments == [] and ctx.inboxes == [[]]

    def test_zero_token_payload_positionless(self):
        mdl = init_model(cfg(), 1)
        res = prefill(mdl, [[1, 2, 3]])
        payload, _ = build_payload(init_model(cfg(), 1), [4, 5], m=0, rho_indices=[])
        assert payload.num_positions == 0
        ctx = attach_payload(res.caches, [[payload]])
        assert ctx.segments[0].num_positions == 0
        x = np.full((1, 8), 0.5, dtype=np.float32)
        out = collaborative_decode(mdl, x, ctx)
        mdl2 = init_model(cfg(), 1)
        res2 = prefill(mdl2, [[1, 2, 3]])
        h, _ = forward_decode(mdl2, x, res2.caches)
        np.testing.assert_array_equal(out.hidden, h)

    def test_sender_order(self):
        """An inbox keeps the order it is given (the episode delivers by ascending sender id)."""
        mdl = init_model(cfg(), 2)
        res = prefill(mdl, [[1, 2, 3]])
        p3, _ = build_payload(init_model(cfg(), 2), [4, 5], sender=3)
        p1, _ = build_payload(init_model(cfg(), 2), [6, 7], sender=1)
        for box in ([p3, p1], [p1, p3]):
            ctx = attach_payload(res.caches, [box])
            assert [s.num_positions for s in ctx.segments] == [5, 5]
            # received payloads are read as they are, with no copy
            assert all(seg is p for seg, p in zip(ctx.segments, box, strict=True))
        assert p1.keys.tobytes() != p3.keys.tobytes()

    def test_shape_mismatch_rejected(self):
        """A payload of another head_dim, head count or depth: the decode is the one
        check (attach_payload only wraps), with or without attach_payload."""
        mdl = init_model(cfg(), 3)
        res = prefill(mdl, [[1, 2]])
        x = np.zeros((1, 8), dtype=np.float32)
        for other in (dict(model_dim=16), dict(num_heads=4), dict(num_layers=6)):
            payload, _ = build_payload(init_model(cfg(**other), 3), [1, 2])
            ctx = attach_payload(res.caches, [[payload]])
            with pytest.raises(ShapeMismatchError, match="does not fit a model of 4 layers of 2 heads of 4"):
                collaborative_decode(mdl, x, ctx)
            with pytest.raises(ShapeMismatchError, match="does not fit"):
                forward_decode(mdl, x, res.caches, [[payload]])
        assert res.caches[0].length == 2

    def test_uneven_context_cannot_be_built(self):
        """Every cache gets its own inbox, all of one length: the decode batch over
        three payloads for two caches is refused, not split or dropped."""
        mdl = init_model(cfg(), 12)
        caches = prefill(mdl, [[1, 2, 3], [4, 5, 6]]).caches
        payloads = [build_payload(init_model(cfg(), 12), [4, 5], sender=s)[0] for s in (2, 3, 4)]
        x = np.zeros((2, 8), dtype=np.float32)
        for inboxes in ([payloads], [payloads[:1], payloads[1:]], [[], [], payloads]):
            with pytest.raises(ConfigError, match="one payload list per agent"):
                DecodeBatch(mdl, caches, inboxes)
            with pytest.raises(ConfigError, match="one payload list per agent"):
                collaborative_decode(mdl, x, attach_payload(caches, inboxes))

    def test_foreign_tags(self):
        payload, _ = build_payload(init_model(cfg(), 4), [1, 2, 3], m=2, fraction=0.5)
        mdl = init_model(cfg(), 4)
        res = prefill(mdl, [[5, 6]])
        out = collaborative_decode(mdl, np.zeros((1, 8), dtype=np.float32),
                                   attach_payload(res.caches, [[payload]]))
        foreign = [FOREIGN_PREFILL] * 3 + [FOREIGN_LATENT] * 2
        for l, tags in enumerate(out.context_tags[0]):
            assert tags.dtype == np.uint8
            np.testing.assert_array_equal(tags[3:], foreign if l < payload.l_comm else [])


class TestEquivalences:
    def test_zero_payload_bit_identical(self):
        mdl_a = init_model(cfg(), 5)
        mdl_b = init_model(cfg(), 5)
        res_a = prefill(mdl_a, [[3, 1, 4, 1]])
        res_b = prefill(mdl_b, [[3, 1, 4, 1]])
        x = np.linspace(-1, 1, 8).astype(np.float32)[None]
        h, rows = forward_decode(mdl_a, x, res_a.caches)
        logits = project_to_logits(mdl_a, h)
        out = collaborative_decode(mdl_b, x, attach_payload(res_b.caches, [[]]))
        assert np.array_equal(out.hidden, h)
        assert np.array_equal(out.logits, logits)
        assert all(np.array_equal(a, b) for a, b in zip(out.attention_rows[0], rows, strict=True))

    def test_full_depth_full_rho_equals_naive(self):
        sender = init_model(cfg(), 6)
        payload, foreign_cache = build_payload(sender, [2, 4, 6], m=2, fraction=1.0)
        mdl_a = init_model(cfg(), 6)
        mdl_b = init_model(cfg(), 6)
        res_a = prefill(mdl_a, [[7, 8]])
        res_b = prefill(mdl_b, [[7, 8]])
        x = np.full((1, 8), 0.25, dtype=np.float32)
        via_payload = collaborative_decode(mdl_a, x, attach_payload(res_a.caches, [[payload]]))
        via_naive = ref_naive_full_fusion(mdl_b, x, res_b.caches[0], foreign_cache)
        np.testing.assert_array_equal(via_payload.hidden, via_naive.hidden)
        np.testing.assert_array_equal(via_payload.logits, via_naive.logits)

    def test_naive_empty_foreign_equals_plain(self):
        mdl = init_model(cfg(), 7)
        res = prefill(mdl, [[1, 2, 3]])
        foreign = prefill(init_model(cfg(), 7), [[9]]).caches[0]
        foreign.prefill_len = foreign.length = 0  # empty view of a fresh cache
        x = np.zeros((1, 8), dtype=np.float32)
        out = ref_naive_full_fusion(mdl, x, res.caches[0], foreign)
        mdl2 = init_model(cfg(), 7)
        res2 = prefill(mdl2, [[1, 2, 3]])
        h, _ = forward_decode(mdl2, x, res2.caches)
        np.testing.assert_array_equal(out.hidden, h)

    def test_symmetric_split_with_identical_foreign(self):
        # a foreign copy of the ego cache halves every row's mass
        mdl = init_model(cfg(), 8)
        res = prefill(mdl, [[1, 2, 3, 4]])
        twin = prefill(init_model(cfg(), 8), [[1, 2, 3, 4]]).caches[0]
        x = np.linspace(0, 1, 8).astype(np.float32)[None]
        out = ref_naive_full_fusion(mdl, x, res.caches[0], twin)
        for rows, tags in zip(out.attention_rows[0], out.context_tags[0], strict=True):
            foreign = (tags == FOREIGN_PREFILL) | (tags == FOREIGN_LATENT)
            ego_mass = rows[:, ~foreign].sum(axis=1, dtype=np.float64)
            foreign_mass = rows[:, foreign].sum(axis=1, dtype=np.float64)
            # ego side holds one extra position (the fresh decode entry)
            assert rows.shape[1] == 9
            np.testing.assert_allclose(
                ego_mass - rows[:, 4].astype(np.float64), foreign_mass, atol=1e-6
            )


class TestWidening:
    @pytest.mark.parametrize("seed", range(6))
    def test_f16_payloads_decode_as_their_float32_widening(self, seed):
        # the decode joins float16 bodies to its float64 context exactly, so a
        # float16 payload and its float32 cast give the same bits
        p16 = [sent_as(build_payload(init_model(cfg(), seed), tokens, m=3, fraction=fraction,
                                     sender=sender)[0], DTYPE_F16)
               for sender, tokens, fraction in ((2, [2, 4, 6, 1], 0.5), (1, [3, 5], 1.0))]
        assert all(p.keys.dtype == np.float16 for p in p16)
        p32 = [replace(p, keys=p.keys.astype(np.float32), values=p.values.astype(np.float32))
               for p in p16]
        assert all(p.dtype_flag == DTYPE_F32 for p in p32)
        x = np.linspace(-1, 1, 8).astype(np.float32)[None]
        outs = []
        for payloads in (p16, p32):
            mdl = init_model(cfg(), seed)
            res = prefill(mdl, [[7, 8, 9]])
            outs.append(collaborative_decode(mdl, x, attach_payload(res.caches, [payloads])))
        f16, f32 = outs
        assert f16.attention_rows[0][0].shape[1] == 4 + 7 + 5
        assert np.array_equal(f16.hidden, f32.hidden)
        assert np.array_equal(f16.logits, f32.logits)
        for a, b in zip(f16.attention_rows[0], f32.attention_rows[0], strict=True):
            assert np.array_equal(a, b)


class TestDepthIsolation:
    def test_deep_layers_never_see_foreign(self):
        sender = init_model(cfg(), 9)
        payload, _ = build_payload(sender, [2, 4, 6], m=2, fraction=0.25)
        assert payload.l_comm == 1
        mdl = init_model(cfg(), 9)
        res = prefill(mdl, [[7, 8]])
        out = collaborative_decode(mdl, np.zeros((1, 8), dtype=np.float32),
                                   attach_payload(res.caches, [[payload]]))
        rows_per_layer = out.attention_rows[0]
        assert rows_per_layer[0].shape[1] == 3 + payload.num_positions
        for rows in rows_per_layer[1:]:
            assert rows.shape[1] == 3

    def test_deep_source_bytes_irrelevant(self):
        # two source caches differing only in deep layers produce identical payloads
        sender_a = init_model(cfg(), 10)
        sender_b = init_model(cfg(), 10)
        pa, cache_a = build_payload(sender_a, [2, 4, 6], m=2, fraction=0.25)
        cache_b = ref_snapshot(cache_a)
        cache_b.k[1:] += 17.0
        cache_b.v[1:] -= 3.0
        pb = distill(cache_b, list(range(3)), 0.25, sender_id=1, frame_id=0)
        assert pa.keys.tobytes() == pb.keys.tobytes()
        assert pa.values.tobytes() == pb.values.tobytes()

    def test_foreign_positions_never_enter_ego_cache(self):
        sender = init_model(cfg(), 11)
        payload, _ = build_payload(sender, [2, 4, 6], m=2)
        mdl = init_model(cfg(), 11)
        res = prefill(mdl, [[7, 8]])
        out = collaborative_decode(mdl, np.zeros((1, 8), dtype=np.float32),
                                   attach_payload(res.caches, [[payload]]))
        assert (res.caches[0].prefill_len, res.caches[0].length) == (2, 3)
        assert not res.caches[0].store[:, :, :, 3:].any()
        tags = out.context_tags[0][0]  # layer 0: ego, then the payload's positions
        np.testing.assert_array_equal(tags[:3], [EGO_PREFILL, EGO_PREFILL, EGO_LATENT])
        assert np.all((tags[3:] == FOREIGN_PREFILL) | (tags[3:] == FOREIGN_LATENT))


class TestHazardFusion:
    """Constructed shallow-benefit and deep-interference behaviors."""

    def _clear_ego(self, layers=4):
        c = cfg(num_layers=layers)
        mdl = make_hazard_model(c)
        tokens = [TOKEN_CLEAR] * 5 + [TOKEN_EGO_A]
        res = prefill(mdl, [tokens])
        return mdl, res

    def test_shallow_hazard_kv_raises_brake_logit(self):
        # collaborator saw a lane-A hazard; its shallow cache alone must push
        # the lane-A receiver's brake logit above the no-payload run
        sender = make_hazard_model(cfg())
        payload, _ = build_payload(sender, [TOKEN_HAZARD_A, TOKEN_CLEAR, TOKEN_EGO_B],
                                   m=2, fraction=0.25, sender=1)
        mdl, res = self._clear_ego()
        marker = mdl.w_in[[TOKEN_EGO_A]]
        base_mdl, base_res = self._clear_ego()
        h0, _ = forward_decode(base_mdl, marker, base_res.caches)
        base_logits = project_to_logits(base_mdl, h0)[0]
        out = collaborative_decode(mdl, marker, attach_payload(res.caches, [[payload]]))
        assert out.logits[0, TOKEN_BRAKE] > base_logits[TOKEN_BRAKE]
        assert int(np.argmax(out.logits)) == TOKEN_BRAKE

    def test_deep_decision_flips_naive_but_not_shallow(self):
        # foreign agent braked for a hazard in its own lane; its deep cache
        # flips the clear-lane ego under full-depth fusion only
        sender = make_hazard_model(cfg())
        foreign_tokens = [TOKEN_HAZARD_B, TOKEN_CLEAR, TOKEN_EGO_B]
        payload_shallow, foreign_cache = build_payload(
            sender, foreign_tokens, m=2, fraction=0.25, sender=1)

        mdl_naive, res_naive = self._clear_ego()
        marker = mdl_naive.w_in[[TOKEN_EGO_A]]
        naive = ref_naive_full_fusion(mdl_naive, marker, res_naive.caches[0], foreign_cache)
        assert int(np.argmax(naive.logits)) == TOKEN_BRAKE

        mdl_shallow, res_shallow = self._clear_ego()
        shallow = collaborative_decode(mdl_shallow, marker,
                                       attach_payload(res_shallow.caches, [[payload_shallow]]))
        assert int(np.argmax(shallow.logits)) == TOKEN_KEEP

        mdl_plain, res_plain = self._clear_ego()
        h, _ = forward_decode(mdl_plain, marker, res_plain.caches)
        assert int(np.argmax(project_to_logits(mdl_plain, h))) == TOKEN_KEEP
