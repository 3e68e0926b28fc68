import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laco.chsa import build_chsa_cache
from laco.errors import ConfigError, PayloadFormatError
from laco.ild import compute_alignment, deliberate
from laco.model import ModelConfig, init_model, prefill
from laco.wire import (
    DTYPE_F16,
    DTYPE_F32,
    ChannelConfig,
    ChannelResult,
    LanguageMessage,
    Payload,
    channel_send,
    deserialize,
    distill,
    payload_size_bytes,
    rounded_layer_count,
    serialize,
)


def random_payload(rng, l_comm, H, t_salient, t_latent, dh, dtype_flag=DTYPE_F32):
    t = t_salient + t_latent
    np_dtype = np.float32 if dtype_flag == DTYPE_F32 else np.float16
    return Payload(
        sender_id=int(rng.integers(0, 100)),
        frame_id=int(rng.integers(0, 1000)),
        salient_count=t_salient,
        latent_count=t_latent,
        dtype_flag=dtype_flag,
        source_indices=tuple(sorted(rng.choice(100, size=t_salient, replace=False).tolist())),
        keys=rng.normal(size=(l_comm, H, t, dh)).astype(np_dtype),
        values=rng.normal(size=(l_comm, H, t, dh)).astype(np_dtype),
    )


def chsa_from_model(seed=0, L=4, T=8, m=3):
    mdl = init_model(ModelConfig(L, 2, 8, 16, 64, seed=seed))
    res = prefill(mdl, list(range(T)))
    deliberate(mdl, compute_alignment(mdl), res.hidden, res.cache, m)
    indices = [1, 4, 6]
    return build_chsa_cache(res.cache.slice(0, T), res.cache.slice(T, T + m), indices), indices


class TestDistill:
    def test_layer_rounding(self):
        assert rounded_layer_count(1.0, 4) == 4
        assert rounded_layer_count(0.10, 20) == 2
        assert rounded_layer_count(0.10, 4) == 1
        assert rounded_layer_count(0.5, 5) == 3  # halves round up
        with pytest.raises(ConfigError):
            rounded_layer_count(0.0, 4)

    def test_full_fraction_keeps_all_layers(self):
        p = distill(*chsa_from_model(), 1.0, sender_id=1, frame_id=0)
        assert p.l_comm == 4

    def test_retained_layers_byte_equal(self):
        cc, indices = chsa_from_model(seed=3)
        p = distill(cc, indices, 0.5, sender_id=1, frame_id=0)
        assert p.l_comm == 2
        assert p.keys.tobytes() == cc.keys[:2].tobytes()
        assert p.values.tobytes() == cc.values[:2].tobytes()

    def test_counts_and_indices(self):
        p = distill(*chsa_from_model(), 0.25, sender_id=9, frame_id=5)
        assert (p.salient_count, p.latent_count) == (3, 3)
        assert p.source_indices == (1, 4, 6)

    def test_latent_segment_also_truncated(self):
        p = distill(*chsa_from_model(), 0.25, sender_id=0, frame_id=0)
        assert p.keys.shape[0] == 1


class TestSerialization:
    @pytest.mark.parametrize("dtype_flag", [DTYPE_F32, DTYPE_F16])
    def test_round_trip_identity(self, dtype_flag):
        rng = np.random.default_rng(0)
        p = random_payload(rng, 2, 2, 5, 3, 4, dtype_flag)
        q = deserialize(serialize(p))
        assert (q.sender_id, q.frame_id) == (p.sender_id, p.frame_id)
        assert (q.salient_count, q.latent_count, q.dtype_flag) == (
            p.salient_count, p.latent_count, p.dtype_flag)
        assert q.source_indices == p.source_indices
        assert q.keys.tobytes() == p.keys.tobytes()
        assert q.values.tobytes() == p.values.tobytes()

    def test_size_formula_matches_measurement(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            l_comm = int(rng.integers(1, 5))
            H = int(rng.integers(1, 4))
            ts = int(rng.integers(0, 6))
            tl = int(rng.integers(0, 6))
            dh = int(rng.integers(1, 9))
            flag = int(rng.integers(0, 2))
            p = random_payload(rng, l_comm, H, ts, tl, dh, flag)
            assert len(serialize(p)) == p.size_bytes()

    def test_f16_body_half_of_f32(self):
        rng = np.random.default_rng(2)
        a = random_payload(rng, 2, 2, 4, 2, 8, DTYPE_F32)
        b = random_payload(rng, 2, 2, 4, 2, 8, DTYPE_F16)
        header = 37 + 4 * 4
        assert (a.size_bytes() - header) == 2 * (b.size_bytes() - header)

    def test_zero_tokens_header_only(self):
        assert payload_size_bytes(3, 2, 8, 0, 0, DTYPE_F32) == 37

    def test_body_linear_in_l_comm(self):
        one = payload_size_bytes(1, 2, 8, 4, 2, DTYPE_F32, index_count=4)
        two = payload_size_bytes(2, 2, 8, 4, 2, DTYPE_F32, index_count=4)
        header = 37 + 16
        assert (two - header) == 2 * (one - header)

    def test_truncated_stream_rejected(self):
        rng = np.random.default_rng(3)
        blob = serialize(random_payload(rng, 1, 2, 3, 1, 4))
        with pytest.raises(PayloadFormatError):
            deserialize(blob[:-1])
        with pytest.raises(PayloadFormatError):
            deserialize(blob + b"\x00")
        with pytest.raises(PayloadFormatError):
            deserialize(b"XXXX" + blob[4:])

    @given(
        st.integers(1, 4), st.integers(1, 3), st.integers(0, 5),
        st.integers(0, 5), st.integers(1, 8), st.integers(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, l_comm, H, ts, tl, dh, flag):
        rng = np.random.default_rng(l_comm * 1000 + H * 100 + ts * 10 + tl + dh + flag)
        p = random_payload(rng, l_comm, H, ts, tl, dh, flag)
        blob = serialize(p)
        assert len(blob) == p.size_bytes()
        q = deserialize(blob)
        assert serialize(q) == blob


class TestCompressionAccounting:
    def test_closed_form_ratio(self):
        # rho and depth fraction multiply through the body-size formula
        L, T, m, H, dh = 20, 100, 10, 2, 8      # noqa: E741 - L matches the dimension name
        keep = 30                               # ceil(0.3 * 100)
        l_comm = rounded_layer_count(0.10, L)
        body = l_comm * H * (keep + m) * dh * 2 * 4
        full = L * H * (T + m) * dh * 2 * 4
        assert body / full == pytest.approx(0.1 * (30 + 10) / (100 + 10), abs=1e-12)

    def test_measured_ratio_within_header_slack(self):
        p = distill(*chsa_from_model(seed=5, L=4, T=10, m=4), 0.25, sender_id=0, frame_id=0)
        full_body = 4 * 2 * (10 + 4) * 4 * 2 * 4
        expected = (1 / 4) * (3 + 4) / (10 + 4)
        measured = p.size_bytes() / full_body
        header = 37 + 4 * 3
        assert abs(measured - expected) <= header / full_body


class TestChannel:
    def test_out_of_range_dropped(self):
        cfg = ChannelConfig(range_m=200.0)
        msg = LanguageMessage(0, 0, (1, 2, 3))
        res = channel_send(cfg, msg, (0.0, 0.0), (0.0, 250.0))
        assert res == ChannelResult(delivered=False, latency_s=None, reason="out_of_range")

    def test_boundary_inclusive(self):
        cfg = ChannelConfig(range_m=200.0)
        msg = LanguageMessage(0, 0, ())
        assert channel_send(cfg, msg, (0.0, 0.0), (0.0, 200.0)).delivered

    def test_latency_formula(self):
        cfg = ChannelConfig(range_m=200.0, bandwidth_bytes_per_s=1_000_000.0, base_latency_s=0.01)

        class Blob:
            def size_bytes(self):
                return 100_000

        res = channel_send(cfg, Blob(), (0.0, 0.0), (0.0, 0.0))
        assert res.latency_s == pytest.approx(0.11, abs=1e-12)

    def test_latency_monotone_in_size(self):
        cfg = ChannelConfig()
        lat = []
        for n in (0, 10, 100, 1000):
            msg = LanguageMessage(0, 0, tuple(range(n)))
            lat.append(channel_send(cfg, msg, (0, 0), (0, 0)).latency_s)
        assert all(a < b for a, b in zip(lat, lat[1:]))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            ChannelConfig(range_m=-1.0)

    def test_nonfinite_position_rejected(self):
        with pytest.raises(ConfigError):
            channel_send(ChannelConfig(), LanguageMessage(0, 0, ()), (np.nan, 0), (0, 0))
