from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laco import scenario as sc
from laco import wire
from laco.errors import ConfigError, PayloadFormatError
from laco.ild import compute_alignment, deliberate
from laco.model import KVCache, ModelConfig, prefill
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
from reference import init_model, ref_chsa_payload, sent_as


def random_payload(rng, l_comm, H, t_salient, t_latent, dh, dtype_flag=DTYPE_F32):
    t = t_salient + t_latent
    np_dtype = np.float32 if dtype_flag == DTYPE_F32 else np.float16
    return Payload(
        sender_id=int(rng.integers(0, 100)),
        frame_id=int(rng.integers(0, 1000)),
        source_indices=tuple(sorted(rng.choice(100, size=t_salient, replace=False).tolist())),
        keys=rng.normal(size=(l_comm, H, t, dh)).astype(np_dtype),
        values=rng.normal(size=(l_comm, H, t, dh)).astype(np_dtype),
    )


def chsa_from_model(seed=0, L=4, T=8, m=3):
    """(cache of a T-token prefill after m deliberation steps, selected indices)."""
    mdl = init_model(ModelConfig(L, 2, 8, 16, 64), seed)
    res = prefill(mdl, [list(range(T))])
    deliberate(compute_alignment(mdl), res, m)
    return res.caches[0], [1, 4, 6]


def assert_matches_reference(p, cache, indices):
    """``p`` is byte-equal to the slice -> assemble -> truncate oracle (narrowed
    from float32 as a float16 payload is)."""
    keys, values = (a.astype(p.keys.dtype) for a in ref_chsa_payload(
        cache.k, cache.v, cache.length, cache.prefill_len, indices, p.l_comm, np.float32))
    assert p.keys.dtype == keys.dtype and p.keys.shape == keys.shape
    assert p.keys.tobytes() == keys.tobytes()
    assert p.values.tobytes() == values.tobytes()
    assert p.salient_count == len(indices)
    assert p.latent_count == cache.length - cache.prefill_len
    assert p.source_indices == tuple(indices)


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
        cache, indices = chsa_from_model(seed=3)
        p = distill(cache, indices, 0.5, sender_id=1, frame_id=0)
        positions = indices + list(range(cache.prefill_len, cache.length))
        assert p.l_comm == 2
        assert p.keys.tobytes() == cache.k[:2, :, positions].astype(np.float32).tobytes()
        assert p.values.tobytes() == cache.v[:2, :, positions].astype(np.float32).tobytes()

    @pytest.mark.parametrize("dtype_flag", [DTYPE_F32, DTYPE_F16])
    def test_matches_reference_on_random_caches(self, dtype_flag):
        rng = np.random.default_rng(7)
        for _ in range(30):
            L = int(rng.integers(2, 6))
            cache = KVCache(ModelConfig(L, 2, 8, 16, 24), np.zeros((2, L, 2, 24, 4)), 0)
            cache.k[:] = rng.normal(size=cache.k.shape)
            cache.v[:] = rng.normal(size=cache.v.shape)
            cache.length = int(rng.integers(1, 25))
            T = cache.prefill_len = int(rng.integers(1, cache.length + 1))
            keep = int(rng.integers(0, T + 1))
            indices = sorted(rng.choice(T, size=keep, replace=False).tolist())
            fraction = float(rng.uniform(0.05, 1.0))
            p = sent_as(distill(cache, indices, fraction, sender_id=2, frame_id=3), dtype_flag)
            assert p.l_comm == rounded_layer_count(fraction, L)
            assert_matches_reference(p, cache, indices)

    @pytest.mark.parametrize("name", sc.builtin_scenario_names())
    def test_matches_reference_on_a_laco_tick(self, monkeypatch, name):
        checked = []

        def spy(cache, indices, *args, **kwargs):
            p = distill(cache, indices, *args, **kwargs)
            # checked at once: the decision decode appends to the same cache
            assert cache.prefill_len == spec.observation_len
            assert_matches_reference(p, cache, indices)
            checked.append(p)
            return p

        monkeypatch.setattr(sc, "distill", spy)
        spec = sc.load_scenario(sc.builtin_scenario_path(name))
        sc.run_tick(sc.Simulation(spec, "LACO"))
        assert len(checked) == len(spec.agents)
        assert all(p.latent_count == spec.m for p in checked)

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
        one = payload_size_bytes(1, 2, 8, 4, 2, DTYPE_F32)
        two = payload_size_bytes(2, 2, 8, 4, 2, DTYPE_F32)
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


    @pytest.mark.parametrize(
        "indices",
        [(5, 2), (1,), (0, 1, 2), (3, 3)],
        ids=["out_of_order", "short_table", "long_table", "repeated_index"],
    )
    def test_bad_index_table_rejected(self, indices):
        rng = np.random.default_rng(4)
        p = random_payload(rng, 1, 2, 2, 1, 4)
        # no Payload holds such a table, so pack the stream by hand.
        header = wire._FIXED.pack(
            wire.MAGIC, wire.VERSION, p.sender_id, p.frame_id, p.l_comm, p.num_heads,
            p.head_dim, p.salient_count, p.latent_count, p.dtype_flag, len(indices))
        table = np.asarray(indices, dtype="<u4").tobytes()
        body = b"".join(arr[l].tobytes() for l in range(p.l_comm) for arr in (p.keys, p.values))
        with pytest.raises(PayloadFormatError):
            deserialize(header + table + body)

    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=1000)
    def test_random_bytes_parse_or_raise_format_error(self, blob):
        try:
            deserialize(blob)
        except PayloadFormatError:
            pass

    @given(st.integers(0, 200), st.binary(min_size=1, max_size=8), st.integers(0, 200))
    @settings(max_examples=100, deadline=1000)
    def test_corrupted_payload_parses_or_raises_format_error(self, at, patch, cut):
        blob = serialize(random_payload(np.random.default_rng(5), 1, 2, 3, 1, 4))
        corrupt = (blob[:at] + patch + blob[at + len(patch):])[: len(blob) - cut]
        try:
            deserialize(corrupt)
        except PayloadFormatError:
            pass


def part_arrays(dtype, shape, rng):
    return rng.normal(size=shape).astype(dtype), rng.normal(size=shape).astype(dtype)


class TestPayload:
    """A Payload is checked when it is made, and its counts and flag come from its parts."""

    @pytest.mark.parametrize("dtype, flag", [(np.float32, DTYPE_F32), (np.float16, DTYPE_F16)])
    def test_counts_and_flag_come_from_the_parts(self, dtype, flag):
        keys, values = part_arrays(dtype, (2, 3, 7, 4), np.random.default_rng(0))
        p = Payload(sender_id=1, frame_id=2, source_indices=(0, 3, 9), keys=keys, values=values)
        assert (p.salient_count, p.latent_count, p.dtype_flag) == (3, 4, flag)
        assert len(serialize(p)) == p.size_bytes()

    @pytest.mark.parametrize("keys_shape, values_shape, keys_dtype, values_dtype", [
        ((2, 2, 3, 4), (1, 2, 3, 4), np.float32, np.float32),
        ((2, 2, 3, 4), (2, 2, 3, 4), np.float32, np.float16),
        ((2, 2, 3, 4), (2, 2, 3, 4), np.float64, np.float64),
        ((2, 3, 4), (2, 3, 4), np.float32, np.float32),
        ((2, 2, 3, 4), (2, 2, 3, 4), np.int32, np.int32),
    ], ids=["values_of_another_shape", "two_dtypes", "float64", "three_axes", "int32"])
    def test_rejects_bad_arrays(self, keys_shape, values_shape, keys_dtype, values_dtype):
        rng = np.random.default_rng(1)
        keys = part_arrays(keys_dtype, keys_shape, rng)[0]
        values = part_arrays(values_dtype, values_shape, rng)[1]
        with pytest.raises(PayloadFormatError, match="not one 4-D float32 or float16"):
            Payload(sender_id=0, frame_id=0, source_indices=(0,), keys=keys, values=values)

    @pytest.mark.parametrize("indices", [(5, 2), (3, 3), (-1, 2), (0, 1, 2, 3), [0, 1]],
                             ids=["out_of_order", "repeated_index", "negative", "too_many", "list"])
    def test_rejects_bad_source_indices(self, indices):
        keys, values = part_arrays(np.float32, (1, 2, 3, 4), np.random.default_rng(2))
        with pytest.raises(PayloadFormatError, match="source_indices must be a tuple"):
            Payload(sender_id=0, frame_id=0, source_indices=indices, keys=keys, values=values)

    # header field -> (its width in bits, the keys shape that sets it to n; None for a keyword)
    HEADER = {"sender_id": (32, None), "frame_id": (64, None),
              "l_comm": (16, lambda n: (n, 1, 0, 1)), "num_heads": (16, lambda n: (1, n, 0, 1)),
              "head_dim": (16, lambda n: (1, 1, 0, n)), "num_positions": (32, lambda n: (0, 1, n, 1))}

    @pytest.mark.parametrize("field", HEADER)
    def test_header_fields_fit_their_widths(self, field):
        """Each header field is an int within its width, or no Payload is made, so
        ``serialize`` has no failure of its own (an unchecked one raised ``struct.error``)."""
        bits, shape = self.HEADER[field]

        def make(n):
            keys = np.zeros(shape(n) if shape else (1, 2, 3, 4), np.float32)  # empty if shaped by n
            header = {"sender_id": 0, "frame_id": 0} | ({} if shape else {field: n})
            return Payload(source_indices=(), keys=keys, values=keys, **header)

        assert getattr(deserialize(serialize(make(2**bits - 1))), field) == 2**bits - 1
        too_wide = rf"^{field} {2**bits} is not an int in \[0, 2\*\*{bits}\)"
        with pytest.raises(PayloadFormatError, match=too_wide):
            make(2**bits)

    @pytest.mark.parametrize("field, value", [("sender_id", -1), ("sender_id", 1.5),
                                              ("sender_id", np.int64(1)), ("frame_id", -1)])
    def test_rejects_a_negative_or_non_int_id(self, field, value):
        keys = np.zeros((1, 2, 3, 4), np.float32)
        header = {"sender_id": 0, "frame_id": 0, field: value}
        with pytest.raises(PayloadFormatError, match=f"^{field} .* is not an int"):
            Payload(source_indices=(), keys=keys, values=keys, **header)

    @pytest.mark.parametrize("indices", [(0, 2**32), (0, 1.5), (np.int64(0),), (True,)],
                             ids=["index_2**32", "index_1.5", "index_int64", "index_bool"])
    def test_rejects_an_index_that_is_not_a_u32_int(self, indices):
        keys = np.zeros((1, 1, 2, 1), np.float32)
        with pytest.raises(PayloadFormatError, match="ints that strictly increase"):
            Payload(sender_id=0, frame_id=0, source_indices=indices, keys=keys, values=keys)
        last = Payload(sender_id=0, frame_id=0, source_indices=(0, 2**32 - 1), keys=keys, values=keys)
        assert deserialize(serialize(last)).source_indices == (0, 2**32 - 1)

    def test_fields_cannot_be_reassigned(self):
        p = random_payload(np.random.default_rng(3), 2, 2, 2, 1, 4)
        for f in fields(p):
            with pytest.raises(FrozenInstanceError):
                setattr(p, f.name, getattr(p, f.name))

    @pytest.mark.parametrize("name", ["salient_count", "latent_count", "dtype_flag"])
    def test_counts_cannot_disagree_with_the_arrays(self, name):
        # A distilled payload billing one latent position more than it held
        # once reported 1,325 bytes for a 1,069-byte stream.
        cache, _ = chsa_from_model(m=2)
        p = distill(cache, [1, 4], 1.0, sender_id=0, frame_id=0)
        assert len(serialize(p)) == p.size_bytes() == 1069
        with pytest.raises(ValueError, match="init=False"):
            replace(p, **{name: getattr(p, name) + 1})
        narrowed = sent_as(p, DTYPE_F16)
        assert narrowed.dtype_flag == DTYPE_F16
        assert len(serialize(narrowed)) == narrowed.size_bytes() < p.size_bytes()

    @given(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 6), st.integers(0, 4)),
        st.sampled_from(["same", "other_shape", "three_axes"]),
        st.sampled_from([np.float32, np.float16, np.float64]),
        st.sampled_from([np.float32, np.float16, np.float64]),
        st.one_of(st.lists(st.integers(-3, 12), max_size=8),
                  st.sets(st.integers(0, 12), max_size=6).map(sorted)),
        st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_parts_raise_or_round_trip(self, shape, layout, keys_dtype, values_dtype,
                                              indices, sender_id, frame_id, seed):
        rng = np.random.default_rng(seed)
        values_shape = {"same": shape, "other_shape": (shape[0] + 1, *shape[1:]),
                        "three_axes": shape[1:]}[layout]
        keys = part_arrays(keys_dtype, shape, rng)[0]
        values = part_arrays(values_dtype, values_shape, rng)[1]
        try:
            p = Payload(sender_id=sender_id, frame_id=frame_id, source_indices=tuple(indices),
                        keys=keys, values=values)
        except PayloadFormatError:
            return
        blob = serialize(p)
        assert len(blob) == p.size_bytes()
        q = deserialize(blob)
        for f in fields(p):
            if f.name in ("keys", "values"):
                a, b = getattr(p, f.name), getattr(q, f.name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            else:
                assert getattr(q, f.name) == getattr(p, f.name)


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

    @pytest.mark.parametrize(
        "field, value",
        [("range_m", np.nan), ("bandwidth_bytes_per_s", np.nan), ("base_latency_s", np.nan),
         ("base_latency_s", np.inf)],
    )
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ChannelConfig(**{field: value})

    def test_nonfinite_position_rejected(self):
        with pytest.raises(ConfigError):
            channel_send(ChannelConfig(), LanguageMessage(0, 0, ()), (np.nan, 0), (0, 0))
