import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laco.errors import ConfigError, PayloadFormatError
from laco.model import (
    EGO_LATENT,
    EGO_PREFILL,
    FOREIGN_LATENT,
    FOREIGN_PREFILL,
    AttentionTrace,
)
from laco.telemetry import (
    TelemetryWriter,
    confusion_index,
    emit,
    read_telemetry,
    sparsity_curve,
    trace_entropy,
    trace_record_to_trace,
)
from reference import ref_emit, ref_layer_entropy, ref_sparsity, ref_trace_entropy


def dist_rows(rng, H, n):
    raw = rng.random((H, n)) + 1e-3
    return (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)


def one_step(*rows_per_layer):
    """A one-step trace of (H, n_l) rows per layer, zero-padded to the widest."""
    H, n = rows_per_layer[0].shape[0], max(r.shape[1] for r in rows_per_layer)
    array = np.zeros((1, len(rows_per_layer), H, n), dtype=np.float32)
    for l, rows in enumerate(rows_per_layer):
        array[0, l, :, : rows.shape[1]] = rows
    return AttentionTrace(array, np.array([n]))


class TestEntropy:
    def test_uniform_is_log_n(self):
        rows = np.full((2, 16), 1.0 / 16, dtype=np.float32)
        entropy = trace_entropy(one_step(rows, rows))
        assert entropy.dtype == np.float64 and entropy.shape == (2,)
        np.testing.assert_allclose(entropy, np.log(16.0), atol=1e-5)

    def test_one_hot_near_zero(self):
        rows = np.zeros((3, 8), dtype=np.float32)
        rows[:, 2] = 1.0
        assert abs(trace_entropy(one_step(rows))[0]) <= 1e-6

    def test_matches_straight_line(self):
        rng = np.random.default_rng(0)
        rows_per_layer = [dist_rows(rng, 2, 8) for _ in range(3)]
        entropy = trace_entropy(one_step(*rows_per_layer))
        for l, rows in enumerate(rows_per_layer):
            np.testing.assert_allclose(entropy[l], ref_layer_entropy(rows, 1e-8), atol=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for n in (1, 3, 64):
            e = trace_entropy(one_step(dist_rows(rng, 4, n)))[0]
            assert -1e-6 <= e <= np.log(n) + 1e-6

    def test_ragged_rows_accepted(self):
        # zero padding up to the widest layer adds nothing to a layer's entropy
        rng = np.random.default_rng(2)
        short = dist_rows(rng, 2, 4)
        entropy = trace_entropy(one_step(dist_rows(rng, 2, 9), short))
        assert entropy.shape == (2,)
        np.testing.assert_allclose(entropy[1], ref_layer_entropy(short, 1e-8), atol=1e-12)

    def test_trace_entropy_averages_steps(self):
        array = np.zeros((2, 1, 1, 4), dtype=np.float32)
        array[0, :, :, :2] = 0.5
        array[1] = 0.25
        trace = AttentionTrace(array, np.array([2, 4]))
        np.testing.assert_allclose(trace_entropy(trace)[0], (np.log(2) + np.log(4)) / 2, atol=1e-5)


@st.composite
def ragged_traces(draw):
    """Valid traces of 1-5 steps whose widest step has H*n past numpy's
    128-element pairwise-sum block; steps have ragged lengths and exact zeros."""
    steps, L, H = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    width = draw(st.integers(128 // H + 1, 160))
    lengths = draw(st.lists(st.integers(1, width), min_size=steps, max_size=steps))
    lengths[draw(st.integers(0, steps - 1))] = width
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    array = np.zeros((steps, L, H, width), dtype=np.float32)
    for t, n in enumerate(lengths):
        raw = rng.random((L, H, n))
        raw[raw < 0.2] = 0.0
        raw[..., 0] += 1e-3
        array[t, :, :, :n] = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
    return AttentionTrace(array, np.array(lengths))


class TestTraceEntropyOracle:
    @given(ragged_traces())
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_per_step_loop(self, trace):
        np.testing.assert_array_equal(trace_entropy(trace), ref_trace_entropy(trace))


class TestSparsity:
    def _trace_from_mass(self, mass):
        n = len(mass)
        rows = np.asarray(mass, dtype=np.float64)[None, None, None, :] / np.sum(mass)
        return AttentionTrace(rows.astype(np.float32), np.array([n]))

    def test_uniform_fraction(self):
        curve = sparsity_curve(self._trace_from_mass([1.0] * 10))
        assert curve.fraction_for_80 == pytest.approx(0.8, abs=0.1 + 1e-9)

    def test_concentrated_mass(self):
        mass = [0.0] * 10
        mass[1] = mass[4] = mass[7] = 1.0
        curve = sparsity_curve(self._trace_from_mass(mass))
        assert curve.fraction_for_80 == pytest.approx(0.3)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        mass = rng.random(12)
        curve = sparsity_curve(self._trace_from_mass(mass))
        np.testing.assert_allclose(curve.cumulative, ref_sparsity(mass / mass.sum()), atol=1e-6)

    def test_curve_nondecreasing_ends_at_one(self):
        rng = np.random.default_rng(4)
        array = np.zeros((3, 2, 2, 9), dtype=np.float32)
        for t in range(3):
            n = 7 + t
            raw = rng.random((2, 2, n)) + 1e-3
            array[t, :, :, :n] = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
        trace = AttentionTrace(array, np.array([7, 8, 9]))
        curve = sparsity_curve(trace)
        assert np.all(np.diff(curve.cumulative) >= -1e-12)
        assert curve.cumulative[-1] == pytest.approx(1.0, abs=1e-6)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        mass = rng.random(10)
        a = sparsity_curve(self._trace_from_mass(mass))
        b = sparsity_curve(self._trace_from_mass(mass[::-1]))
        np.testing.assert_allclose(a.cumulative, b.cumulative, atol=1e-7)
        assert a.fraction_for_80 == b.fraction_for_80


class TestConfusion:
    def test_no_foreign_all_zero(self):
        rng = np.random.default_rng(6)
        rows = [dist_rows(rng, 2, 5) for _ in range(3)]
        tags = [np.full(5, EGO_PREFILL, dtype=np.uint8) for _ in range(3)]
        idx = confusion_index(rows, tags)
        np.testing.assert_array_equal(idx, 0.0)

    def test_mirror_copy_half_mass(self):
        # identical ego and foreign keys split softmax mass evenly
        rows = np.full((2, 8), 1.0 / 8, dtype=np.float32)
        tags = np.array([EGO_PREFILL] * 4 + [FOREIGN_PREFILL] * 4, dtype=np.uint8)
        idx = confusion_index([rows], [tags])
        np.testing.assert_allclose(idx, 0.5, atol=1e-6)

    def test_deep_layers_exactly_zero_when_ego_only(self):
        rng = np.random.default_rng(7)
        rows = [dist_rows(rng, 2, 9), dist_rows(rng, 2, 5), dist_rows(rng, 2, 5)]
        tags = [
            np.array([EGO_PREFILL] * 5 + [FOREIGN_LATENT] * 4, dtype=np.uint8),
            np.full(5, EGO_PREFILL, dtype=np.uint8),
            np.full(5, EGO_LATENT, dtype=np.uint8),
        ]
        idx = confusion_index(rows, tags)
        assert idx.dtype == np.float64 and idx.shape == (3,)
        assert idx[0] > 0.0
        assert idx[1] == 0.0 and idx[2] == 0.0

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(8)
        rows = [dist_rows(rng, 3, 6)]
        tags = [np.array([EGO_PREFILL, FOREIGN_PREFILL] * 3, dtype=np.uint8)]
        idx = confusion_index(rows, tags)
        assert 0.0 <= idx[0] <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            confusion_index([np.ones((1, 3), dtype=np.float32) / 3],
                            [np.zeros(2, dtype=np.uint8)])


class TestEmit:
    def test_deterministic_bytes(self, tmp_path):
        rows = [(0, 1, 1, 1.234567891234), (0, 1, 2, 0.5)]
        spars = [(0, 1, 1, 0.5, 0.75, 0.5)]
        conf = [(0, 1, 1, 0.0)]
        emit(tmp_path / "a", rows, spars, conf)
        emit(tmp_path / "b", rows, spars, conf)
        for name in ("entropy.csv", "sparsity.csv", "confusion.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_rows_header_only(self, tmp_path):
        emit(tmp_path, [], [], [])
        assert (tmp_path / "entropy.csv").read_text() == "tick,agent,layer,entropy\n"

    def test_round_trip_precision(self, tmp_path):
        value = 2.718281828459045
        emit(tmp_path, [(0, 0, 1, value)], [], [])
        line = (tmp_path / "entropy.csv").read_text().splitlines()[1]
        parsed = float(line.split(",")[-1])
        assert parsed == pytest.approx(value, rel=1e-8)


SPECIAL_FLOATS = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072009e-308,
                  1e300, -1e-300, 1.7976931348623157e308, 0.1 + 0.2)
any_float = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)).flatmap(
    lambda x: st.sampled_from((x, np.float64(x))))
any_int = st.one_of(st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64))
diag_row = st.tuples(any_int, any_int, any_int, any_float)
sparsity_row = st.tuples(any_int, any_int, any_int, any_float, any_float, any_float)


class TestEmitOracle:
    @given(st.lists(diag_row, max_size=8), st.lists(sparsity_row, max_size=8),
           st.lists(diag_row, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_bytes_equal_per_value_oracle(self, tmp_path_factory, ent, spars, conf):
        base = tmp_path_factory.mktemp("emit")
        (base / "ref").mkdir()
        emit(base / "fast", ent, spars, conf)
        ref_emit(base / "ref", ent, spars, conf)
        for name in ("entropy.csv", "sparsity.csv", "confusion.csv"):
            assert (base / "fast" / name).read_bytes() == (base / "ref" / name).read_bytes()

    @given(any_float, st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_float_in_integer_column_raises(self, tmp_path_factory, x, column, which):
        row = [0, 1, 2, 0.5] if which != 1 else [0, 1, 2, 0.5, 0.5, 0.5]
        row[column] = x
        tables = [[], [], []]
        tables[which] = [tuple(row)]
        with pytest.raises(TypeError):
            emit(tmp_path_factory.mktemp("emit"), *tables)

    @pytest.mark.parametrize(
        "row", [(True, 1, 1, 0.5), (0, np.bool_(True), 1, 0.5), (0, 1, "1", 0.5), (0, 1, 1, 2),
                (0, 1, 1, True), (0, 1, 1, "0.5")],
        ids=["bool_tick", "numpy_bool_agent", "str_layer", "int_entropy", "bool_entropy",
             "str_entropy"])
    def test_value_of_another_type_raises(self, tmp_path, row):
        with pytest.raises(TypeError):
            emit(tmp_path, [row], [], [])


class TestBinaryStream:
    def test_trace_and_decision_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        array = np.zeros((2, 2, 2, 6), dtype=np.float32)
        for t in range(2):
            n = 5 + t
            raw = rng.random((2, 2, n)) + 1e-3
            array[t, :, :, :n] = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
        trace = AttentionTrace(array, np.array([5, 6]))
        rows = [dist_rows(rng, 2, 7), dist_rows(rng, 2, 4)]
        tags = [np.array([EGO_PREFILL] * 4 + [FOREIGN_PREFILL] * 3, dtype=np.uint8),
                np.full(4, EGO_PREFILL, dtype=np.uint8)]
        path = tmp_path / "telemetry.bin"
        with TelemetryWriter(path) as w:
            w.write_trace(3, 1, trace)
            w.write_decision(3, 1, rows, tags)
        records = read_telemetry(path)
        assert len(records) == 2
        rec_trace, rec_dec = records
        np.testing.assert_array_equal(rec_trace.trace.lengths, trace.lengths[:2])
        np.testing.assert_array_equal(rec_trace.trace.array, trace.array[:2])
        rebuilt = trace_record_to_trace(rec_trace)
        np.testing.assert_array_equal(rebuilt.array, trace.array[:2])
        for got, want in zip(rec_dec.rows, rows):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(rec_dec.tags, tags):
            np.testing.assert_array_equal(got, want)

    def test_truncated_stream_rejected(self, tmp_path):
        path = tmp_path / "telemetry.bin"
        with TelemetryWriter(path) as w:
            w.write_decision(0, 0, [np.ones((1, 2), dtype=np.float32) / 2],
                             [np.zeros(2, dtype=np.uint8)])
        blob = path.read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[:-3])
        with pytest.raises(PayloadFormatError):
            read_telemetry(bad)


def trace_stream(tmp_path):
    """Bytes of a one-record stream holding a valid 2-step trace."""
    array = np.zeros((2, 1, 2, 3), dtype=np.float32)
    array[0, :, :, :2] = 0.5
    array[1] = np.float32(1.0 / 3.0)
    path = tmp_path / "trace.bin"
    with TelemetryWriter(path) as w:
        w.write_trace(0, 1, AttentionTrace(array, np.array([2, 3])))
    return path.read_bytes()


def decision_stream(tmp_path, row):
    """Bytes of a one-record stream holding a one-layer, one-head decision."""
    path = tmp_path / "decision.bin"
    with TelemetryWriter(path) as w:
        w.write_decision(0, 0, [np.array([row], dtype=np.float32)], [np.zeros(len(row), "u1")])
    return path.read_bytes()


def bad_streams(tmp_path):
    """Malformed streams, one per way a record can be malformed."""
    blob = trace_stream(tmp_path)
    body = blob[4:]
    cut = body[:-4]
    weights = np.frombuffer(blob, dtype="<f4", count=12, offset=len(blob) - 48).copy()
    weights[0] = 5.0
    return {
        "zero_bytes": bytes(100),
        "short_body": struct.pack("<I", 5) + body[:5],
        "array_cut_short": struct.pack("<I", len(cut)) + cut,
        "weight_above_1": blob[:-48] + weights.tobytes(),
        "trailing_bytes": struct.pack("<I", len(body) + 2) + body + b"\0\0",
        # one step, 0 layers, 2 heads, width 3, context length 2: no rows at all
        "no_layers": struct.pack("<IBIIHHHII", 23, 1, 0, 1, 1, 0, 2, 3, 2),
        "decision_nan": decision_stream(tmp_path, [np.nan, 5.0]),
        "decision_row_sum_off": decision_stream(tmp_path, [0.5, 0.4]),
    }


class TestMalformedStream:
    @pytest.mark.parametrize(
        "case", ["zero_bytes", "short_body", "array_cut_short", "weight_above_1", "trailing_bytes",
                 "no_layers", "decision_nan", "decision_row_sum_off"])
    def test_rejected_with_format_error(self, tmp_path, case):
        path = tmp_path / "bad.bin"
        path.write_bytes(bad_streams(tmp_path)[case])
        with pytest.raises(PayloadFormatError):
            read_telemetry(path)

    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=1000)
    def test_random_bytes_parse_or_raise_format_error(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "fuzz.bin"
        path.write_bytes(blob)
        try:
            read_telemetry(path)
        except PayloadFormatError:
            pass

    @given(st.integers(0, 120), st.binary(min_size=1, max_size=8), st.integers(0, 120))
    @settings(max_examples=100, deadline=1000)
    def test_corrupted_stream_parses_or_raises_format_error(self, tmp_path_factory, at, patch,
                                                            cut):
        tmp = tmp_path_factory.getbasetemp()
        blob = trace_stream(tmp)
        corrupt = (blob[:at] + patch + blob[at + len(patch):])[: len(blob) - cut]
        path = tmp / "fuzz.bin"
        path.write_bytes(corrupt)
        try:
            read_telemetry(path)
        except PayloadFormatError:
            pass
