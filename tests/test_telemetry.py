import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laco import scenario as sc
from laco import telemetry
from laco.cli import main
from laco.errors import ConfigError, PayloadFormatError
from laco.model import (
    EGO_LATENT,
    EGO_PREFILL,
    FOREIGN_LATENT,
    FOREIGN_PREFILL,
    AttentionTrace,
)
from laco.telemetry import (
    DecisionRecord,
    TelemetryWriter,
    TraceRecord,
    confusion_index,
    emit,
    read_telemetry,
    sparsity_curve,
    trace_entropy,
    trace_record_to_trace,
)
from reference import (
    ref_analyze,
    ref_confusion,
    ref_emit,
    ref_layer_entropy,
    ref_sparsity,
    ref_sparsity_curve,
    ref_trace_entropy,
)


def dist_rows(rng, H, n):
    raw = rng.random((H, n)) + 1e-3
    return (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)


def distributions(rng, shape, n, uniform=0.0):
    """float32 rows of width ``n`` that pass the trace check, with exact zeros.
    About a share ``uniform`` of the rows, and of the blocks of last-axis rows
    (a trace's layer of H heads), are exactly ``float32(1/n)``."""
    raw = rng.random((*shape, n))
    raw[raw < 0.2] = 0.0
    raw[..., 0] += 1e-3
    rows = (raw / raw.sum(axis=-1, keepdims=True)).astype(np.float32)
    if uniform:
        rows[(rng.random(shape) < uniform) | (rng.random((*shape[:-1], 1)) < uniform)] = np.float32(1 / n)
    return rows


UNIFORM_SHARES = st.sampled_from([0.0, 0.5, 1.0])  # no uniform rows, some, all


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
    128-element pairwise-sum block; steps have ragged lengths and exact zeros,
    and none, some or all of a step's (layer, head) rows and whole layers are
    exactly ``float32(1/n)``."""
    steps, L, H = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    width = draw(st.integers(128 // H + 1, 160))
    lengths = draw(st.lists(st.integers(1, width), min_size=steps, max_size=steps))
    lengths[draw(st.integers(0, steps - 1))] = width
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    array = np.zeros((steps, L, H, width), dtype=np.float32)
    for t, n in enumerate(lengths):
        array[t, :, :, :n] = distributions(rng, (L, H), n, draw(UNIFORM_SHARES))
    return AttentionTrace(array, np.array(lengths))


class TestTraceEntropyOracle:
    @given(ragged_traces())
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_per_step_loop(self, trace):
        np.testing.assert_array_equal(trace_entropy(trace), ref_trace_entropy(trace))

    def test_occluded_1_rows_take_the_uniform_path(self, monkeypatch, tmp_path):
        """On occluded_1 under LACO most rows of a step are uniform; only the
        others, and one term per step, reach the add/log/multiply, and each
        record's entropy has the bits of the per-step oracle."""
        result = sc.run_episode(sc.load_scenario(sc.builtin_scenario_path("occluded_1")), "LACO")
        write_stream(tmp_path / "t.bin", result.telemetry)
        sizes = []

        def spied(a, plogp=telemetry._plogp):
            sizes.append(a.size)
            return plogp(a)

        monkeypatch.setattr(telemetry, "_plogp", spied)
        for group in read_telemetry(tmp_path / "t.bin"):
            if group.tags is not None:
                continue
            a, (R, steps, L, H, _) = group.trace.array, group.trace.array.shape
            uniform = [int((a[:, t, :, :, :n] == np.float32(1 / n)).all(axis=(-2, -1)).sum())
                       for t, n in enumerate(group.trace.lengths.tolist())]
            sizes.clear()
            entropy = trace_entropy(group.trace)
            assert sum(uniform) > R * steps * L // 2
            assert sum(sizes) == sum((R * L - u) * H * n + 1
                                     for u, n in zip(uniform, group.trace.lengths.tolist()))
            for r in range(R):
                np.testing.assert_array_equal(entropy[r], ref_trace_entropy(group.trace.part(r)))


class TestBlockStatistics:
    """Each trace or decision of a block gets the bits it gets alone."""

    @given(st.integers(1, 4), ragged_traces(), st.integers(0, 2**32 - 1), UNIFORM_SHARES)
    @settings(max_examples=60, deadline=None)
    def test_traces_of_a_block(self, R, first, seed, uniform):
        rng = np.random.default_rng(seed)
        array = np.zeros((R, *first.array.shape), dtype=np.float32)
        for t, n in enumerate(first.lengths):
            array[:, t, :, :, :n] = distributions(rng, (R, *first.array.shape[1:3]), n, uniform)
        array[0] = first.array
        block = AttentionTrace(array, first.lengths)
        entropy, curve = trace_entropy(block), sparsity_curve(block)
        for r in range(R):
            alone = AttentionTrace(array[r].copy(), first.lengths)
            np.testing.assert_array_equal(entropy[r], ref_trace_entropy(alone))
            cum, f80 = ref_sparsity_curve(alone)
            np.testing.assert_array_equal(curve.cumulative[r], cum)
            assert curve.fraction_for_80[r] == f80

    @given(st.integers(1, 4), st.lists(st.integers(1, 200), min_size=1, max_size=3),
           st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_decisions_of_a_block(self, R, widths, H, seed):
        rng = np.random.default_rng(seed)
        rows = [distributions(rng, (R, H), n) for n in widths]
        tags = [rng.integers(0, 4, n).astype(np.uint8) for n in widths]
        fractions = confusion_index(rows, tags)
        for r in range(R):
            np.testing.assert_array_equal(fractions[r], ref_confusion([l[r] for l in rows], tags))


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


def one_record(values, *f80):
    """A column block of one record (stream index 0, tick 0, agent 1)."""
    return (np.array([0]), np.array([0]), np.array([1]), np.array([values]),
            *(np.array([x]) for x in f80))


class TestEmit:
    def test_deterministic_bytes(self, tmp_path):
        rows = [one_record([1.234567891234, 0.5])]
        spars = [one_record([0.75], 0.5)]
        conf = [one_record([0.0])]
        emit(tmp_path / "a", rows, spars, conf)
        emit(tmp_path / "b", rows, spars, conf)
        for name in ("entropy.csv", "sparsity.csv", "confusion.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_rows_header_only(self, tmp_path):
        emit(tmp_path, [], [], [])
        assert (tmp_path / "entropy.csv").read_text() == "tick,agent,layer,entropy\n"

    def test_round_trip_precision(self, tmp_path):
        value = 2.718281828459045
        emit(tmp_path, [one_record([value])], [], [])
        line = (tmp_path / "entropy.csv").read_text().splitlines()[1]
        parsed = float(line.split(",")[-1])
        assert parsed == pytest.approx(value, rel=1e-8)


SPECIAL_FLOATS = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072009e-308,
                  1e300, -1e-300, 1.7976931348623157e308, 0.1 + 0.2)
any_float = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
any_int64 = st.integers(-2**63, 2**63 - 1)


@st.composite
def column_blocks(draw, sparsity=False):
    """Up to 3 column blocks of 1-3 records with 1-4 values each, their stream
    indices interleaved, and the rows ``ref_emit`` writes for them."""
    sizes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), max_size=3))
    order = draw(st.permutations(range(sum(R for R, _ in sizes))))
    blocks, records = [], []
    for R, K in sizes:
        index, order = np.array(order[:R]), order[R:]
        ticks, agents = (np.array(draw(st.lists(any_int64, min_size=R, max_size=R)), dtype=np.int64)
                         for _ in range(2))
        values = np.array(draw(st.lists(any_float, min_size=R * K, max_size=R * K))).reshape(R, K)
        f80 = np.array(draw(st.lists(any_float, min_size=R, max_size=R)))
        blocks.append((index, ticks, agents, values, *([f80] if sparsity else [])))
        for r in range(R):
            tail = [(k, k / K, values[r, k - 1], f80[r]) if sparsity else (k, values[r, k - 1])
                    for k in range(1, K + 1)]
            records.append((index[r], [(ticks[r], agents[r], *row) for row in tail]))
    return blocks, [row for _, rows in sorted(records, key=lambda rec: rec[0]) for row in rows]


class TestEmitOracle:
    @given(column_blocks(), column_blocks(sparsity=True), column_blocks())
    @settings(max_examples=100, deadline=None)
    def test_bytes_equal_per_value_oracle(self, tmp_path_factory, ent, spars, conf):
        base = tmp_path_factory.mktemp("emit")
        (base / "ref").mkdir()
        emit(base / "fast", ent[0], spars[0], conf[0])
        ref_emit(base / "ref", ent[1], spars[1], conf[1])
        for name in ("entropy.csv", "sparsity.csv", "confusion.csv"):
            assert (base / "fast" / name).read_bytes() == (base / "ref" / name).read_bytes()

    @given(any_float, st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_float_in_integer_column_raises(self, tmp_path_factory, x, column, which):
        block = list(one_record([0.5], *([0.5] if which == 1 else [])))
        block[column] = np.array([x])
        tables = [[], [], []]
        tables[which] = [tuple(block)]
        with pytest.raises(TypeError):
            emit(tmp_path_factory.mktemp("emit"), *tables)

    @pytest.mark.parametrize(
        "column, value", [(1, [True]), (2, [np.bool_(True)]), (0, ["1"]), (3, [[2]]),
                          (3, [[True]]), (3, [["0.5"]])],
        ids=["bool_tick", "numpy_bool_agent", "str_index", "int_entropy", "bool_entropy",
             "str_entropy"])
    def test_value_of_another_type_raises(self, tmp_path, column, value):
        block = list(one_record([0.5]))
        block[column] = np.array(value)
        with pytest.raises(TypeError):
            emit(tmp_path, [tuple(block)], [], [])


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
        groups = read_telemetry(path)
        assert [g.tags is None for g in groups] == [True, False]
        assert [g.offsets.tolist() for g in groups] == [[0], [4 + 19 + 4 * 2 + 4 * array.size]]
        assert [(g.ticks.tolist(), g.agents.tolist()) for g in groups] == [([3], [1])] * 2
        rec_trace = TraceRecord(3, 1, groups[0].trace.part(0))
        np.testing.assert_array_equal(rec_trace.trace.lengths, trace.lengths)
        np.testing.assert_array_equal(rec_trace.trace.array, trace.array)
        rebuilt = trace_record_to_trace(rec_trace)
        np.testing.assert_array_equal(rebuilt.array, trace.array)
        for got, want in zip(groups[1].rows, rows):
            np.testing.assert_array_equal(got[0], want)
        for got, want in zip(groups[1].tags, tags):
            np.testing.assert_array_equal(got, want)

    def test_a_wide_decision_layer_is_read_in_the_memory_of_its_bytes(self, tmp_path):
        """One decision of 2,000 layers, one of them 2,000 wide: each layer's rows
        are read into their own unpadded block, so the reader's peak stays near
        the 28 KB stream (a block padded to the widest layer is 16 MB)."""
        rows = [np.ones((1, 1), np.float32)] * 1999 + [np.full((1, 2000), 1 / 2000, np.float32)]
        path = tmp_path / "wide.bin"
        with TelemetryWriter(path) as w:
            w.write_decision(0, 0, rows, [np.zeros(r.shape[1], np.uint8) for r in rows])
        assert path.stat().st_size == 28_012
        tracemalloc.start()
        try:
            (group,) = read_telemetry(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert [r.shape for r in group.rows[-2:]] == [(1, 1, 1), (1, 1, 2000)]
        np.testing.assert_array_equal(group.rows[-1][0], rows[-1])

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


def _decision_layers(*shapes):
    """One (H, n) layer of uniform rows per shape, with n zero tags."""
    return [np.full(shape, 1 / shape[1], np.float32) for shape in shapes], \
        [np.zeros(shape[1], np.uint8) for shape in shapes]


class TestWriterRejects:
    """``write_decision`` raises, and writes nothing, on each record shape or
    row ``read_telemetry`` would reject."""

    def _assert_rejected(self, tmp_path, rows, tags, message):
        path = tmp_path / "telemetry.bin"
        with TelemetryWriter(path) as w, pytest.raises(ConfigError, match=message):
            w.write_decision(0, 0, rows, tags)
        assert path.read_bytes() == b""

    def test_no_layers(self, tmp_path):
        self._assert_rejected(tmp_path, [], [], "got 0 and 0")

    def test_rows_and_tags_of_different_layer_counts(self, tmp_path):
        rows, tags = _decision_layers((2, 3), (2, 4))
        self._assert_rejected(tmp_path, rows, tags[:1], "got 2 and 1")

    def test_tags_length_differs_from_the_rows_width(self, tmp_path):
        rows, tags = _decision_layers((2, 3), (2, 4))
        self._assert_rejected(tmp_path, rows, [tags[0], tags[1][:3]], r"shape \(2, 4\) need .* got 3")

    def test_layers_of_different_head_counts(self, tmp_path):
        rows, tags = _decision_layers((2, 3), (1, 3))
        self._assert_rejected(tmp_path, rows, tags, "hold 2 and 1 heads")

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_a_layer_of_no_heads_or_no_positions(self, tmp_path, shape):
        rows, tags = [np.zeros(shape, np.float32)], [np.zeros(shape[1], np.uint8)]
        self._assert_rejected(tmp_path, rows, tags, "at least one of each")

    def test_rows_that_do_not_sum_to_one(self, tmp_path):
        rows, tags = _decision_layers((2, 4), (2, 3))
        rows[1][:] = 0.1
        self._assert_rejected(tmp_path, rows, tags, "rejected: attention row does not sum to 1")

    def test_a_nan_row(self, tmp_path):
        rows, tags = _decision_layers((2, 3))
        rows[0][1] = [np.nan, 0.5, 0.5]
        self._assert_rejected(tmp_path, rows, tags, "rejected: attention row does not sum to 1")

    def test_a_weight_beyond_one(self, tmp_path):
        rows, tags = _decision_layers((1, 2))
        rows[0][0] = [1.5, -0.5]
        self._assert_rejected(tmp_path, rows, tags, "rejected: attention weight outside")


def trace_stream(tmp_path):
    """Bytes of a one-record stream holding a valid 2-step trace."""
    array = np.zeros((2, 1, 2, 3), dtype=np.float32)
    array[0, :, :, :2] = 0.5
    array[1] = np.float32(1.0 / 3.0)
    path = tmp_path / "trace.bin"
    with TelemetryWriter(path) as w:
        w.write_trace(0, 1, AttentionTrace(array, np.array([2, 3])))
    return path.read_bytes()


def decision_stream(row):
    """Bytes of a one-record stream holding a one-layer, one-head decision,
    packed by hand: the writer refuses the rows the reader refuses."""
    body = struct.pack("<BIIHHI", 2, 0, 0, 1, 1, len(row)) + bytes(len(row))
    body += np.asarray(row, "<f4").tobytes()
    return struct.pack("<I", len(body)) + body


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
        # a decision of 0 layers and 1 head: no rows at all
        "decision_no_layers": struct.pack("<IBIIHH", 13, 2, 0, 0, 0, 1),
        "decision_nan": decision_stream([np.nan, 5.0]),
        "decision_row_sum_off": decision_stream([0.5, 0.4]),
    }


def test_hand_packed_decision_stream_is_the_writers(tmp_path):
    path = tmp_path / "decision.bin"
    with TelemetryWriter(path) as w:
        w.write_decision(0, 0, [np.array([[0.25, 0.75]], np.float32)], [np.zeros(2, "u1")])
    assert path.read_bytes() == decision_stream([0.25, 0.75])


class TestMalformedStream:
    @pytest.mark.parametrize(
        "case", ["zero_bytes", "short_body", "array_cut_short", "weight_above_1", "trailing_bytes",
                 "no_layers", "decision_no_layers", "decision_nan", "decision_row_sum_off"])
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


@st.composite
def streams(draw):
    """Trace records of 2-3 shapes and decision records of 2-3 layer widths,
    1-3 records each, in a random order.  A shape may come with a second
    ``lengths`` and a width list with second tags: records of one shape that
    belong to two groups.  None, some or all of a trace shape's rows are
    exactly ``float32(1/n)``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small, pair = st.integers(1, 3), st.integers(1, 2)
    some_widths = st.lists(st.integers(1, 70), min_size=2, max_size=3, unique=True)
    kinds = []
    for width in draw(some_widths):
        steps, L, H, uniform = draw(small), draw(small), draw(small), draw(UNIFORM_SHARES)
        for _ in range(draw(pair)):
            lengths = np.array(draw(st.lists(st.integers(1, width), min_size=steps, max_size=steps)))

            def trace(steps=steps, L=L, H=H, width=width, lengths=lengths, uniform=uniform):
                array = np.zeros((steps, L, H, width), dtype=np.float32)
                for t, n in enumerate(lengths):
                    array[t, :, :, :n] = distributions(rng, (L, H), n, uniform)
                return AttentionTrace(array, lengths)

            kinds.append(trace)
    for width in draw(some_widths):
        H, widths = draw(small), [width, *draw(st.lists(st.integers(1, 70), max_size=2))]
        for _ in range(draw(pair)):
            tags = [rng.integers(0, 4, n).astype(np.uint8) for n in widths]
            kinds.append(lambda H=H, widths=widths, tags=tags:
                         ([distributions(rng, (H,), n) for n in widths], tags))
    picks = [kind for kind in kinds for _ in range(draw(small))]
    records = []
    for kind in draw(st.permutations(picks)):
        tick, agent, made = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 9)), kind()
        records.append(TraceRecord(tick, agent, made) if isinstance(made, AttentionTrace)
                       else DecisionRecord(tick, agent, *made))
    return records


def write_stream(path, records):
    """Write ``records`` in order; returns each record's byte offset."""
    with TelemetryWriter(path) as w:
        for rec in records:
            if isinstance(rec, TraceRecord):
                w.write_trace(rec.tick, rec.agent, rec.trace)
            else:
                w.write_decision(rec.tick, rec.agent, rec.rows, rec.tags)
    blob, offsets = path.read_bytes(), [0]
    while offsets[-1] < len(blob):
        offsets.append(offsets[-1] + 4 + int.from_bytes(blob[offsets[-1] : offsets[-1] + 4], "little"))
    return offsets[:-1]


class TestAnalyzeOracle:
    @given(streams())
    @settings(max_examples=60, deadline=None)
    def test_csvs_byte_equal_to_per_record_oracle(self, tmp_path_factory, records):
        base = tmp_path_factory.mktemp("analyze")
        write_stream(base / "t.bin", records)
        assert len(read_telemetry(base / "t.bin")) >= 4
        assert main(["analyze", "--in", str(base / "t.bin"), "--out", str(base / "fast")]) == 0
        (base / "ref").mkdir()
        ref_analyze(records, base / "ref")
        for name in ("entropy.csv", "sparsity.csv", "confusion.csv"):
            assert (base / "fast" / name).read_bytes() == (base / "ref" / name).read_bytes()

    @pytest.mark.parametrize("k", [0, 2, 3])
    @pytest.mark.parametrize("kind", ["trace", "decision"])
    def test_bad_row_names_its_record(self, tmp_path, kind, k):
        """A bad weight in the k-th record of a group fails the group's one check;
        the error names that record's byte offset, on one line."""
        rng = np.random.default_rng(k)
        records = []
        for i in range(4):
            rows, tags = [distributions(rng, (2,), 5)], [np.zeros(5, dtype=np.uint8)]
            array = np.zeros((2, 1, 2, 6), dtype=np.float32)
            array[0, :, :, :4], array[1] = distributions(rng, (1, 2), 4), distributions(rng, (1, 2), 6)
            records += [TraceRecord(i, 0, AttentionTrace(array, np.array([4, 6]))),
                        DecisionRecord(i, 0, rows, tags)]
        path = tmp_path / "t.bin"
        offsets = write_stream(path, records)
        bad = offsets[2 * k] + 4 + 19 + 8 if kind == "trace" else offsets[2 * k + 1] + 4 + 13 + 4 + 5
        blob = bytearray(path.read_bytes())
        blob[bad : bad + 4] = np.float32(5.0).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(PayloadFormatError) as err:
            read_telemetry(path)
        message = str(err.value)
        assert message == (f"malformed record at byte {offsets[2 * k + (kind == 'decision')]}: "
                           "attention weight outside [0, 1]")

    def test_a_bad_decision_layer_names_its_first_bad_record(self, tmp_path):
        """Each decision layer is its own block, checked in layer order: record 2
        fails layer 0 and record 1 fails layer 1, so the error names record 2."""
        rng = np.random.default_rng(5)
        records = [DecisionRecord(i, 0, [distributions(rng, (2,), 3), distributions(rng, (2,), 4)],
                                  [np.zeros(3, np.uint8), np.zeros(4, np.uint8)]) for i in range(4)]
        path = tmp_path / "t.bin"
        offsets = write_stream(path, records)
        blob = bytearray(path.read_bytes())  # the writer refuses bad rows: patch them in
        head = 4 + 13  # length prefix, decision head
        for off, value in ((offsets[2] + head + 4 + 3 + 4 * (1 * 3 + 2), 0.5),  # layer 0, [1, 2]
                           (offsets[1] + head + (4 + 3 + 4 * 6) + 4 + 4, -0.25)):  # layer 1, [0, 0]
            blob[off : off + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(PayloadFormatError, match=f"^malformed record at byte {offsets[2]}: "):
            read_telemetry(path)
