"""Attention diagnostics and their serialization.

Three diagnostics over recorded attention:

* layer entropy      e(l) = -(1/H) sum_h sum_j a[h,j] * log(a[h,j] + eps)
* sparsity curve     sorted cumulative per-token attention mass
* confusion index    per-layer fraction of attention mass on foreign positions

plus deterministic CSV emission (9 significant digits) and a
length-prefixed binary record stream (``telemetry.bin``) connecting
``laco run`` to ``laco analyze``.

Record stream format (little-endian): each record is ``u32 length`` followed
by ``length`` bytes: ``u8 kind, u32 tick, u32 agent``, then per kind:

* kind 1 (deliberation trace): ``u16 steps, u16 layers, u16 heads,
  u32 max_context``, ``u32 context_len[steps]``, float32 array of shape
  (steps, layers, heads, max_context), zero-padded beyond each context_len.
* kind 2 (decision attention): ``u16 layers, u16 heads``, then per layer
  ``u32 n``, ``u8 tags[n]``, float32 rows of shape (heads, n).

Entropy reported for a multi-step trace is the per-layer value averaged over
steps.  The per-token mass behind the sparsity curve is the mean over
(step, layer, head) of the recorded weights, which is deliberately distinct
from the max-then-mean saliency score used for pruning.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, PayloadFormatError
from .model import AttentionTrace, FOREIGN_LATENT, FOREIGN_PREFILL

DEFAULT_EPSILON = 1e-8
_REC_HEAD = struct.Struct("<BII")
KIND_TRACE = 1
KIND_DECISION = 2


@dataclass
class EntropyProfile:
    values: np.ndarray  # (L,) float64
    epsilon: float


@dataclass
class SparsityCurve:
    cumulative: np.ndarray  # (N,) float64, nondecreasing, ends at 1
    fraction_for_80: float


@dataclass
class ConfusionIndex:
    values: np.ndarray  # (L,) float64, each in [0, 1]


def _entropy_of_rows(rows: np.ndarray, epsilon: float) -> float:
    """rows: (H, n).  64-bit accumulation; exact zeros contribute nothing."""
    a = rows.astype(np.float64)
    h = a * np.log(a + epsilon)
    return float(-h.sum() / rows.shape[0])


def layer_entropy(rows_per_layer, epsilon: float = DEFAULT_EPSILON) -> EntropyProfile:
    """Per-layer attention entropy of one step's rows.

    Accepts a dense (L, H, N) array, all layers in one pass (bit-equal to
    summing each layer alone), or a ragged list of (H, n_l) arrays.
    """
    if isinstance(rows_per_layer, np.ndarray):
        a = rows_per_layer.astype(np.float64)
        L, H = a.shape[:2]
        values = -(a * np.log(a + epsilon)).reshape(L, -1).sum(axis=1) / H
    else:
        values = np.array([_entropy_of_rows(np.asarray(r), epsilon) for r in rows_per_layer])
    return EntropyProfile(values=values, epsilon=epsilon)


def trace_entropy(trace: AttentionTrace, epsilon: float = DEFAULT_EPSILON) -> EntropyProfile:
    """Per-layer entropy averaged over the trace's steps.

    ``a * log(a + eps)`` is computed once over the whole trace; each step then
    sums its ``[:, :, :n]`` block per layer in one contiguous pass, the same
    pairwise sums, hence the same bits, as ``layer_entropy`` of that block.
    The steps' values are added in step order, as a per-step loop adds them.
    """
    if trace.num_steps == 0:
        raise ConfigError("entropy of an empty trace is undefined")
    a = trace.array.astype(np.float64)
    h = a + epsilon
    np.log(h, out=h)
    h *= a
    steps, L, H = a.shape[:3]
    sums = np.empty((steps, L))
    for t, n in enumerate(trace.lengths.tolist()):
        h[t, :, :, :n].reshape(L, -1).sum(axis=1, out=sums[t])
    sums /= -H
    return EntropyProfile(values=np.add.accumulate(sums)[-1] / steps, epsilon=epsilon)


def sparsity_curve(trace: AttentionTrace) -> SparsityCurve:
    """Sorted cumulative attention-mass curve over context positions."""
    if trace.num_steps == 0:
        raise ConfigError("sparsity of an empty trace is undefined")
    n = int(trace.lengths.max())
    a = trace.array[:, :, :, :n].astype(np.float64)
    mass = a.mean(axis=(0, 1, 2))
    order = np.argsort(-mass, kind="stable")
    cum = np.cumsum(mass[order])
    total = cum[-1]
    if total <= 0:
        raise ConfigError("trace carries no attention mass")
    cum /= total
    k80 = int(np.searchsorted(cum, 0.8 - 1e-12) + 1)
    return SparsityCurve(cumulative=cum, fraction_for_80=min(k80, n) / n)


def confusion_index(rows_per_layer, tags_per_layer) -> ConfusionIndex:
    """Fraction of attention mass on foreign-tagged positions, per layer."""
    out = []
    for rows, tags in zip(rows_per_layer, tags_per_layer):
        r = np.asarray(rows, dtype=np.float64)
        t = np.asarray(tags)
        if r.shape[1] != t.shape[0]:
            raise ConfigError("rows and tags disagree on context length")
        foreign = (t == FOREIGN_PREFILL) | (t == FOREIGN_LATENT)
        total = r.sum()
        out.append(float(r[:, foreign].sum() / total) if total > 0 else 0.0)
    return ConfusionIndex(values=np.array(out))


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".9g")
    return str(x)


def write_csv(path: Path, header, rows):
    """One header line, then one line per row; floats to 9 significant digits."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


# The types a value of each column kind may have; a bool is neither.
_COLUMN_TYPES = {"d": (int, np.integer), "g": (float, np.floating)}


def _write_typed_csv(path: Path, header, kinds: str, rows):
    """``write_csv`` for fixed column types, one ``%`` format per row.

    ``kinds`` has one letter per column: ``d`` for an integer column (int or
    numpy integer, not bool), ``g`` for a float column (float or numpy
    floating).  Such values print exactly as ``_fmt`` prints them; any other
    value raises ``TypeError`` rather than print differently.
    """
    rows = list(map(tuple, rows))
    for kind, column in zip(kinds, zip(*rows)):
        python_type, numpy_type = _COLUMN_TYPES[kind]
        for t in set(map(type, column)):
            if not (t is python_type or issubclass(t, numpy_type)):
                raise TypeError(f"{t.__name__} value in a {kind!r} column of {path.name}")
    fmt = ",".join("%d" if kind == "d" else "%.9g" for kind in kinds)
    lines = [",".join(header), *map(fmt.__mod__, rows)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def emit(out_dir, entropy_rows, sparsity_rows, confusion_rows):
    """Write entropy.csv / sparsity.csv / confusion.csv.

    Row shapes: entropy (tick, agent, layer, entropy); sparsity (tick, agent,
    rank, token_fraction, cumulative_mass, fraction_for_80); confusion
    (tick, agent, layer, foreign_fraction).  tick, agent, layer and rank are
    integers, the rest floats (9 significant digits); a value of another
    type raises ``TypeError``.  Output is byte-deterministic for identical
    inputs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_typed_csv(out / "entropy.csv", ("tick", "agent", "layer", "entropy"), "dddg",
                     entropy_rows)
    _write_typed_csv(
        out / "sparsity.csv",
        ("tick", "agent", "rank", "token_fraction", "cumulative_mass", "fraction_for_80"),
        "dddggg",
        sparsity_rows,
    )
    _write_typed_csv(out / "confusion.csv", ("tick", "agent", "layer", "foreign_fraction"),
                     "dddg", confusion_rows)
    return out


@dataclass
class TraceRecord:
    tick: int
    agent: int
    trace: AttentionTrace


@dataclass
class DecisionRecord:
    tick: int
    agent: int
    rows: list  # per layer (H, n_l) float32
    tags: list  # per layer (n_l,) uint8


class TelemetryWriter:
    """Appends length-prefixed diagnostic records to a binary stream."""

    def __init__(self, path):
        self._fh = open(path, "wb")

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _emit(self, body: bytes):
        self._fh.write(struct.pack("<I", len(body)))
        self._fh.write(body)

    def write_trace(self, tick: int, agent: int, trace: AttentionTrace):
        body = [
            _REC_HEAD.pack(KIND_TRACE, tick, agent),
            struct.pack("<HHHI", *trace.array.shape),
            np.asarray(trace.lengths, dtype="<u4").tobytes(),
            np.ascontiguousarray(trace.array, dtype="<f4").tobytes(),
        ]
        self._emit(b"".join(body))

    def write_decision(self, tick: int, agent: int, rows_per_layer, tags_per_layer):
        L = len(rows_per_layer)
        H = rows_per_layer[0].shape[0] if L else 0
        body = [_REC_HEAD.pack(KIND_DECISION, tick, agent), struct.pack("<HH", L, H)]
        for rows, tags in zip(rows_per_layer, tags_per_layer):
            n = rows.shape[1]
            body.append(struct.pack("<I", n))
            body.append(np.asarray(tags, dtype="u1").tobytes())
            body.append(np.ascontiguousarray(rows, dtype="<f4").tobytes())
        self._emit(b"".join(body))


def read_telemetry(path):
    """Parse a record stream into TraceRecord / DecisionRecord objects.

    Any malformed record, a trace or decision row failing the trace's row
    check included, raises :class:`PayloadFormatError`.
    """
    data = Path(path).read_bytes()
    records = []
    off = 0
    while off < len(data):
        if off + 4 > len(data):
            raise PayloadFormatError("truncated record length prefix")
        (length,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + length > len(data):
            raise PayloadFormatError("record body extends past end of stream")
        try:
            records.append(_parse_record(data[off : off + length]))
        except (struct.error, ValueError, AssertionError) as exc:
            raise PayloadFormatError(f"malformed record at byte {off - 4}: {exc}") from exc
        off += length
    return records


def _parse_record(body: bytes):
    kind, tick, agent = _REC_HEAD.unpack_from(body, 0)
    pos = _REC_HEAD.size
    if kind == KIND_TRACE:
        steps, L, H, maxn = struct.unpack_from("<HHHI", body, pos)
        pos += 10
        lengths = np.frombuffer(body, dtype="<u4", count=steps, offset=pos).astype(np.int64)
        pos += 4 * steps
        count = steps * L * H * maxn
        arr = np.frombuffer(body, dtype="<f4", count=count, offset=pos).reshape(steps, L, H, maxn)
        pos += 4 * count
        record = TraceRecord(tick=tick, agent=agent, trace=AttentionTrace(arr, lengths))
    elif kind == KIND_DECISION:
        L, H = struct.unpack_from("<HH", body, pos)
        pos += 4
        rows, tags = [], []
        for _ in range(L):
            (n,) = struct.unpack_from("<I", body, pos)
            pos += 4
            tags.append(np.frombuffer(body, dtype="u1", count=n, offset=pos).copy())
            pos += n
            rows.append(
                np.frombuffer(body, dtype="<f4", count=H * n, offset=pos).reshape(H, n).copy()
            )
            pos += 4 * H * n
        # Pad the ragged rows into one block so they pass the trace's row check.
        block = np.zeros((1, L, H, max((r.shape[1] for r in rows), default=0)), dtype=np.float32)
        for l, r in enumerate(rows):
            block[0, l, :, : r.shape[1]] = r
        AttentionTrace(block, np.array([block.shape[3]]))
        record = DecisionRecord(tick=tick, agent=agent, rows=rows, tags=tags)
    else:
        raise PayloadFormatError(f"unknown record kind {kind}")
    if pos != len(body):
        raise PayloadFormatError("record body has trailing bytes")
    return record


def trace_record_to_trace(rec: TraceRecord) -> AttentionTrace:
    """The trace a parsed or recorded trace record carries."""
    return rec.trace
