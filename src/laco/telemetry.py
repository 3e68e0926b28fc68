"""Attention diagnostics and their serialization.

Three diagnostics over recorded attention:

* layer entropy      e(l) = -(1/H) sum_h sum_j a[h,j] * log(a[h,j] + eps)
* sparsity curve     sorted cumulative per-token attention mass
* confusion index    per-layer fraction of attention mass on foreign positions

plus deterministic CSV/JSON emission (9 significant digits) and a
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

import json
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

    def fraction_for_mass(self, q: float) -> float:
        if not 0.0 < q <= 1.0:
            raise ConfigError("mass quantile must be in (0, 1]")
        n = self.cumulative.shape[0]
        k = int(np.searchsorted(self.cumulative, q - 1e-12) + 1)
        return min(k, n) / n


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

    Accepts a dense (L, H, N) array or a ragged list of (H, n_l) arrays.
    """
    values = np.array([_entropy_of_rows(np.asarray(r), epsilon) for r in rows_per_layer])
    return EntropyProfile(values=values, epsilon=epsilon)


def trace_entropy(trace: AttentionTrace, epsilon: float = DEFAULT_EPSILON) -> EntropyProfile:
    """Per-layer entropy averaged over the trace's steps."""
    if trace.num_steps == 0:
        raise ConfigError("entropy of an empty trace is undefined")
    acc = None
    for t in range(trace.num_steps):
        n = int(trace.lengths[t])
        prof = layer_entropy(trace.array[t, :, :, :n], epsilon)
        acc = prof.values if acc is None else acc + prof.values
    return EntropyProfile(values=acc / trace.num_steps, epsilon=epsilon)


def sparsity_curve(trace: AttentionTrace) -> SparsityCurve:
    """Sorted cumulative attention-mass curve over context positions."""
    if trace.num_steps == 0:
        raise ConfigError("sparsity of an empty trace is undefined")
    n = int(trace.lengths.max())
    a = trace.array[: trace.num_steps, :, :, :n].astype(np.float64)
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


def emit(out_dir, entropy_rows, sparsity_rows, confusion_rows, metrics=None):
    """Write entropy.csv / sparsity.csv / confusion.csv (+ metrics.json).

    Row shapes: entropy (tick, agent, layer, entropy); sparsity (tick, agent,
    rank, token_fraction, cumulative_mass, fraction_for_80); confusion
    (tick, agent, layer, foreign_fraction).  Output is byte-deterministic for
    identical inputs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "entropy.csv", ("tick", "agent", "layer", "entropy"), entropy_rows)
    write_csv(
        out / "sparsity.csv",
        ("tick", "agent", "rank", "token_fraction", "cumulative_mass", "fraction_for_80"),
        sparsity_rows,
    )
    write_csv(
        out / "confusion.csv", ("tick", "agent", "layer", "foreign_fraction"), confusion_rows
    )
    if metrics is not None:
        text = json.dumps(metrics, sort_keys=True, indent=2)
        (out / "metrics.json").write_text(text + "\n", encoding="ascii")
    return out


@dataclass
class TraceRecord:
    tick: int
    agent: int
    lengths: np.ndarray
    array: np.ndarray  # (steps, L, H, max_context) float32


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
        steps = trace.num_steps
        _, L, H, maxn = trace.array.shape
        body = [
            _REC_HEAD.pack(KIND_TRACE, tick, agent),
            struct.pack("<HHHI", steps, L, H, maxn),
            np.asarray(trace.lengths[:steps], dtype="<u4").tobytes(),
            np.ascontiguousarray(trace.array[:steps], dtype="<f4").tobytes(),
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
    """Parse a record stream into TraceRecord / DecisionRecord objects."""
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
        body = data[off : off + length]
        off += length
        kind, tick, agent = _REC_HEAD.unpack_from(body, 0)
        pos = _REC_HEAD.size
        if kind == KIND_TRACE:
            steps, L, H, maxn = struct.unpack_from("<HHHI", body, pos)
            pos += 10
            lengths = np.frombuffer(body, dtype="<u4", count=steps, offset=pos).astype(np.int64)
            pos += 4 * steps
            count = steps * L * H * maxn
            arr = np.frombuffer(body, dtype="<f4", count=count, offset=pos).reshape(
                steps, L, H, maxn)
            pos += 4 * count
            records.append(TraceRecord(tick=tick, agent=agent, lengths=lengths, array=arr.copy()))
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
            records.append(DecisionRecord(tick=tick, agent=agent, rows=rows, tags=tags))
        else:
            raise PayloadFormatError(f"unknown record kind {kind}")
        if pos != len(body):
            raise PayloadFormatError("record body has trailing bytes")
    return records


def trace_record_to_trace(rec: TraceRecord) -> AttentionTrace:
    """Rebuild an AttentionTrace view of a parsed trace record."""
    steps, L, H, maxn = rec.array.shape
    trace = AttentionTrace(steps, L, H, maxn)
    for t in range(steps):
        trace.record(rec.array[t, :, :, : int(rec.lengths[t])], int(rec.lengths[t]))
    return trace
