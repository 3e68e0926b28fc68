"""Attention diagnostics and their serialization.

Three diagnostics over recorded attention:

* layer entropy      e(l) = -(1/H) sum_h sum_j a[h,j] * log(a[h,j] + eps)
* sparsity curve     sorted cumulative per-token attention mass
* confusion index    per-layer fraction of attention mass on foreign positions

plus deterministic CSV emission (9 significant digits) and a
length-prefixed binary record stream (``telemetry.bin``) connecting
``laco run`` to ``laco analyze``.  Each diagnostic takes one trace or a
block of traces (leading axes), and gives each trace of a block the same
bits it gives that trace alone.

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

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, PayloadFormatError
from .model import AttentionTrace, FOREIGN_LATENT, FOREIGN_PREFILL

DEFAULT_EPSILON = 1e-8
_REC_HEAD = struct.Struct("<BII")
_TRACE_HEAD = struct.Struct("<BIIHHHI")  # record head, steps, L, H, max_context
_DECISION_HEAD = struct.Struct("<BIIHH")  # record head, L, H
KIND_TRACE = 1
KIND_DECISION = 2


@dataclass
class SparsityCurve:
    cumulative: np.ndarray  # (..., N) float64, nondecreasing, ends at 1
    fraction_for_80: np.ndarray  # (...) float64


def _plogp(a) -> np.ndarray:
    """``a * log(a + eps)`` in float64, float32 ``a`` widened once, fused into the ``+ eps``."""
    h = np.add(a, DEFAULT_EPSILON, dtype=np.float64)
    np.log(h, out=h)
    h *= a
    return h


def trace_entropy(trace: AttentionTrace) -> np.ndarray:
    """Per-layer entropy averaged over the trace's steps, an (..., L) float64 array.

    Step t widens its ``[..., t, :, :, :n]`` weights once, fused into the
    ``+ eps``, and sums each contiguous (H·n) row of ``a * log(a + eps)``:
    the same pairwise sums, hence the same bits, as that block alone.  A row
    whose weights all equal ``c = float32(1/n)`` gets the sum of H·n copies of
    one ``c * log(c + eps)``, formed once per step: the same terms, the same
    contiguous reduction.  The steps' values are added in step order, as a
    per-step loop adds them.
    """
    if trace.num_steps == 0:
        raise ConfigError("entropy of an empty trace is undefined")
    a, H = trace.array, trace.array.shape[-2]
    sums = np.empty((trace.num_steps, *a.shape[:-4], a.shape[-3]))
    for t, n in enumerate(trace.lengths.tolist()):
        step, c = a[..., t, :, :, :n], np.float32(1 / n)
        uniform = (step == c).all(axis=(-2, -1))
        sums[t][uniform] = np.full(H * n, _plogp(np.array([c]))[0]).sum()
        sums[t][~uniform] = _plogp(step[~uniform]).reshape(-1, H * n).sum(axis=-1)
    sums /= -H
    return np.add.accumulate(sums)[-1] / trace.num_steps


def sparsity_curve(trace: AttentionTrace) -> SparsityCurve:
    """Sorted cumulative attention-mass curve over context positions."""
    if trace.num_steps == 0:
        raise ConfigError("sparsity of an empty trace is undefined")
    n = int(trace.lengths.max())
    mass = trace.array[..., :n].mean(axis=(-4, -3, -2), dtype=np.float64)
    order = np.argsort(-mass, axis=-1, kind="stable")
    cum = np.cumsum(np.take_along_axis(mass, order, axis=-1), axis=-1)
    total = cum[..., -1:]
    if np.any(total <= 0):
        raise ConfigError("trace carries no attention mass")
    cum /= total
    k80 = np.count_nonzero(cum < 0.8 - 1e-12, axis=-1) + 1
    return SparsityCurve(cumulative=cum, fraction_for_80=np.minimum(k80, n) / n)


def confusion_index(rows_per_layer, tags_per_layer) -> np.ndarray:
    """Fraction of attention mass on foreign-tagged positions, an (..., L) float64
    array: per layer, rows (..., H, n) and one (n,) tag vector for all of them."""
    out = []
    for rows, tags in zip(rows_per_layer, tags_per_layer):
        r = np.asarray(rows, dtype=np.float64)
        t = np.asarray(tags)
        if r.shape[-1] != t.shape[0]:
            raise ConfigError("rows and tags disagree on context length")
        foreign = (t == FOREIGN_PREFILL) | (t == FOREIGN_LATENT)
        total = r.reshape(*r.shape[:-2], -1).sum(axis=-1)
        mass = r[..., foreign].reshape(total.shape + (-1,)).sum(axis=-1)
        out.append(np.divide(mass, total, out=np.zeros_like(total), where=total > 0))
    return np.moveaxis(np.array(out), 0, -1)


def write_csv(path: Path, header, rows):
    """One header line, then one line per row; floats to 9 significant digits."""
    lines = [",".join(header)]
    lines.extend(",".join(format(float(v), ".9g") if isinstance(v, (float, np.floating)) else str(v)
                          for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_table(path: Path, header: str, blocks):
    """The header line, then each block's records in ``index`` order.  A block's
    one template of K lines formats a record's K values with one ``%``; each
    line then gets the record's tick and agent before it and its tail after."""
    chunks = []
    for index, ticks, agents, values, *f80 in blocks:
        for column, kinds in zip((index, ticks, agents, values, *f80), ("iu", "iu", "iu", "f", "f")):
            if column.dtype.kind not in kinds:
                raise TypeError(f"{column.dtype} column in {path.name}")
        K = values.shape[1]
        template = "\n".join(f"{k},{k / K:.9g},%.9g" if f80 else f"{k},%.9g" for k in range(1, K + 1))
        tails = [",%.9g" % x for x in f80[0].tolist()] if f80 else [""] * len(ticks)
        for i, tick, agent, tail, row in zip(index.tolist(), ticks.tolist(), agents.tolist(), tails,
                                             map(tuple, values.tolist()) if K else ()):
            head = f"{tick},{agent},"
            chunks.append((i, head + (template % row).replace("\n", f"{tail}\n{head}") + tail))
    chunks.sort(key=lambda chunk: chunk[0])
    path.write_text("\n".join([header, *(text for _, text in chunks)]) + "\n", "ascii")


def emit(out_dir, entropy, sparsity, confusion):
    """Write entropy.csv / sparsity.csv / confusion.csv from column blocks.

    A table is a list of blocks ``(index, ticks, agents, values)`` of R
    records, a sparsity block with an (R,) ``fraction_for_80`` last: (R,)
    integer arrays (``index`` orders the records, e.g. by stream offset) and
    an (R, K) float array.  Record r gives K lines numbered 1..K (layer, or
    rank with ``token_fraction = rank / K``); floats print to 9 significant
    digits.  A column of another dtype kind raises ``TypeError``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, header, blocks in (
        ("entropy", "layer,entropy", entropy),
        ("sparsity", "rank,token_fraction,cumulative_mass,fraction_for_80", sparsity),
        ("confusion", "layer,foreign_fraction", confusion),
    ):
        _write_table(out / f"{name}.csv", "tick,agent," + header, blocks)
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


@dataclass
class RecordGroup:
    """The records of one kind and shape -- a trace's lengths and a decision's
    tags included -- with their rows in blocks, each checked once as a trace.
    Record r's trace is ``trace.part(r)``, a decision's rows ``rows[l][r]``."""

    offsets: np.ndarray  # (R,) each record's byte offset in the stream
    ticks: np.ndarray  # (R,) int64
    agents: np.ndarray  # (R,) int64
    trace: AttentionTrace = None  # traces only: (R, steps, L, H, n)
    tags: list = None  # decisions only: per layer (n_l,) uint8, shared by the group
    rows: list = None  # decisions only: per layer (R, H, n_l) float32, unpadded


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

    def write_trace(self, tick: int, agent: int, trace: AttentionTrace):
        """The header, then the weights in one contiguous copy (none if already contiguous)."""
        array = np.ascontiguousarray(trace.array, dtype="<f4")
        lengths = np.asarray(trace.lengths, dtype="<u4")
        head = _TRACE_HEAD.pack(KIND_TRACE, tick, agent, *array.shape)
        self._fh.write(struct.pack("<I", len(head) + lengths.nbytes + array.nbytes) + head)
        self._fh.write(lengths)
        self._fh.write(array)

    def write_decision(self, tick: int, agent: int, rows_per_layer, tags_per_layer):
        """Per layer, (H, n) rows and n tags; a shape or row the reader rejects raises ConfigError."""
        L = len(rows_per_layer)
        if L == 0 or L != len(tags_per_layer):
            raise ConfigError(f"a decision needs rows and tags for each of >= 1 layers, "
                              f"got {L} and {len(tags_per_layer)}")
        H = rows_per_layer[0].shape[0]
        body = [_DECISION_HEAD.pack(KIND_DECISION, tick, agent, L, H)]
        for rows, tags in zip(rows_per_layer, tags_per_layer):
            rows, tags = np.ascontiguousarray(rows, dtype="<f4"), np.asarray(tags, dtype="u1")
            if rows.shape[0] != H:
                raise ConfigError(f"decision layers hold {H} and {rows.shape[0]} heads")
            if tags.shape != rows.shape[1:] or not rows.size:
                raise ConfigError(f"decision layer rows of shape {rows.shape} need one tag per "
                                  f"position and at least one of each, got {tags.size} tags")
            try:  # the reader's row check, one trace per layer
                AttentionTrace(rows[None, None], np.array([tags.size]))
            except AssertionError as exc:
                raise ConfigError(f"decision layer rows rejected: {exc}") from None
            body += [struct.pack("<I", tags.size), tags.tobytes(), rows.tobytes()]
        self._fh.write(struct.pack("<I", sum(map(len, body))))
        self._fh.write(b"".join(body))


def read_telemetry(path) -> list:
    """Parse a record stream into :class:`RecordGroup` s, in order of first record.

    A first pass reads each record's header (a decision's whole body); each
    trace's weights are then read once, straight into the group's block, and a
    decision's rows into one unpadded block per layer.  A block failing its one
    row check names the first record failing alone.
    Any malformed record raises :class:`PayloadFormatError`.
    """
    members = {}  # group key -> [(byte offset, tick, agent, weights' offset or body)]
    with open(path, "rb") as fh:
        end, off = os.fstat(fh.fileno()).st_size, 0
        while off < end:
            if off + 4 > end:
                raise PayloadFormatError("truncated record length prefix")
            (length,) = struct.unpack("<I", fh.read(4))
            if off + 4 + length > end:
                raise PayloadFormatError("record body extends past end of stream")
            try:
                key, tick, agent, rest = _scan_record(fh, length)
            except (struct.error, ValueError) as exc:
                raise PayloadFormatError(f"malformed record at byte {off}: {exc}") from exc
            members.setdefault(key, []).append((off, tick, agent, rest))
            off += 4 + length
            fh.seek(off)
        return [_read_group(fh, key, recs) for key, recs in members.items()]


def _scan_record(fh, length):
    """(group key, tick, agent, rest) of the record body at the file position;
    ``rest`` is a trace's weights' file offset or a decision's whole body."""
    body = fh.read(min(length, _TRACE_HEAD.size))
    kind, tick, agent = _REC_HEAD.unpack_from(body)
    if kind == KIND_TRACE:
        steps, L, H, n = _TRACE_HEAD.unpack(body)[3:]
        lengths = fh.read(4 * steps)
        if length != _TRACE_HEAD.size + 4 * steps * (1 + L * H * n):
            raise ValueError("trace body size disagrees with its header")
        return (kind, steps, L, H, n, lengths), tick, agent, fh.tell()
    if kind == KIND_DECISION:
        body += fh.read(length - len(body))
        L, H = _DECISION_HEAD.unpack_from(body)[3:]
        if L == 0:
            raise ValueError("decision record with no layers")
        pos, tags = _DECISION_HEAD.size, []
        for _ in range(L):
            (n,) = struct.unpack_from("<I", body, pos)
            tags.append(body[pos + 4 : pos + 4 + n])
            pos += 4 + n + 4 * H * n
        if pos != length:
            raise ValueError("decision body size disagrees with its layer counts")
        return (kind, L, H, *tags), tick, agent, body
    raise ValueError(f"unknown record kind {kind}")


def _read_group(fh, key, recs) -> RecordGroup:
    """Read the rows of ``recs`` into one block per trace group or per decision
    layer, and check each block once."""
    offsets, ticks, agents, rests = zip(*recs)
    group = RecordGroup(np.array(offsets), np.array(ticks), np.array(agents))
    if key[0] == KIND_TRACE:
        _, steps, L, H, n, lengths = key
        block = np.zeros((len(recs), steps, L, H, n), dtype="<f4")
        for slot, pos in zip(block, rests):
            fh.seek(pos)
            fh.readinto(slot)
        group.trace = _checked(block, np.frombuffer(lengths, "<u4").astype(np.int64), offsets)
        return group
    _, L, H, *tags = key
    group.tags, group.rows, pos = [np.frombuffer(t, "u1") for t in tags], [], _DECISION_HEAD.size
    for n in map(len, tags):  # a layer's rows sit at one offset in every record of the group
        pos += 4 + n
        rows = np.array([np.frombuffer(body, "<f4", H * n, pos).reshape(H, n) for body in rests])
        group.rows.append(rows)
        _checked(rows[:, None, None], np.array([n]), offsets)
        pos += 4 * H * n
    return group


def _checked(block, lengths, offsets) -> AttentionTrace:
    """``block`` (records first) as a trace, checked once; a failing block names
    the first record that fails alone."""
    try:
        return AttentionTrace(block, lengths)
    except AssertionError:
        for part, off in zip(block, offsets):
            try:
                AttentionTrace(part, lengths)
            except AssertionError as exc:
                raise PayloadFormatError(f"malformed record at byte {off}: {exc}") from None
        raise


def trace_record_to_trace(rec: TraceRecord) -> AttentionTrace:
    """The trace a parsed or recorded trace record carries."""
    return rec.trace
