"""Payload extraction, the binary payload format, and the simulated V2V channel.

Wire layout (all little-endian), the package's normative binary interface:

==================  =====  ==============================================
field               bytes  meaning
==================  =====  ==============================================
magic               4      ``b"LACO"``
version             2      format version (currently 1)
sender_id           4      producing agent id
frame_id            8      tick / frame counter at the producer
l_comm              2      number of transmitted (shallowest) layers
num_heads           2      heads per layer
head_dim            2      channels per head
salient_count       4      pruned-prefill positions
latent_count        4      latent positions (always the full latent run)
dtype_flag          1      0 = float32, 1 = float16
index_count         4      entries in the source index table
indices             4*n    original prefill index of each salient position
body                ...    one row-major (l_comm, 2, heads, positions,
                           head_dim) block: per layer K then V, positions
                           = salient_count + latent_count
==================  =====  ==============================================

Serialization round-trips bit-exactly and a truncated or oversized stream is
rejected, never partially decoded.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PayloadFormatError
from .model import KVCache

MAGIC = b"LACO"
VERSION = 1
DTYPE_F32 = 0
DTYPE_F16 = 1
_FIXED = struct.Struct("<4sHIQHHHIIBI")
_DTYPES = {DTYPE_F32: np.dtype("<f4"), DTYPE_F16: np.dtype("<f2")}


@dataclass
class Payload:
    """A pruned, layer-truncated KV cache with provenance metadata."""

    sender_id: int
    frame_id: int
    salient_count: int
    latent_count: int
    dtype_flag: int
    source_indices: tuple
    keys: np.ndarray    # (l_comm, H, positions, head_dim)
    values: np.ndarray  # same shape/dtype as keys

    @property
    def l_comm(self) -> int:
        return self.keys.shape[0]

    @property
    def num_heads(self) -> int:
        return self.keys.shape[1]

    @property
    def num_positions(self) -> int:
        return self.keys.shape[2]

    @property
    def head_dim(self) -> int:
        return self.keys.shape[3]

    def size_bytes(self) -> int:
        return payload_size_bytes(self.l_comm, self.num_heads, self.head_dim,
                                  self.salient_count, self.latent_count, self.dtype_flag)


def rounded_layer_count(fraction: float, num_layers: int) -> int:
    """max(1, round(fraction * L)) with halves rounding up."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError("layer fraction must be in (0, 1]")
    return max(1, math.floor(fraction * num_layers + 0.5))


def distill(cache: KVCache, prefill_len: int, indices, l_comm_fraction: float, *,
            sender_id: int, frame_id: int, dtype_flag: int = DTYPE_F32) -> Payload:
    """Cut the transmitted [salient prefill || latent] cache out of an ego cache.

    The payload holds the prefill positions ``indices`` (strictly increasing,
    each in ``[0, prefill_len)``) followed by the whole latent run
    ``[prefill_len, cache.length)``, at the first l_comm layers only, gathered
    in one copy.  Bytes are the float32 values written (the float64 store
    narrows exactly) or those values rounded to float16.
    """
    if dtype_flag not in _DTYPES:
        raise ConfigError(f"unknown dtype flag {dtype_flag}")
    idx = list(indices)
    if not 0 <= prefill_len <= cache.length:
        raise IndexError(f"prefill length {prefill_len} outside cache of length {cache.length}")
    if any(i < 0 or i >= prefill_len for i in idx):
        raise IndexError("selected index outside the prefill run")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ConfigError("selected indices must be strictly increasing")
    l_comm = rounded_layer_count(l_comm_fraction, cache.config.num_layers)
    positions = np.concatenate([np.asarray(idx, dtype=np.int64),
                                np.arange(prefill_len, cache.length)])
    np_dtype = _DTYPES[dtype_flag]
    return Payload(
        sender_id=sender_id,
        frame_id=frame_id,
        salient_count=len(idx),
        latent_count=cache.length - prefill_len,
        dtype_flag=dtype_flag,
        source_indices=tuple(idx),
        keys=np.take(cache.k[:l_comm], positions, axis=2).astype(np_dtype, copy=False),
        values=np.take(cache.v[:l_comm], positions, axis=2).astype(np_dtype, copy=False),
    )


def payload_size_bytes(l_comm: int, num_heads: int, head_dim: int, salient: int, latent: int,
                       dtype_flag: int) -> int:
    """Exact serialized size; must equal len(serialize(p)) for every payload."""
    if dtype_flag not in _DTYPES:
        raise ConfigError(f"unknown dtype flag {dtype_flag}")
    width = _DTYPES[dtype_flag].itemsize
    header = _FIXED.size + 4 * salient
    body = l_comm * num_heads * (salient + latent) * head_dim * 2 * width
    return header + body


def serialize(p: Payload) -> bytes:
    """Bit-exact, deterministic byte encoding of a payload.

    A payload whose index table does not hold ``salient_count`` entries is
    rejected, so ``p.size_bytes()`` is always the length of the stream.
    """
    if len(p.source_indices) != p.salient_count:
        raise PayloadFormatError(
            f"index table has {len(p.source_indices)} entries, salient_count is {p.salient_count}")
    parts = [
        _FIXED.pack(
            MAGIC,
            VERSION,
            p.sender_id,
            p.frame_id,
            p.l_comm,
            p.num_heads,
            p.head_dim,
            p.salient_count,
            p.latent_count,
            p.dtype_flag,
            len(p.source_indices),
        ),
        np.asarray(p.source_indices, dtype="<u4").tobytes(),
        np.concatenate((p.keys[:, None], p.values[:, None]), axis=1,
                       dtype=_DTYPES[p.dtype_flag]).tobytes(),
    ]
    return b"".join(parts)


def deserialize(data: bytes) -> Payload:
    """Parse a payload, rejecting anything malformed or mis-sized."""
    if len(data) < _FIXED.size:
        raise PayloadFormatError(f"stream of {len(data)} bytes is shorter than the header")
    (magic, version, sender_id, frame_id, l_comm, num_heads, head_dim,
     salient, latent, dtype_flag, index_count) = _FIXED.unpack_from(data, 0)
    if magic != MAGIC:
        raise PayloadFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise PayloadFormatError(f"unsupported version {version}")
    if dtype_flag not in _DTYPES:
        raise PayloadFormatError(f"unknown dtype flag {dtype_flag}")
    if index_count != salient:
        raise PayloadFormatError(
            f"index table has {index_count} entries, salient_count is {salient}")
    expected = payload_size_bytes(l_comm, num_heads, head_dim, salient, latent, dtype_flag)
    if len(data) != expected:
        raise PayloadFormatError(f"stream is {len(data)} bytes, expected {expected}")

    off = _FIXED.size
    table = np.frombuffer(data, dtype="<u4", count=index_count, offset=off).astype(np.int64)
    if np.any(np.diff(table) <= 0):
        raise PayloadFormatError("source indices are not strictly increasing")
    indices = tuple(int(i) for i in table)
    off += 4 * index_count
    shape = (l_comm, 2, num_heads, salient + latent, head_dim)
    body = np.frombuffer(data, _DTYPES[dtype_flag], math.prod(shape), off).reshape(shape)
    return Payload(
        sender_id=sender_id,
        frame_id=frame_id,
        salient_count=salient,
        latent_count=latent,
        dtype_flag=dtype_flag,
        source_indices=indices,
        keys=body[:, 0].copy(),
        values=body[:, 1].copy(),
    )


@dataclass
class LanguageMessage:
    """Token-id relay used by the language paradigm; accounting only."""

    sender_id: int
    frame_id: int
    token_ids: tuple

    def size_bytes(self) -> int:
        # sender u32 + frame u64 + count u32, then one u32 per token
        return 16 + 4 * len(self.token_ids)


@dataclass(frozen=True)
class ChannelConfig:
    """Deterministic V2V link: hard range cutoff, linear serialization delay."""

    range_m: float = 200.0
    bandwidth_bytes_per_s: float = 1_000_000.0
    base_latency_s: float = 0.01

    def __post_init__(self):
        # Written so that NaN fails: every comparison with NaN is false.
        if not (self.range_m > 0 and self.bandwidth_bytes_per_s > 0
                and 0 <= self.base_latency_s < math.inf):
            raise ConfigError("invalid channel configuration")


@dataclass(frozen=True)
class ChannelResult:
    delivered: bool
    latency_s: float | None
    reason: str | None = None


def channel_send(cfg: ChannelConfig, payload, sender_pos, receiver_pos) -> ChannelResult:
    """Deliver iff Euclidean distance <= range (inclusive boundary).

    latency = base_latency + size_bytes / bandwidth.  ``payload`` is anything
    with a ``size_bytes()`` method.
    """
    a = np.asarray(sender_pos, dtype=np.float64)
    b = np.asarray(receiver_pos, dtype=np.float64)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ConfigError("positions must be finite")
    distance = float(np.linalg.norm(a - b))
    if distance > cfg.range_m:
        return ChannelResult(delivered=False, latency_s=None, reason="out_of_range")
    latency = cfg.base_latency_s + payload.size_bytes() / cfg.bandwidth_bytes_per_s
    return ChannelResult(delivered=True, latency_s=latency)
