"""Layer truncation, the binary payload format, and the simulated V2V channel.

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
body                ...    per layer 1..l_comm: K then V, row-major
                           (heads, positions, head_dim), positions =
                           salient_count + latent_count
==================  =====  ==============================================

Serialization round-trips bit-exactly and a truncated or oversized stream is
rejected, never partially decoded.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PayloadFormatError
from .model import KVSegment

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
        return payload_size_bytes(
            self.l_comm,
            self.num_heads,
            self.head_dim,
            self.salient_count,
            self.latent_count,
            self.dtype_flag,
            index_count=len(self.source_indices),
        )


def rounded_layer_count(fraction: float, num_layers: int) -> int:
    """max(1, round(fraction * L)) with halves rounding up."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError("layer fraction must be in (0, 1]")
    return max(1, math.floor(fraction * num_layers + 0.5))


def distill(cache: KVSegment, indices, l_comm_fraction: float, *, sender_id: int,
            frame_id: int, dtype_flag: int = DTYPE_F32) -> Payload:
    """Keep only the first l_comm layers of an assembled [salient || latent] cache.

    ``indices`` are the original prefill positions of the salient entries, so
    the first ``len(indices)`` positions are salient and the rest latent.  The
    latent segment is layer-truncated along with the salient one; retained
    bytes are copied verbatim (float32) or narrowed to float16 when requested.
    """
    if dtype_flag not in _DTYPES:
        raise ConfigError(f"unknown dtype flag {dtype_flag}")
    salient = len(indices)
    l_comm = rounded_layer_count(l_comm_fraction, cache.num_layers)
    np_dtype = _DTYPES[dtype_flag]
    return Payload(
        sender_id=sender_id,
        frame_id=frame_id,
        salient_count=salient,
        latent_count=cache.num_positions - salient,
        dtype_flag=dtype_flag,
        source_indices=tuple(indices),
        keys=np.ascontiguousarray(cache.keys[:l_comm].astype(np_dtype)),
        values=np.ascontiguousarray(cache.values[:l_comm].astype(np_dtype)),
    )


def payload_size_bytes(l_comm: int, num_heads: int, head_dim: int, salient: int, latent: int,
                       dtype_flag: int, index_count: int | None = None) -> int:
    """Exact serialized size; must equal len(serialize(p)) for every payload."""
    if dtype_flag not in _DTYPES:
        raise ConfigError(f"unknown dtype flag {dtype_flag}")
    if index_count is None:
        index_count = salient
    width = _DTYPES[dtype_flag].itemsize
    header = _FIXED.size + 4 * index_count
    body = l_comm * num_heads * (salient + latent) * head_dim * 2 * width
    return header + body


def serialize(p: Payload) -> bytes:
    """Bit-exact, deterministic byte encoding of a payload."""
    np_dtype = _DTYPES[p.dtype_flag]
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
    ]
    for l in range(p.l_comm):
        parts.append(np.ascontiguousarray(p.keys[l], dtype=np_dtype).tobytes())
        parts.append(np.ascontiguousarray(p.values[l], dtype=np_dtype).tobytes())
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
    expected = payload_size_bytes(l_comm, num_heads, head_dim, salient, latent,
                                  dtype_flag, index_count=index_count)
    if len(data) != expected:
        raise PayloadFormatError(f"stream is {len(data)} bytes, expected {expected}")

    off = _FIXED.size
    indices = tuple(int(i) for i in np.frombuffer(data, dtype="<u4", count=index_count, offset=off))
    off += 4 * index_count
    np_dtype = _DTYPES[dtype_flag]
    positions = salient + latent
    plane = num_heads * positions * head_dim
    keys = np.empty((l_comm, num_heads, positions, head_dim), dtype=np_dtype)
    values = np.empty_like(keys)
    for l in range(l_comm):
        keys[l] = np.frombuffer(data, dtype=np_dtype, count=plane, offset=off).reshape(
            num_heads, positions, head_dim)
        off += plane * np_dtype.itemsize
        values[l] = np.frombuffer(data, dtype=np_dtype, count=plane, offset=off).reshape(
            num_heads, positions, head_dim)
        off += plane * np_dtype.itemsize
    return Payload(
        sender_id=sender_id,
        frame_id=frame_id,
        salient_count=salient,
        latent_count=latent,
        dtype_flag=dtype_flag,
        source_indices=indices,
        keys=keys,
        values=values,
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
        if self.range_m <= 0 or self.bandwidth_bytes_per_s <= 0 or self.base_latency_s < 0:
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
