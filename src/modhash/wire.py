"""Bit-exact binary framing of protocol messages.

Frame layout (all integers big-endian):

    length      u32     byte count of everything after this field (>= 18)
    version     u8      0x01
    msg_type    u8      (family << 4) | (protocol kind << 2) | sender role
    session_id  16B
    payload     length - 18 bytes

msg_type packs the message family together with the protocol kind and the
sender role, so every frame self-describes its session context without
spending payload bytes on it. Kind bits 1 are retired: they name no kind,
and a frame that carries them is refused from its header. Families 4 and 5,
the Hamming request and response of an earlier two-party flow, are retired
the same way.

Payload formats per family:

    KEY_SHARE        k u32, delta f64, n u32, m u32, a_form u8 (always 0;
                     1, a matrix digest, is retired), a as m*n f64 row-major,
                     u as m f64, perm_count u32 (0 = absent) + indices u32 each,
                     pad_count u32 (0 = absent) + pad1, pad2 as u16 components
    HASH_SUBMISSION  k u32, count u32, components u16 each  (size is a function
                     of (k, count) only -- input dimension never leaks)
    DISTANCE_RESULT  numerator u64, denominator u64 (lowest terms), count u32
    ABORT            reason_len u16, UTF-8 bytes

Encoding is canonical: a valid message has exactly one byte representation,
and decode(encode(msg)) == msg. decode_frame is total -- any byte string
yields either a message or a typed DecodeError, never another exception.
Encoding allocates the frame once, at its final length, unless the decoder
would refuse that length, and writes each field into it at its offset:
arrays are converted to big-endian straight into their slot, so a key
share's matrix is copied once, into the frame, and no other copy is made.
The frame is returned as that bytearray.
Decoding reads the frame through memoryviews, without slicing copies, but a
decoded message never holds a view into the frame: every array and string
in it is its own copy, so the frame's buffer may be reused at once. A key
share's decoder runs HashKey's checks, then builds the share's HashKey.
"""

import math
import struct
from fractions import Fraction

import numpy as np

from . import messages as msgs
from .core import HashKey, HashVector, Permutation, _adopt
from .errors import (
    ComponentOutOfRange,
    DecodeError,
    EncodingError,
    MalformedPayload,
    NonBijectivePermutation,
    TruncatedFrame,
    UnknownMessageType,
    VersionUnsupported,
    ZeroDenominator,
)

VERSION = 0x01
HEADER_LEN = 18  # version + msg_type + session_id, counted by the length field
MAX_WIRE_K = 65534  # components are u16
MAX_WIRE_COUNT = (1 << 32) - 1  # counts are u32
MAX_FRAME_LENGTH = 256 * 1024 * 1024  # refuse to buffer absurd length claims

FAMILY_KEY_SHARE = 1
FAMILY_HASH_SUBMISSION = 2
FAMILY_DISTANCE_RESULT = 3
FAMILY_HAMMING_REQUEST = 4  # retired, refused from the header; perfbench's span table names it
FAMILY_HAMMING_RESPONSE = 5  # likewise
FAMILY_ABORT = 6


def _check_wire_k(k: int, exc=EncodingError):
    if k % 2 != 0 or not (2 <= k <= MAX_WIRE_K):
        raise exc(f"k={k} outside the wire-supported even range [2, {MAX_WIRE_K}]")


# ---------------------------------------------------------------- encoding
#
# Body encoders return the payload as a list of parts: bytes, or a pair
# (array, big-endian wire dtype). encode_envelope sizes the frame from the
# parts and writes each into its slot; an array is cast to its wire dtype on
# the way in, so no converted copy of it is ever made.

def _encode_hash_submission(body: msgs.HashSubmission) -> list:
    v = body.vector
    _check_wire_k(v.k)
    return [struct.pack(">II", v.k, v.m), (v.components, ">u2")]


_KEY_SHARE_HEAD = ">IdIIB"  # k, delta, n, m, a_form


def key_share_frame_length(m: int, n: int, p: int) -> int:
    """The byte length, length prefix included, of the frame of a key share
    for an M x N key with P pad slots each (P = 0: no pads, no permutation)."""
    perm_and_pads = 4 * (m + p) + 2 * 2 * p if p else 0  # u32 indices, two u16 pads
    return 4 + HEADER_LEN + struct.calcsize(_KEY_SHARE_HEAD) + 8 * m * (n + 1) + 4 + 4 + perm_and_pads


def _encode_key_share(body: msgs.KeyShare) -> list:
    key = body.key
    _check_wire_k(key.k)
    out = [struct.pack(_KEY_SHARE_HEAD, key.k, key.delta, key.n, key.m, 0), (key.a, ">f8"), (key.u, ">f8")]
    if body.permutation is None:
        out.append(struct.pack(">I", 0))
    else:
        out += [struct.pack(">I", body.permutation.size), (body.permutation.mapping, ">u4")]
    if body.pad1 is None and body.pad2 is None:
        out.append(struct.pack(">I", 0))
    elif body.pad1 is not None and body.pad2 is not None and body.pad1.m == body.pad2.m:
        if body.pad1.k != key.k or body.pad2.k != key.k:
            raise EncodingError("padding alphabet disagrees with k")
        out += [
            struct.pack(">I", body.pad1.m),
            (body.pad1.components, ">u2"),
            (body.pad2.components, ">u2"),
        ]
    else:
        raise EncodingError("pad1 and pad2 must both be set, with equal length")
    return out


def _encode_distance_result(body: msgs.DistanceResult) -> list:
    frac = Fraction(body.mean_lee)
    if frac < 0:
        raise EncodingError("mean Lee distance cannot be negative")
    if frac.numerator >= 1 << 64 or frac.denominator >= 1 << 64:
        raise EncodingError("rational does not fit in u64/u64")
    if not (1 <= body.count <= MAX_WIRE_COUNT):
        raise EncodingError("count outside u32 range")
    return [struct.pack(">QQI", frac.numerator, frac.denominator, body.count)]


def _encode_abort(body: msgs.Abort) -> list:
    reason = body.reason.encode("utf-8")
    if len(reason) >= 1 << 16:
        raise EncodingError("abort reason too long")
    return [struct.pack(">H", len(reason)), reason]


# ---------------------------------------------------------------- decoding

class _Reader:
    """Bounds-checked cursor over a memoryview of the payload: it hands out
    views, never copies, and every decoder copies what it keeps. A declared
    size past the payload's end is refused before anything is allocated."""

    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if n < 0 or self.pos + n > len(self.data):
            raise MalformedPayload("payload shorter than its declared contents")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        """The fields of the struct format fmt at the cursor."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self):
        if self.pos != len(self.data):
            raise MalformedPayload("trailing bytes after payload")


def _read_components(r: _Reader, k: int, count: int) -> np.ndarray:
    comps = np.frombuffer(r.take(2 * count), dtype=">u2").astype(np.int64)
    if count and int(comps.max()) >= k:
        raise ComponentOutOfRange("hash component >= k")
    return comps


def _decode_key_share(r: _Reader) -> msgs.KeyShare:
    (k,) = r.unpack(">I")
    _check_wire_k(k, ComponentOutOfRange)
    (delta,) = r.unpack(">d")
    if not (math.isfinite(delta) and delta > 0):
        raise MalformedPayload("delta must be positive and finite")
    n, m = r.unpack(">II")
    if m < 1 or n < 1:
        raise MalformedPayload("key share must have m, n >= 1")
    (a_form,) = r.unpack(">B")
    if a_form != 0:
        raise MalformedPayload(f"unknown matrix form {a_form}")
    a = np.frombuffer(r.take(8 * m * n), dtype=">f8").reshape(m, n).astype(np.float64)
    if not np.isfinite(a).all():
        raise MalformedPayload("matrix entries must be finite")
    u = np.frombuffer(r.take(8 * m), dtype=">f8").astype(np.float64)
    if not np.isfinite(u).all() or (u < 0).any() or (u >= k).any():
        raise MalformedPayload("dither entries must lie in [0, k)")
    (perm_count,) = r.unpack(">I")
    permutation = None
    if perm_count:
        idx = np.frombuffer(r.take(4 * perm_count), dtype=">u4").astype(np.int64)
        if (idx >= perm_count).any() or (np.bincount(idx, minlength=perm_count) != 1).any():
            raise NonBijectivePermutation("permutation indices are not a bijection")
        permutation = _adopt(Permutation, size=perm_count, mapping=idx)
    (pad_count,) = r.unpack(">I")
    pad1 = pad2 = None
    if pad_count:
        pad1 = _adopt(HashVector, k=k, components=_read_components(r, k, pad_count))
        pad2 = _adopt(HashVector, k=k, components=_read_components(r, k, pad_count))
    r.done()
    key = _adopt(HashKey, k=k, delta=delta, a=a, u=u)
    return msgs.KeyShare(key, permutation=permutation, pad1=pad1, pad2=pad2)


def _decode_distance_result(r: _Reader) -> msgs.DistanceResult:
    num, den = r.unpack(">QQ")
    if den == 0:
        raise ZeroDenominator("rational denominator is zero")
    if math.gcd(num, den) != 1:
        raise MalformedPayload("rational not in lowest terms")
    (count,) = r.unpack(">I")
    if count < 1:
        raise MalformedPayload("count must be >= 1")
    r.done()
    return msgs.DistanceResult(mean_lee=Fraction(num, den), count=count)


def _decode_abort(r: _Reader) -> msgs.Abort:
    (n,) = r.unpack(">H")
    raw = r.take(n)
    r.done()
    try:
        return msgs.Abort(reason=str(raw, "utf-8"))
    except UnicodeDecodeError as exc:
        raise MalformedPayload("abort reason is not valid UTF-8") from exc


def _decode_hash_submission(r: _Reader) -> msgs.HashSubmission:
    (k,) = r.unpack(">I")
    _check_wire_k(k, ComponentOutOfRange)
    (count,) = r.unpack(">I")
    if count < 1:
        raise MalformedPayload("hash vector must have at least one component")
    vector = _adopt(HashVector, k=k, components=_read_components(r, k, count))
    r.done()
    return msgs.HashSubmission(vector=vector)


# The one codec table: body type -> (family, payload encoder, payload decoder).
_CODECS = {
    msgs.KeyShare: (FAMILY_KEY_SHARE, _encode_key_share, _decode_key_share),
    msgs.HashSubmission: (FAMILY_HASH_SUBMISSION, _encode_hash_submission, _decode_hash_submission),
    msgs.DistanceResult: (FAMILY_DISTANCE_RESULT, _encode_distance_result, _decode_distance_result),
    msgs.Abort: (FAMILY_ABORT, _encode_abort, _decode_abort),
}
_DECODERS = {family: decode for family, _, decode in _CODECS.values()}
_KINDS = {int(kind): kind for kind in msgs.ProtocolKind}


def _nbytes(part) -> int:
    if isinstance(part, tuple):
        values, dtype = part
        return values.size * np.dtype(dtype).itemsize
    return memoryview(part).nbytes


def encode_envelope(env: msgs.Envelope) -> bytearray:
    """Serialize an envelope to one canonical frame (length prefix included),
    returned as a bytearray that nothing else references."""
    if len(env.session_id) != msgs.SESSION_ID_BYTES:
        raise EncodingError("session id must be 16 bytes")
    codec = _CODECS.get(type(env.body))
    if codec is None:
        raise EncodingError(f"unknown message body type: {type(env.body).__name__}")
    family, encode, _ = codec
    parts = encode(env.body)
    msg_type = (family << 4) | (int(env.kind) << 2) | int(env.sender)
    sizes = [_nbytes(part) for part in parts]
    if HEADER_LEN + sum(sizes) > MAX_FRAME_LENGTH:
        raise EncodingError(f"a {HEADER_LEN + sum(sizes)}-byte frame exceeds the {MAX_FRAME_LENGTH}-byte cap")
    frame = bytearray(4 + HEADER_LEN + sum(sizes))
    struct.pack_into(">IBB", frame, 0, len(frame) - 4, VERSION, msg_type)
    frame[6:22] = env.session_id
    pos = 22
    for part, size in zip(parts, sizes):
        if isinstance(part, tuple):
            values, dtype = part
            slot = np.frombuffer(frame, dtype, values.size, pos).reshape(values.shape)
            slot[...] = values  # cast, and byte-swapped, straight into the frame in C order
        else:
            frame[pos : pos + size] = part
        pos += size
    return frame


def decode_frame(data: bytes) -> msgs.Envelope:
    """Parse one complete frame. Total: raises a DecodeError subclass on any
    malformed input, never anything else."""
    try:
        length = frame_length(data[:4])
        if len(data) < 4 + length:
            raise TruncatedFrame("frame shorter than its declared length")
        if len(data) > 4 + length:
            raise MalformedPayload("bytes beyond the declared frame length")
        version = data[4]
        if version != VERSION:
            raise VersionUnsupported(f"unsupported frame version 0x{version:02x}")
        msg_type = data[5]
        family, kind_bits, sender_bits = msg_type >> 4, (msg_type >> 2) & 0x3, msg_type & 0x3
        decode, kind = _DECODERS.get(family), _KINDS.get(kind_bits)
        if decode is None or kind is None or sender_bits > 2:
            raise UnknownMessageType(f"msg_type 0x{msg_type:02x} is not defined")
        session_id = bytes(data[6:22])
        body = decode(_Reader(memoryview(data)[22 : 4 + length]))
        return msgs.Envelope(
            session_id=session_id,
            kind=kind,
            sender=msgs.Role(sender_bits),
            body=body,
        )
    except DecodeError:
        raise
    except Exception as exc:  # decoder totality: nothing else may escape
        raise MalformedPayload(f"unparseable frame: {exc}") from exc


def frame_length(header: bytes) -> int:
    """Declared remaining byte count from the first 4 frame bytes."""
    if len(header) != 4:
        raise TruncatedFrame("length header must be 4 bytes")
    (length,) = struct.unpack(">I", header)
    if length < HEADER_LEN:
        raise TruncatedFrame(f"declared length {length} below the {HEADER_LEN}-byte minimum")
    if length > MAX_FRAME_LENGTH:
        raise MalformedPayload(f"declared length {length} exceeds the frame cap")
    return length
