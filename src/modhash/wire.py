"""Bit-exact binary framing of protocol messages.

Frame layout (all integers big-endian):

    length      u32     byte count of everything after this field (>= 18)
    version     u8      0x01
    msg_type    u8      (family << 4) | (protocol kind << 2) | sender role
    session_id  16B
    payload     length - 18 bytes

msg_type packs the message family together with the protocol kind and the
sender role, so every frame self-describes its session context without
spending payload bytes on it.

Payload formats per family:

    KEY_SHARE        k u32, delta f64, n u32, m u32, a_form u8
                     (0: a as m*n f64 row-major; 1: 32-byte matrix digest),
                     u as m f64, perm_count u32 (0 = absent) + indices u32 each,
                     pad_count u32 (0 = absent) + pad1, pad2 as u16 components
    HASH_SUBMISSION  k u32, count u32, components u16 each  (size is a function
                     of (k, count) only -- input dimension never leaks)
    DISTANCE_RESULT  numerator u64, denominator u64 (lowest terms), count u32
    HAMMING_REQUEST  k u32, count u32, ring-code bits packed MSB-first with
                     zero padding to a byte boundary
    HAMMING_RESPONSE distance u64
    ABORT            reason_len u16, UTF-8 bytes

Encoding is canonical: a valid message has exactly one byte representation,
and decode(encode(msg)) == msg. decode_frame is total -- any byte string
yields either a message or a typed DecodeError, never another exception.
Decoding reads the frame through memoryviews, without slicing copies, but a
decoded message never holds a view into the frame: every array, digest and
string in it is its own copy, so the frame's buffer may be reused at once.
"""

import math
import struct
from fractions import Fraction

import numpy as np

from . import messages as msgs
from .core import BinaryCode, HashVector, Permutation, _adopt, _sealed
from .errors import (
    ComponentOutOfRange,
    DecodeError,
    EncodingError,
    InvalidInput,
    InvalidRingCode,
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
MAX_FRAME_LENGTH = 256 * 1024 * 1024  # refuse to buffer absurd length claims

FAMILY_KEY_SHARE = 1
FAMILY_HASH_SUBMISSION = 2
FAMILY_DISTANCE_RESULT = 3
FAMILY_HAMMING_REQUEST = 4
FAMILY_HAMMING_RESPONSE = 5
FAMILY_ABORT = 6

_FAMILY_OF_BODY = {
    msgs.KeyShare: FAMILY_KEY_SHARE,
    msgs.HashSubmission: FAMILY_HASH_SUBMISSION,
    msgs.DistanceResult: FAMILY_DISTANCE_RESULT,
    msgs.HammingRequest: FAMILY_HAMMING_REQUEST,
    msgs.HammingResponse: FAMILY_HAMMING_RESPONSE,
    msgs.Abort: FAMILY_ABORT,
}
_FAMILIES = frozenset(_FAMILY_OF_BODY.values())


def _check_wire_k(k: int, exc=EncodingError):
    if k % 2 != 0 or not (2 <= k <= MAX_WIRE_K):
        raise exc(f"k={k} outside the wire-supported even range [2, {MAX_WIRE_K}]")


# ---------------------------------------------------------------- encoding
#
# Body encoders return the payload as a list of parts (bytes, or C-contiguous
# big-endian arrays), which encode_envelope joins behind the header in one
# copy: a key share's matrix is converted to big-endian once and copied once
# more into the frame.

def _encode_hash(v: HashVector) -> list:
    _check_wire_k(v.k)
    if int(v.components.max()) >= v.k:  # unreachable for a valid HashVector
        raise EncodingError("component >= k")
    return [struct.pack(">II", v.k, v.m), v.components.astype(">u2")]


def _encode_key_share(body: msgs.KeyShare) -> list:
    _check_wire_k(body.k)
    if (body.a is None) == (body.a_digest is None):
        raise EncodingError("exactly one of a / a_digest must be set")
    u = np.asarray(body.u, dtype=np.float64)
    m = u.shape[0]
    out = [struct.pack(">IdII", body.k, body.delta, body.n, m)]
    if body.a is not None:
        a = np.asarray(body.a, dtype=np.float64)
        if a.shape != (m, body.n):
            raise EncodingError("A shape disagrees with (m, n)")
        out += [b"\x00", a.astype(">f8", order="C")]
    else:
        if len(body.a_digest) != 32:
            raise EncodingError("matrix digest must be 32 bytes")
        out += [b"\x01", body.a_digest]
    out.append(u.astype(">f8"))
    if body.permutation is None:
        out.append(struct.pack(">I", 0))
    else:
        out += [struct.pack(">I", body.permutation.size), body.permutation.mapping.astype(">u4")]
    if body.pad1 is None and body.pad2 is None:
        out.append(struct.pack(">I", 0))
    elif body.pad1 is not None and body.pad2 is not None and body.pad1.m == body.pad2.m:
        if body.pad1.k != body.k or body.pad2.k != body.k:
            raise EncodingError("padding alphabet disagrees with k")
        out += [
            struct.pack(">I", body.pad1.m),
            body.pad1.components.astype(">u2"),
            body.pad2.components.astype(">u2"),
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
    if not (1 <= body.count < 1 << 32):
        raise EncodingError("count outside u32 range")
    return [struct.pack(">QQI", frac.numerator, frac.denominator, body.count)]


def _encode_hamming_request(body: msgs.HammingRequest) -> list:
    code = body.code
    _check_wire_k(code.k)
    return [struct.pack(">II", code.k, code.m), np.packbits(code.bits)]  # MSB-first, zero-padded


def _body_parts(body: msgs.MessageBody) -> list:
    if isinstance(body, msgs.KeyShare):
        return _encode_key_share(body)
    if isinstance(body, msgs.HashSubmission):
        return _encode_hash(body.vector)
    if isinstance(body, msgs.DistanceResult):
        return _encode_distance_result(body)
    if isinstance(body, msgs.HammingRequest):
        return _encode_hamming_request(body)
    if isinstance(body, msgs.HammingResponse):
        if not (0 <= body.distance < 1 << 64):
            raise EncodingError("distance outside u64 range")
        return [struct.pack(">Q", body.distance)]
    if isinstance(body, msgs.Abort):
        reason = body.reason.encode("utf-8")
        if len(reason) >= 1 << 16:
            raise EncodingError("abort reason too long")
        return [struct.pack(">H", len(reason)), reason]
    raise EncodingError(f"unknown message body type: {type(body).__name__}")


def encode_envelope(env: msgs.Envelope) -> bytes:
    """Serialize an envelope to one canonical frame (length prefix included)."""
    if len(env.session_id) != msgs.SESSION_ID_BYTES:
        raise EncodingError("session id must be 16 bytes")
    family = _FAMILY_OF_BODY.get(type(env.body))
    if family is None:
        raise EncodingError(f"unknown message body type: {type(env.body).__name__}")
    parts = _body_parts(env.body)
    msg_type = (family << 4) | (int(env.kind) << 2) | int(env.sender)
    length = HEADER_LEN + sum(memoryview(part).nbytes for part in parts)
    return b"".join([struct.pack(">IBB", length, VERSION, msg_type), env.session_id, *parts])


# ---------------------------------------------------------------- decoding

class _Reader:
    """Bounds-checked cursor over a memoryview of the payload: it hands out
    views, never copies, and every decoder copies what it keeps."""

    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if n < 0 or self.pos + n > len(self.data):
            raise MalformedPayload("payload shorter than its declared contents")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self.take(8))[0]

    def done(self):
        if self.pos != len(self.data):
            raise MalformedPayload("trailing bytes after payload")


def _read_components(r: _Reader, k: int, count: int) -> np.ndarray:
    comps = np.frombuffer(r.take(2 * count), dtype=">u2").astype(np.int64)
    if count and int(comps.max()) >= k:
        raise ComponentOutOfRange("hash component >= k")
    return comps


def _decode_hash(r: _Reader) -> HashVector:
    k = r.u32()
    _check_wire_k(k, ComponentOutOfRange)
    count = r.u32()
    if count < 1:
        raise MalformedPayload("hash vector must have at least one component")
    return _adopt(HashVector, k=k, components=_read_components(r, k, count))


def _decode_key_share(r: _Reader) -> msgs.KeyShare:
    k = r.u32()
    _check_wire_k(k, ComponentOutOfRange)
    delta = r.f64()
    if not (math.isfinite(delta) and delta > 0):
        raise MalformedPayload("delta must be positive and finite")
    n = r.u32()
    m = r.u32()
    if m < 1 or n < 1:
        raise MalformedPayload("key share must have m, n >= 1")
    a_form = r.u8()
    a = a_digest = None
    if a_form == 0:
        if m * n > MAX_FRAME_LENGTH // 8:
            raise MalformedPayload("declared matrix larger than the frame cap")
        a = _sealed(np.frombuffer(r.take(8 * m * n), dtype=">f8").reshape(m, n).astype(np.float64))
        if not np.isfinite(a).all():
            raise MalformedPayload("matrix entries must be finite")
    elif a_form == 1:
        a_digest = bytes(r.take(32))
    else:
        raise MalformedPayload(f"unknown matrix form {a_form}")
    u = _sealed(np.frombuffer(r.take(8 * m), dtype=">f8").astype(np.float64))
    if not np.isfinite(u).all() or (u < 0).any() or (u >= k).any():
        raise MalformedPayload("dither entries must lie in [0, k)")
    perm_count = r.u32()
    permutation = None
    if perm_count:
        idx = np.frombuffer(r.take(4 * perm_count), dtype=">u4").astype(np.int64)
        if (idx >= perm_count).any() or (np.bincount(idx, minlength=perm_count) != 1).any():
            raise NonBijectivePermutation("permutation indices are not a bijection")
        permutation = _adopt(Permutation, size=perm_count, mapping=idx)
    pad_count = r.u32()
    pad1 = pad2 = None
    if pad_count:
        pad1 = _adopt(HashVector, k=k, components=_read_components(r, k, pad_count))
        pad2 = _adopt(HashVector, k=k, components=_read_components(r, k, pad_count))
    r.done()
    return msgs.KeyShare(
        k=k, delta=delta, n=n, u=u, a=a, a_digest=a_digest,
        permutation=permutation, pad1=pad1, pad2=pad2,
    )


def _decode_distance_result(r: _Reader) -> msgs.DistanceResult:
    num = r.u64()
    den = r.u64()
    if den == 0:
        raise ZeroDenominator("rational denominator is zero")
    if math.gcd(num, den) != 1:
        raise MalformedPayload("rational not in lowest terms")
    count = r.u32()
    if count < 1:
        raise MalformedPayload("count must be >= 1")
    r.done()
    return msgs.DistanceResult(mean_lee=Fraction(num, den), count=count)


def _decode_hamming_request(r: _Reader) -> msgs.HammingRequest:
    k = r.u32()
    _check_wire_k(k, ComponentOutOfRange)
    count = r.u32()
    if count < 1:
        raise MalformedPayload("code must cover at least one component")
    nbits = count * (k // 2)
    nbytes = (nbits + 7) // 8
    if nbytes > MAX_FRAME_LENGTH:
        raise MalformedPayload("declared code larger than the frame cap")
    raw = np.frombuffer(r.take(nbytes), dtype=np.uint8)
    bits = np.unpackbits(raw)
    if bits[nbits:].any():
        raise MalformedPayload("nonzero padding bits after the code")
    r.done()
    try:
        code = BinaryCode(k=k, bits=bits[:nbits])
    except InvalidInput as exc:
        raise InvalidRingCode(str(exc)) from exc
    return msgs.HammingRequest(code=code)


def _decode_abort(r: _Reader) -> msgs.Abort:
    n = r.u16()
    raw = r.take(n)
    r.done()
    try:
        return msgs.Abort(reason=str(raw, "utf-8"))
    except UnicodeDecodeError as exc:
        raise MalformedPayload("abort reason is not valid UTF-8") from exc


def _decode_hash_submission(r: _Reader) -> msgs.HashSubmission:
    vector = _decode_hash(r)
    r.done()
    return msgs.HashSubmission(vector=vector)


def _decode_hamming_response(r: _Reader) -> msgs.HammingResponse:
    distance = r.u64()
    r.done()
    return msgs.HammingResponse(distance=distance)


_DECODERS = {
    FAMILY_KEY_SHARE: _decode_key_share,
    FAMILY_HASH_SUBMISSION: _decode_hash_submission,
    FAMILY_DISTANCE_RESULT: _decode_distance_result,
    FAMILY_HAMMING_REQUEST: _decode_hamming_request,
    FAMILY_HAMMING_RESPONSE: _decode_hamming_response,
    FAMILY_ABORT: _decode_abort,
}


def decode_frame(data: bytes) -> msgs.Envelope:
    """Parse one complete frame. Total: raises a DecodeError subclass on any
    malformed input, never anything else."""
    try:
        if len(data) < 4:
            raise TruncatedFrame("frame shorter than its length field")
        (length,) = struct.unpack(">I", data[:4])
        if length < HEADER_LEN:
            raise TruncatedFrame(f"declared length {length} below the {HEADER_LEN}-byte minimum")
        if length > MAX_FRAME_LENGTH:
            raise MalformedPayload(f"declared length {length} exceeds the frame cap")
        if len(data) < 4 + length:
            raise TruncatedFrame("frame shorter than its declared length")
        if len(data) > 4 + length:
            raise MalformedPayload("bytes beyond the declared frame length")
        version = data[4]
        if version != VERSION:
            raise VersionUnsupported(f"unsupported frame version 0x{version:02x}")
        msg_type = data[5]
        family, kind_bits, sender_bits = msg_type >> 4, (msg_type >> 2) & 0x3, msg_type & 0x3
        if family not in _FAMILIES or sender_bits > 2:
            raise UnknownMessageType(f"msg_type 0x{msg_type:02x} is not defined")
        session_id = bytes(data[6:22])
        body = _DECODERS[family](_Reader(memoryview(data)[22 : 4 + length]))
        return msgs.Envelope(
            session_id=session_id,
            kind=msgs.ProtocolKind(kind_bits),
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
