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
in it is its own copy, so the frame's buffer may be reused at once.
Decoders check only what the frame format adds: field ranges, canonical
rationals, lengths and trailing bytes. Every value is built by its own
constructor, which checks it and makes the one native copy, and its refusal
is re-raised as the DecodeError subclass of that field.
"""

import math
import struct
from fractions import Fraction

import numpy as np

from . import messages as msgs
from .core import HashKey, HashVector, Permutation
from .errors import (
    ComponentOutOfRange,
    DecodeError,
    EncodingError,
    MalformedPayload,
    ModHashError,
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
    if body.pad1 is None:  # KeyShare holds both pads or neither, of one length
        out.append(struct.pack(">I", 0))
    else:
        out += [struct.pack(">I", body.pad1.m), (body.pad1.components, ">u2"), (body.pad2.components, ">u2")]
    return out


def _encode_distance_result(body: msgs.DistanceResult) -> list:
    frac = Fraction(body.mean_lee)
    if frac.numerator >= 1 << 64 or frac.denominator >= 1 << 64:
        raise EncodingError("rational does not fit in u64/u64")
    if body.count > MAX_WIRE_COUNT:
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
    views, never copies, and values' constructors copy what they keep. A
    declared size past the payload's end is refused before any allocation."""

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

    def array(self, dtype: str, *shape: int) -> np.ndarray:
        """A view of the array of this shape and (big-endian) dtype at the cursor."""
        return np.frombuffer(self.take(np.dtype(dtype).itemsize * math.prod(shape)), dtype).reshape(shape)

    def done(self):
        if self.pos != len(self.data):
            raise MalformedPayload("trailing bytes after payload")


def _built(error, cls, *values):
    """cls(*values), with the constructor's refusal re-raised as error."""
    try:
        return cls(*values)
    except ModHashError as exc:
        raise error(str(exc)) from exc


def _decode_key_share(r: _Reader) -> msgs.KeyShare:
    (k,) = r.unpack(">I")
    _check_wire_k(k, ComponentOutOfRange)
    delta, n, m, a_form = r.unpack(">dIIB")
    if a_form != 0:
        raise MalformedPayload(f"unknown matrix form {a_form}")
    key = _built(MalformedPayload, HashKey, k, delta, r.array(">f8", m, n), r.array(">f8", m))
    (perm_count,) = r.unpack(">I")
    permutation = None
    if perm_count:
        permutation = _built(NonBijectivePermutation, Permutation, perm_count, r.array(">u4", perm_count))
    (pad_count,) = r.unpack(">I")
    pad1 = pad2 = None
    if pad_count:
        pad1, pad2 = (_built(ComponentOutOfRange, HashVector, k, r.array(">u2", pad_count)) for _ in range(2))
    r.done()
    return msgs.KeyShare(key, permutation=permutation, pad1=pad1, pad2=pad2)


def _decode_distance_result(r: _Reader) -> msgs.DistanceResult:
    num, den = r.unpack(">QQ")
    if den == 0:
        raise ZeroDenominator("rational denominator is zero")
    if math.gcd(num, den) != 1:
        raise MalformedPayload("rational not in lowest terms")
    (count,) = r.unpack(">I")
    result = _built(MalformedPayload, msgs.DistanceResult, Fraction(num, den), count)
    r.done()
    return result


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
    vector = _built(ComponentOutOfRange, HashVector, k, r.array(">u2", count))
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
