import struct
from fractions import Fraction

import numpy as np
import pytest

from modhash import (
    EncodingError,
    HashVector,
    Permutation,
    encode_lee_to_binary,
    generate_key,
    hash_vector,
)
from modhash.errors import (
    ComponentOutOfRange,
    DecodeError,
    MalformedPayload,
    NonBijectivePermutation,
    TruncatedFrame,
    UnknownMessageType,
    VersionUnsupported,
    ZeroDenominator,
)
from modhash.messages import (
    Abort,
    DistanceResult,
    Envelope,
    HammingRequest,
    HammingResponse,
    HashSubmission,
    KeyShare,
    ProtocolKind,
    Role,
)
from modhash.wire import HEADER_LEN, decode_frame, encode_envelope

SEED = bytes(range(32))
SID = bytes(range(16))


def _env(body, kind=ProtocolKind.FULL_KEY_3P, sender=Role.ALICE):
    return Envelope(session_id=SID, kind=kind, sender=sender, body=body)


def _sample_envelopes():
    key = generate_key(8, 6, 4, SEED)
    h = hash_vector(key, np.arange(4.0))
    perm = Permutation(6, np.array([2, 0, 1, 5, 4, 3]))
    pads = HashVector(8, np.array([3, 1, 7])), HashVector(8, np.array([0, 5, 2]))
    return [
        _env(KeyShare(k=8, delta=key.delta, n=4, u=key.u, a=key.a)),
        _env(
            KeyShare(k=8, delta=key.delta, n=4, u=key.u, a_digest=bytes(32), permutation=perm),
            kind=ProtocolKind.PUBLIC_A_3P,
        ),
        _env(
            KeyShare(
                k=8, delta=key.delta, n=4, u=key.u, a=key.a,
                permutation=Permutation.identity(9), pad1=pads[0], pad2=pads[1],
            ),
            kind=ProtocolKind.OBFUSCATED_3P,
        ),
        _env(HashSubmission(h), sender=Role.BOB),
        _env(DistanceResult(mean_lee=Fraction(5, 2), count=6), sender=Role.CHARLIE),
        _env(HammingRequest(encode_lee_to_binary(h)), kind=ProtocolKind.TWO_PARTY_HAMMING, sender=Role.BOB),
        _env(HammingResponse(distance=17), kind=ProtocolKind.TWO_PARTY_HAMMING),
        _env(Abort(reason="session torn down"), sender=Role.CHARLIE),
    ]


def test_roundtrip_every_message_type():
    for env in _sample_envelopes():
        data = encode_envelope(env)
        back = decode_frame(data)
        assert back == env
        assert back.session_id == SID
        assert back.kind == env.kind
        assert back.sender == env.sender
        # canonical: re-encoding reproduces the bytes
        assert encode_envelope(back) == data


def test_decoded_messages_hold_no_views_into_the_frame():
    for env in _sample_envelopes():
        buf = bytearray(encode_envelope(env))
        back = decode_frame(buf)
        buf[:] = b"\xff" * len(buf)
        assert back == env
        del buf[:]  # BufferError if anything decoded still exported a view of it


def test_frame_layout():
    env = _env(HammingResponse(distance=1), kind=ProtocolKind.TWO_PARTY_HAMMING)
    data = encode_envelope(env)
    (length,) = struct.unpack(">I", data[:4])
    assert length == len(data) - 4
    assert length == HEADER_LEN + 8
    assert data[4] == 0x01


def test_hash_submission_size_depends_only_on_k_and_count():
    sizes = set()
    for n in (10, 1000, 100_000):
        key = generate_key(8, 244, n, SEED)
        h = hash_vector(key, np.zeros(n))
        data = encode_envelope(_env(HashSubmission(h)))
        sizes.add(len(data))
    assert sizes == {4 + HEADER_LEN + 8 + 2 * 244}


def test_bad_version_rejected():
    data = bytearray(encode_envelope(_sample_envelopes()[3]))
    data[4] = 0x02
    with pytest.raises(VersionUnsupported):
        decode_frame(bytes(data))


def test_unknown_msg_type_rejected():
    data = bytearray(encode_envelope(_sample_envelopes()[3]))
    data[5] = 0xF0  # family 15
    with pytest.raises(UnknownMessageType):
        decode_frame(bytes(data))
    data[5] = 0x23  # family 2, sender 3
    with pytest.raises(UnknownMessageType):
        decode_frame(bytes(data))


def test_truncation_detected():
    data = encode_envelope(_sample_envelopes()[0])
    with pytest.raises(TruncatedFrame):
        decode_frame(data[: len(data) - 3])
    with pytest.raises(TruncatedFrame):
        decode_frame(data[:3])
    with pytest.raises(MalformedPayload):
        decode_frame(data + b"x")


def test_component_equal_k_rejected():
    h = HashVector(8, np.array([1, 2, 3]))
    data = bytearray(encode_envelope(_env(HashSubmission(h))))
    # components start after 4+18 header and 8 payload prefix bytes
    struct.pack_into(">H", data, 4 + HEADER_LEN + 8, 8)  # component = k
    with pytest.raises(ComponentOutOfRange):
        decode_frame(bytes(data))


def test_odd_wire_k_rejected():
    h = HashVector(8, np.array([1, 2, 3]))
    data = bytearray(encode_envelope(_env(HashSubmission(h))))
    struct.pack_into(">I", data, 4 + HEADER_LEN, 7)
    with pytest.raises(ComponentOutOfRange):
        decode_frame(bytes(data))


def test_non_bijective_permutation_rejected():
    env = _sample_envelopes()[1]
    data = bytearray(encode_envelope(env))
    # permutation indices live in the last 6*4 bytes
    struct.pack_into(">I", data, len(data) - 4 * 6 - 4, 0)
    struct.pack_into(">I", data, len(data) - 4 * 6, 0)
    with pytest.raises((NonBijectivePermutation, MalformedPayload)):
        decode_frame(bytes(data))


def test_zero_denominator_rejected():
    env = _env(DistanceResult(mean_lee=Fraction(5, 2), count=6), sender=Role.CHARLIE)
    data = bytearray(encode_envelope(env))
    struct.pack_into(">Q", data, 4 + HEADER_LEN + 8, 0)
    with pytest.raises(ZeroDenominator):
        decode_frame(bytes(data))


def test_rational_must_be_lowest_terms():
    env = _env(DistanceResult(mean_lee=Fraction(5, 2), count=6), sender=Role.CHARLIE)
    data = bytearray(encode_envelope(env))
    struct.pack_into(">QQ", data, 4 + HEADER_LEN, 10, 4)
    with pytest.raises(MalformedPayload):
        decode_frame(bytes(data))


def test_ring_code_payload_validated():
    env = _sample_envelopes()[5]
    data = bytearray(encode_envelope(env))
    # 0110 is a middle run: not the code of any symbol
    data[4 + HEADER_LEN + 8] = 0b01100110
    with pytest.raises(DecodeError):
        decode_frame(bytes(data))


def test_encode_rejects_oversized_values():
    with pytest.raises(EncodingError):
        encode_envelope(_env(HammingResponse(distance=1 << 64), kind=ProtocolKind.TWO_PARTY_HAMMING))
    with pytest.raises(EncodingError):
        encode_envelope(
            Envelope(session_id=b"short", kind=ProtocolKind.FULL_KEY_3P,
                     sender=Role.ALICE, body=Abort(reason="x"))
        )


def test_encode_rejects_wire_range_k():
    h = HashVector(65536, np.array([1, 2]))
    with pytest.raises(EncodingError):
        encode_envelope(_env(HashSubmission(h)))


def test_fuzz_smoke():
    # the full million-frame fuzz runs in the acceptance suite; this is a
    # fast regression net over the same generator
    rng = np.random.default_rng(0xFEED)
    valid = [encode_envelope(e) for e in _sample_envelopes()]
    crashes = 0
    for i in range(20_000):
        choice = i % 4
        if choice == 0:
            data = rng.bytes(int(rng.integers(0, 80)))
        elif choice == 1:
            data = bytearray(valid[int(rng.integers(len(valid)))])
            for _ in range(int(rng.integers(1, 6))):
                data[int(rng.integers(len(data)))] = int(rng.integers(256))
            data = bytes(data)
        elif choice == 2:
            base = valid[int(rng.integers(len(valid)))]
            data = base[: int(rng.integers(0, len(base)))]
        else:
            head = struct.pack(">IBB", 18 + int(rng.integers(0, 40)), 0x01, int(rng.integers(256)))
            data = head + rng.bytes(int(rng.integers(0, 80)))
        try:
            decode_frame(data)
        except DecodeError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
