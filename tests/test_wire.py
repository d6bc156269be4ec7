import math
import struct
import tracemalloc
from fractions import Fraction

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_reference import reference_frame

from modhash import (
    EncodingError,
    HashKey,
    HashVector,
    InvalidParameter,
    Permutation,
    generate_key,
    hash_vector,
    wire,
)
from modhash.core import _adopt
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
        _env(KeyShare(key)),
        _env(KeyShare(key, permutation=perm)),
        _env(
            KeyShare(key, permutation=Permutation.identity(9), pad1=pads[0], pad2=pads[1]),
            kind=ProtocolKind.OBFUSCATED_3P,
        ),
        _env(HashSubmission(h), sender=Role.BOB),
        _env(DistanceResult(mean_lee=Fraction(5, 2), count=6), sender=Role.CHARLIE),
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


_WIRE_K = st.one_of(st.sampled_from([2, 8, 28, 65534]), st.integers(1, 32767).map(lambda h: 2 * h))


@st.composite
def _key_shares(draw):
    k, m, n = draw(_WIRE_K), draw(st.integers(1, 12)), draw(st.integers(1, 6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    u = draw(hnp.arrays(np.float64, m, elements=st.floats(0, k, exclude_max=True)))
    permutation = pad1 = pad2 = None
    if draw(st.booleans()):
        a = draw(hnp.arrays(np.float64, (m, n), elements=finite))
    else:  # a transposed view: the frame holds its rows, not its memory order
        a = draw(hnp.arrays(np.float64, (n, m), elements=finite)).T
    p = draw(st.integers(1, 8)) if draw(st.booleans()) else 0
    if p:
        symbols = hnp.arrays(np.int64, p, elements=st.integers(0, k - 1))
        pad1, pad2 = HashVector(k, draw(symbols)), HashVector(k, draw(symbols))
    if draw(st.booleans()):
        permutation = Permutation(m + p, np.array(draw(st.permutations(range(m + p)))))
    delta = draw(st.floats(min_value=1e-300, max_value=1e300))
    return KeyShare(HashKey(k, delta, a, u), permutation=permutation, pad1=pad1, pad2=pad2)


@st.composite
def _hash_vectors(draw):
    k = draw(_WIRE_K)
    return HashVector(k, draw(hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(0, k - 1))))


_BODIES = st.one_of(
    _key_shares(),
    _hash_vectors().map(HashSubmission),
    st.builds(
        lambda num, den, count: DistanceResult(mean_lee=Fraction(num, den), count=count),
        st.integers(0, (1 << 64) - 1), st.integers(1, (1 << 64) - 1), st.integers(1, (1 << 32) - 1),
    ),
    st.text(max_size=40).map(lambda reason: Abort(reason=reason)),
)


@settings(max_examples=300, deadline=None)
@given(
    body=_BODIES,
    session_id=st.binary(min_size=16, max_size=16),
    kind=st.sampled_from(ProtocolKind),
    sender=st.sampled_from(Role),
)
def test_one_pass_encoder_matches_the_join_based_reference(body, session_id, kind, sender):
    env = Envelope(session_id=session_id, kind=kind, sender=sender, body=body)
    frame = encode_envelope(env)
    assert isinstance(frame, bytearray)
    assert frame == reference_frame(env)
    assert decode_frame(frame) == env


def test_decoded_messages_hold_no_views_into_the_frame():
    for env in _sample_envelopes():
        buf = bytearray(encode_envelope(env))
        back = decode_frame(buf)
        buf[:] = b"\xff" * len(buf)
        assert back == env
        del buf[:]  # BufferError if anything decoded still exported a view of it


def test_frame_layout():
    env = _env(DistanceResult(mean_lee=Fraction(1), count=1), kind=ProtocolKind.TWO_PARTY_HAMMING)
    data = encode_envelope(env)
    (length,) = struct.unpack(">I", data[:4])
    assert length == len(data) - 4
    assert length == HEADER_LEN + 20
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


def test_retired_kind_bits_are_refused_from_the_header():
    # Kind 1 (public-A) is retired. Before, ProtocolKind(1) raised only
    # after the whole payload had been decoded, and as MalformedPayload.
    data = bytearray(encode_envelope(_sample_envelopes()[0]))
    data[5] = (data[5] & ~0x0C) | (1 << 2)
    with pytest.raises(UnknownMessageType):
        decode_frame(bytes(data))
    data[4 + HEADER_LEN + 20] = 7  # an unknown a_form: the payload is never read
    with pytest.raises(UnknownMessageType):
        decode_frame(bytes(data))


def test_a_key_share_refuses_the_retired_digest_form():
    data = bytearray(encode_envelope(_sample_envelopes()[0]))
    assert data[4 + HEADER_LEN + 20] == 0  # a_form follows k, delta, n and m
    data[4 + HEADER_LEN + 20] = 1
    with pytest.raises(MalformedPayload, match="unknown matrix form 1"):
        decode_frame(bytes(data))


def test_a_key_share_decoder_refuses_every_key_hash_key_refuses():
    # The decoder builds the share's HashKey through its constructor, so
    # every key the constructor refuses is refused from the wire too.
    key = generate_key(8, 6, 4, SEED)
    frame = encode_envelope(_env(KeyShare(key)))
    a_at = 21  # payload offset of A, after k, delta, n, m and a_form
    u_at = a_at + 8 * key.a.size
    cases = [
        ("k", 0, ">I", 7), ("delta", 4, ">d", 0.0), ("delta", 4, ">d", -1.0), ("delta", 4, ">d", math.nan),
        ("a", a_at, ">d", math.inf), ("a", a_at, ">d", math.nan),
        ("u", u_at, ">d", 8.0), ("u", u_at, ">d", -0.5), ("u", u_at, ">d", math.nan),
    ]
    for name, offset, fmt, value in cases:
        values = {"k": key.k, "delta": key.delta, "a": np.array(key.a), "u": np.array(key.u)}
        if name in ("a", "u"):
            values[name].flat[0] = value
        else:
            values[name] = value
        with pytest.raises(InvalidParameter):
            HashKey(**values)
        data = bytearray(frame)
        struct.pack_into(fmt, data, 4 + HEADER_LEN + offset, value)
        with pytest.raises(DecodeError):
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


@pytest.mark.parametrize("family", [4, 5])
def test_retired_hamming_families_are_refused_from_the_header(family):
    # the Hamming request and response of the two-party kind's earlier flow
    for env in _sample_envelopes():
        data = bytearray(encode_envelope(env))
        data[5] = (family << 4) | (data[5] & 0x0F)
        with pytest.raises(UnknownMessageType, match="is not defined"):
            decode_frame(bytes(data))


def test_a_decoder_fault_surfaces_as_malformed_payload(monkeypatch):
    # decode_frame's last net: nothing but a DecodeError leaves it
    def faulty(r):
        return 1 / 0

    monkeypatch.setitem(wire._DECODERS, wire.FAMILY_ABORT, faulty)
    data = encode_envelope(_env(Abort(reason="well formed")))
    with pytest.raises(MalformedPayload, match="^unparseable frame: division by zero$") as err:
        decode_frame(data)
    assert isinstance(err.value.__cause__, ZeroDivisionError)


def test_encode_rejects_oversized_values():
    with pytest.raises(EncodingError):
        encode_envelope(
            Envelope(session_id=b"short", kind=ProtocolKind.FULL_KEY_3P,
                     sender=Role.ALICE, body=Abort(reason="x"))
        )


def _refused_bodies():
    u64 = "does not fit in u64/u64"
    return [
        pytest.param(u64, DistanceResult(Fraction(1 << 64), 6), id="numerator"),
        pytest.param(u64, DistanceResult(Fraction(1, 1 << 64), 6), id="denominator"),
        pytest.param("count outside u32 range", DistanceResult(Fraction(0), 1 << 32), id="u32-count"),
        pytest.param("abort reason too long", Abort("x" * (1 << 16)), id="long-reason"),
    ]


@pytest.mark.parametrize("message, body", _refused_bodies())
def test_encoder_refuses_what_the_wire_cannot_carry(message, body):
    # each body is a valid value, but a field of it exceeds its wire range
    with pytest.raises(EncodingError, match=message):
        encode_envelope(_env(body, kind=ProtocolKind.OBFUSCATED_3P))


def _invalid_bodies():
    key, perm = generate_key(8, 6, 4, SEED), Permutation.identity(9)
    pad, other_k, shorter = HashVector(8, [3, 1, 7]), HashVector(6, [0, 5, 2]), HashVector(8, [0, 5])
    one_length = "the pads must have one length, over the key's alphabet Z_8"
    return [
        pytest.param(one_length, lambda: KeyShare(key, perm, pad, other_k), id="pad-k"),
        pytest.param("both pads or neither", lambda: KeyShare(key, perm, pad), id="one-pad"),
        pytest.param(one_length, lambda: KeyShare(key, perm, pad, shorter), id="pad-lengths"),
        pytest.param("^mean -1/2 over 6: ", lambda: DistanceResult(Fraction(-1, 2), 6), id="negative-mean"),
        pytest.param("^mean 0 over 0: ", lambda: DistanceResult(Fraction(0), 0), id="zero-count"),
    ]


@pytest.mark.parametrize("message, build", _invalid_bodies())
def test_a_body_refuses_what_its_type_forbids(message, build):
    # each type states its own rules, so a body that breaks one is refused
    # when it is built and is never encoded, sent or decoded
    with pytest.raises(InvalidParameter, match=message):
        build()


@pytest.mark.parametrize("m, n, p", [(1, 1, 0), (6, 4, 0), (1, 1, 1), (6, 4, 3), (50, 16, 500)])
def test_key_share_frame_length_is_the_encoded_length(m, n, p):
    key = generate_key(8, m, n, SEED)
    body = KeyShare(key)
    if p:
        pad = HashVector(8, np.arange(p) % 8)
        body = KeyShare(key, permutation=Permutation.identity(m + p), pad1=pad, pad2=pad)
    assert wire.key_share_frame_length(m, n, p) == len(encode_envelope(_env(body)))


def test_encoder_refuses_a_frame_above_the_cap_before_allocating_it():
    # a zero-stride view: 2**27 components take 256 MiB on the wire, 8 bytes here
    vector = _adopt(HashVector, k=8, components=np.broadcast_to(np.int64(0), (1 << 27,)))
    tracemalloc.start()
    try:
        with pytest.raises(EncodingError, match="-byte frame exceeds the 268435456-byte cap"):
            encode_envelope(_env(HashSubmission(vector)))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


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
