import dataclasses
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from modhash import (
    BinaryCode,
    DimensionMismatch,
    EstimateMode,
    HashKey,
    HashVector,
    InvalidParameter,
    ModHashError,
    Permutation,
    ProtocolKind,
    ProtocolParams,
    ProtocolViolation,
    Role,
    deobfuscate_distance,
    drive_local,
    generate_key,
    mean_lee_distance,
    obfuscate_hash,
    start_session,
)
from modhash.messages import (
    THREE_PARTY_KINDS,
    Abort,
    DistanceResult,
    Envelope,
    HammingRequest,
    HammingResponse,
    HashSubmission,
    KeyShare,
)
from modhash import plan_parameters, wire
from modhash.protocol import Phase
from modhash.rng import ChaChaStream
from modhash.wire import FAMILY_HASH_SUBMISSION, decode_frame

SEED = bytes(range(32))
PARAMS = ProtocolParams.from_dimensions(8, 64, padding=64)


def _vectors(n=16, offset=0.25):
    x1 = np.linspace(-1.0, 1.0, n)
    return x1, x1 + offset


# ------------------------------------------------------------------ sessions


def test_alice_start_emits_key_share_and_hash():
    x1, _ = _vectors()
    session, outgoing = start_session(Role.ALICE, ProtocolKind.FULL_KEY_3P, PARAMS, x=x1, seed=SEED)
    assert session.phase == Phase.AWAIT_RESULT
    assert [type(e.body).__name__ for e in outgoing] == ["KeyShare", "HashSubmission"]
    assert [e.recipient for e in outgoing] == [Role.BOB, Role.CHARLIE]


def test_charlie_start_is_passive():
    session, outgoing = start_session(Role.CHARLIE, ProtocolKind.FULL_KEY_3P, session_id=bytes(16))
    assert session.phase == Phase.AWAIT_HASHES
    assert outgoing == []


def test_charlie_rejected_in_two_party():
    with pytest.raises(InvalidParameter):
        start_session(Role.CHARLIE, ProtocolKind.TWO_PARTY_HAMMING, session_id=bytes(16))


def test_charlie_must_not_hold_a_vector():
    with pytest.raises(ProtocolViolation):
        start_session(Role.CHARLIE, ProtocolKind.FULL_KEY_3P, x=np.zeros(4), session_id=bytes(16))


def test_charlie_computes_mean_from_worked_example():
    from modhash.messages import Envelope

    charlie, _ = start_session(Role.CHARLIE, ProtocolKind.FULL_KEY_3P, session_id=bytes(16))
    h1 = HashVector(6, np.array([0, 1]))
    h2 = HashVector(6, np.array([3, 5]))
    out1 = charlie.on_message(
        Envelope(bytes(16), ProtocolKind.FULL_KEY_3P, Role.ALICE, HashSubmission(h1), Role.CHARLIE)
    )
    assert out1 == []
    out2 = charlie.on_message(
        Envelope(bytes(16), ProtocolKind.FULL_KEY_3P, Role.BOB, HashSubmission(h2), Role.CHARLIE)
    )
    assert len(out2) == 2
    assert {e.recipient for e in out2} == {Role.ALICE, Role.BOB}
    assert all(e.body.mean_lee == Fraction(5, 2) for e in out2)


def test_duplicate_submission_rejected():
    from modhash.messages import Envelope

    charlie, _ = start_session(Role.CHARLIE, ProtocolKind.FULL_KEY_3P, session_id=bytes(16))
    h1 = HashVector(6, np.array([0, 1]))
    env = Envelope(bytes(16), ProtocolKind.FULL_KEY_3P, Role.ALICE, HashSubmission(h1), Role.CHARLIE)
    charlie.on_message(env)
    with pytest.raises(ProtocolViolation) as err:
        charlie.on_message(env)
    assert charlie.aborted
    assert any(isinstance(e.body, Abort) for e in err.value.aborts)


def test_bob_rejects_result_before_submitting():
    from modhash.messages import Envelope

    _, x2 = _vectors()
    bob, _ = start_session(Role.BOB, ProtocolKind.FULL_KEY_3P, PARAMS, x=x2, session_id=bytes(16))
    result = DistanceResult(mean_lee=Fraction(1, 2), count=64)
    with pytest.raises(ProtocolViolation):
        bob.on_message(Envelope(bytes(16), ProtocolKind.FULL_KEY_3P, Role.CHARLIE, result, Role.BOB))


def test_wrong_sender_rejected():
    from modhash.messages import Envelope

    _, x2 = _vectors()
    bob, _ = start_session(Role.BOB, ProtocolKind.FULL_KEY_3P, PARAMS, x=x2, session_id=bytes(16))
    key = generate_key(8, 64, 16, SEED)
    share = KeyShare(key)
    with pytest.raises(ProtocolViolation):
        bob.on_message(Envelope(bytes(16), ProtocolKind.FULL_KEY_3P, Role.CHARLIE, share, Role.BOB))


def test_session_id_mismatch_rejected():
    from modhash.messages import Envelope

    charlie, _ = start_session(Role.CHARLIE, ProtocolKind.FULL_KEY_3P, session_id=bytes(16))
    h1 = HashVector(6, np.array([0, 1]))
    with pytest.raises(ProtocolViolation):
        charlie.on_message(
            Envelope(b"\x01" * 16, ProtocolKind.FULL_KEY_3P, Role.ALICE, HashSubmission(h1), Role.CHARLIE)
        )


def test_mismatched_hash_lengths_abort():
    from modhash.messages import Envelope

    charlie, _ = start_session(Role.CHARLIE, ProtocolKind.FULL_KEY_3P, session_id=bytes(16))
    charlie.on_message(
        Envelope(bytes(16), ProtocolKind.FULL_KEY_3P, Role.ALICE,
                 HashSubmission(HashVector(6, np.array([0, 1]))), Role.CHARLIE)
    )
    with pytest.raises(DimensionMismatch):
        charlie.on_message(
            Envelope(bytes(16), ProtocolKind.FULL_KEY_3P, Role.BOB,
                     HashSubmission(HashVector(6, np.array([0, 1, 2]))), Role.CHARLIE)
        )


def test_mismatched_hash_alphabets_abort_naming_the_later_alphabet_first():
    charlie, _ = start_session(Role.CHARLIE, ProtocolKind.FULL_KEY_3P, session_id=bytes(16))
    charlie.on_message(
        Envelope(bytes(16), ProtocolKind.FULL_KEY_3P, Role.ALICE,
                 HashSubmission(HashVector(6, np.array([0, 1]))), Role.CHARLIE)
    )
    with pytest.raises(DimensionMismatch, match=r"^alphabet mismatch: 8 vs 6$") as err:
        charlie.on_message(
            Envelope(bytes(16), ProtocolKind.FULL_KEY_3P, Role.BOB,
                     HashSubmission(HashVector(8, np.array([0, 1]))), Role.CHARLIE)
        )
    assert charlie.aborted and charlie.observed_mean is None
    assert {e.recipient for e in err.value.aborts} == {Role.ALICE, Role.BOB}


def test_a_message_of_another_kind_is_refused():
    x1, x2 = _vectors()
    alice, outgoing = start_session(Role.ALICE, ProtocolKind.OBFUSCATED_3P, PARAMS, x=x1, seed=SEED)
    bob, _ = start_session(Role.BOB, ProtocolKind.FULL_KEY_3P, PARAMS, x=x2, session_id=alice.session_id)
    with pytest.raises(ProtocolViolation, match=r"^kind mismatch: session FULL_KEY_3P, message OBFUSCATED_3P$") as err:
        bob.on_message(outgoing[0])
    assert bob.aborted
    assert {e.recipient for e in err.value.aborts} == {Role.ALICE, Role.CHARLIE}


@pytest.mark.parametrize(
    "code", [BinaryCode(8, np.ones(4)), BinaryCode(6, np.zeros(3 * PARAMS.m))], ids=["short", "other-alphabet"]
)
def test_two_party_request_of_another_shape_aborts(code):
    x1, _ = _vectors()
    kind = ProtocolKind.TWO_PARTY_HAMMING
    alice, _ = start_session(Role.ALICE, kind, PARAMS, x=x1, seed=SEED)
    with pytest.raises(DimensionMismatch):
        alice.on_message(Envelope(alice.session_id, kind, Role.BOB, HammingRequest(code), Role.ALICE))
    assert alice.aborted and alice.result is None


def test_obfuscated_result_that_demixes_below_zero_aborts():
    # Charlie's 0 is a valid mean, but the pads' mean makes the owners' one
    # negative: ((M+P)*0 - P*d~)/M = -139/64 at this seed.
    x1, _ = _vectors()
    alice, _ = start_session(Role.ALICE, ProtocolKind.OBFUSCATED_3P, PARAMS, x=x1, seed=SEED)
    result = DistanceResult(mean_lee=Fraction(0), count=PARAMS.m + PARAMS.padding)
    env = Envelope(alice.session_id, ProtocolKind.OBFUSCATED_3P, Role.CHARLIE, result, Role.ALICE)
    with pytest.raises(DimensionMismatch, match=r"-139/64 outside \[0, k/2\]"):
        alice.on_message(env)
    assert alice.aborted and alice.result is None
    with pytest.raises(ProtocolViolation, match="message after ABORTED"):
        alice.on_message(env)  # a second result is refused, not estimated


def test_two_party_response_past_the_diameter_aborts():
    x1, x2 = _vectors()
    kind = ProtocolKind.TWO_PARTY_HAMMING
    alice, outgoing = start_session(Role.ALICE, kind, PARAMS, x=x1, seed=SEED)
    bob, _ = start_session(Role.BOB, kind, PARAMS, x=x2, session_id=alice.session_id)
    (request,) = bob.on_message(outgoing[0].addressed_to(Role.BOB))
    assert isinstance(request.body, HammingRequest)
    assert bob.phase == Phase.AWAIT_HAMMING_RESPONSE
    lie = Envelope(alice.session_id, kind, Role.ALICE, HammingResponse(distance=10**6), Role.BOB)
    with pytest.raises(DimensionMismatch, match=r"outside \[0, k/2\]"):
        bob.on_message(lie)
    assert bob.aborted and bob.result is None


_CHARLIE_NEVER_HOLDS = ("_x", "_code", "_padding")


def _fresh_session(role, kind, session_id):
    x1, x2 = _vectors()
    if role == Role.ALICE:
        return start_session(role, kind, PARAMS, x=x1, seed=SEED)[0]
    if role == Role.BOB:
        return start_session(role, kind, PARAMS, x=x2, session_id=session_id)[0]
    return start_session(role, kind, session_id=session_id)[0]


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.name)
def test_every_reachable_state_is_total(kind):
    # Each role is replayed through every prefix of its inbound transcript;
    # in each state so reached, every body of the run and an Abort arrive
    # from every sender. Each delivery returns envelopes or raises a typed
    # error after which the session is ABORTED.
    x1, x2 = _vectors()
    run = drive_local(kind, x1, x2, PARAMS, SEED)
    inbound = [(t.recipient, decode_frame(t.data).addressed_to(t.recipient)) for t in run.transcript]
    session_id = inbound[0][1].session_id
    bodies = [env.body for _, env in inbound] + [Abort(reason="probe")]
    roles = [Role.ALICE, Role.BOB] + ([Role.CHARLIE] if kind in THREE_PARTY_KINDS else [])
    deliveries = 0
    for role in roles:
        mine = [env for recipient, env in inbound if recipient == role]
        for n in range(len(mine) + 1):
            for body in bodies:
                for sender in Role:
                    session = _fresh_session(role, kind, session_id)
                    for env in mine[:n]:
                        session.on_message(env)
                    try:
                        out = session.on_message(Envelope(session_id, kind, sender, body, role))
                        assert isinstance(out, list)
                    except ModHashError:
                        assert session.aborted
                    deliveries += 1
                    if role == Role.CHARLIE:
                        assert all(getattr(session, name, None) is None for name in _CHARLIE_NEVER_HOLDS)
    assert deliveries >= 60


# ------------------------------------------------------------------ obfuscation


def test_obfuscate_identity_with_no_padding():
    h = HashVector(8, np.array([1, 5, 2]))
    assert obfuscate_hash(h, None, Permutation.identity(3)) == h
    z = HashVector(8, np.array([4]))
    out = obfuscate_hash(h, z, Permutation.identity(4))
    assert out.components.tolist() == [1, 5, 2, 4]


def test_obfuscate_rejects_mismatches():
    h = HashVector(8, np.array([1, 5, 2]))
    with pytest.raises(DimensionMismatch):
        obfuscate_hash(h, HashVector(6, np.array([4])), Permutation.identity(4))
    with pytest.raises(DimensionMismatch):
        obfuscate_hash(h, HashVector(8, np.array([4])), Permutation.identity(5))


def test_deobfuscate_worked_example():
    # true per-component distances (1, 3), padding distance (2)
    assert deobfuscate_distance(Fraction(2), Fraction(2), 2, 1) == Fraction(2)
    assert deobfuscate_distance(Fraction(7, 2), Fraction(0), 4, 0) == Fraction(7, 2)
    with pytest.raises(InvalidParameter):
        deobfuscate_distance(Fraction(1), Fraction(1), 0, 1)


def test_deobfuscation_matches_bruteforce_over_random_instances():
    stream = ChaChaStream(SEED, b"deobf")
    for _ in range(200):
        k, m, p = 8, 24, 48
        h1 = HashVector(k, stream.integers_below(k, m))
        h2 = HashVector(k, stream.integers_below(k, m))
        z1 = HashVector(k, stream.integers_below(k, p))
        z2 = HashVector(k, stream.integers_below(k, p))
        perm = Permutation.random(m + p, stream)
        d = mean_lee_distance(obfuscate_hash(h1, z1, perm), obfuscate_hash(h2, z2, perm))
        d_tilde = mean_lee_distance(z1, z2)
        assert deobfuscate_distance(d, d_tilde, m, p) == mean_lee_distance(h1, h2)


# ------------------------------------------------------------------ local runs


def test_identical_inputs_give_zero_everywhere():
    x1, _ = _vectors()
    for kind in ProtocolKind:
        run = drive_local(kind, x1, x1.copy(), PARAMS, SEED)
        assert run.mean_lee == 0
        assert run.alice_estimate.value == 0.0
        assert run.bob_estimate.value == 0.0


def test_all_kinds_agree_exactly():
    x1, x2 = _vectors()
    runs = {kind: drive_local(kind, x1, x2, PARAMS, SEED) for kind in ProtocolKind}
    means = {run.mean_lee for run in runs.values()}
    assert len(means) == 1
    assert all(runs[k].alice_estimate == runs[k].bob_estimate for k in runs)


def test_full_key_transcript_shape():
    x1, x2 = _vectors()
    run = drive_local(ProtocolKind.FULL_KEY_3P, x1, x2, PARAMS, SEED)
    families = [decode_frame(t.data) for t in run.transcript]
    names = [type(e.body).__name__ for e in families]
    assert names == ["KeyShare", "HashSubmission", "HashSubmission", "DistanceResult", "DistanceResult"]


def test_transcripts_are_deterministic():
    x1, x2 = _vectors()
    for kind in ProtocolKind:
        t1 = drive_local(kind, x1, x2, PARAMS, SEED).transcript
        t2 = drive_local(kind, x1, x2, PARAMS, SEED).transcript
        assert [e.data for e in t1] == [e.data for e in t2]


def _charlie_bytes(run):
    return [t.data for t in run.transcript if t.recipient == Role.CHARLIE]


def test_charlie_sees_only_hash_submissions():
    x1, x2 = _vectors()
    for kind in (ProtocolKind.FULL_KEY_3P, ProtocolKind.OBFUSCATED_3P):
        run = drive_local(kind, x1, x2, PARAMS, SEED)
        for data in _charlie_bytes(run):
            assert data[5] >> 4 == FAMILY_HASH_SUBMISSION


def test_charlie_traffic_never_contains_secrets():
    # Scan every byte addressed to Charlie for serialized key material or
    # plaintext vector entries.
    x1, x2 = _vectors()
    for kind in (ProtocolKind.FULL_KEY_3P, ProtocolKind.OBFUSCATED_3P):
        run = drive_local(kind, x1, x2, PARAMS, SEED)
        blob = b"".join(_charlie_bytes(run))
        key_share = decode_frame(run.transcript[0].data).body
        secrets = [np.float64(v).tobytes() for v in key_share.key.u]
        secrets += [np.float64(v).tobytes() for v in x1]
        secrets += [np.float64(v).tobytes() for v in x2]
        secrets += [np.float64(v).tobytes() for v in key_share.key.a[0]]
        for needle in secrets:
            assert needle not in blob
            assert needle[::-1] not in blob  # either endianness


@pytest.mark.parametrize(
    "kind",
    [
        ProtocolKind.FULL_KEY_3P,
        ProtocolKind.OBFUSCATED_3P,
        pytest.param(
            ProtocolKind.TWO_PARTY_HAMMING,
            marks=pytest.mark.xfail(
                strict=True, reason="ROADMAP item 2: Bob sends his ring-coded hash to Alice, who holds (A, U)"
            ),
        ),
    ],
    ids=lambda k: k.name,
)
def test_no_key_holder_receives_a_peer_hash(kind):
    # A hash under a key its recipient holds gives the hashed vector away:
    # Alice generated (A, U), and Bob holds them once her key share arrives.
    x1, x2 = _vectors()
    run = drive_local(kind, x1, x2, PARAMS, SEED)
    holders = {Role.ALICE}
    for t in run.transcript:
        body = decode_frame(t.data).body
        if t.recipient in holders:
            assert not isinstance(body, (HashSubmission, HammingRequest)), f"{t.recipient.name} got a hash"
        if isinstance(body, KeyShare):
            holders.add(t.recipient)


def test_obfuscated_padding_length_on_the_wire():
    x1, x2 = _vectors()
    run = drive_local(ProtocolKind.OBFUSCATED_3P, x1, x2, PARAMS, SEED)
    for data in _charlie_bytes(run):
        env = decode_frame(data)
        assert env.body.vector.m == PARAMS.m + PARAMS.padding


def test_obfuscated_charlie_view_sits_near_plateau():
    # P = 10 M pushes Charlie's observed mean close to k/4 even for close inputs
    x1, x2 = _vectors()
    params = ProtocolParams.from_dimensions(8, 64)  # padding defaults to 640
    run = drive_local(ProtocolKind.OBFUSCATED_3P, x1, x2, params, SEED)
    assert run.mean_lee == drive_local(ProtocolKind.FULL_KEY_3P, x1, x2, params, SEED).mean_lee
    sigma = (8 / 4.0) / (2.0 * math.sqrt(params.m + params.padding))
    assert abs(float(run.charlie_observed) - 2.0) < 3.0 * sigma + abs(float(run.mean_lee) - 2.0) / 11.0


@pytest.mark.parametrize(
    "kind, n2, options, error, failed",
    [
        (ProtocolKind.FULL_KEY_3P, 15, {}, DimensionMismatch, Role.BOB),
        (ProtocolKind.TWO_PARTY_HAMMING, 15, {}, DimensionMismatch, Role.BOB),
    ],
    ids=["bob-n-mismatch-3p", "bob-n-mismatch-2p"],
)
def test_every_session_error_carries_its_aborts_into_the_transcript(monkeypatch, kind, n2, options, error, failed):
    # Before, only violations the session itself built carried Aborts.
    x1, _ = _vectors()
    _, x2 = _vectors(n2)
    sent = []
    encode = wire.encode_envelope
    monkeypatch.setattr(wire, "encode_envelope", lambda env: sent.append(env) or encode(env))
    with pytest.raises(error) as err:
        drive_local(kind, x1, x2, PARAMS, SEED, **options)
    aborts = err.value.aborts
    parties = set(Role) if kind in THREE_PARTY_KINDS else {Role.ALICE, Role.BOB}
    assert {e.recipient for e in aborts} == parties - {failed}
    assert all(e.sender == failed and e.body == Abort(reason=str(err.value)) for e in aborts)
    assert sent[-len(aborts):] == list(aborts)


def _short_permutation(ks):
    return dataclasses.replace(ks, permutation=Permutation.random(ks.key.m, ChaChaStream(SEED, b"short")))


@pytest.mark.parametrize(
    "kind, strip, reason",
    [
        (ProtocolKind.OBFUSCATED_3P, lambda ks: dataclasses.replace(ks, pad1=None, pad2=None),
         "both pads"),
        (ProtocolKind.OBFUSCATED_3P, _short_permutation, r"permutation of M\+P slots"),
    ],
    ids=["obfuscated-without-pads", "obfuscated-permutation-of-M"],
)
def test_bob_refuses_a_share_lacking_what_its_kind_needs(kind, strip, reason):
    x1, x2 = _vectors()
    alice, outgoing = start_session(Role.ALICE, kind, PARAMS, x=x1, seed=SEED)
    bob, _ = start_session(Role.BOB, kind, PARAMS, x=x2, session_id=alice.session_id)
    share = strip(outgoing[0].body)
    with pytest.raises(ProtocolViolation, match=reason) as err:
        bob.on_message(Envelope(alice.session_id, kind, Role.ALICE, share, Role.BOB))
    assert bob.aborted
    assert {e.recipient for e in err.value.aborts} == {Role.ALICE, Role.CHARLIE}
    assert all(isinstance(e.body, Abort) for e in err.value.aborts)


@pytest.mark.parametrize("other", [(6, 64), (8, 32)], ids=["other-k", "other-M"])
def test_bob_refuses_a_share_of_another_k_or_m_than_agreed(other):
    kind, (k, m) = ProtocolKind.FULL_KEY_3P, other
    x1, x2 = _vectors()
    alice, outgoing = start_session(Role.ALICE, kind, ProtocolParams.from_dimensions(k, m), x=x1, seed=SEED)
    bob, _ = start_session(Role.BOB, kind, PARAMS, x=x2, session_id=alice.session_id)
    with pytest.raises(DimensionMismatch, match=rf"\(k={k}, m={m}\) disagrees with agreed \(k=8, m=64\)") as err:
        bob.on_message(outgoing[0])
    assert bob.aborted
    assert {e.recipient for e in err.value.aborts} == {Role.ALICE, Role.CHARLIE}
    assert all(e.body == Abort(reason=str(err.value)) for e in err.value.aborts)


# ------------------------------------------------------------------ memory


def _arrays(value):
    """Every array an envelope, or a value in it, holds."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.name)
def test_owners_keep_nothing_they_sent_or_received_once_they_have_hashed(kind):
    # Before, Alice and Bob kept their HashKey (so A and U), the obfuscated
    # kind both pads, and Bob his ring code, until the session ended.
    x1, x2 = _vectors()
    alice, outgoing = start_session(Role.ALICE, kind, PARAMS, x=x1, seed=SEED)
    bob, _ = start_session(Role.BOB, kind, PARAMS, x=x2, session_id=alice.session_id)
    share = decode_frame(wire.encode_envelope(outgoing[0])).addressed_to(Role.BOB)
    held = [weakref.ref(a) for env in outgoing for a in _arrays(env)]
    del outgoing
    answers = bob.on_message(share)
    held += [weakref.ref(a) for env in [share, *answers] for a in _arrays(env)]
    del share, answers
    assert Phase.START < alice.phase < Phase.DONE and Phase.START < bob.phase < Phase.DONE
    assert [ref() for ref in held if ref() is not None] == []


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.name)
def test_a_local_run_at_the_planned_point_holds_one_key_matrix_and_its_frame(kind):
    # Before, both owners kept A until the end and the encoder made a
    # big-endian copy of A besides the frame: 7.2-10.7 MB traced, where one
    # A is 2.4 MB.
    params = ProtocolParams.from_dimensions(28, 2989)  # P = 10 M
    x1, step = np.random.default_rng(3).standard_normal((2, 100))
    x2 = x1 + 0.1 * step
    drive_local(kind, x1, x2, params, SEED)  # loads scipy.special outside the trace
    tracemalloc.start()
    try:
        drive_local(kind, x1, x2, params, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = params.m * len(x1) * 8
    slots = params.m + (params.padding if kind == ProtocolKind.OBFUSCATED_3P else 0)
    # A and the frame that carries it, A's finiteness mask, and O(M + P) arrays
    assert peak < 2 * matrix + matrix // 8 + 16 * 8 * slots


def test_two_party_equals_direct_computation():
    x1, x2 = _vectors()
    two = drive_local(ProtocolKind.TWO_PARTY_HAMMING, x1, x2, PARAMS, SEED)
    est_a, est_b = two.alice_estimate, two.bob_estimate
    run = drive_local(ProtocolKind.FULL_KEY_3P, x1, x2, PARAMS, SEED)
    assert est_a.mean_lee == run.mean_lee
    assert est_a == est_b


def test_two_party_worked_example():
    from modhash import encode_lee_to_binary, hamming_distance

    h1 = HashVector(6, np.array([0, 1]))
    h2 = HashVector(6, np.array([3, 5]))
    d = hamming_distance(encode_lee_to_binary(h1), encode_lee_to_binary(h2))
    assert d == 5
    assert Fraction(d, 2) == mean_lee_distance(h1, h2)


def test_curve_mode_estimates_distance():
    x1 = np.zeros(32)
    x2 = np.zeros(32)
    x2[0] = 1.0  # distance exactly 1, well under the k = 8 knee
    params = ProtocolParams.from_dimensions(8, 4096, padding=0)
    run = drive_local(ProtocolKind.FULL_KEY_3P, x1, x2, params, SEED, mode=EstimateMode.CURVE_INVERTED)
    assert run.alice_estimate.value == pytest.approx(1.0, abs=0.15)


def test_replayed_result_rejected():
    from modhash.messages import Envelope

    x1, _ = _vectors()
    alice, _ = start_session(Role.ALICE, ProtocolKind.FULL_KEY_3P, PARAMS, x=x1, seed=SEED)
    result = DistanceResult(mean_lee=Fraction(1, 2), count=PARAMS.m)
    env = Envelope(alice.session_id, ProtocolKind.FULL_KEY_3P, Role.CHARLIE, result, Role.ALICE)
    alice.on_message(env)
    assert alice.done
    with pytest.raises(ProtocolViolation):
        alice.on_message(env)  # replay after DONE is never silently reprocessed


def test_planned_run_hits_target_interval():
    # threshold 5, precision 1, beta 10 -> (k=28, M=2989); inputs at distance 3
    # must estimate within [2, 4] up to the planned failure probability
    params = plan_parameters(5.0, 1.0, 10)
    assert (params.k, params.m) == (28, 2989)
    stream = ChaChaStream(SEED, b"planned-run")
    n = 24
    for trial in range(5):
        x1 = stream.standard_normal(n)
        direction = stream.standard_normal(n)
        x2 = x1 + 3.0 * direction / np.linalg.norm(direction)
        run = drive_local(ProtocolKind.FULL_KEY_3P, x1, x2, params, stream.take(32))
        assert 2.0 <= run.alice_estimate.value <= 4.0
        assert run.alice_estimate == run.bob_estimate


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.name)
@pytest.mark.parametrize("through_wire", [True, False], ids=["decoded", "in memory"])
def test_bob_hashes_with_the_key_the_share_holds(monkeypatch, kind, through_wire):
    # The share's HashKey was checked when it was built, by the decoder or by
    # HashKey's constructor: Bob neither checks nor copies it again.
    import modhash.protocol as protocol

    x1, x2 = _vectors()
    _, outgoing = start_session(Role.ALICE, kind, PARAMS, x=x1, seed=SEED)
    share = next(e for e in outgoing if isinstance(e.body, KeyShare))
    if through_wire:
        share = decode_frame(wire.encode_envelope(share))
    bob, _ = start_session(Role.BOB, kind, PARAMS, x=x2, session_id=share.session_id)
    keys, checks = [], []
    hash_vector, post_init = protocol.hash_vector, HashKey.__post_init__
    monkeypatch.setattr(protocol, "hash_vector", lambda key, x: keys.append(key) or hash_vector(key, x))
    monkeypatch.setattr(HashKey, "__post_init__", lambda key: checks.append(key) or post_init(key))
    bob.on_message(share.addressed_to(Role.BOB))
    assert len(keys) == 1 and keys[0] is share.body.key
    assert not keys[0].a.flags.writeable and not keys[0].u.flags.writeable
    assert checks == []


def test_a_key_share_holds_only_a_checked_hash_key():
    key = generate_key(8, 64, 16, SEED)
    with pytest.raises(InvalidParameter, match="holds a HashKey"):
        KeyShare((key.k, key.delta, key.a, key.u))
    bad = np.array(key.a)
    bad[0, 0] = np.nan
    with pytest.raises(InvalidParameter, match="A entries must be finite"):
        HashKey(key.k, key.delta, bad, key.u)
