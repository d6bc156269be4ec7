"""Role state machines and orchestration for the four distance protocols.

All four flows share one shape: Alice provisions key material, both data
owners hash their vectors, some party averages Lee distances, and the data
owners turn the exact rational mean into a distance estimate. The kinds
differ only in what Alice's key share carries, which one table (_SHARE_SPECS)
states and both Alice and Bob read:

    FULL_KEY_3P       (k, A, U). Both submit plain hashes to Charlie, who
                      returns the mean Lee distance to both.
    PUBLIC_A_3P       A by content address, U and a permutation of M slots;
                      hashes are permuted before submission.
    TWO_PARTY_HAMMING (k, A, U). No Charlie: hashes are ring-coded and a
                      pluggable secure Hamming oracle yields the distance.
    OBFUSCATED_3P     (k, A, U), uniform pads z1, z2 of P slots and a
                      permutation of M+P slots; each owner appends its pad
                      and permutes, so Charlie sees only a near-k/4 mean.

Both owners de-mix Charlie's mean d as ((M+P) d - P d~) / M with d~ the
pads' mean; with no pads (P = 0) this is d itself, exactly.

Sessions are sans-IO: start_session returns the initial outgoing envelopes
and on_message consumes one envelope and returns the next ones. A session is
owned by one task at a time; drive_local pumps all roles in-process and
records the wire bytes of every hop.

Charlie is honest-but-curious: his state machine never holds A, U, any
permutation, or a plaintext vector, for any protocol kind. Confidential
delivery of key shares is assumed from the environment, not implemented here.
"""

import hashlib
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import wire
from .analysis import DistanceEstimate, EstimateMode, ProtocolParams, estimate_distance
from .core import (
    BinaryCode,
    HashKey,
    HashVector,
    Permutation,
    _shared_key,
    apply_permutation,
    concat_hashes,
    encode_lee_to_binary,
    generate_key,
    hamming_distance,
    hash_vector,
    mean_lee_distance,
)
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    OracleUnavailable,
    ProtocolViolation,
)
from .messages import (
    SESSION_ID_BYTES,
    THREE_PARTY_KINDS,
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
from .rng import ChaChaStream, subseed


class SecureHammingOracle:
    """Capability contract: given both parties' ring codes, yield their Hamming
    distance to both and reveal nothing else. Implementations plug in real
    two-party subprotocols; the contract is stated, not enforced."""

    def hamming(self, code_a: BinaryCode, code_b: BinaryCode) -> int:
        raise NotImplementedError


class HonestBrokerOracle(SecureHammingOracle):
    """In-process stand-in that simply computes the distance. It preserves the
    reduction (Lee -> Hamming) and the message flow, not the cryptography."""

    def hamming(self, code_a: BinaryCode, code_b: BinaryCode) -> int:
        return hamming_distance(code_a, code_b)


class MatrixStore:
    """Content-addressed store of public projection matrices (SHA-256 of the
    canonical dims-plus-rows encoding)."""

    def __init__(self):
        self._matrices: dict[bytes, np.ndarray] = {}

    @staticmethod
    def digest(a: np.ndarray) -> bytes:
        a = np.asarray(a, dtype=np.float64)
        h = hashlib.sha256()
        h.update(np.array(a.shape, dtype=">u4").tobytes())
        h.update(a.astype(">f8", order="C"))
        return h.digest()

    def put(self, a: np.ndarray) -> bytes:
        a = np.asarray(a, dtype=np.float64)
        d = self.digest(a)
        self._matrices[d] = a
        return d

    def get(self, digest: bytes) -> np.ndarray:
        try:
            return self._matrices[digest]
        except KeyError:
            raise ProtocolViolation(f"unknown public matrix {digest.hex()[:16]}…") from None


class Phase(IntEnum):
    """Per-role progress marker; transitions are monotone."""

    START = 0
    AWAIT_KEY = 1
    AWAIT_HASHES = 2
    AWAIT_ORACLE_REQUEST = 3
    AWAIT_ORACLE_RESPONSE = 4
    AWAIT_RESULT = 5
    DONE = 6
    ABORTED = 7


class _ShareSpec(NamedTuple):
    """What Alice's key share carries besides (k, delta, U) for one kind."""

    name: str       # the kind as error messages call it
    digest: bool    # A by content address instead of in full
    permuted: bool  # a permutation of the M + p submitted slots
    padded: bool    # uniform pads z1 (Alice's) and z2 (Bob's) of p slots each


_SHARE_SPECS = {
    ProtocolKind.FULL_KEY_3P: _ShareSpec("full-key", digest=False, permuted=False, padded=False),
    ProtocolKind.PUBLIC_A_3P: _ShareSpec("public-A", digest=True, permuted=True, padded=False),
    ProtocolKind.TWO_PARTY_HAMMING: _ShareSpec("two-party", digest=False, permuted=False, padded=False),
    ProtocolKind.OBFUSCATED_3P: _ShareSpec("obfuscated", digest=False, permuted=True, padded=True),
}


def obfuscate_hash(h: HashVector, z: HashVector | None, perm: Permutation) -> HashVector:
    """Append padding z (None = no padding) to h and permute the M+P slots."""
    if z is None:
        if perm.size != h.m:
            raise DimensionMismatch(f"permutation size {perm.size} != {h.m}+0")
        return apply_permutation(h, perm)
    if h.k != z.k:
        raise DimensionMismatch(f"alphabet mismatch: {h.k} vs {z.k}")
    if perm.size != h.m + z.m:
        raise DimensionMismatch(f"permutation size {perm.size} != {h.m}+{z.m}")
    return apply_permutation(concat_hashes(h, z), perm)


def deobfuscate_distance(d, d_tilde, m: int, p: int) -> Fraction:
    """Recover the mean over the M true slots from the padded mean:
    ((M+P) d - P d~) / M, exact in rational arithmetic."""
    if not isinstance(m, int) or m < 1:
        raise InvalidParameter("M must be a positive integer")
    if not isinstance(p, int) or p < 0:
        raise InvalidParameter("P must be a nonnegative integer")
    d = Fraction(d)
    d_tilde = Fraction(d_tilde) if p else Fraction(0)
    return ((m + p) * d - p * d_tilde) / m


class Session:
    """One role's view of one protocol run. Mutated only by its owner."""

    def __init__(self, session_id, role, kind, params, mode, saturation_margin):
        self.session_id = session_id
        self.role = role
        self.kind = kind
        self.params = params
        self.mode = mode
        self.saturation_margin = saturation_margin
        self.phase = Phase.START
        self.result: DistanceEstimate | None = None
        self.observed_mean: Fraction | None = None  # Charlie-visible mean
        self.true_mean: Fraction | None = None      # after de-obfuscation
        self.abort_reason: str | None = None
        # role-private material
        self._x = None
        self._key: HashKey | None = None
        self._perm: Permutation | None = None
        self._pads: tuple[HashVector, HashVector] | None = None
        self._code: BinaryCode | None = None
        self._m: int | None = None
        self._oracle: SecureHammingOracle | None = None
        self._store: MatrixStore | None = None
        self._received: dict[Role, HashVector] = {}

    # -------------------------------------------------------------- helpers

    @property
    def done(self) -> bool:
        return self.phase == Phase.DONE

    @property
    def aborted(self) -> bool:
        return self.phase == Phase.ABORTED

    def _envelope(self, body, recipient: Role) -> Envelope:
        return Envelope(self.session_id, self.kind, self.role, body, recipient)

    def _peers(self) -> tuple[Role, ...]:
        if self.kind == ProtocolKind.TWO_PARTY_HAMMING:
            others = (Role.ALICE, Role.BOB)
        else:
            others = (Role.ALICE, Role.BOB, Role.CHARLIE)
        return tuple(r for r in others if r != self.role)

    def _violate(self, reason: str, exc=ProtocolViolation):
        self.phase = Phase.ABORTED
        self.abort_reason = reason
        aborts = [self._envelope(Abort(reason=reason), peer) for peer in self._peers()]
        if exc is ProtocolViolation:
            raise ProtocolViolation(reason, aborts=aborts)
        raise exc(reason)

    def _submit(self, h: HashVector, pad: HashVector | None) -> Envelope:
        """Pad and permute h as the share says, and send it to Charlie."""
        if self._perm is not None:
            h = obfuscate_hash(h, pad, self._perm)
        self.phase = Phase.AWAIT_RESULT
        return self._envelope(HashSubmission(h), Role.CHARLIE)

    def _finish(self, true_mean: Fraction, observed: Fraction):
        self.observed_mean = observed
        self.true_mean = true_mean
        self.result = estimate_distance(
            true_mean,
            self._key.k,
            mode=self.mode,
            saturation_margin=self.saturation_margin,
            m=self._m,
        )
        self.phase = Phase.DONE

    # -------------------------------------------------------------- inbound

    def on_message(self, env: Envelope) -> list[Envelope]:
        """Advance the state machine by one received envelope.

        Raises ProtocolViolation (with Abort envelopes attached) on replayed,
        out-of-order, or wrong-sender messages; DimensionMismatch when sizes
        or alphabets disagree.
        """
        if env.session_id != self.session_id:
            raise ProtocolViolation("message for a different session")
        if self.phase in (Phase.DONE, Phase.ABORTED):
            self._violate(f"message after {self.phase.name}")
        if env.kind != self.kind:
            self._violate(f"kind mismatch: session {self.kind.name}, message {env.kind.name}")
        if env.sender == self.role:
            self._violate("message from own role")
        body = env.body

        if isinstance(body, Abort):
            self.phase = Phase.ABORTED
            self.abort_reason = f"peer {env.sender.name} aborted: {body.reason}"
            return []

        if self.role == Role.CHARLIE:
            return self._charlie_on(env, body)
        if isinstance(body, KeyShare):
            return self._bob_on_key_share(env, body)
        if isinstance(body, DistanceResult):
            return self._on_distance_result(env, body)
        if isinstance(body, HammingRequest):
            return self._alice_on_hamming_request(env, body)
        if isinstance(body, HammingResponse):
            return self._bob_on_hamming_response(env, body)
        self._violate(f"unexpected {type(body).__name__} in phase {self.phase.name}")

    # -------------------------------------------------------------- charlie

    def _charlie_on(self, env: Envelope, body) -> list[Envelope]:
        if not isinstance(body, HashSubmission):
            self._violate(f"third party cannot accept {type(body).__name__}")
        if self.phase != Phase.AWAIT_HASHES:
            self._violate(f"hash submission in phase {self.phase.name}")
        if env.sender not in (Role.ALICE, Role.BOB):
            self._violate(f"hash submission from {env.sender.name}")
        if env.sender in self._received:
            self._violate(f"duplicate hash submission from {env.sender.name}")
        v = body.vector
        if self._received:
            other = next(iter(self._received.values()))
            if v.k != other.k:
                self._violate(f"alphabet mismatch: {v.k} vs {other.k}", DimensionMismatch)
            if v.m != other.m:
                self._violate(f"length mismatch: {v.m} vs {other.m}", DimensionMismatch)
        self._received[env.sender] = v
        if len(self._received) < 2:
            return []
        mean = mean_lee_distance(self._received[Role.ALICE], self._received[Role.BOB])
        self.observed_mean = mean
        self.phase = Phase.DONE
        result = DistanceResult(mean_lee=mean, count=self._received[Role.ALICE].m)
        return [self._envelope(result, Role.ALICE), self._envelope(result, Role.BOB)]

    # -------------------------------------------------------------- bob

    def _bob_on_key_share(self, env: Envelope, ks: KeyShare) -> list[Envelope]:
        if self.role != Role.BOB or self.phase != Phase.AWAIT_KEY:
            self._violate(f"key share in phase {self.phase.name}")
        if env.sender != Role.ALICE:
            self._violate(f"key share from {env.sender.name}")
        if self.params is not None and (ks.k != self.params.k or ks.m != self.params.m):
            self._violate(
                f"key share (k={ks.k}, m={ks.m}) disagrees with agreed "
                f"(k={self.params.k}, m={self.params.m})",
                DimensionMismatch,
            )
        if len(self._x) != ks.n:
            self._violate(f"input has length {len(self._x)}, key expects {ks.n}", DimensionMismatch)
        if ks.a is not None:
            a = ks.a
        elif ks.a_digest is not None:
            if self._store is None:
                self._violate("no matrix store to resolve the public matrix")
            a = self._store.get(ks.a_digest)
        else:
            self._violate("key share carries neither a matrix nor a digest")
        self._key = _shared_key(ks.k, ks.delta, a, ks.u)
        self._m = ks.m
        h = hash_vector(self._key, self._x)
        self._x = None  # plaintext no longer needed

        spec = _SHARE_SPECS[self.kind]
        p = 0
        if spec.padded:
            if ks.pad1 is None or ks.pad2 is None:
                self._violate(f"{spec.name} key share must carry both pads")
            self._pads = (ks.pad1, ks.pad2)
            p = ks.pad1.m
        if spec.permuted:
            if ks.permutation is None or ks.permutation.size != ks.m + p:
                slots = "M+P" if spec.padded else "M"
                self._violate(f"{spec.name} key share must carry a permutation of {slots} slots")
            self._perm = ks.permutation
        if self.kind == ProtocolKind.TWO_PARTY_HAMMING:
            self._code = encode_lee_to_binary(h)
            self.phase = Phase.AWAIT_ORACLE_RESPONSE
            return [self._envelope(HammingRequest(self._code), Role.ALICE)]
        return [self._submit(h, ks.pad2 if spec.padded else None)]

    def _bob_on_hamming_response(self, env: Envelope, resp: HammingResponse) -> list[Envelope]:
        if self.role != Role.BOB or self.phase != Phase.AWAIT_ORACLE_RESPONSE:
            self._violate(f"oracle response in phase {self.phase.name}")
        if env.sender != Role.ALICE:
            self._violate(f"oracle response from {env.sender.name}")
        if resp.distance > self._m * (self._key.k // 2):
            self._violate("oracle distance exceeds the code's diameter", DimensionMismatch)
        mean = Fraction(resp.distance, self._m)
        self._finish(mean, mean)
        return []

    # -------------------------------------------------------------- alice

    def _alice_on_hamming_request(self, env: Envelope, req: HammingRequest) -> list[Envelope]:
        if self.role != Role.ALICE or self.phase != Phase.AWAIT_ORACLE_REQUEST:
            self._violate(f"oracle request in phase {self.phase.name}")
        if env.sender != Role.BOB:
            self._violate(f"oracle request from {env.sender.name}")
        if req.code.k != self._code.k or req.code.m != self._code.m:
            self._violate("peer code shape disagrees", DimensionMismatch)
        try:
            d = int(self._oracle.hamming(self._code, req.code))
        except Exception as exc:
            raise OracleUnavailable(f"secure Hamming oracle failed: {exc}") from exc
        mean = Fraction(d, self._m)
        self._finish(mean, mean)
        return [self._envelope(HammingResponse(distance=d), Role.BOB)]

    # -------------------------------------------------------------- owners

    def _on_distance_result(self, env: Envelope, res: DistanceResult) -> list[Envelope]:
        if self.role not in (Role.ALICE, Role.BOB) or self.phase != Phase.AWAIT_RESULT:
            self._violate(f"distance result in phase {self.phase.name}")
        if env.sender != Role.CHARLIE:
            self._violate(f"distance result from {env.sender.name}")
        p = self._pads[0].m if self._pads else 0
        if res.count != self._m + p:
            self._violate(
                f"result covers {res.count} components, expected {self._m + p}",
                DimensionMismatch,
            )
        if res.mean_lee < 0 or res.mean_lee > Fraction(self._key.k, 2):
            self._violate("mean Lee distance outside [0, k/2]", DimensionMismatch)
        d_tilde = mean_lee_distance(*self._pads) if self._pads else 0
        self._finish(deobfuscate_distance(res.mean_lee, d_tilde, self._m, p), res.mean_lee)
        return []


def derive_session_id(seed: bytes) -> bytes:
    return subseed(seed, b"session")[:SESSION_ID_BYTES]


def start_session(
    role: Role,
    kind: ProtocolKind,
    params: ProtocolParams | None = None,
    *,
    x=None,
    seed: bytes | None = None,
    key: HashKey | None = None,
    session_id: bytes | None = None,
    matrix_store: MatrixStore | None = None,
    oracle: SecureHammingOracle | None = None,
    mode: EstimateMode = EstimateMode.RAW,
    saturation_margin: float | None = None,
) -> tuple[Session, list[Envelope]]:
    """Create one role's session and return it with its initial envelopes.

    Alice needs her vector plus either a ready HashKey or a seed to derive all
    key material from; Bob needs his vector (the key share tells him the rest);
    Charlie holds nothing and passively awaits both hash submissions.
    """
    role = Role(role)
    kind = ProtocolKind(kind)
    if kind == ProtocolKind.TWO_PARTY_HAMMING and role == Role.CHARLIE:
        raise InvalidParameter("the two-party protocol has no third party")
    if role == Role.CHARLIE and x is not None:
        raise ProtocolViolation("the third party must not hold an input vector")
    if session_id is None:
        if seed is None:
            raise InvalidParameter("either a session id or a seed is required")
        session_id = derive_session_id(seed)
    if len(session_id) != SESSION_ID_BYTES:
        raise InvalidParameter("session id must be 16 bytes")

    session = Session(session_id, role, kind, params, mode, saturation_margin)
    session._store = matrix_store

    if role == Role.CHARLIE:
        session.phase = Phase.AWAIT_HASHES
        return session, []

    if x is None:
        raise InvalidParameter(f"{role.name} requires an input vector")
    x = np.asarray(x, dtype=np.float64)
    session._x = x

    if role == Role.BOB:
        session.phase = Phase.AWAIT_KEY
        return session, []

    # Alice initiates.
    if params is None:
        raise InvalidParameter("Alice requires agreed protocol parameters")
    spec = _SHARE_SPECS[kind]
    if seed is None and spec.permuted:
        raise InvalidParameter(f"{kind.name} requires a seed for permutation/padding material")
    if key is None:
        if seed is None:
            raise InvalidParameter("Alice requires a seed or an explicit key")
        key = generate_key(params.k, params.m, len(x), subseed(seed, b"key"))
    if key.k != params.k or key.m != params.m:
        raise InvalidParameter("explicit key disagrees with the agreed (k, M)")
    if key.n != len(x):
        raise DimensionMismatch(f"input has length {len(x)}, key expects {key.n}")
    session._key = key
    session._m = key.m
    h = hash_vector(key, x)
    session._x = None

    digest = None
    if spec.digest:
        if matrix_store is None:
            raise InvalidParameter(f"the {spec.name} protocol requires a matrix store")
        digest = matrix_store.put(key.a)
    p = params.padding if spec.padded else 0
    if spec.padded:
        if p < 1:
            raise InvalidParameter(f"the {spec.name} protocol requires padding >= 1")
        session._pads = tuple(
            HashVector(key.k, ChaChaStream(seed, label).integers_below(key.k, p))
            for label in (b"pad1", b"pad2")
        )
    if spec.permuted:
        session._perm = Permutation.random(key.m + p, ChaChaStream(seed, b"perm"))
    pad1, pad2 = session._pads or (None, None)
    share = KeyShare(
        k=key.k, delta=key.delta, n=key.n, u=key.u, a=None if spec.digest else key.a,
        a_digest=digest, permutation=session._perm, pad1=pad1, pad2=pad2,
    )
    outgoing = [session._envelope(share, Role.BOB)]
    if kind == ProtocolKind.TWO_PARTY_HAMMING:
        if oracle is None:
            raise InvalidParameter(f"the {spec.name} protocol requires a secure Hamming oracle")
        session._oracle = oracle
        session._code = encode_lee_to_binary(h)
        session.phase = Phase.AWAIT_ORACLE_REQUEST
        return session, outgoing
    return session, outgoing + [session._submit(h, pad1)]


@dataclass(frozen=True)
class TranscriptEntry:
    """One delivered frame, with routing metadata for audits."""

    sender: Role
    recipient: Role
    data: bytes


@dataclass(frozen=True)
class LocalRun:
    """Outcome of an in-process protocol run."""

    kind: ProtocolKind
    alice_estimate: DistanceEstimate
    bob_estimate: DistanceEstimate
    mean_lee: Fraction
    charlie_observed: Fraction | None
    transcript: tuple[TranscriptEntry, ...] = field(repr=False)


def drive_local(
    kind: ProtocolKind,
    x1,
    x2,
    params: ProtocolParams,
    seed: bytes,
    *,
    mode: EstimateMode = EstimateMode.RAW,
    oracle: SecureHammingOracle | None = None,
    matrix_store: MatrixStore | None = None,
    saturation_margin: float | None = None,
) -> LocalRun:
    """Run every role of one protocol in-process over an in-memory transport.

    Each hop is serialized to wire bytes (recorded in the transcript) and
    decoded at the recipient, so a local run exercises the exact bytes a
    networked run would. Deterministic: same inputs and seed, same transcript.
    """
    kind = ProtocolKind(kind)
    if kind == ProtocolKind.TWO_PARTY_HAMMING and oracle is None:
        oracle = HonestBrokerOracle()
    if kind == ProtocolKind.PUBLIC_A_3P and matrix_store is None:
        matrix_store = MatrixStore()

    common = dict(params=params, mode=mode, saturation_margin=saturation_margin)
    alice, outgoing = start_session(
        Role.ALICE, kind, x=x1, seed=seed, matrix_store=matrix_store, oracle=oracle, **common
    )
    bob, _ = start_session(
        Role.BOB, kind, x=x2, session_id=alice.session_id, matrix_store=matrix_store, **common
    )
    sessions = {Role.ALICE: alice, Role.BOB: bob}
    if kind in THREE_PARTY_KINDS:
        charlie, _ = start_session(Role.CHARLIE, kind, session_id=alice.session_id)
        sessions[Role.CHARLIE] = charlie

    transcript: list[TranscriptEntry] = []
    queue = deque(outgoing)
    try:
        while queue:
            env = queue.popleft()
            data = wire.encode_envelope(env)
            transcript.append(TranscriptEntry(env.sender, env.recipient, data))
            received = wire.decode_frame(data).addressed_to(env.recipient)
            queue.extend(sessions[env.recipient].on_message(received))
    except ProtocolViolation as exc:
        for abort_env in exc.aborts:
            transcript.append(
                TranscriptEntry(abort_env.sender, abort_env.recipient, wire.encode_envelope(abort_env))
            )
        raise

    for role, session in sessions.items():
        if role != Role.CHARLIE and not session.done:
            raise ProtocolViolation(f"{role.name} did not reach DONE")

    charlie_observed = sessions[Role.CHARLIE].observed_mean if kind in THREE_PARTY_KINDS else None
    return LocalRun(
        kind=kind,
        alice_estimate=alice.result,
        bob_estimate=bob.result,
        mean_lee=alice.true_mean,
        charlie_observed=charlie_observed,
        transcript=tuple(transcript),
    )
