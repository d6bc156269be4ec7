"""Role state machines and orchestration for the three distance protocols.

All three flows share one shape: Alice provisions key material, both data
owners hash their vectors, some party averages Lee distances, and the data
owners turn the exact rational mean into a distance estimate. Every key
share carries Alice's HashKey, which Bob hashes with as it is; the kinds
differ in who averages and in whether the share also carries pads, which
one set (_PADDED_KINDS) states and both Alice and Bob read:

    FULL_KEY_3P       The key. Both submit plain hashes to Charlie, who
                      returns the mean Lee distance to both.
    TWO_PARTY_HAMMING The key. No Charlie: Bob submits his hash to Alice, who
                      averages as Charlie does and returns the mean to Bob.
                      Alice holds the key, so she can invert Bob's hash.
    OBFUSCATED_3P     The key, uniform pads z1, z2 of P slots and a
                      permutation of M+P slots; each owner appends its pad
                      and permutes, which pulls Charlie's mean towards k/4
                      but does not hide the distance from him.

Both owners de-mix Charlie's mean d as ((M+P) d - P d~) / M with d~ the
pads' mean; with no pads (P = 0) this is d itself, exactly.

Sessions are sans-IO: start_session returns the initial outgoing envelopes
and on_message consumes one envelope and returns the next ones. A session is
owned by one task at a time; drive_local pumps all roles in-process and
records the wire bytes of every hop. One table, _MOVES, is the only place
that states what each role accepts in each phase and from whom: on_message
checks the envelope, looks the move up and runs its handler. Any error ends
the session through Session.abort, the one place that builds the Aborts for
the other parties.

Session.peers and Session.averager derive from ProtocolKind.parties: Charlie
averages where he takes part and Alice in two-party. One handler serves
both, and an owner takes a result only from its kind's averager.

A session keeps only what a later move reads. Once an owner has hashed, it
holds (k, M), its own hash (Alice, two-party, as the first submission) and,
for a padded kind, P and the pads' exact mean d~: never A, U, a permutation
or the pads.
Charlie is honest-but-curious: his state machine never holds A, U, any
permutation, or a plaintext vector, for any protocol kind. Confidential
delivery of key shares is assumed from the environment, not implemented here.
"""

import secrets
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

import numpy as np

from . import wire
from .analysis import DistanceEstimate, EstimateMode, ProtocolParams, estimate_distance
from .core import (
    DEFAULT_DELTA,
    HashVector,
    Permutation,
    _check_size,
    apply_permutation,
    concat_hashes,
    encode_lee_to_binary,  # noqa: F401 -- not called here, but perfbench's tracer wraps this module's name
    generate_key,
    hamming_distance,  # noqa: F401 -- likewise
    hash_vector,
    mean_lee_distance,
)
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    ModHashError,
    ProtocolViolation,
)
from .messages import (
    SESSION_ID_BYTES,
    Abort,
    DistanceResult,
    Envelope,
    HashSubmission,
    KeyShare,
    ProtocolKind,
    Role,
)
from .rng import ChaChaStream, subseed


class Phase(IntEnum):
    """Per-role progress marker; transitions are monotone."""

    START = 0
    AWAIT_KEY = 1
    AWAIT_HASHES = 2
    AWAIT_RESULT = 3
    DONE = 4
    ABORTED = 5


# Kinds whose key share also carries uniform pads z1 (Alice's) and z2 (Bob's)
# of P slots each and a permutation of the M + P submitted slots.
_PADDED_KINDS = frozenset({ProtocolKind.OBFUSCATED_3P})


def obfuscate_hash(h: HashVector, z: HashVector | None, perm: Permutation) -> HashVector:
    """Append padding z (None = no padding) to h and permute the M+P slots.
    concat_hashes and apply_permutation refuse a mismatched alphabet or size."""
    return apply_permutation(h if z is None else concat_hashes(h, z), perm)


def deobfuscate_distance(d, d_tilde, m: int, p: int) -> Fraction:
    """Recover the mean over the M true slots from the padded mean:
    ((M+P) d - P d~) / M, exact in rational arithmetic."""
    m, p = _check_size(m, "M"), _check_size(p, "P", zero_ok=True)
    d = Fraction(d)
    d_tilde = Fraction(d_tilde) if p else Fraction(0)
    return ((m + p) * d - p * d_tilde) / m


class Session:
    """One role's view of one protocol run. Mutated only by its owner."""

    def __init__(self, session_id, role, kind, params, mode):
        self.session_id = session_id
        self.role = role
        self.kind = kind
        self.params = params
        self.mode = mode
        self.phase = Phase.START
        self.result: DistanceEstimate | None = None
        self.observed_mean: Fraction | None = None  # Charlie-visible mean
        self.true_mean: Fraction | None = None      # after de-obfuscation
        self.abort_reason: str | None = None
        # role-private material: the input until it is hashed, then only what
        # a later move reads
        self._x = None
        self._k: int | None = None
        self._m: int | None = None
        self._padding: tuple[int, Fraction] | None = None  # (P, d~) of a padded kind
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

    @property
    def averager(self) -> Role:
        """The party that averages the hashes: Charlie, or Alice in two-party."""
        return Role.CHARLIE if Role.CHARLIE in self.kind.parties else Role.ALICE

    @property
    def peers(self) -> list[Role]:
        """Every other party of the kind."""
        return [r for r in self.kind.parties if r != self.role]

    def abort(self, reason: str) -> list[Envelope]:
        """End the session as ABORTED and return an Abort for every other
        party of the kind. The only code that builds a session's Aborts."""
        self.phase = Phase.ABORTED
        self.abort_reason = reason
        return [self._envelope(Abort(reason=reason), r) for r in self.peers]

    # -------------------------------------------------------------- inbound

    def on_message(self, env: Envelope) -> list[Envelope]:
        """Advance the state machine by one received envelope.

        Raises ProtocolViolation on replayed, out-of-order, or wrong-sender
        messages, that is on any move _MOVES does not list; DimensionMismatch
        when sizes or alphabets disagree; whatever else a handler raises. Every
        ModHashError but a foreign session id ends the session through abort()
        and leaves its Aborts to the other parties in exc.aborts. A peer's
        Abort ends the session too, but is never answered.
        """
        if env.session_id != self.session_id:
            raise ProtocolViolation("message for a different session")
        try:
            if self.phase in (Phase.DONE, Phase.ABORTED):
                raise ProtocolViolation(f"message after {self.phase.name}")
            if env.kind != self.kind:
                raise ProtocolViolation(f"kind mismatch: session {self.kind.name}, message {env.kind.name}")
            if env.sender == self.role:
                raise ProtocolViolation("message from own role")
            body, name = env.body, type(env.body).__name__
            if isinstance(body, Abort):
                self.phase = Phase.ABORTED
                self.abort_reason = f"peer {env.sender.name} aborted: {body.reason}"
                return []
            move = _MOVES.get((self.role, self.phase, type(body)))
            if move is None:
                raise ProtocolViolation(f"unexpected {name} in phase {self.phase.name}")
            senders, handler = move
            if env.sender not in (senders or (self.averager,)):
                raise ProtocolViolation(f"{name} from {env.sender.name}")
            return handler(self, env)
        except ModHashError as exc:
            exc.aborts = self.abort(str(exc))
            raise

    # -------------------------------------------------------------- averager

    def _on_hash_submission(self, env: Envelope) -> list[Envelope]:
        """The averaging party pairs two submissions and returns their mean to
        every peer; in two-party, Alice's own hash is the first submission."""
        if env.sender in self._received:
            raise ProtocolViolation(f"duplicate hash submission from {env.sender.name}")
        v = env.body.vector
        if not self._received:
            self._received[env.sender] = v
            return []
        # refuses another alphabet or length, naming the later submission's first
        mean = mean_lee_distance(v, *self._received.values())
        if self.role == Role.CHARLIE:
            self.observed_mean = mean
            self.phase = Phase.DONE
        else:
            self._finish(mean)
        result = DistanceResult(mean_lee=mean, count=v.m)
        return [self._envelope(result, r) for r in self.peers]

    # -------------------------------------------------------------- owners

    def _on_key_share(self, env: Envelope) -> list[Envelope]:
        """Bob checks Alice's share against the agreed (k, M), the delta his
        estimate assumes and what his kind needs, then hashes as Alice did;
        hash_vector checks his input's length."""
        ks = env.body
        key = ks.key
        if self.params is not None and (key.k != self.params.k or key.m != self.params.m):
            raise DimensionMismatch(
                f"key share (k={key.k}, m={key.m}) disagrees with agreed "
                f"(k={self.params.k}, m={self.params.m})"
            )
        if key.delta != DEFAULT_DELTA:
            raise InvalidParameter(f"key share delta={key.delta!r}, but estimates assume {DEFAULT_DELTA!r}")
        if self.kind in _PADDED_KINDS:
            if ks.pad1 is None:  # a KeyShare holds both pads or neither
                raise ProtocolViolation(f"{self.kind.name} key share must carry both pads")
            if ks.permutation is None or ks.permutation.size != key.m + ks.pad1.m:
                raise ProtocolViolation(f"{self.kind.name} key share must carry a permutation of M+P slots")
        return self._hash_and_send(ks)

    def _hash_and_send(self, ks: KeyShare) -> list[Envelope]:
        """Both owners' one path from key share to hash: padded and permuted
        for a padded kind, then submitted to the averaging party, or kept as
        the first submission by Alice, who averages in two-party. The session
        keeps neither the key nor the share, only what a later move reads."""
        key = ks.key
        self._k, self._m = key.k, key.m
        h = hash_vector(key, self._x)
        self._x = None  # plaintext no longer needed
        if self.kind in _PADDED_KINDS:
            self._padding = (ks.pad1.m, mean_lee_distance(ks.pad1, ks.pad2))
            # Role.ALICE == 0 appends pad1, Role.BOB == 1 appends pad2
            h = obfuscate_hash(h, (ks.pad1, ks.pad2)[self.role], ks.permutation)
        if self.role == self.averager:
            self._received[self.role] = h
            self.phase = Phase.AWAIT_HASHES
            return []
        self.phase = Phase.AWAIT_RESULT
        return [self._envelope(HashSubmission(h), self.averager)]

    def _on_distance_result(self, env: Envelope) -> list[Envelope]:
        res, m = env.body, self._m
        p, d_tilde = self._padding or (0, 0)
        if res.count != m + p:
            raise DimensionMismatch(f"result covers {res.count} components, expected {m + p}")
        self._finish(deobfuscate_distance(res.mean_lee, d_tilde, m, p), res.mean_lee)
        return []

    def _finish(self, true_mean: Fraction, observed: Fraction | None = None):
        """Estimate from the owners' mean (observed: Charlie's, if he averaged).
        A mean outside [0, k/2] fits no pair of hashes: the result or the
        pads lied."""
        if not 0 <= true_mean <= Fraction(self._k, 2):
            raise DimensionMismatch(f"mean Lee distance {true_mean} outside [0, k/2]")
        self.observed_mean = true_mean if observed is None else observed
        self.true_mean = true_mean
        self.result = estimate_distance(true_mean, self._k, mode=self.mode)
        self.phase = Phase.DONE


# The one place that states what each role accepts in each phase:
# (role, phase, body type) -> (senders allowed, handler), where no senders
# means the kind's averaging party. An Abort from any peer ends a live
# session; every other move is a protocol violation.
_MOVES = {
    (Role.BOB, Phase.AWAIT_KEY, KeyShare): ((Role.ALICE,), Session._on_key_share),
    (Role.CHARLIE, Phase.AWAIT_HASHES, HashSubmission): ((Role.ALICE, Role.BOB), Session._on_hash_submission),
    (Role.ALICE, Phase.AWAIT_HASHES, HashSubmission): ((Role.BOB,), Session._on_hash_submission),
    (Role.ALICE, Phase.AWAIT_RESULT, DistanceResult): ((), Session._on_distance_result),
    (Role.BOB, Phase.AWAIT_RESULT, DistanceResult): ((), Session._on_distance_result),
}


def derive_session_id(seed: bytes) -> bytes:
    return subseed(seed, b"session")[:SESSION_ID_BYTES]


def start_session(
    role: Role,
    kind: ProtocolKind,
    params: ProtocolParams | None = None,
    *,
    x=None,
    seed: bytes | None = None,
    session_id: bytes | None = None,
    mode: EstimateMode = EstimateMode.RAW,
) -> tuple[Session, list[Envelope]]:
    """Create one role's session and return it with its initial envelopes.

    Alice needs her vector; her key material and the session id derive from
    seed, or from fresh random bytes without one: pass a seed only to
    reproduce a run. Bob needs his vector (the key share tells him the
    rest); Charlie holds nothing and passively awaits both hash submissions.
    """
    role = Role(role)
    kind = ProtocolKind(kind)
    if role not in kind.parties:
        raise InvalidParameter(f"{role.name} takes no part in the {kind.name} protocol")
    if role == Role.CHARLIE and x is not None:
        raise ProtocolViolation("the third party must not hold an input vector")
    if role == Role.ALICE and seed is None:
        seed = secrets.token_bytes(32)
    if session_id is None:
        if seed is None:
            raise InvalidParameter("either a session id or a seed is required")
        session_id = derive_session_id(seed)
    if len(session_id) != SESSION_ID_BYTES:
        raise InvalidParameter("session id must be 16 bytes")

    session = Session(session_id, role, kind, params, mode)

    if role == Role.CHARLIE:
        session.phase = Phase.AWAIT_HASHES
        return session, []

    if x is None:
        raise InvalidParameter(f"{role.name} requires an input vector")
    session._x = np.asarray(x, dtype=np.float64)

    if role == Role.BOB:
        session.phase = Phase.AWAIT_KEY
        return session, []

    # Alice initiates: she derives the key share, sends it, and then hashes
    # under it exactly as Bob will.
    if params is None:
        raise InvalidParameter("Alice requires agreed protocol parameters")
    padded = kind in _PADDED_KINDS
    if padded and params.padding < 1:
        raise InvalidParameter(f"the {kind.name} protocol requires padding >= 1")
    frame = wire.key_share_frame_length(params.m, len(session._x), params.padding if padded else 0)
    if frame > 4 + wire.MAX_FRAME_LENGTH:
        raise InvalidParameter(f"this key share needs a {frame}-byte frame, above the wire's cap")
    key = generate_key(params.k, params.m, len(session._x), subseed(seed, b"key"))
    pad1 = pad2 = permutation = None
    if padded:
        p = params.padding
        pad1, pad2 = (
            HashVector(key.k, ChaChaStream(seed, label).integers_below(key.k, p))
            for label in (b"pad1", b"pad2")
        )
        permutation = Permutation.random(key.m + p, ChaChaStream(seed, b"perm"))
    share = KeyShare(key, permutation=permutation, pad1=pad1, pad2=pad2)
    return session, [session._envelope(share, Role.BOB), *session._hash_and_send(share)]


@dataclass(frozen=True)
class TranscriptEntry:
    """One delivered frame, with routing metadata for audits. data is the
    bytearray encode_envelope returned."""

    sender: Role
    recipient: Role
    data: bytearray


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
    seed: bytes | None = None,
    *,
    mode: EstimateMode = EstimateMode.RAW,
) -> LocalRun:
    """Run every role of one protocol in-process, handing each envelope
    straight to its recipient's session.

    Each hop is serialized to wire bytes (recorded in the transcript) and
    decoded at the recipient, so a local run exercises the exact bytes a
    networked run would. A session error is re-raised once the Aborts it
    carries are recorded. Deterministic given a seed: same inputs and seed,
    same transcript. Without one, Alice draws fresh key material.
    """
    kind = ProtocolKind(kind)
    common = dict(params=params, mode=mode)
    alice, outgoing = start_session(Role.ALICE, kind, x=x1, seed=seed, **common)
    bob, _ = start_session(Role.BOB, kind, x=x2, session_id=alice.session_id, **common)
    sessions = {Role.ALICE: alice, Role.BOB: bob}
    if Role.CHARLIE in kind.parties:
        sessions[Role.CHARLIE], _ = start_session(Role.CHARLIE, kind, session_id=alice.session_id)

    transcript: list[TranscriptEntry] = []
    queue = deque(outgoing)
    del outgoing
    try:
        while queue:
            env = queue.popleft()
            data = wire.encode_envelope(env)
            recipient = env.recipient
            transcript.append(TranscriptEntry(env.sender, recipient, data))
            del env  # its frame stands for it: a key share's A is freed before Bob decodes his own
            queue.extend(sessions[recipient].on_message(wire.decode_frame(data)))
    except ModHashError as exc:
        for abort_env in exc.aborts:
            transcript.append(
                TranscriptEntry(abort_env.sender, abort_env.recipient, wire.encode_envelope(abort_env))
            )
        raise

    for role, session in sessions.items():
        if role != Role.CHARLIE and not session.done:
            raise ProtocolViolation(f"{role.name} did not reach DONE")

    return LocalRun(
        kind=kind,
        alice_estimate=alice.result,
        bob_estimate=bob.result,
        mean_lee=alice.true_mean,
        charlie_observed=sessions[Role.CHARLIE].observed_mean if Role.CHARLIE in sessions else None,
        transcript=tuple(transcript),
    )
