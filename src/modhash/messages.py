"""Wire-visible protocol vocabulary: roles, protocol kinds, message bodies.

Every message travels inside an Envelope carrying the 16-byte session id, the
protocol kind and the sender role; the recipient is routing metadata only and
never appears on the wire.
"""

from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

from .core import BinaryCode, HashKey, HashVector, Permutation, _ValueEq
from .errors import InvalidParameter

SESSION_ID_BYTES = 16


class Role(IntEnum):
    ALICE = 0
    BOB = 1
    CHARLIE = 2


class ProtocolKind(IntEnum):
    """The wire value of each kind is fixed; 1 is retired and names no kind."""

    FULL_KEY_3P = 0        # Alice shares (k, A, U) with Bob; Charlie averages
    TWO_PARTY_HAMMING = 2  # no third party; Alice takes the Hamming distance of ring codes
    OBFUSCATED_3P = 3      # uniform padding + permutation hide the distance from Charlie


THREE_PARTY_KINDS = frozenset({ProtocolKind.FULL_KEY_3P, ProtocolKind.OBFUSCATED_3P})


@dataclass(frozen=True, eq=False)
class KeyShare(_ValueEq):
    """Key material Alice sends Bob over the confidential channel: her
    HashKey, already checked when it was built, and, for the obfuscated kind
    only, `permutation` and `pad1`/`pad2`. Anything but a HashKey is refused.
    """

    key: HashKey
    permutation: Permutation | None = None
    pad1: HashVector | None = None
    pad2: HashVector | None = None

    def __post_init__(self):
        if not isinstance(self.key, HashKey):
            raise InvalidParameter(f"a key share holds a HashKey, not {type(self.key).__name__}")


@dataclass(frozen=True, eq=False)
class HashSubmission(_ValueEq):
    """A party's hash vector, as delivered to the averaging party."""

    vector: HashVector


@dataclass(frozen=True)
class DistanceResult:
    """Exact mean Lee distance over `count` components, in lowest terms."""

    mean_lee: Fraction
    count: int


@dataclass(frozen=True, eq=False)
class HammingRequest(_ValueEq):
    """Bob's ring code, sent to Alice, who computes the Hamming distance."""

    code: BinaryCode


@dataclass(frozen=True)
class HammingResponse:
    """Alice's answer: the Hamming distance between both parties' codes."""

    distance: int


@dataclass(frozen=True)
class Abort:
    reason: str


MessageBody = KeyShare | HashSubmission | DistanceResult | HammingRequest | HammingResponse | Abort


@dataclass(frozen=True)
class Envelope:
    """A message in flight. recipient is local routing only, excluded from
    equality and never serialized."""

    session_id: bytes
    kind: ProtocolKind
    sender: Role
    body: MessageBody
    recipient: Role | None = field(default=None, compare=False)

    def addressed_to(self, recipient: Role) -> "Envelope":
        return Envelope(self.session_id, self.kind, self.sender, self.body, recipient)
