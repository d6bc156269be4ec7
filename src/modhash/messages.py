"""Wire-visible protocol vocabulary: roles, protocol kinds, message bodies.

Every message travels inside an Envelope carrying the 16-byte session id, the
protocol kind and the sender role; the recipient is routing metadata only and
never appears on the wire.
"""

from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

from .core import HashKey, HashVector, Permutation, _ValueEq
from .errors import InvalidParameter

SESSION_ID_BYTES = 16


class Role(IntEnum):
    ALICE = 0
    BOB = 1
    CHARLIE = 2


class ProtocolKind(IntEnum):
    """The wire value of each kind is fixed; 1 is retired and names no kind."""

    FULL_KEY_3P = 0        # Alice shares (k, A, U) with Bob; Charlie averages
    TWO_PARTY_HAMMING = 2  # no third party; Bob submits his hash to Alice, who averages
    OBFUSCATED_3P = 3      # uniform padding + permutation hide the distance from Charlie

    @property
    def parties(self) -> tuple[Role, ...]:
        """The roles that take part in a session of this kind."""
        return _PARTIES[self]


THREE_PARTY_KINDS = frozenset({ProtocolKind.FULL_KEY_3P, ProtocolKind.OBFUSCATED_3P})
_PARTIES = {kind: tuple(Role) if kind in THREE_PARTY_KINDS else (Role.ALICE, Role.BOB) for kind in ProtocolKind}


@dataclass(frozen=True, eq=False)
class KeyShare(_ValueEq):
    """Key material Alice sends Bob over the confidential channel: her
    HashKey, already checked when it was built, and, for the obfuscated kind
    only, `permutation` and `pad1`/`pad2`. Anything but a HashKey is refused,
    and so are pads that are not both set, of one length, over the key's k.
    """

    key: HashKey
    permutation: Permutation | None = None
    pad1: HashVector | None = None
    pad2: HashVector | None = None

    def __post_init__(self):
        if not isinstance(self.key, HashKey):
            raise InvalidParameter(f"a key share holds a HashKey, not {type(self.key).__name__}")
        if (self.pad1 is None) != (self.pad2 is None):
            raise InvalidParameter("a key share carries both pads or neither")
        if self.pad1 is not None and not (self.pad1.m == self.pad2.m and self.pad1.k == self.pad2.k == self.key.k):
            raise InvalidParameter(f"the pads must have one length, over the key's alphabet Z_{self.key.k}")


@dataclass(frozen=True, eq=False)
class HashSubmission(_ValueEq):
    """A party's hash vector, as delivered to the averaging party: Charlie,
    or Alice in two-party."""

    vector: HashVector


@dataclass(frozen=True)
class DistanceResult:
    """Exact mean Lee distance over `count` components, in lowest terms."""

    mean_lee: Fraction
    count: int

    def __post_init__(self):
        if self.count < 1 or self.mean_lee < 0:
            raise InvalidParameter(f"mean {self.mean_lee} over {self.count}: a mean is >= 0 over a count >= 1")


@dataclass(frozen=True)
class Abort:
    reason: str


MessageBody = KeyShare | HashSubmission | DistanceResult | Abort


@dataclass(frozen=True)
class Envelope:
    """A message in flight. recipient is local routing only, excluded from
    equality and never serialized."""

    session_id: bytes
    kind: ProtocolKind
    sender: Role
    body: MessageBody
    recipient: Role | None = field(default=None, compare=False)
