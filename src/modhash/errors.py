"""Exception hierarchy shared by all modhash modules."""


class ModHashError(Exception):
    """Base class for every error raised by this package.

    aborts holds the Abort envelopes of the session this error ended, one for
    every other party (Session.abort builds them), so a driver can deliver
    them to the peers. It is empty for an error raised outside a session.
    """

    aborts = ()


class InvalidParameter(ModHashError):
    """A configuration value is out of its allowed domain (odd k, M <= 0, ...)."""


class InvalidInput(ModHashError):
    """A data value is malformed (non-finite vector, component outside Z_k, ...)."""


class DimensionMismatch(ModHashError):
    """Two objects that must agree on k / length / shape do not."""


class ProtocolViolation(ModHashError):
    """A session received a message it must not accept in its current state."""


class TransportClosed(ModHashError):
    """The peer endpoint closed or the connection was lost mid-session."""


class EncodingError(ModHashError):
    """A message cannot be serialized (value exceeds its wire-field range)."""


class DecodeError(ModHashError):
    """Base class for every wire-decoding failure. Decoding never raises
    anything else on arbitrary input bytes."""


class TruncatedFrame(DecodeError):
    """Fewer bytes than the frame header or declared length require."""


class VersionUnsupported(DecodeError):
    """Frame version byte is not a version this build speaks."""


class UnknownMessageType(DecodeError):
    """msg_type byte does not name a defined (family, kind, sender) combination."""


class ComponentOutOfRange(DecodeError):
    """A hash component >= k, or k itself outside the wire's supported range."""


class NonBijectivePermutation(DecodeError):
    """Permutation indices do not form a bijection on {0..size-1}."""


class ZeroDenominator(DecodeError):
    """A wire rational carried denominator 0."""


class MalformedPayload(DecodeError):
    """Payload bytes do not parse as the declared message type."""
