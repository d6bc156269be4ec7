"""Privacy-preserving Euclidean distance estimation from keyed modular hashes.

Parties hash real vectors as floor(Ax + U) mod k under a shared secret key;
mean Lee distances between hashes estimate the Euclidean distance below a
plannable threshold and saturate above it. Three runnable multi-party
protocols exchange the hashes without exposing inputs, and the analysis
and simulation layers plan parameters and validate the statistics.
"""

from .analysis import (
    DistanceEstimate,
    EstimateMode,
    ProtocolParams,
    bias_bound,
    estimate_distance,
    expected_lee,
    expected_lee_bounds,
    plan_k,
    plan_m,
    plan_parameters,
)
from .core import (
    DEFAULT_DELTA,
    BinaryCode,
    HashKey,
    HashVector,
    Permutation,
    apply_permutation,
    concat_hashes,
    decode_binary_to_lee,
    encode_lee_to_binary,
    generate_key,
    hamming_distance,
    hash_vector,
    lee_distance,
    mean_lee_distance,
)
from .errors import (
    DecodeError,
    DimensionMismatch,
    EncodingError,
    InvalidInput,
    InvalidParameter,
    ModHashError,
    ProtocolViolation,
    TransportClosed,
)
from .messages import Envelope, ProtocolKind, Role
from .protocol import (
    LocalRun,
    Session,
    deobfuscate_distance,
    drive_local,
    obfuscate_hash,
    start_session,
)
from .simulate import (
    SweepRow,
    SweepSpec,
    UniformityReport,
    default_distance_grid,
    emit_csv,
    run_sweep,
    theoretical_curve,
    uniformity_report,
)
from .transport import (
    BobServer,
    CharlieServer,
    key_from_json,
    key_to_json,
    run_over_tcp,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryCode",
    "BobServer",
    "CharlieServer",
    "DEFAULT_DELTA",
    "DecodeError",
    "DimensionMismatch",
    "DistanceEstimate",
    "EncodingError",
    "Envelope",
    "EstimateMode",
    "HashKey",
    "HashVector",
    "InvalidInput",
    "InvalidParameter",
    "LocalRun",
    "ModHashError",
    "Permutation",
    "ProtocolKind",
    "ProtocolParams",
    "ProtocolViolation",
    "Role",
    "Session",
    "SweepRow",
    "SweepSpec",
    "TransportClosed",
    "UniformityReport",
    "apply_permutation",
    "bias_bound",
    "concat_hashes",
    "decode_binary_to_lee",
    "default_distance_grid",
    "deobfuscate_distance",
    "drive_local",
    "emit_csv",
    "encode_lee_to_binary",
    "estimate_distance",
    "expected_lee",
    "expected_lee_bounds",
    "generate_key",
    "hamming_distance",
    "hash_vector",
    "key_from_json",
    "key_to_json",
    "lee_distance",
    "mean_lee_distance",
    "obfuscate_hash",
    "plan_k",
    "plan_m",
    "plan_parameters",
    "run_over_tcp",
    "run_sweep",
    "start_session",
    "theoretical_curve",
    "uniformity_report",
]
