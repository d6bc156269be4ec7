"""Monte-Carlo harness: empirical mean-Lee curves, uniformity checks, CSV.

run_sweep draws, for each (k, distance) grid point, fresh input pairs at an
exact Euclidean distance and a fresh key per trial, and records how the
empirical mean Lee distance tracks the theoretical expectation curve. The
resulting table reproduces the saturating distance curves (identity below the
knee, plateau at k/4) observed in simulation.

Per-trial seeds are derived from (master seed, k, distance, trial index), so
trials are order-independent and every sweep is bit-reproducible.

The uniformity check's chi-square quantile comes from scipy.special, imported
where it is used: this module loads with the package in every process, and
scipy.stats, which would give the same quantile, costs more to import than
the rest of the package together.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .analysis import expected_lee
from .core import (
    DEFAULT_DELTA,
    HashKey,
    _check_even_k,
    _check_real,
    _check_size,
    generate_key,
    hash_vector,
    mean_lee_distance,
)
from .errors import InvalidParameter
from .rng import ChaChaStream, check_seed, subseed


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for one empirical sweep."""

    k_values: tuple[int, ...]
    m: int
    n: int
    distances: tuple[float, ...]
    trials: int
    seed: bytes
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(_check_even_k(k) for k in self.k_values))
        object.__setattr__(
            self, "distances", tuple(_check_real(d, "every distance", zero_ok=True) for d in self.distances)
        )
        if not self.k_values:
            raise InvalidParameter("at least one k is required")
        object.__setattr__(self, "m", _check_size(self.m, "M"))
        object.__setattr__(self, "n", _check_size(self.n, "N"))
        object.__setattr__(self, "trials", _check_size(self.trials, "trials"))
        if list(self.distances) != sorted(self.distances):
            raise InvalidParameter("distances must be sorted ascending")
        _check_real(self.delta, "delta")
        check_seed(self.seed)


@dataclass(frozen=True)
class SweepRow:
    """One (k, distance) grid point of a finished sweep."""

    k: int
    distance: float
    empirical_mean: float
    empirical_std: float
    expected: float
    abs_deviation: float


def _trial_seed(master: bytes, k: int, distance: float, trial: int) -> bytes:
    return subseed(master, b"trial" + struct.pack(">IdI", k, distance, trial))


def _pair_at_distance(stream: ChaChaStream, n: int, distance: float) -> tuple[np.ndarray, np.ndarray]:
    """x1 random normal; x2 = x1 + distance * (uniform random direction)."""
    x1 = stream.standard_normal(n)
    norm = 0.0
    while norm == 0.0:  # probability zero, but stay total
        direction = stream.standard_normal(n)
        # not np.linalg.norm: from ~10^4 values its BLAS ddot is threaded, and
        # the workers spin on after it returns
        norm = math.sqrt(np.einsum("i,i->", direction, direction))
    return x1, x1 + (distance / norm) * direction


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Empirical mean-Lee statistics against the theoretical curve, row per
    (k, distance) in grid order."""
    rows = []
    for k in spec.k_values:
        for distance in spec.distances:
            means = np.empty(spec.trials)
            for trial in range(spec.trials):
                tseed = _trial_seed(spec.seed, k, distance, trial)
                x1, x2 = _pair_at_distance(ChaChaStream(tseed, b"inputs"), spec.n, distance)
                key = generate_key(k, spec.m, spec.n, subseed(tseed, b"key"), spec.delta)
                means[trial] = float(mean_lee_distance(hash_vector(key, x1), hash_vector(key, x2)))
            mean = float(means.mean())
            std = float(means.std(ddof=1)) if spec.trials > 1 else 0.0
            expected = expected_lee(distance, k, spec.delta)
            rows.append(
                SweepRow(
                    k=k,
                    distance=distance,
                    empirical_mean=mean,
                    empirical_std=std,
                    expected=expected,
                    abs_deviation=abs(mean - expected),
                )
            )
    return rows


def theoretical_curve(k: int, delta: float, distances) -> list[tuple[float, float]]:
    """Tabulate the expectation series over a distance grid."""
    return [(float(d), expected_lee(float(d), k, delta)) for d in distances]


def default_distance_grid(k: int, points: int = 41) -> tuple[float, ...]:
    """0 to k in (points - 1) equal steps: the scale where knee and plateau show."""
    if points < 2:
        raise InvalidParameter("need at least two grid points")
    return tuple(k * i / (points - 1) for i in range(points))


def _chi2_threshold(dof):
    """The 0.999 quantile of the chi-square distribution with dof degrees of
    freedom (scalar or array): the expression scipy.stats.chi2.ppf evaluates,
    so the same double."""
    from scipy.special import gammaincinv

    return 2 * gammaincinv(dof / 2, 0.999)


@dataclass(frozen=True)
class UniformityReport:
    """Chi-square check of hash-component uniformity across fresh keys."""

    k: int
    samples: int
    counts: tuple[int, ...]
    statistic: float
    dof: int
    threshold: float
    passed: bool


def uniformity_report(
    k: int,
    m: int,
    n: int,
    x,
    samples: int,
    seed: bytes,
    zero_dither: bool = False,
) -> UniformityReport:
    """Histogram hash components of a fixed input across fresh keys and test
    against the uniform distribution at the 0.999 chi-square level.

    Keys are drawn until at least `samples` component observations exist
    (ceil(samples / m) keys, all m components of each used). zero_dither
    replaces every key's dither with zeros -- a deliberately broken key
    family used as the negative control that gives this test its power.
    """
    k = _check_even_k(k)
    if samples < 100 * k:
        raise InvalidParameter(f"need at least 100*k = {100 * k} samples for a stable histogram")
    x = np.asarray(x, dtype=np.float64)
    check_seed(seed)
    n_keys = -(-samples // m)
    counts = np.zeros(k, dtype=np.int64)
    for i in range(n_keys):
        key = generate_key(k, m, n, subseed(seed, b"uniformity" + struct.pack(">I", i)))
        if zero_dither:
            key = HashKey(k=k, delta=key.delta, a=key.a, u=np.zeros(m))
        counts += np.bincount(hash_vector(key, x).components, minlength=k)
    total = int(counts.sum())
    expected = total / k
    statistic = float(((counts - expected) ** 2 / expected).sum())
    dof = k - 1
    threshold = float(_chi2_threshold(dof))
    return UniformityReport(
        k=k,
        samples=total,
        counts=tuple(int(c) for c in counts),
        statistic=statistic,
        dof=dof,
        threshold=threshold,
        passed=statistic < threshold,
    )


_CSV_HEADER = "k,distance,empirical_mean,empirical_std,expected_lee,abs_deviation"


def format_csv(rows) -> str:
    """Deterministic CSV text: header plus one line per row, 9 significant
    digits, newline-terminated."""
    lines = [_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.k},{r.distance:.9g},{r.empirical_mean:.9g},{r.empirical_std:.9g},"
            f"{r.expected:.9g},{r.abs_deviation:.9g}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(rows, path) -> None:
    """Write the sweep table; identical rows always produce identical bytes."""
    with open(path, "w", newline="") as fh:
        fh.write(format_csv(rows))
