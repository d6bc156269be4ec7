"""Monte-Carlo harness: empirical mean-Lee curves, uniformity checks, CSV.

run_sweep draws, for each (k, distance) grid point, fresh input pairs at an
exact Euclidean distance and a fresh key per trial, and records how the
empirical mean Lee distance tracks the theoretical expectation curve. The
resulting table reproduces the saturating distance curves (identity below the
knee, plateau at k/4) observed in simulation.

Per-trial seeds are derived from (master seed, k, distance, trial index), so
trials are order-independent and every sweep is bit-reproducible.

A row of a sweep, and a uniformity check, run their trials in bulk
(core._hashes_under_fresh_keys). Each trial only sets up its streams and
draws its inputs and key into buffers shared by a block of trials; the
probit, the pair geometry, the projection, floor mod k and each trial's Lee
mean then run as whole-array passes over the block. Many small keys share
a block (a row of 100 trials at M = N = 1 takes one), and a key larger than
a block streams through it in rows, so a criterion-6 trial (M = 500,
N = 5000) never holds its 20 MB A. The bits are those the trials had one
at a time, down to each mean being exactly lee_sum / M.

The uniformity check's chi-square quantile comes from scipy.special, imported
where it is used: this module loads with the package in every process, and
scipy.stats, which would give the same quantile, costs more to import than
the rest of the package together.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .analysis import expected_lee
from .core import (
    DEFAULT_DELTA,
    _check_even_k,
    _check_real,
    _check_size,
    _hashes_under_fresh_keys,
    _lee_componentwise,
    generate_key,  # noqa: F401 -- not called here, but perfbench's tracer wraps this module's name
    hash_vector,  # noqa: F401 -- likewise
    mean_lee_distance,  # noqa: F401 -- likewise
)
from .errors import InvalidParameter
from .rng import check_seed, subseed


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
        if any(k >= 1 << 32 for k in self.k_values):  # each trial's seed packs k in 32 bits
            raise InvalidParameter("every k must be below 2**32")
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


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Empirical mean-Lee statistics against the theoretical curve, row per
    (k, distance) in grid order."""
    rows = []
    for k in spec.k_values:
        for distance in spec.distances:
            seeds = (_trial_seed(spec.seed, k, distance, trial) for trial in range(spec.trials))
            lee_sums = np.concatenate([
                _lee_componentwise(h[:, 0], h[:, 1], k).sum(axis=1)
                for h in _hashes_under_fresh_keys(k, spec.m, spec.n, spec.delta, seeds, distance=distance)
            ])
            # exact int / int, as float(mean_lee_distance(h1, h2)) divides
            means = np.array([lee_sum / spec.m for lee_sum in lee_sums.tolist()])
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
    m, n, samples = _check_size(m, "M"), _check_size(n, "N"), _check_size(samples, "samples")
    if samples < 100 * k:
        raise InvalidParameter(f"need at least 100*k = {100 * k} samples for a stable histogram")
    x = np.asarray(x, dtype=np.float64)
    check_seed(seed)
    seeds = (subseed(seed, b"uniformity" + struct.pack(">I", i)) for i in range(-(-samples // m)))
    counts = np.zeros(k, dtype=np.int64)
    for h in _hashes_under_fresh_keys(k, m, n, DEFAULT_DELTA, seeds, x=x, dither=not zero_dither):
        counts += np.bincount(h.ravel(), minlength=k)
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
