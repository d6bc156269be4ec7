"""Expectation curve, error bounds, parameter planning and distance estimation.

The expected per-component Lee distance between hashes of two vectors at
Euclidean distance d is E(d) = E[w(g)]: g ~ N(0, s^2) is the projected gap,
s = d / delta, and w is the period-k triangle wave (the Lee distance of a gap
to the nearest multiple of k). E is 0 at d = 0, effectively equals d up to a
knee that grows with k, and saturates at k/4. It is evaluated exactly in two
forms, one per regime of c = 2 (pi d / (delta k))^2 = 2 pi^2 s^2 / k^2:

  series (c >= pi/2), from the cosine series of w:

    E(d) = k/4 - (2k/pi^2) * sum_{j>=1} (2j-1)^{-2} exp(-c (2j-1)^2)

  dual (c < pi/2), from w(u) = |u| + 2 sum_{j>=1} (-1)^j (|u| - jk/2)_+ and
  E[(|g| - t)_+] = s sqrt(2/pi) h(t / (sqrt(2) s)):

    E(d) = s sqrt(2/pi) * (1 - 2 sum_{j>=1} (-1)^(j+1) h(j x)),
    h(y) = exp(-y^2) - sqrt(pi) y erfc(y),   x = k / (2 sqrt(2) s) = pi / (2 sqrt(c))

The series' j-th term decays as exp(-c (2j-1)^2), the dual's as
exp(-pi^2 j^2 / (4c)) (h(y) ~ exp(-y^2) / (2 y^2)). At c = pi/2 the first
terms of both decay as exp(-pi/2), and each side converges faster the farther
c moves into its own regime, so the switch there bounds the work on both
sides: terms whose exponent exceeds 40 (each below 4.3e-18, a few hundredths
of an ulp of the result) are dropped, which leaves at most 3 series terms or
5 dual terms. Neither form cancels badly in its regime: E >= 0.2 k on the
series side, and the dual bracket stays above 0.92. As c -> 0 the dual bracket
is exactly 1, so E = d at the default scale delta = sqrt(2/pi).

At the default scale the deviation from the identity is bounded by

    F(t, k) = t * exp(-k^2 / (4 pi t^2))

which is increasing in t and decreasing in k, so a target threshold T and
bias budget eps admit the closed-form alphabet choice k >= 2T sqrt(pi ln(T/eps)).
The Hoeffding bound sizes the hash length:

    M >= ln(2) (beta+1) k^2 / (8 eps^2)

makes the empirical mean Lee distance land within eps of E with probability
at least 1 - 2^-beta.
"""

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .core import DEFAULT_DELTA, _check_even_k, _check_real, _check_size
from .errors import InvalidInput, InvalidParameter
from .wire import MAX_WIRE_COUNT, MAX_WIRE_K

# Curve terms with exponent above this are below 4.3e-18 and are dropped.
_EXP_CUTOFF = 40.0
# Regime switch in c: the first series and dual terms both decay as exp(-pi/2).
_CROSSOVER = math.pi / 2
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def expected_lee(dist: float, k: int, delta: float = DEFAULT_DELTA) -> float:
    """Expected single-component Lee distance at Euclidean distance `dist`.

    Exact to a few ulps everywhere: the cosine series for c >= pi/2 (at most 3
    terms), the dual form for c < pi/2 (at most 5 terms after the leading
    s sqrt(2/pi)); see the module docstring for both forms and the crossover.
    The d = 0 point is the exact analytic zero.
    """
    k = _check_even_k(k)
    delta = _check_real(delta, "delta")
    dist = _check_real(dist, "dist", zero_ok=True)
    if dist == 0:
        return 0.0  # sum (2j-1)^-2 = pi^2/8 exactly cancels k/4
    r = math.pi * dist / (delta * k)
    c = 2.0 * r * r  # inf rather than OverflowError far past saturation
    if c >= _CROSSOVER:
        total, odd = math.exp(-c), 3
        while c * odd * odd <= _EXP_CUTOFF:
            total += math.exp(-c * odd * odd) / (odd * odd)
            odd += 2
        return k / 4.0 - (2.0 * k / math.pi**2) * total
    x = delta * k / (2.0 * math.sqrt(2.0) * dist)  # pi / (2 sqrt(c)), inf if c underflows
    bracket, sign, j, y = 1.0, -2.0, 1, x
    while y * y <= _EXP_CUTOFF:
        bracket += sign * (math.exp(-y * y) - _SQRT_PI * y * math.erfc(y))
        sign, j = -sign, j + 1
        y = j * x
    return dist * (_SQRT_2_OVER_PI / delta) * bracket


def expected_lee_bounds(dist: float, k: int, delta: float = DEFAULT_DELTA) -> tuple[float, float]:
    """Two-sided sandwich around expected_lee from the first series term:

    k/4 (1 - e^-c)  <=  E  <=  k/4 - (2k/pi^2) e^-c,   c = 2 (pi dist / (delta k))^2.
    """
    k = _check_even_k(k)
    delta = _check_real(delta, "delta")
    dist = _check_real(dist, "dist", zero_ok=True)
    r = math.pi * dist / (delta * k)
    e1 = math.exp(-2.0 * r * r)  # 0 rather than OverflowError far past saturation
    lower = (k / 4.0) * (1.0 - e1)
    upper = k / 4.0 - (2.0 * k / math.pi**2) * e1
    return lower, upper


def bias_bound(dist: float, k: int) -> float:
    """F(t, k) = t exp(-k^2 / (4 pi t^2)): deviation of expected_lee from the
    identity, valid at the default delta = sqrt(2/pi)."""
    k = _check_even_k(k)
    dist = _check_real(dist, "dist", zero_ok=True, error=InvalidInput)
    scale = 4.0 * math.pi * dist * dist
    if scale == 0:
        return 0.0  # dist = 0, or a dist whose square underflows: F is 0 to the last bit
    return dist * math.exp(-(k * k) / scale)


def plan_k(threshold: float, epsilon_bias: float) -> int:
    """Smallest even k with F(threshold, k) <= epsilon_bias; InvalidParameter
    if it is above MAX_WIRE_K, the largest k the wire carries.

    Starts from the closed-form inversion 2T sqrt(pi ln(T/eps)) rounded up to
    even, then walks by 2 in either direction until minimal, since the closed
    form is a derived starting point rather than a stated bound. A start
    past the wire's k is capped there, so no arithmetic runs on a huge k.
    """
    threshold = _check_real(threshold, "threshold")
    epsilon_bias = _check_real(epsilon_bias, "epsilon_bias")
    if epsilon_bias >= threshold:
        return 2  # F(T, k) < T for every k
    root = threshold * math.sqrt(math.pi * math.log(threshold / epsilon_bias))  # inf past the float range
    k = max(2 * math.ceil(min(root, MAX_WIRE_K)), 2)
    while k <= MAX_WIRE_K and bias_bound(threshold, k) > epsilon_bias:
        k += 2
    while k > 2 and bias_bound(threshold, k - 2) <= epsilon_bias:
        k -= 2
    if k > MAX_WIRE_K:
        raise InvalidParameter(
            f"threshold {threshold:g} at bias {epsilon_bias:g} needs k above {MAX_WIRE_K}, the wire's largest"
        )
    return k


def plan_m(k: int, epsilon_stat: float, beta: int) -> int:
    """Hash length meeting the Hoeffding bound: ceil(ln2 (beta+1) k^2 / (8 eps^2));
    InvalidParameter if it is above MAX_WIRE_COUNT, the largest count the
    wire carries."""
    k = _check_even_k(k)
    epsilon_stat = _check_real(epsilon_stat, "epsilon_stat")
    bound = _hoeffding_rhs(k, epsilon_stat, _check_size(beta, "beta"))
    if bound > MAX_WIRE_COUNT:
        raise InvalidParameter(
            f"epsilon_stat {epsilon_stat:g} at k={k} needs M above {MAX_WIRE_COUNT}, the wire's largest count"
        )
    return max(1, math.ceil(bound))


def _hoeffding_rhs(k: int, epsilon_stat: float, beta: int) -> float:
    """ln2 (beta+1) k^2 / (8 eps^2): inf where eps^2 underflows, 0 where it overflows."""
    square = epsilon_stat * epsilon_stat
    if square == 0:
        return math.inf
    return math.log(2.0) * (beta + 1) * k * k / (8.0 * square)


@dataclass(frozen=True)
class ProtocolParams:
    """Agreed threshold/precision intent plus the derived (k, M, P) plan.

    Invariants: F(threshold, k) <= epsilon_bias and M meets the Hoeffding
    bound for (k, epsilon_stat, beta); epsilon_bias + epsilon_stat = epsilon.
    The wire carries the session: k <= MAX_WIRE_K and M + P <= MAX_WIRE_COUNT.
    """

    threshold: float
    epsilon: float
    beta: int
    k: int
    m: int
    epsilon_bias: float
    epsilon_stat: float
    padding: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k", _check_even_k(self.k))
        if self.k > MAX_WIRE_K:
            raise InvalidParameter(f"k={self.k} above {MAX_WIRE_K}, the wire's largest")
        _check_real(self.threshold, "threshold")
        if self.epsilon <= 0 or self.epsilon_bias <= 0 or self.epsilon_stat <= 0:
            raise InvalidParameter("epsilon budgets must be positive")
        if abs(self.epsilon_bias + self.epsilon_stat - self.epsilon) > 1e-9 * self.epsilon:
            raise InvalidParameter("epsilon_bias + epsilon_stat must equal epsilon")
        object.__setattr__(self, "beta", _check_size(self.beta, "beta"))
        object.__setattr__(self, "m", _check_size(self.m, "M"))
        object.__setattr__(self, "padding", _check_size(self.padding, "padding", zero_ok=True))
        if self.m + self.padding > MAX_WIRE_COUNT:
            raise InvalidParameter(
                f"M={self.m} plus padding {self.padding} exceed {MAX_WIRE_COUNT}, the wire's largest count"
            )
        if bias_bound(self.threshold, self.k) > self.epsilon_bias * (1 + 1e-12):
            raise InvalidParameter("k too small: bias bound exceeds epsilon_bias at the threshold")
        if self.m < _hoeffding_rhs(self.k, self.epsilon_stat, self.beta) * (1 - 1e-12):
            raise InvalidParameter("M below the Hoeffding bound for (k, epsilon_stat, beta)")

    @classmethod
    def from_dimensions(
        cls,
        k: int,
        m: int,
        beta: int = 10,
        padding: int | None = None,
    ) -> "ProtocolParams":
        """Back-solve a consistent parameter set for a chosen (k, M).

        epsilon_stat is set so M meets the Hoeffding bound with equality; the
        threshold is k/4, with epsilon_bias = F(k/4, k) = (k/4) e^(-4/pi) > 0.
        """
        k = _check_even_k(k)
        m, beta = _check_size(m, "M"), _check_size(beta, "beta")
        eps_stat = math.sqrt(_hoeffding_rhs(k, 1.0, beta) / m)
        t = k / 4.0
        eps_bias = bias_bound(t, k)
        p = 10 * m if padding is None else padding
        return cls(
            threshold=t,
            epsilon=eps_bias + eps_stat,
            beta=beta,
            k=k,
            m=m,
            epsilon_bias=eps_bias,
            epsilon_stat=eps_stat,
            padding=p,
        )


def plan_parameters(threshold: float, epsilon: float, beta: int) -> ProtocolParams:
    """Split the precision budget evenly between bias and statistical error,
    then derive (k, M) and a default obfuscation padding of 10 M."""
    epsilon = _check_real(epsilon, "epsilon")
    half = epsilon / 2.0
    if half == 0:
        raise InvalidParameter(f"epsilon={epsilon!r} is too small to split: half of it rounds to 0")
    k = plan_k(threshold, half)
    m = plan_m(k, half, beta)
    return ProtocolParams(
        threshold=float(threshold),
        epsilon=float(epsilon),
        beta=int(beta),
        k=k,
        m=m,
        epsilon_bias=half,
        epsilon_stat=half,
        padding=10 * m,
    )


class EstimateMode(Enum):
    RAW = "raw"
    CURVE_INVERTED = "curve-inverted"


@dataclass(frozen=True)
class DistanceEstimate:
    """Outcome of a protocol run: a numeric distance or the saturation marker.

    value is None exactly when the mean Lee distance sits on the k/4 plateau,
    where the curve reveals only "farther than the threshold".
    """

    mean_lee: Fraction
    k: int
    value: float | None
    mode: EstimateMode = field(default=EstimateMode.RAW, compare=False)

    @property
    def saturated(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return "SATURATED" if self.saturated else repr(self.value)


def _bits_of(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double_of(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _invert_curve(target: float, k: int, delta: float) -> float:
    """Solve expected_lee(d, k, delta) = target, 0 <= target < k/4, to
    adjacent doubles: returns the smallest double d with E(d) >= target.

    The root is bracketed in closed form. E(d) <= d sqrt(2/pi) / delta, since
    w(u) <= |u|, puts it at or above target delta sqrt(pi/2); the sandwich's
    lower bound k/4 (1 - e^-c) puts it at or below the d where that bound
    reaches target. The bracket is widened by 2x each way against rounding.
    Bisection then runs on the bit patterns of the doubles, which positive
    doubles share with their order, so each step halves the doubles left in
    the bracket whatever the scale of d: about 55 steps in all.
    """
    if target <= 0.0:
        return 0.0
    lo = 0.5 * target * delta / _SQRT_2_OVER_PI
    hi = 2.0 * (delta * k / math.pi) * math.sqrt(-0.5 * math.log1p(-4.0 * target / k))
    lo_bits, hi_bits = _bits_of(lo), _bits_of(hi)
    while hi_bits - lo_bits > 1:
        mid_bits = (lo_bits + hi_bits) // 2
        if expected_lee(_double_of(mid_bits), k, delta) < target:
            lo_bits = mid_bits
        else:
            hi_bits = mid_bits
    return _double_of(hi_bits)


def estimate_distance(
    mean_lee,
    k: int,
    mode: EstimateMode = EstimateMode.RAW,
    delta: float = DEFAULT_DELTA,
) -> DistanceEstimate:
    """Turn an observed mean Lee distance into a distance estimate.

    RAW reports the mean itself (the curve is the identity below the knee);
    CURVE_INVERTED inverts the expectation curve to adjacent doubles. Means within
    k/400 of the k/4 plateau are reported as SATURATED in either mode, since
    there the curve carries no distance information.
    """
    k = _check_even_k(k)
    delta = _check_real(delta, "delta")
    frac = Fraction(mean_lee)
    if frac < 0 or frac > Fraction(k, 2):
        raise InvalidInput(f"mean Lee distance must lie in [0, k/2], got {frac}")
    target = float(frac)
    if target >= k / 4.0 - k / 400.0:
        return DistanceEstimate(mean_lee=frac, k=k, value=None, mode=mode)
    if mode is EstimateMode.RAW:
        value = target
    elif mode is EstimateMode.CURVE_INVERTED:
        value = _invert_curve(target, k, delta)
    else:
        raise InvalidParameter(f"unknown estimation mode: {mode!r}")
    return DistanceEstimate(mean_lee=frac, k=k, value=value, mode=mode)
