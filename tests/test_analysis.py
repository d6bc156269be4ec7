import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modhash import (
    DEFAULT_DELTA,
    EstimateMode,
    InvalidInput,
    InvalidParameter,
    ProtocolParams,
    bias_bound,
    estimate_distance,
    expected_lee,
    expected_lee_bounds,
    plan_k,
    plan_m,
    plan_parameters,
)

# Frozen reference values for the expectation series, computed two independent
# ways by tests/oracle_reference.py (50-digit summation and quadrature of the
# half-normal x triangle-wave integral form); the two paths agree to ~1e-9.
SERIES_REFERENCE = {
    (0.5, 8): 0.49999999996741857,
    (1.0, 8): 0.9990417295048463,
    (2.0, 8): 1.7665443886960781,
    (2.0, 16): 1.9980834590096926,
    (3.0, 6): 1.4994771010328392,
}

# Frozen values over the whole accepted domain, from tests/oracle_reference.py
# at 50 digits: (dist, k, delta) -> (E, reference). "series" is the summed
# series, "quadrature" the integral of the half-normal density times the
# triangle wave, "both" means the two agree to 1e-35. At the default scale the
# points with d <= 1e-3 also meet |E - d| <= F(d, k), which underflows to 0.
# The crossover c = pi/2 sits at d = delta k / (2 sqrt(pi)) = 0.2251 k here and
# at 11.85 for (k, delta) = (28, 1.5); 65534 is the largest k on the wire.
DOMAIN_REFERENCE = {
    (1e-08, 2, DEFAULT_DELTA): (1e-08, "quadrature"),
    (1e-08, 28, DEFAULT_DELTA): (1e-08, "quadrature"),
    (1e-08, 256, DEFAULT_DELTA): (1e-08, "quadrature"),
    (1e-08, 65534, DEFAULT_DELTA): (1e-08, "quadrature"),
    (1e-06, 2, DEFAULT_DELTA): (1e-06, "quadrature"),
    (1e-06, 28, DEFAULT_DELTA): (1e-06, "quadrature"),
    (1e-06, 256, DEFAULT_DELTA): (1e-06, "quadrature"),
    (1e-06, 65534, DEFAULT_DELTA): (1e-06, "quadrature"),
    (0.0001, 2, DEFAULT_DELTA): (0.0001, "quadrature"),
    (0.0001, 28, DEFAULT_DELTA): (0.0001, "quadrature"),
    (0.0001, 256, DEFAULT_DELTA): (0.0001, "quadrature"),
    (0.0001, 65534, DEFAULT_DELTA): (0.0001, "quadrature"),
    (0.001, 2, DEFAULT_DELTA): (0.001, "quadrature"),
    (0.001, 28, DEFAULT_DELTA): (0.001, "quadrature"),
    (0.001, 256, DEFAULT_DELTA): (0.001, "quadrature"),
    (0.001, 65534, DEFAULT_DELTA): (0.001, "quadrature"),
    (0.44, 2, DEFAULT_DELTA): (0.40963231325985305, "both"),
    (0.46, 2, DEFAULT_DELTA): (0.42140107249635456, "both"),
    (6.16, 28, DEFAULT_DELTA): (5.734852385637943, "both"),
    (6.44, 28, DEFAULT_DELTA): (5.899615014948964, "both"),
    (56.32, 256, DEFAULT_DELTA): (52.43293609726119, "both"),
    (58.88, 256, DEFAULT_DELTA): (53.93933727953338, "both"),
    (14417.48, 65534, DEFAULT_DELTA): (13422.422008585605, "both"),
    (15072.82, 65534, DEFAULT_DELTA): (13808.048942488049, "both"),
    (20.0, 2, DEFAULT_DELTA): (0.5, "series"),
    (280.0, 28, DEFAULT_DELTA): (7.0, "series"),
    (2560.0, 256, DEFAULT_DELTA): (64.0, "series"),
    (655340.0, 65534, DEFAULT_DELTA): (16383.5, "series"),
    (200.0, 2, DEFAULT_DELTA): (0.5, "series"),
    (2800.0, 28, DEFAULT_DELTA): (7.0, "series"),
    (25600.0, 256, DEFAULT_DELTA): (64.0, "series"),
    (6553400.0, 65534, DEFAULT_DELTA): (16383.5, "series"),
    (1e-06, 28, 1.5): (5.319230405352436e-07, "quadrature"),
    (11.5, 28, 1.5): (5.708232336519154, "both"),
    (12.0, 28, 1.5): (5.867386022969934, "both"),
    (280.0, 28, 1.5): (7.0, "series"),
}


def reference_series_loop(dist, k, delta=DEFAULT_DELTA):
    """The block-doubling numpy summation expected_lee used before the dual
    form: accurate where the series converges in its first block."""
    if dist == 0:
        return 0.0
    c = 2.0 * (math.pi * dist / (delta * k)) ** 2
    total, start, block = 0.0, 1, 4096
    while start <= 1_000_000:
        stop = min(start + block - 1, 1_000_000)
        odd = 2.0 * np.arange(start, stop + 1, dtype=np.float64) - 1.0
        terms = np.exp(-c * odd * odd) / (odd * odd)
        total += float(terms.sum())
        if terms[-1] < 1e-15:
            break
        start, block = stop + 1, min(block * 2, 1 << 18)
    return k / 4.0 - (2.0 * k / math.pi**2) * total


def test_zero_distance_is_exactly_zero():
    for k in range(2, 66, 2):
        assert expected_lee(0.0, k) == 0.0
        assert expected_lee(0, k, 2.5) == 0.0


def test_series_matches_frozen_oracle_values():
    for (d, k), want in SERIES_REFERENCE.items():
        assert expected_lee(d, k) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("point", list(DOMAIN_REFERENCE), ids=repr)
def test_curve_matches_oracle_over_accepted_domain(point):
    want, _reference = DOMAIN_REFERENCE[point]
    assert expected_lee(*point) == pytest.approx(want, rel=1e-12, abs=0)


def test_tiny_distances_are_the_identity():
    # The truncated series returned 1.64e-6 and 3.3e-3 for these two.
    assert expected_lee(1e-6, 28) == pytest.approx(1e-6, rel=1e-12, abs=0)
    assert expected_lee(1e-4, 65534) == pytest.approx(1e-4, rel=1e-12, abs=0)
    assert expected_lee(5e-324, 65534) == 5e-324
    assert expected_lee(1e200, 8) == 2.0  # far past saturation, no overflow


def test_curve_matches_reference_series_loop_where_it_converged():
    for k in (2, 8, 28, 256, 65534):
        for d in np.linspace(0.05 * k, 3.0 * k, 60):
            want = reference_series_loop(float(d), k)
            assert expected_lee(float(d), k) == pytest.approx(want, rel=1e-15, abs=0), (d, k)


@pytest.mark.parametrize("delta", [DEFAULT_DELTA, 1.5])
@pytest.mark.parametrize("k", [2, 28, 256, 65534])
def test_curve_is_continuous_and_monotone_across_crossover(k, delta):
    crossover = delta * k / (2.0 * math.sqrt(math.pi))  # c = pi/2
    grid = np.linspace(0.8 * crossover, 1.25 * crossover, 4001)
    vals = [expected_lee(float(d), k, delta) for d in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # 65 consecutive doubles around the switch: steps stay at rounding size
    d = crossover
    for _ in range(32):
        d = math.nextafter(d, 0.0)
    window = [d]
    for _ in range(64):
        window.append(math.nextafter(window[-1], math.inf))
    c = [2.0 * (math.pi * x / (delta * k)) ** 2 for x in window]
    assert c[0] < math.pi / 2 <= c[-1]
    vals = [expected_lee(x, k, delta) for x in window]
    ulp = math.ulp(vals[32])
    assert max(abs(b - a) for a, b in zip(vals, vals[1:])) <= 4 * ulp

def test_series_converges_to_quarter_k():
    for k in (4, 8, 16):
        val = expected_lee(100.0 * k, k)
        assert val == pytest.approx(k / 4.0, abs=1e-9)
        assert val <= k / 4.0


def test_series_monotone_and_bounded():
    for k in (2, 8, 24):
        grid = np.linspace(0.0, 3.0 * k, 120)
        vals = [expected_lee(float(d), k) for d in grid]
        assert all(v >= 0.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= k / 4.0 + 1e-12 for v in vals)


def test_sandwich_bounds_examples():
    lo, hi = expected_lee_bounds(0.0, 8)
    assert lo == 0.0
    assert hi == pytest.approx(2.0 - 16.0 / math.pi**2)
    lo, hi = expected_lee_bounds(2.0, 16)
    assert lo <= SERIES_REFERENCE[(2.0, 16)] <= hi


def test_sandwich_bounds_far_past_saturation():
    # Before, squaring pi d / (delta k) raised OverflowError for large finite d.
    assert expected_lee_bounds(1e200, 8) == (2.0, 2.0)


def test_sandwich_bounds_on_grid():
    for k in range(2, 22, 2):
        for d in np.linspace(0.0, 2.0 * k, 50):
            lo, hi = expected_lee_bounds(float(d), k)
            val = expected_lee(float(d), k)
            assert lo <= hi
            assert lo - 1e-12 <= val <= hi + 1e-12, (d, k)


def test_first_term_brackets_value():
    # keeping only the first series term brackets the true value at d = 1, k = 8
    d, k = 1.0, 8
    e1 = math.exp(-2.0 * (math.pi * d / (DEFAULT_DELTA * k)) ** 2)
    lower = k / 4.0 - (k / 4.0) * e1
    upper = k / 4.0 - (2.0 * k / math.pi**2) * e1
    assert lower <= SERIES_REFERENCE[(d, k)] <= upper


# ------------------------------------------------------------------ bias bound


def test_bias_bound_basics():
    assert bias_bound(0.0, 8) == 0.0
    assert bias_bound(1e-9, 8) < 1e-9
    assert bias_bound(10.0, 78) <= 0.1
    assert bias_bound(10.0, 76) > 0.1


def test_bias_bound_monotone():
    for k in (6, 20, 64):
        samples = [bias_bound(t, k) for t in np.linspace(0.1, 30, 40)]
        assert all(b > a for a, b in zip(samples, samples[1:]))
    for t in (0.5, 3.0, 12.0):
        samples = [bias_bound(t, k) for k in range(2, 40, 2)]
        assert all(b < a for a, b in zip(samples, samples[1:]))


def test_bias_bound_rejects_negative_distance():
    with pytest.raises(InvalidInput):
        bias_bound(-1.0, 8)


def test_bias_bound_caps_identity_deviation_on_grid():
    # |E(d, k) - d| <= F(d, k) at the default scale, everywhere sampled
    for k in range(2, 22, 2):
        for d in np.linspace(0.04 * k, 2.0 * k, 50):
            err = abs(expected_lee(float(d), k) - float(d))
            assert err <= bias_bound(float(d), k) + 1e-12, (d, k)


# ------------------------------------------------------------------ planning


def test_plan_k_reference_point():
    assert plan_k(10.0, 0.1) == 78


def test_plan_k_is_minimal_even():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = float(rng.uniform(0.3, 40.0))
        eps = float(rng.uniform(0.01, 1.0) * t)
        k = plan_k(t, eps)
        assert k % 2 == 0 and k >= 2
        assert bias_bound(t, k) <= eps
        if k > 2:
            assert bias_bound(t, k - 2) > eps


def test_plan_k_degenerate_budget():
    assert plan_k(1.0, 2.0) == 2


def test_plan_k_rejects_bad_inputs():
    with pytest.raises(InvalidParameter):
        plan_k(0.0, 0.1)
    with pytest.raises(InvalidParameter):
        plan_k(1.0, 0.0)


def test_plan_m_reference_points():
    assert plan_m(8, 0.5, 10) == 244
    assert plan_m(2, 1.0, 1) == 1
    # frozen from the bound formula itself (50-digit arithmetic)
    assert plan_m(78, 0.1, 10) == 579853


def test_plan_m_quadratic_in_k():
    base = plan_m(8, 0.25, 10)
    assert abs(plan_m(16, 0.25, 10) - 4 * base) <= 4


def test_plan_m_meets_its_bound():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = 2 * int(rng.integers(1, 40))
        eps = float(rng.uniform(0.05, 2.0))
        beta = int(rng.integers(1, 30))
        m = plan_m(k, eps, beta)
        assert m >= math.log(2) * (beta + 1) * k * k / (8 * eps * eps) - 1e-9


def test_plan_parameters_reference():
    params = plan_parameters(10.0, 0.2, 10)
    assert params.k == 78
    assert params.m == plan_m(78, 0.1, 10)
    assert params.epsilon_bias == params.epsilon_stat == 0.1
    assert bias_bound(params.threshold, params.k) <= params.epsilon_bias
    assert params.m >= math.log(2) * 11 * params.k**2 / (8 * params.epsilon_stat**2)


def test_plan_parameters_small_k_step():
    # F(1, 2) = e^{-1/pi} ~ 0.727 > 0.5, so k = 4 is the smallest fit
    params = plan_parameters(1.0, 1.0, 10)
    assert params.k == 4


def test_params_invariants_enforced():
    with pytest.raises(InvalidParameter):
        ProtocolParams(
            threshold=10.0, epsilon=0.2, beta=10, k=4, m=10**6,
            epsilon_bias=0.1, epsilon_stat=0.1,
        )
    with pytest.raises(InvalidParameter):
        ProtocolParams(
            threshold=10.0, epsilon=0.2, beta=10, k=78, m=10,
            epsilon_bias=0.1, epsilon_stat=0.1,
        )


_POSITIVE_FLOATS = st.floats(min_value=5e-324, max_value=1.7e308)


@settings(max_examples=300, deadline=None)
@given(threshold=_POSITIVE_FLOATS, epsilon=_POSITIVE_FLOATS, beta=st.integers(1, 64))
@example(threshold=1e155, epsilon=1.0, beta=10)  # OverflowError before
@example(threshold=1e-300, epsilon=1e-301, beta=10)  # ZeroDivisionError before
@example(threshold=5.0, epsilon=1e-200, beta=10)  # ZeroDivisionError before
@example(threshold=1e6, epsilon=1.0, beta=10)  # k = 13,502,636 before
def test_plan_parameters_returns_a_plan_or_refuses_it(threshold, epsilon, beta):
    try:
        params = plan_parameters(threshold, epsilon, beta)
    except InvalidParameter:
        return
    assert isinstance(params, ProtocolParams)
    assert 2 <= params.k <= 65534 and params.m + params.padding <= 2**32 - 1


def test_the_planner_refuses_what_the_wire_cannot_carry():
    with pytest.raises(InvalidParameter, match="needs k above 65534"):
        plan_k(1e6, 0.5)
    with pytest.raises(InvalidParameter, match="needs M above 4294967295"):
        plan_m(6, 1e-5, 10)
    assert plan_k(0.5, 0.0002) == 6
    assert 4294967295 // 11 < plan_m(6, 0.0002, 10) <= 4294967295  # fits, but M + 10 M does not
    with pytest.raises(InvalidParameter, match=r"plus padding \d+ exceed 4294967295"):
        plan_parameters(0.5, 0.0004, 10)
    assert bias_bound(1e-300, 2) == 0.0  # its square underflows; ZeroDivisionError before


def test_protocol_params_refuse_what_the_wire_cannot_carry():
    # M + P within 2**32 - 1, with the default P = 10 M: 11 * 390,451,572 = 2**32 - 3
    assert ProtocolParams.from_dimensions(8, 390_451_572).padding == 3_904_515_720
    for m in (390_451_573, 2**32 - 1):
        with pytest.raises(InvalidParameter, match="exceed 4294967295, the wire's largest count"):
            ProtocolParams.from_dimensions(8, m)
    assert ProtocolParams.from_dimensions(8, 2**32 - 1, padding=0).m == 2**32 - 1
    assert ProtocolParams.from_dimensions(65_534, 64).k == 65_534
    with pytest.raises(InvalidParameter, match="k=65536 above 65534"):
        ProtocolParams.from_dimensions(65_536, 64)


def test_params_from_dimensions_consistent():
    params = ProtocolParams.from_dimensions(8, 64)
    assert params.k == 8 and params.m == 64
    assert params.padding == 640


# ------------------------------------------------------------------ estimation


def test_estimate_zero_both_modes():
    for mode in EstimateMode:
        est = estimate_distance(Fraction(0), 8, mode)
        assert est.value == 0.0
        assert not est.saturated


def test_estimate_saturates_at_quarter_k():
    est = estimate_distance(Fraction(2), 8, EstimateMode.CURVE_INVERTED)
    assert est.saturated
    assert str(est) == "SATURATED"
    est = estimate_distance(Fraction(199, 100), 8, EstimateMode.CURVE_INVERTED)
    assert est.saturated  # within the default k/400 margin


def test_estimate_raw_returns_mean():
    est = estimate_distance(Fraction(5, 2), 16, EstimateMode.RAW)
    assert est.value == 2.5
    assert est.mean_lee == Fraction(5, 2)


def test_estimate_range_check():
    with pytest.raises(InvalidInput):
        estimate_distance(Fraction(5), 8, EstimateMode.RAW)
    with pytest.raises(InvalidInput):
        estimate_distance(Fraction(-1, 2), 8, EstimateMode.RAW)


def test_curve_inversion_roundtrip():
    for k in (8, 16):
        for d in (0.25, 0.5, 1.0, 1.5, 2.0):
            if d >= k / 4.0:
                continue
            mean = expected_lee(d, k)
            est = estimate_distance(Fraction(mean).limit_denominator(10**12), k, EstimateMode.CURVE_INVERTED)
            assert not est.saturated
            assert est.value == pytest.approx(d, abs=1e-6)


def test_curve_inversion_roundtrip_at_tiny_distances():
    # The inversion bisects to adjacent doubles, so it resolves d to relative
    # precision at every scale.
    params = plan_parameters(5.0, 1.0, 10)
    for d in (1e-300, 1e-6, 1e-4, params.threshold / 2):
        est = estimate_distance(Fraction(expected_lee(d, params.k)), params.k, EstimateMode.CURVE_INVERTED)
        assert abs(est.value - d) <= 1e-12 * d, d
