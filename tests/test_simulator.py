import math

import numpy as np
import pytest
from scipy.stats import chi2

from modhash import (
    InvalidParameter,
    SweepSpec,
    default_distance_grid,
    run_sweep,
    theoretical_curve,
    uniformity_report,
)
from modhash.simulate import _chi2_threshold, emit_csv, format_csv
from modhash.wire import MAX_WIRE_K

SEED = bytes(range(32))


def _small_spec(**overrides):
    base = dict(
        k_values=(4, 8),
        m=64,
        n=32,
        distances=(0.0, 0.5, 1.0, 2.0),
        trials=4,
        seed=SEED,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_spec_validation():
    with pytest.raises(InvalidParameter):
        _small_spec(k_values=(5,))
    with pytest.raises(InvalidParameter):
        _small_spec(trials=0)
    with pytest.raises(InvalidParameter):
        _small_spec(distances=(1.0, 0.5))
    with pytest.raises(InvalidParameter):
        _small_spec(distances=(-1.0, 0.5))
    with pytest.raises(InvalidParameter):
        _small_spec(k_values=(8.5,))  # not truncated to 8
    with pytest.raises(InvalidParameter):
        _small_spec(distances=("0.5",))


def test_zero_distance_row_is_exact():
    rows = run_sweep(_small_spec())
    for row in rows:
        if row.distance == 0.0:
            assert row.empirical_mean == 0.0
            assert row.empirical_std == 0.0
            assert row.expected == 0.0
            assert row.abs_deviation == 0.0


def test_sweep_rows_follow_grid_order():
    spec = _small_spec()
    rows = run_sweep(spec)
    assert [(r.k, r.distance) for r in rows] == [
        (k, d) for k in spec.k_values for d in spec.distances
    ]


def test_sweep_is_reproducible():
    rows1 = run_sweep(_small_spec())
    rows2 = run_sweep(_small_spec())
    assert format_csv(rows1) == format_csv(rows2)


def test_sweep_tracks_theory_within_hoeffding_bands():
    spec = _small_spec(m=128, trials=8)
    rows = run_sweep(spec)
    for row in rows:
        band = 3.0 * (row.k / 2.0) / (2.0 * math.sqrt(spec.m * spec.trials))
        assert row.abs_deviation <= band, (row, band)


def test_sweep_saturates_far_out():
    spec = _small_spec(k_values=(8,), distances=(800.0,), m=128, trials=8)
    row = run_sweep(spec)[0]
    assert abs(row.empirical_mean - 2.0) < 0.25
    assert row.expected == pytest.approx(2.0, abs=1e-12)


def test_theoretical_curve_monotone_from_zero():
    pts = theoretical_curve(8, math.sqrt(2 / math.pi), default_distance_grid(8))
    assert pts[0] == (0.0, 0.0)
    vals = [e for _, e in pts]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 2.0


def test_default_grid_shape():
    grid = default_distance_grid(8)
    assert len(grid) == 41
    assert grid[0] == 0.0
    assert grid[-1] == 8.0
    assert grid[1] == pytest.approx(0.2)


def test_csv_format(tmp_path):
    rows = run_sweep(_small_spec(k_values=(4,), distances=(0.0, 1.0), trials=2))
    path = tmp_path / "sweep.csv"
    emit_csv(rows, path)
    data = path.read_bytes()
    assert data.endswith(b"\n")
    lines = data.decode().splitlines()
    assert lines[0] == "k,distance,empirical_mean,empirical_std,expected_lee,abs_deviation"
    assert len(lines) == 3
    # round-trip at 9 significant digits
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert int(fields[0]) == row.k
        assert float(fields[2]) == pytest.approx(row.empirical_mean, rel=1e-8)
        assert float(fields[4]) == pytest.approx(row.expected, rel=1e-8)


def test_csv_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == "k,distance,empirical_mean,empirical_std,expected_lee,abs_deviation\n"


def test_csv_deterministic_bytes(tmp_path):
    rows = run_sweep(_small_spec(k_values=(4,), distances=(0.0, 0.5), trials=2))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows, p1)
    emit_csv(run_sweep(_small_spec(k_values=(4,), distances=(0.0, 0.5), trials=2)), p2)
    assert p1.read_bytes() == p2.read_bytes()


# ------------------------------------------------------------------ uniformity


def test_uniformity_passes_for_fixed_x():
    report = uniformity_report(8, 50, 8, np.linspace(-2, 2, 8), 4000, SEED)
    assert report.passed
    assert report.dof == 7
    assert report.samples >= 4000


def test_uniformity_passes_for_huge_norm_x():
    x = np.full(8, 1e8)
    report = uniformity_report(8, 50, 8, x, 4000, SEED)
    assert report.passed


def test_uniformity_negative_control_fails():
    # zero dither + zero input concentrates every component at 0
    report = uniformity_report(8, 50, 8, np.zeros(8), 4000, SEED, zero_dither=True)
    assert not report.passed
    assert report.counts[0] == report.samples


def test_uniformity_threshold_is_scipy_stats_chi2_quantile():
    # computed through scipy.special, without importing scipy.stats
    dof = np.arange(2, MAX_WIRE_K + 1, 2) - 1
    assert np.array_equal(_chi2_threshold(dof), chi2.ppf(0.999, dof))
    assert uniformity_report(2, 1, 1, [0.0], 200, SEED).threshold == chi2.ppf(0.999, 1)


def test_uniformity_requires_enough_samples():
    with pytest.raises(InvalidParameter):
        uniformity_report(8, 50, 8, np.zeros(8), 100, SEED)
