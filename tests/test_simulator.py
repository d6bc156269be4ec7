import dataclasses
import math
import tracemalloc

import numpy as np
import oracle_reference
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_reference import reference_sweep, reference_uniformity_counts
from scipy.stats import chi2

from modhash import (
    DEFAULT_DELTA,
    InvalidInput,
    InvalidParameter,
    ModHashError,
    SweepSpec,
    default_distance_grid,
    run_sweep,
    theoretical_curve,
    uniformity_report,
)
from modhash import core
from modhash.rng import KEY_BLOCK, ChaChaStream, _rectangle
from modhash.simulate import _chi2_threshold, _trial_seed, emit_csv, format_csv
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
    with pytest.raises(InvalidParameter, match="below 2"):  # a trial's seed packs k in 32 bits
        _small_spec(k_values=(8, 1 << 32))


def test_the_largest_k_keeps_its_trial_seeds():
    spec = _small_spec(k_values=((1 << 32) - 2,), m=2, n=2, distances=(1.0,), trials=2)
    assert _trial_seed(SEED, (1 << 32) - 2, 1.0, 1).hex() == (
        "a210422f7d54909f4ee1645539529367bcb7459b277a20d65cd185e9d5a876a7"
    )
    assert _bits(run_sweep(spec)) == _bits(reference_sweep(spec))


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


def test_a_sweep_trial_never_holds_a_key_matrix():
    # Criterion 6's shape, whose A alone is 20 MB: a trial used to draw it
    # whole, check it in a 2.5 MB mask and read it back once per input.
    run_sweep(_small_spec(k_values=(8,), distances=(1.0,), trials=1))  # loads scipy.special outside the trace
    tracemalloc.start()
    try:
        run_sweep(SweepSpec((8,), 500, 5000, (1.0,), 1, SEED))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _traced_peak(spec) -> int:
    run_sweep(_small_spec(k_values=(8,), distances=(1.0,), trials=1))  # loads scipy.special outside the trace
    tracemalloc.start()
    try:
        run_sweep(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sweep_row_never_holds_its_trials_key_matrices():
    # Three criterion-6 trials in one row: a row that drew every trial's key
    # before hashing would hold 60 MB.
    assert _traced_peak(SweepSpec((8,), 500, 5000, (1.0,), 3, SEED)) < 2_000_000


def test_a_bridge_row_holds_a_few_kilobytes_per_trial():
    # Criterion 3's shape: 100 trials share one block of keys and inputs
    # (about 20 kB traced); the bound leaves room for nothing per trial but
    # its seeds and a few numbers.
    assert _traced_peak(SweepSpec((8,), 1, 1, (1.0,), 100, SEED)) < 250_000


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


# ---------------------------------------------- bits of the per-trial loop


def _bits(rows):
    """Rows with every float as its exact hex form."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r)) for r in rows]


def _outcome(sweep, spec):
    try:
        return _bits(sweep(spec))
    except ModHashError as exc:
        return type(exc), str(exc)


# (M, N): many keys per sweep block (several blocks of them where trials > 4
# at 300 x 100), a key that fills a block exactly, the longest rows that share
# a block (8192 values: einsum sums a lone longer row in pieces) and the
# shortest that do not, and keys larger than a block, in several row blocks
# or with rows longer than a block
_SWEEP_BLOCK = core._SWEEP_BLOCKS * KEY_BLOCK
_SHAPES = [
    (1, 1), (3, 1), (1, 7), (5, 40), (300, 100), (_SWEEP_BLOCK // 1024, 1024), (_SWEEP_BLOCK // 8192, 8192),
    (1, 8192), (1, 8193), (_SWEEP_BLOCK // 8000 + 1, 8000), (2, KEY_BLOCK + 3), (3, _SWEEP_BLOCK // 2 + 1),
]


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(_SHAPES),
    k=st.sampled_from([2, 8, 28, 1024]),
    # at 1e16, floor(z) mod k shows the last bit of every projection
    distances=st.lists(st.sampled_from([0.0, 1e-3, 0.5, 2.0, 40.0, 1e6, 1e16]), min_size=1, max_size=3, unique=True),
    trials=st.integers(1, 12),
    seed=st.binary(min_size=32, max_size=32),
    delta=st.sampled_from([DEFAULT_DELTA, 0.05, 3.0]),
)
@example(shape=(1, 1), k=8, distances=[0.5, 8.0], trials=100, seed=SEED, delta=DEFAULT_DELTA)  # the bridge row
@example(shape=(500, 5000), k=8, distances=[0.0, 8.0], trials=2, seed=SEED, delta=DEFAULT_DELTA)  # criterion 6
@example(shape=(1, 8192), k=1024, distances=[1e16], trials=9, seed=SEED, delta=DEFAULT_DELTA)
@example(shape=(1, 8193), k=1024, distances=[1e16], trials=9, seed=SEED, delta=DEFAULT_DELTA)
@example(shape=(3, 8194), k=1024, distances=[1e16], trials=9, seed=SEED, delta=DEFAULT_DELTA)
def test_run_sweep_matches_the_per_trial_reference(shape, k, distances, trials, seed, delta):
    m, n = shape
    spec = SweepSpec((k,), m, n, tuple(sorted(distances)), trials, seed, delta)
    assert _bits(run_sweep(spec)) == _bits(reference_sweep(spec))


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")  # both sides scale by 1/delta
@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 3),
    n=st.integers(1, 3),
    distance=st.sampled_from([1.0, 1e300, 1e308, 1.7e308]),
    delta=st.sampled_from([DEFAULT_DELTA, 6.7e-309, 1e-320]),  # 1/delta overflows some normals, or all
    trials=st.integers(1, 20),
    seed=st.binary(min_size=32, max_size=32),
)
def test_run_sweep_fails_as_the_first_failing_trial_of_the_reference(m, n, distance, delta, trials, seed):
    spec = SweepSpec((8,), m, n, (distance,), trials, seed, delta)
    assert _outcome(run_sweep, spec) == _outcome(reference_sweep, spec)


@pytest.mark.parametrize(
    "n, distance, delta, error, message",
    [
        (3, 1.0, 1e-320, InvalidParameter, "A entries must be finite"),
        (1, 1e308, DEFAULT_DELTA, InvalidInput, "input entries must be finite"),  # x2 overflows
        (1, 1e308, 1e-320, InvalidInput, "input entries must be finite"),  # checked before A
        # x2 finite unless its direction is shorter than 1e-8, and A ~ 1e10 carries
        # the projection past the float range for all but tiny draws
        (1, 1e300, 1e-10, InvalidInput, "projection overflowed the floating-point range"),
    ],
)
def test_run_sweep_keeps_the_class_and_message_of_each_error(n, distance, delta, error, message):
    spec = SweepSpec((8,), 2, n, (distance,), 5, bytes(32), delta)
    assert _outcome(reference_sweep, spec) == (error, message)
    with pytest.raises(error, match=f"^{message}$"):
        run_sweep(spec)


class _ZeroDirectionStream(ChaChaStream):
    """A stream whose inputs (label b"inputs") have a first direction, draws
    n..2n-1, of all zeros: each such draw is 2**63, whose low 61 bits, and so
    its layer, sign and magnitude, are 0, and whose normal is exactly 0."""

    n = 1
    drawn_by_inputs = []

    def __init__(self, seed, label=b""):
        super().__init__(seed, label)
        self.zeroed = label == b"inputs"
        self.drawn = 0

    def _draws_into(self, out):
        super()._draws_into(out)
        if self.zeroed:
            out.reshape(-1).view(">u8")[max(self.n - self.drawn, 0) : max(2 * self.n - self.drawn, 0)] = 1 << 63
        self.drawn += out.size
        if self.zeroed:
            self.drawn_by_inputs.append(self.drawn)
        return out


@pytest.mark.parametrize("n", [1, 4])
def test_a_zero_direction_is_redrawn_from_the_trials_own_stream(monkeypatch, n):
    raw = np.empty(1)
    raw.view(">u8")[0] = 1 << 63
    assert _rectangle(raw, 1.0)[0].size == 0 and raw[0] == 0.0
    stub = type("Stub", (_ZeroDirectionStream,), {"n": n, "drawn_by_inputs": []})
    monkeypatch.setattr(core, "ChaChaStream", stub)
    monkeypatch.setattr(oracle_reference, "ChaChaStream", stub)
    spec = SweepSpec((8,), 3, n, (0.0, 1.0), 4, SEED)
    want = reference_sweep(spec)
    assert max(stub.drawn_by_inputs) == 3 * n  # the reference redrew
    stub.drawn_by_inputs.clear()
    assert _bits(run_sweep(spec)) == _bits(want)
    assert max(stub.drawn_by_inputs) == 3 * n
    assert all(math.isfinite(row.empirical_mean) for row in want)


@settings(max_examples=25, deadline=None)
@given(
    k=st.sampled_from([2, 4, 8]),
    shape=st.sampled_from([(1, 1), (50, 8), (7, 300), (2, 8193), (40, 1000)]),
    extra=st.integers(0, 60),
    scale=st.sampled_from([1e-3, 1.0, 1e8]),
    zero_dither=st.booleans(),
    seed=st.binary(min_size=32, max_size=32),
)
def test_uniformity_report_matches_the_per_key_reference(k, shape, extra, scale, zero_dither, seed):
    m, n = shape
    x = np.random.default_rng(int.from_bytes(seed[:8], "big")).standard_normal(n) * scale
    samples = 100 * k + extra
    report = uniformity_report(k, m, n, x, samples, seed, zero_dither)
    assert report.counts == reference_uniformity_counts(k, m, n, x, samples, seed, zero_dither)


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
    with pytest.raises(InvalidParameter):  # TypeError before
        uniformity_report(8, 50, 8, np.zeros(8), 4000.5, SEED)
