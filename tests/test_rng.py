"""Permutation memory, and the normal sampler against its scalar reference
and against N(0, 1).

The ziggurat's whole-array passes are checked against
`oracle_reference.reference_normals`, one value at a time in Python floats:
on real streams, across the KEY_BLOCK edges and split over calls, and on
crafted draws that reach each of its paths, even those ChaCha draws reach
about 3 times in 10**9 values.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng
from oracle_reference import (
    ZIGGURAT_BUDGET,
    reference_exp,
    reference_fallback,
    reference_log,
    reference_normal,
    reference_normals,
    ziggurat_root,
    ziggurat_tables,
)
from scipy.special import ndtr
from test_determinism import SEED, CraftedStream

import modhash.core as core
import modhash.rng as rng
from modhash import generate_key
from modhash.core import DEFAULT_DELTA, _hashes_under_fresh_keys
from modhash.errors import InvalidParameter
from modhash.rng import KEY_BLOCK, NORMAL_BOUND, ChaChaStream, _exp, _layers, _log


def test_permutation_peak_memory():
    # the per-slot Python loop peaked at 83.4 B/slot; whole-array passes must
    # not do worse, so every intermediate is freed once it has been used
    n = 100_000
    stream = ChaChaStream(SEED, b"peak")
    tracemalloc.start()
    try:
        stream.permutation_indices(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 84 * n


# ------------------------------------------------------------------ normals


def test_layer_tables_match_mpmath():
    r, v = ziggurat_root()
    assert abs(mp.mpf(rng._R) - r) < mp.mpf(10) ** -38 and abs(mp.mpf(rng._V) - v) < mp.mpf(10) ** -40
    for got, want in zip(_layers(), ziggurat_tables()):
        assert np.array_equal(got, np.array(want, dtype=got.dtype))
    widths, limits, floors, heights = _layers()
    # every layer's area is v: the top one closes at f = 1, each other's top
    # is the floor of the layer above, and the base strip's width is v / f(r)
    assert floors[1] + heights[1] == pytest.approx(1.0, abs=2.0**-52)
    assert np.allclose(floors[2:] + heights[2:], floors[1:-1], rtol=1e-15, atol=0)
    assert np.allclose(widths[1:256] * 2.0**52 * heights[1:], float(v), rtol=1e-15, atol=0)
    assert widths[0] * 2.0**52 * floors[255] == pytest.approx(float(v), rel=1e-15)
    # about 98.5 % of draws lie in their layer's rectangle
    assert (limits[:256] * 2.0**-52).mean() == pytest.approx(0.985, abs=0.001)


def _tail_uniforms(n):
    """(0, 1] uniforms as the tail takes them, including both ends."""
    top53 = np.concatenate(([0, 1, 2**52, 2**53 - 1], default_rng(5).integers(0, 2**53, n)))
    return (top53 + 1) * 2.0**-53


def test_exp_and_log_kernels_match_the_scalar_reference_and_mpmath():
    t = np.concatenate(([0.0, -0.5, -math.log(2) / 2, -6.677, -8.0], -default_rng(4).random(3000) * 8))
    u = _tail_uniforms(3000)
    assert _exp(t).tolist() == [reference_exp(v) for v in t]
    assert _log(u).tolist() == [reference_log(v) for v in u]
    # a few ulps from the true values: the kernels are as good as a libm's
    for got, want in ((_exp(t), [mp.exp(v) for v in t]), (_log(u), [mp.log(v) for v in u])):
        assert all(abs(mp.mpf(g) - w) <= 4 * 2.0**-53 * abs(w) for g, w in zip(got, want))


@pytest.mark.parametrize("label", [b"", b"inputs"])
def test_normals_match_the_scalar_reference_across_block_edges(label):
    n = 2 * KEY_BLOCK + 3
    want = np.array(reference_normals(SEED, n, label))
    assert np.array_equal(ChaChaStream(SEED, label).standard_normal(n), want)
    # split over calls at and around the block edges: the same values
    stream = ChaChaStream(SEED, label)
    sizes = [1, KEY_BLOCK - 2, 1, KEY_BLOCK + 1]
    got = np.concatenate([stream.standard_normal(k) for k in sizes] + [stream.standard_normal(n - sum(sizes))])
    assert np.array_equal(got, want)
    # scaled, as keys are
    assert np.array_equal(ChaChaStream(SEED, label).standard_normal_into(np.empty(n), 1.5), want * 1.5)


def test_normals_of_many_streams_in_one_block_match_the_reference():
    # a sweep's block holds one row of draws per key, resolved together; a
    # later block holds the keys' next rows and continues their second streams
    keys, width = [bytes([i]) * 32 for i in range(5)], 3000
    streams = [ChaChaStream(key) for key in keys]
    for first in (0, width):
        block = rng.normals_into(np.empty((len(keys), width)), streams, 1.5)
        for key, row in zip(keys, block):
            assert np.array_equal(row, np.array(reference_normals(key, width, first=first)) * 1.5)


def test_a_batch_of_streams_at_different_positions_matches_the_reference():
    # each row continues its own stream, wherever that stands, and the stream
    # goes on from the batch's end, its second stream included
    keys, width = [bytes([i]) * 32 for i in range(4)], 2000
    firsts = [0, 1, 777, 2 * width + 5]
    streams = [ChaChaStream(key) for key in keys]
    for stream, first in zip(streams, firsts):
        stream.standard_normal(first)
    block = rng.normals_into(np.empty((len(keys), 2, width // 2)), streams)
    for key, first, row, stream in zip(keys, firsts, block, streams):
        want = np.array(reference_normals(key, 2 * width, first=first))
        assert np.array_equal(row.reshape(-1), want[:width])
        assert np.array_equal(stream.standard_normal(width), want[width:])
    # uniforms in a batch continue the same streams, draw for draw
    uniforms = rng.uniforms_into(np.empty((len(keys), 50)), streams, 3.0)
    for key, first, row in zip(keys, firsts, uniforms):
        fresh = ChaChaStream(key)
        fresh.take(8 * (first + 2 * width))
        assert np.array_equal(row, fresh.uniform01(50) * 3.0)
    with pytest.raises(InvalidParameter):
        rng.normals_into(np.empty((3, 4)), streams)


def test_normals_do_not_depend_on_the_block_size(monkeypatch):
    m, n, keys = 40, 30, [SEED, bytes(32), SEED[::-1]]
    x = default_rng(6).standard_normal(n)
    want_key = generate_key(8, m, n, SEED)
    want_sweep = np.concatenate(list(_hashes_under_fresh_keys(8, m, n, DEFAULT_DELTA, keys, x=x)))
    want_normals = ChaChaStream(SEED).standard_normal(3000)
    for block in (7, 100, 1000):
        monkeypatch.setattr(rng, "KEY_BLOCK", block)
        monkeypatch.setattr(core, "KEY_BLOCK", block)
        assert generate_key(8, m, n, SEED) == want_key
        got = np.concatenate(list(_hashes_under_fresh_keys(8, m, n, DEFAULT_DELTA, keys, x=x)))
        assert np.array_equal(got, want_sweep)
        assert np.array_equal(ChaChaStream(SEED).standard_normal(3000), want_normals)


def test_normals_are_standard_normal():
    n = 1 << 21
    x = np.sort(ChaChaStream(SEED, b"distribution").standard_normal(n))
    # Kolmogorov-Smirnov: sqrt(n) D stays below 1.95, its 0.1 % point
    cdf = ndtr(x)
    d = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert math.sqrt(n) * d < 1.95
    # the tail beyond r, which the rectangles never reach: its frequency
    # within 5 standard errors, and its shape by the same test
    r = rng._R_FLOAT
    tail = np.abs(x[np.abs(x) > r])
    p = 2 * ndtr(-r)
    assert abs(tail.size - n * p) < 5 * math.sqrt(n * p * (1 - p))
    tail.sort()
    cdf = 1 - ndtr(-tail) / ndtr(-r)
    d = max((np.arange(1, tail.size + 1) / tail.size - cdf).max(), (cdf - np.arange(tail.size) / tail.size).max())
    assert math.sqrt(tail.size) * d < 1.95
    assert abs(x).max() < NORMAL_BOUND


class _CraftedCipher:
    """A cipher stub whose keystream is fixed big-endian u64 draws."""

    def __init__(self, draws):
        self._data = np.array(draws, dtype=">u8").view(np.uint8)
        self._pos = 0

    def update_into(self, data, buf):
        buf[:] = self._data[self._pos : self._pos + len(buf)]
        self._pos += len(buf)


def _draw(layer, sign, fraction, top=0):
    """A main draw in layer `layer` with sign `sign`, whose magnitude is
    `fraction` of the 52-bit range (an int: that magnitude exactly)."""
    mag = fraction if isinstance(fraction, int) else int(fraction * 2**52)
    return top << 61 | mag << 9 | sign << 8 | layer


def _uniform(fraction):
    """A second-stream draw whose top 53 bits are `fraction` of their range."""
    return min(int(fraction * 2**53), 2**53 - 1) << 11


_INSIDE = _draw(3, 1, 0.5)  # layer 3 holds magnitudes below 0.85 of its width
_OUTSIDE = _draw(3, 0, 0.99)  # in layer 3's wedge, near its outer edge, where f is low
_NO = (1 << 64) - 1  # a wedge height at the top of its layer: never under the curve; a tail y of 0
# Each case: the main draw, its budget of second-stream draws (padded with
# zeros, which no case reads before it has its value), and the paths it takes.
_PATHS = {
    "rectangle": (_draw(200, 1, 0.3), [], ["rectangle"]),
    "top layer": (_draw(1, 0, 0), [0], ["wedge"]),  # the top layer's rectangle is empty
    "wedge accept": (_OUTSIDE, [0], ["wedge"]),
    "wedge reject, redraw inside": (_OUTSIDE, [_NO, _INSIDE], ["wedge", "redraw"]),
    "wedge reject twice, then accept": (_OUTSIDE, [_NO, _OUTSIDE, _NO, _OUTSIDE, 0], ["wedge", "redraw"] * 2 + ["wedge"]),
    "redraw into the tail": (_OUTSIDE, [_NO, _draw(0, 1, 0.999), _uniform(0.5), 0], ["wedge", "redraw", "tail"]),
    "tail accept": (_draw(0, 0, 0.99), [_uniform(0.5), 0], ["tail"]),
    "tail reject, then accept": (_draw(0, 1, 0.95), [_uniform(0.5), _NO, _uniform(0.7), 0], ["tail", "tail"]),
    # the least uniforms, 2**-53: t = 53 ln 2 / r, too far for the largest y
    "tail's least uniforms": (_draw(0, 0, 0.97), [0, 0, _uniform(0.5), 0], ["tail", "tail"]),
    "budget exhausted in the wedge": (_OUTSIDE, [_NO, _OUTSIDE] * 4, ["wedge", "redraw"] * 4 + ["fallback"]),
    "budget exhausted in the tail": (_draw(0, 0, 0.99), [_uniform(0.1), _NO] * 4, ["tail"] * 4 + ["fallback"]),
    "spare top bits": (_draw(3, 1, 0.5, top=7), [], ["rectangle"]),
}


def _crafted(names):
    """The main draws of these cases in order, the second-stream draws of
    those outside their rectangles, and the reference's normals and paths."""
    draws, budgets, want, paths = [], [], [], []
    for i, name in enumerate(names):
        v, budget, _ = _PATHS[name]
        budget = budget + [0] * (ZIGGURAT_BUDGET - len(budget))
        seen = []
        want.append(reference_normal(v, lambda: list(budget), lambda i=i: reference_fallback(SEED, i), seen))
        draws.append(v)
        budgets += budget if seen != ["rectangle"] else []
        paths.append(seen)
    return draws, budgets, want, paths


def _crafted_stream(draws, budgets):
    """A ChaChaStream whose main draws and second-stream draws are crafted;
    its fallback streams are its own, derived from SEED."""
    stream = ChaChaStream(SEED)
    stream._enc = _CraftedCipher(draws)
    stream._redraw = CraftedStream(np.array(budgets, dtype=">u8").tobytes())
    return stream


def test_crafted_draws_reach_every_path_and_match_the_reference():
    draws, budgets, want, paths = _crafted(list(_PATHS))
    for name, seen in zip(_PATHS, paths):
        expected = _PATHS[name][2]
        assert seen[: len(expected)] == expected and ("fallback" in seen) == ("fallback" in expected), (name, seen)
    stream = _crafted_stream(draws, budgets)
    assert stream.standard_normal(len(draws)).tolist() == want
    assert stream._redraw.offset == len(budgets) * 8  # each budget is taken, used or not


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(sorted(_PATHS)), min_size=1, max_size=40), st.integers(0, 3))
def test_crafted_paths_in_any_order_and_split(names, split):
    draws, budgets, want, _ = _crafted(names)
    stream = _crafted_stream(draws, budgets)
    cut = len(draws) * split // 3
    got = np.concatenate((stream.standard_normal(cut), stream.standard_normal(len(draws) - cut)))
    assert got.tolist() == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(sorted(_PATHS)), min_size=1, max_size=40), st.integers(0, 3))
def test_crafted_streams_at_different_positions_in_one_batch(names, split):
    # two streams of the same crafted draws, one a cut ahead of the other:
    # each value's budget and fallback are its own stream's, at its own index
    draws, budgets, want, _ = _crafted(names)
    ahead, behind = _crafted_stream(draws, budgets), _crafted_stream(draws, budgets)
    cut = len(draws) * split // 3
    assert ahead.standard_normal(cut).tolist() == want[:cut]
    width = len(draws) - cut
    block = rng.normals_into(np.empty((2, width)), [ahead, behind])
    assert block[0].tolist() == want[cut:] and block[1].tolist() == want[:width]
    assert behind.standard_normal(cut).tolist() == want[width:]


def test_the_largest_tail_value_is_below_the_bound():
    # w' = 2**-53 gives the largest y, 53 ln 2, and t = -ln(u') / r is taken
    # while t**2 < 2 y: the least u' taken gives the largest normal
    top53 = np.arange(400, dtype=np.uint64)
    zeros = np.zeros(top53.size, dtype=np.int64)
    done, value, _, _ = rng._step(zeros, zeros * 0.0, top53 << np.uint64(11), np.zeros_like(top53))
    first = int(np.argmax(done))
    assert 0 < first and done[first:].all() and not done[:first].any()
    assert 12.2 < value[first] < NORMAL_BOUND
    assert value[first] == max(value[done])


def test_the_wedge_test_settles_near_ties_with_the_exact_kernel():
    # numpy's exp decides only outside a band of 2**-40 around it; inside, and
    # at the kernel's own value and its neighbours, _exp decides
    t = -default_rng(7).random(200) * 7.6
    e = _exp(t)
    for y in (e, np.nextafter(e, 0), np.nextafter(e, 2), e * (1 - 2.0**-41), e * (1 + 2.0**-41),
              e * (1 - 2.0**-39), e * (1 + 2.0**-39)):
        assert rng._below_exp(y, t).tolist() == [a < reference_exp(b) for a, b in zip(y.tolist(), t.tolist())]
