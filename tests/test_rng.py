"""Fisher-Yates swap resolution against the sequential loop, and its memory;
the probit's largest draws.

`_resolve_swaps` replaces the per-slot swap loop with whole-array passes. It
is checked here against `reference_permutation` from test_determinism on
arbitrary targets, including shapes that ChaCha draws practically never
produce, such as one target for every step.
"""

import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng
from scipy.special import ndtri
from test_determinism import SEED, CraftedStream, reference_permutation

from modhash.rng import ChaChaStream, _resolve_swaps


def reference_swaps(js: np.ndarray) -> np.ndarray:
    """The sequential loop on the targets js: each step is served its target
    j as the draw v = j, which is never rejected and leaves j mod (i+1) = j."""
    data = js[:0:-1].astype(">u8").tobytes()
    stream = CraftedStream(data)
    out = reference_permutation(stream, js.size)
    assert stream.offset == len(data)
    return out


@st.composite
def swap_targets(draw):
    """int64 targets js[i] in [0, i] for n in [0, 3000]; js[0] is 0."""
    n = draw(st.integers(0, 3000))
    steps = np.arange(n)
    if draw(st.booleans()):
        # independent uniform targets, the shape ChaCha draws give
        return default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, steps + 1)
    # targets from hypothesis' fractions of i+1: its arrays repeat one fill
    # value with a few others, so runs of targets near 0 or near i are common
    u = draw(hnp.arrays(np.float64, n, elements=st.floats(0, 1, exclude_max=True)))
    return np.minimum(np.floor(u * (steps + 1)), steps).astype(np.int64)


_STEPS = np.arange(3000)


@settings(max_examples=200, deadline=None)
@given(swap_targets())
@example(np.zeros_like(_STEPS))  # every step swaps with slot 0: one chain of n-1 swaps
@example(_STEPS)  # self-swaps only: the identity
@example(np.maximum(_STEPS - 1, 0))  # each step swaps with its neighbour below
def test_resolve_swaps_matches_reference(js):
    assert np.array_equal(_resolve_swaps(js), reference_swaps(js))


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


class _FixedDraws:
    """A cipher stub whose keystream repeats one big-endian u64."""

    def __init__(self, draw: int):
        self._byte = np.frombuffer(draw.to_bytes(8, "big"), np.uint8)

    def update_into(self, data, buf):
        buf.reshape(-1, 8)[:] = self._byte


@pytest.mark.parametrize(
    "top53, uniform",
    [
        (2**53 - 1, 1 - 2.0**-53),  # (2**53 - 1) + 0.5 rounds up to 2**53: clamped
        (2**53 - 2, (2**53 - 2) * 2.0**-53),  # + 0.5 rounds down, to even: not moved
    ],
)
def test_probit_of_the_largest_draws_is_finite(top53, uniform):
    stream = ChaChaStream(SEED)
    stream._enc = _FixedDraws(top53 << 11 | 0x7FF)
    normals = stream.standard_normal(4)
    assert np.isfinite(normals).all()
    assert np.array_equal(normals, np.full(4, ndtri(uniform)))
