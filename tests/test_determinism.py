"""The determinism contract, pinned as digests and against a reference.

The digests were computed with the sequential Fisher-Yates loop kept below as
`reference_permutation`; any change to a permutation, pad or wire byte moves
one of them. The run_sweep CSV digest pins key generation, input pairs, the
trial-seed derivation, the expectation curve at 9 significant digits and the
CSV format together.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import default_rng

from modhash import ProtocolKind, drive_local, plan_parameters
from modhash.rng import ChaChaStream, subseed
from modhash.simulate import SweepSpec, emit_csv, run_sweep

SEED = bytes(range(32))

PERMUTATION_DIGEST = "3088d0ddaee38ab33a3b77f157f96318afe6425bb5e88f4c7e3e56a26da1f3b8"
LARGE_PERMUTATION_DIGEST = "4e418d736a46a5d14e57a3291a473c2fcb30deb9060fce1975e07398fc4eb09b"

TRANSCRIPT_DIGESTS = {
    ProtocolKind.FULL_KEY_3P: "a327272cc7f4a83c7def6769add4e6d2094c85fcd53dfb85a85e39f960d3ce4d",
    ProtocolKind.TWO_PARTY_HAMMING: "65c99f57adfc0df642981f86921af081e47e00cb9aa9ae20a1f0dc0ec88439a7",
    ProtocolKind.OBFUSCATED_3P: "35d33761f2942b95b4ccdd3a4348608bcbf608e0952f60e0d30a5679067ccc21",
}

SWEEP_DIGEST = "6b4332b554b26a21fdeb4f1c07a11dcd80902d5e98f2980c252747cd3b154b3e"

U64_MAX = (1 << 64) - 1


def _randbelow(stream: ChaChaStream, bound: int) -> int:
    limit = (1 << 64) // bound * bound
    while True:
        v = int.from_bytes(stream.take(8), "big")
        if v < limit:
            return v % bound


def reference_permutation(stream: ChaChaStream, n: int) -> np.ndarray:
    """Sequential Fisher-Yates, one rejection-sampled u64 draw at a time."""
    idx = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = _randbelow(stream, i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


class CraftedStream(ChaChaStream):
    """Serves fixed bytes through `take` and records how many it served."""

    def __init__(self, data: bytes):
        self._data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self._data):
            raise AssertionError("crafted stream exhausted")
        out = self._data[self.offset : self.offset + n]
        self.offset += n
        return out


def crafted_bytes(seed: int, draws: int) -> bytes:
    """Big-endian u64s of which ~40 % sit in the top three values 2**64-1-r,
    where most bounds reject; the rest are uniform."""
    rng = default_rng(seed)
    vals = [
        U64_MAX - int(rng.integers(3)) if rng.random() < 0.4 else int(rng.integers(1 << 64, dtype=np.uint64))
        for _ in range(draws)
    ]
    return b"".join(v.to_bytes(8, "big") for v in vals)


def test_permutation_digest():
    h = hashlib.sha256()
    for n in (1, 2, 3, 2989, 32879):
        stream = ChaChaStream(bytes(32), b"perm")
        h.update(stream.permutation_indices(n).astype(">i8").tobytes())
        h.update(stream.take(8))
    assert h.hexdigest() == PERMUTATION_DIGEST


def test_large_permutation_digest():
    # n = 100,003, where the swap chains are the longest of any pinned permutation
    stream = ChaChaStream(SEED, b"perm-large")
    h = hashlib.sha256(stream.permutation_indices(100_003).astype(">i8").tobytes())
    h.update(stream.take(8))
    assert h.hexdigest() == LARGE_PERMUTATION_DIGEST


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.name)
def test_transcript_digest(kind):
    x1 = default_rng(0).standard_normal(100)
    x2 = default_rng(1).standard_normal(100)
    run = drive_local(kind, x1, x2, plan_parameters(5.0, 1.0, 10), SEED)
    assert hashlib.sha256(b"".join(e.data for e in run.transcript)).hexdigest() == TRANSCRIPT_DIGESTS[kind]
    assert run.mean_lee == Fraction(20850, 2989)


def test_run_sweep_csv_digest(tmp_path):
    # criterion 6's distance grids (k*i/8 and 100k) for k = 4, 8, 16, merged
    ks = (4, 8, 16)
    distances = sorted({k * i / 8.0 for k in ks for i in range(9)} | {100.0 * k for k in ks})
    spec = SweepSpec(ks, 500, 50, distances, 2, subseed(SEED, b"sweep-digest"))
    path = tmp_path / "sweep.csv"
    emit_csv(run_sweep(spec), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_DIGEST

@pytest.mark.parametrize("n", [2, 50, 2989])
@pytest.mark.parametrize("label", [b"a", b"b", b"c"])
def test_permutation_matches_reference_on_chacha(n, label):
    ref_stream, new_stream = ChaChaStream(SEED, label), ChaChaStream(SEED, label)
    expected = reference_permutation(ref_stream, n)
    assert np.array_equal(new_stream.permutation_indices(n), expected)
    assert new_stream.take(32) == ref_stream.take(32)


@pytest.mark.parametrize("n", [3, 5, 7, 11, 13, 40])
def test_permutation_matches_reference_through_rejections(n):
    # ChaCha output reaches a rejection with probability ~2**-49 per draw, so
    # only crafted bytes exercise the path that skips a draw and tops up.
    rejected = 0
    for seed in range(50):
        data = crafted_bytes(seed, 4 * n + 32)
        ref_stream, new_stream = CraftedStream(data), CraftedStream(data)
        expected = reference_permutation(ref_stream, n)
        assert np.array_equal(new_stream.permutation_indices(n), expected)
        assert new_stream.offset == ref_stream.offset
        rejected += ref_stream.offset // 8 - (n - 1)
    assert rejected > 0


@pytest.mark.parametrize("n", [0, 1, 2, 2989])
def test_permutation_dtype_and_edges(n):
    stream = ChaChaStream(SEED, b"edges")
    perm = stream.permutation_indices(n)
    assert perm.dtype == np.int64 and perm.flags.c_contiguous and perm.shape == (n,)
    assert sorted(perm.tolist()) == list(range(n))
    if n < 2:
        # nothing to shuffle, so no keystream is consumed
        assert stream.take(8) == ChaChaStream(SEED, b"edges").take(8)
