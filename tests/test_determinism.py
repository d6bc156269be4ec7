"""The determinism contract, pinned as digests and against a reference.

A permutation is the random-keys shuffle; `reference_permutation` below
draws its keys one `take(8)` at a time and sorts in Python. Any change to a
permutation, pad or wire byte moves one of the digests. The run_sweep CSV
digest pins key generation, input pairs, the trial-seed derivation, the
expectation curve at 9 significant digits and the CSV format together.
"""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.stats import chi2

from modhash import ProtocolKind, drive_local, plan_parameters
from modhash.rng import ChaChaStream, subseed
from modhash.simulate import SweepSpec, emit_csv, run_sweep

SEED = bytes(range(32))

PERMUTATION_DIGEST = "7fa02388305f9e6fdedea16ba17b7af40b5fcaf0b9045872c792af1f29a2e4b1"
LARGE_PERMUTATION_DIGEST = "15a287f7d6c7df7f4e7f87989164eb19974aec456b0465d37095ce8ac791fb49"

TRANSCRIPT_DIGESTS = {
    ProtocolKind.FULL_KEY_3P: "a327272cc7f4a83c7def6769add4e6d2094c85fcd53dfb85a85e39f960d3ce4d",
    ProtocolKind.TWO_PARTY_HAMMING: "65c99f57adfc0df642981f86921af081e47e00cb9aa9ae20a1f0dc0ec88439a7",
    ProtocolKind.OBFUSCATED_3P: "62e285819ff956df9ddf1a04447802616891538b7b5e0b2e19cfd3b93a98e96b",
}

SWEEP_DIGEST = "6b4332b554b26a21fdeb4f1c07a11dcd80902d5e98f2980c252747cd3b154b3e"


def reference_permutation(stream: ChaChaStream, n: int) -> np.ndarray:
    """range(n) in the order of n big-endian u64 keys, one take(8) each, all
    n redrawn while two are equal; n < 2 draws nothing."""
    if n < 2:
        return np.arange(n)
    while True:
        keys = [int.from_bytes(stream.take(8), "big") for _ in range(n)]
        if len(set(keys)) == n:
            return np.array(sorted(range(n), key=keys.__getitem__), dtype=np.int64)


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


def test_permutation_digest():
    h = hashlib.sha256()
    for n in (1, 2, 3, 2989, 32879):
        stream = ChaChaStream(bytes(32), b"perm")
        h.update(stream.permutation_indices(n).astype(">i8").tobytes())
        h.update(stream.take(8))
    assert h.hexdigest() == PERMUTATION_DIGEST


def test_large_permutation_digest():
    # n = 100,003, the largest pinned permutation
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


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13, 40])
def test_permutation_matches_reference_through_rejections(n):
    # ChaCha keys tie with probability ~n**2 / 2**65, so only crafted bytes
    # reach the redraw: the first n keys hold a tie and are rejected, the
    # next n do not
    rng = default_rng(n)
    first, second = rng.integers(0, 1 << 64, (2, n), dtype=np.uint64)
    i, j = rng.choice(n, 2, replace=False)
    first[j] = first[i]
    data = np.concatenate((first, second)).astype(">u8").tobytes()
    ref_stream, new_stream = CraftedStream(data), CraftedStream(data)
    expected = reference_permutation(ref_stream, n)
    assert ref_stream.offset == 16 * n
    perm = new_stream.permutation_indices(n)
    assert new_stream.offset == 16 * n
    assert np.array_equal(perm, expected)
    assert np.array_equal(perm, np.argsort(second, kind="stable"))


def test_permutation_is_uniform_over_the_orders_of_four():
    # one 4-slot permutation from each of 24,000 labelled streams: the 24
    # orders' counts against 1,000 each, by chi-square at the 0.999 level
    orders = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
    counts = np.zeros(24, dtype=np.int64)
    for i in range(24_000):
        counts[orders[tuple(ChaChaStream(SEED, b"uniform-%d" % i).permutation_indices(4).tolist())]] += 1
    statistic = ((counts - 1000) ** 2 / 1000).sum()
    assert statistic < chi2.ppf(0.999, 23)


@pytest.mark.parametrize("n", [0, 1, 2, 2989])
def test_permutation_dtype_and_edges(n):
    stream = ChaChaStream(SEED, b"edges")
    perm = stream.permutation_indices(n)
    assert perm.dtype == np.int64 and perm.flags.c_contiguous and perm.shape == (n,)
    assert sorted(perm.tolist()) == list(range(n))
    if n < 2:
        # nothing to shuffle, so no keystream is consumed
        assert stream.take(8) == ChaChaStream(SEED, b"edges").take(8)
