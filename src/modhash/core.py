"""Keyed modular hashing over Z_k, the Lee metric, and its binary ring coding.

A key is the secret tuple (k, delta, A, U). Hashing a real vector x computes

    floor(A x + U) mod k        (component-wise, mathematical modulo)

With A entries i.i.d. normal of standard deviation 1/delta and U entries
uniform on [0, k), each output component is uniform on Z_k for *every* input,
so a hash reveals nothing without the key. Lee distances between two hashes
of the same key still track the Euclidean distance of the inputs below a
threshold that grows with k; the analysis module quantifies that relation.

The projection A x + U runs on the caller's thread, in numpy's own loop and
never through BLAS, so the bits of a hash depend neither on the BLAS library
nor on its thread count, and no BLAS worker spins on after a call.

The binary ring coding c(.) maps each symbol of Z_k to k/2 bits such that
Hamming distance between codes equals Lee distance between symbols, which
lets a secure Hamming-distance subprotocol stand in for a third party.
"""

import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, InvalidInput, InvalidParameter
from .rng import KEY_BLOCK, NORMAL_BOUND, ChaChaStream, check_seed, normals_into, subseed, uniforms_into

DEFAULT_DELTA = math.sqrt(2.0 / math.pi)


def _sealed(arr: np.ndarray) -> np.ndarray:
    """Mark an array this package has just built read-only."""
    arr.setflags(write=False)
    return arr


def _frozen_array(values, dtype) -> np.ndarray:
    """A read-only copy of values: nothing a caller holds can write to it."""
    return _sealed(np.array(values, dtype=dtype))


def _adopt(cls, **values):
    """An instance of a value class below, from values this package has just
    built and already knows to be valid: arrays are sealed and taken without
    a copy, and no check runs again. Callers' values always go through the
    public constructors, which copy and check them all."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, _sealed(value) if isinstance(value, np.ndarray) else value)
    return obj


def _check_even_k(k) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise InvalidParameter("k must be an integer")
    if k < 2 or k % 2 != 0:
        raise InvalidParameter(f"k must be an even integer >= 2, got {k}")
    return int(k)


def _check_size(size, name: str = "size", *, zero_ok: bool = False) -> int:
    """size as an int if it is a Python or numpy integer, not a bool, >= 1
    (or at 0, with zero_ok)."""
    if not isinstance(size, (int, np.integer)) or isinstance(size, bool) or size < (0 if zero_ok else 1):
        raise InvalidParameter(f"{name} must be a {'nonnegative' if zero_ok else 'positive'} integer")
    return int(size)


def _check_real(x, name: str, *, zero_ok: bool = False, error=InvalidParameter) -> float:
    """x as a float if it is a finite Python or numpy integer or float, not a
    bool, above 0 (or at 0, with zero_ok)."""
    if (
        not isinstance(x, (float, int, np.floating, np.integer))
        or isinstance(x, bool)
        or not math.isfinite(x)
        or x < 0
        or (x == 0 and not zero_ok)
    ):
        raise error(f"{name} must be a {'finite nonnegative' if zero_ok else 'positive finite'} real")
    return float(x)


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class _ValueEq:
    """Equality by dataclass fields: arrays by content, None only to None.
    Instances stay unhashable, like the arrays they hold."""

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    __hash__ = None


@dataclass(frozen=True, eq=False)
class HashKey(_ValueEq):
    """Secret hash key: alphabet size k, scale delta, projection A, dither U.

    A is M x N (one row per hash component), entries finite; every dither
    entry lies in [0, k). Instances are immutable and safe to share across
    threads. This constructor, which copies A and U, is the only check of
    key material: the wire decoder builds a key share's key through it too.
    """

    k: int
    delta: float
    a: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _check_even_k(self.k))
        _check_real(self.delta, "delta")
        a, u = _frozen_array(self.a, np.float64), _frozen_array(self.u, np.float64)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "u", u)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise InvalidParameter("A must be a 2-D matrix with M, N >= 1")
        if not np.isfinite(a).all():
            raise InvalidParameter("A entries must be finite")
        if u.ndim != 1 or u.shape[0] != a.shape[0]:
            raise DimensionMismatch("U must have one entry per row of A")
        if not np.isfinite(u).all() or (u < 0).any() or (u >= self.k).any():
            raise InvalidParameter("every dither entry must satisfy 0 <= u < k")

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True, eq=False)
class HashVector(_ValueEq):
    """M integers in Z_k: the unit of exchange between parties."""

    k: int
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _check_even_k(self.k))
        comps = _frozen_array(self.components, np.int64)
        if comps.ndim != 1 or comps.shape[0] < 1:
            raise InvalidInput("components must be a non-empty 1-D sequence")
        if comps.min() < 0 or comps.max() >= self.k:
            raise InvalidInput("every component must lie in Z_k")
        object.__setattr__(self, "components", comps)

    @property
    def m(self) -> int:
        return self.components.shape[0]

    def __len__(self) -> int:
        return self.m


@dataclass(frozen=True, eq=False)
class Permutation(_ValueEq):
    """A bijection on {0..size-1}; applying it re-indexes hash components."""

    size: int
    mapping: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "size", _check_size(self.size))
        mapping = _frozen_array(self.mapping, np.int64)
        if mapping.shape != (self.size,):
            raise InvalidParameter("mapping length must equal size")
        if mapping.min() < 0 or mapping.max() >= self.size or (np.bincount(mapping, minlength=self.size) != 1).any():
            raise InvalidParameter("mapping must be a bijection on {0..size-1}")
        object.__setattr__(self, "mapping", mapping)

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(size, np.arange(size, dtype=np.int64))

    @classmethod
    def random(cls, size: int, stream: ChaChaStream) -> "Permutation":
        size = _check_size(size)
        return _adopt(cls, size=size, mapping=stream.permutation_indices(size))

    def inverse(self) -> "Permutation":
        return _adopt(Permutation, size=self.size, mapping=np.argsort(self.mapping))


@dataclass(frozen=True, eq=False)
class BinaryCode(_ValueEq):
    """Concatenated k/2-bit ring codes of a hash vector's components.

    Each block must be the code of some symbol: a prefix run of ones
    (symbols 0..k/2) or a suffix run of ones (symbols k/2+1..k-1).
    """

    k: int
    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _check_even_k(self.k))
        bits = _frozen_array(self.bits, np.uint8)
        half = self.k // 2
        if bits.ndim != 1 or bits.shape[0] < half or bits.shape[0] % half != 0:
            raise InvalidInput("bit length must be a positive multiple of k/2")
        if (bits > 1).any():
            raise InvalidInput("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)
        _decode_blocks(bits.reshape(-1, half), self.k)  # raises on invalid blocks

    @property
    def m(self) -> int:
        return self.bits.shape[0] // (self.k // 2)


def generate_key(k: int, m: int, n: int, seed: bytes, delta: float = DEFAULT_DELTA) -> HashKey:
    """Derive a hash key deterministically from a 32-byte seed.

    A entries are i.i.d. normal with mean 0 and standard deviation 1/delta
    (variance pi/2 at the default delta = sqrt(2/pi)); dither entries are
    i.i.d. uniform on [0, k). The seed feeds a single ChaCha20 stream consumed
    as all of A (row-major) followed by all of U, one draw per value, with
    normals from the ziggurat of the rng module; the same (k, m, n, seed,
    delta) always yields a bit-identical key. Each array is produced in place,
    by one call of rng.normals_into or rng.uniforms_into, and handed to the
    key without a copy.
    """
    k = _check_even_k(k)
    m, n = _check_size(m, "M"), _check_size(n, "N")
    delta = _check_real(delta, "delta")
    scale = 1.0 / delta
    stream = ChaChaStream(check_seed(seed))
    a = stream.standard_normal_into(np.empty((m, n)), scale)
    # A is finite if the largest normal times scale is; else look at every entry
    if not math.isfinite(NORMAL_BOUND * scale) and not np.isfinite(a).all():
        raise InvalidParameter("A entries must be finite")
    u = stream.uniform01_into(np.empty(m), k)  # below k: (1 - 2**-53) * k rounds down
    return _adopt(HashKey, k=k, delta=delta, a=a, u=u)


# A sweep's buffer of A holds this many rng.KEY_BLOCKs of values, 1 MB, still
# within a core's L2 cache. The ziggurat resolves the values outside their
# rectangles once per buffer, at a numpy overhead of about 0.15 ms whatever
# their number, so a buffer of one KEY_BLOCK paid it four times as often.
_SWEEP_BLOCKS = 4

# Each key of a block keeps its stream, about 0.9 KB of cipher state, until
# the block's U is drawn: this many keys keep that near the 1 MB buffer of A.
_BLOCK_KEYS = 1024

# einsum sums a row of more than this many values (numpy's iterator buffer) in
# pieces where the row is its operand's only one, and in one pass where it is
# one of several, as in every key of two or more rows: rows this long are
# never batched across keys, and never drawn alone where a key has more.
_ONE_PASS_ROW = 8192


def _pairs_at_distance(seeds, n: int, distance: float) -> np.ndarray:
    """(len(seeds), 2, n): for each seed s, x1 and x2 = x1 + distance * (a
    uniform random direction), both drawn from ChaChaStream(s, b"inputs") as
    x1 then the direction, a direction of norm 0 being redrawn from where
    that stream left off. x2 may be non-finite where distance / norm
    overflows."""
    streams = [ChaChaStream(seed, b"inputs") for seed in seeds]
    pairs = normals_into(np.empty((len(streams), 2, n)), streams)
    x1, direction = pairs[:, 0], pairs[:, 1]
    # not np.linalg.norm: from ~10^4 values its BLAS ddot is threaded, and the
    # workers spin on after it returns
    sq_norms = np.einsum("ij,ij->i", direction, direction)
    for i in np.flatnonzero(sq_norms == 0.0):  # probability zero, but stay total
        while sq_norms[i] == 0.0:
            direction[i] = streams[i].standard_normal(n)
            sq_norms[i] = np.einsum("i,i->", direction[i], direction[i])
    with np.errstate(over="ignore", invalid="ignore"):  # x2 is checked by the caller
        direction *= (distance / np.sqrt(sq_norms))[:, None]
        direction += x1
    return pairs


def _hashes_under_fresh_keys(k: int, m: int, n: int, delta: float, seeds, *, x=None, distance=None, dither=True):
    """Hash under one fresh key per seed, yielding (keys, inputs, M) arrays of
    components, a block of keys at a time, in seed order.

    With x, each seed is a key seed and every key hashes x. With distance,
    each seed is a trial's: its key seed is subseed(seed, b"key"), and it
    hashes the two inputs of _pairs_at_distance. Each key's hashes are
    hash_vector(generate_key(k, m, n, key seed, delta), input), and a call
    fails as the first failing key would there, but no key matrix is ever
    held. Without dither, U is neither drawn nor added (an all-zero dither).
    x is checked before anything is drawn.

    Each key's stream is drawn as generate_key draws it, A row-major then U,
    A into one buffer of at most _SWEEP_BLOCKS * rng.KEY_BLOCK values: keys
    that fit share it, and a larger key streams through it in whole rows (at
    least two of them where rows are longer than _ONE_PASS_ROW and the key
    has more than one). Each buffer of A is one rng.normals_into call over
    the keys' streams, and U one rng.uniforms_into call after the last; the
    projection and floor mod k run once over the buffer too, with the
    operations of the key path; "tij,tj->ti" sums each row as "ij,j->i"
    does there.
    """
    k = _check_even_k(k)
    m, n = _check_size(m, "M"), _check_size(n, "N")
    scale = 1.0 / _check_real(delta, "delta")
    unbounded = not math.isfinite(NORMAL_BOUND * scale)  # some A entry may overflow
    if x is not None:
        x = _checked_input(x, n)
    capacity = _SWEEP_BLOCKS * KEY_BLOCK
    keys_per_block = min(_BLOCK_KEYS, max(1, capacity // (m * n))) if n <= _ONE_PASS_ROW else 1
    rows = min(m, max(2 if n > _ONE_PASS_ROW else 1, capacity // n))
    starts = list(range(0, m, rows))
    if n > _ONE_PASS_ROW and len(starts) > 1 and m - starts[-1] == 1:
        del starts[-1]  # the last row joins the block before it
    stops = starts[1:] + [m]
    block_rows = max(stop - start for start, stop in zip(starts, stops))
    buffer = None  # one for every block, so that no block faults it in again
    seeds = iter(seeds)
    while block_seeds := list(itertools.islice(seeds, keys_per_block)):
        t = len(block_seeds)  # no later block has more keys than the first
        if buffer is None:
            buffer = np.empty(t * block_rows * n)
        if x is None:
            xs = _pairs_at_distance(block_seeds, n, distance)
            key_seeds = [subseed(s, b"key") for s in block_seeds]
            bad_x = ~np.isfinite(xs[:, 1]).all(axis=1)
        else:
            xs, key_seeds, bad_x = np.broadcast_to(x, (t, 1, n)), block_seeds, np.zeros(t, dtype=bool)
        # every key's stream draws its A, a row block at a time, then its U
        streams = [ChaChaStream(s) for s in key_seeds]
        a = buffer[: t * block_rows * n].reshape(t, block_rows, n)
        u, z = np.empty((t, m)), np.empty((t, xs.shape[1], m))
        bad_a = np.zeros(t, dtype=bool)
        for start, stop in zip(starts, stops):
            # C-contiguous: t is 1 wherever this is not all of a
            block = normals_into(a[:, : stop - start], streams, scale)
            if unbounded:
                bad_a |= ~np.isfinite(block).all(axis=(1, 2))
            for i in range(xs.shape[1]):
                np.einsum("tij,tj->ti", block, xs[:, i], out=z[:, i, start:stop])
        if dither:
            z += uniforms_into(u, streams, k)[:, None]
        bad = bad_x | bad_a | ~np.isfinite(z).all(axis=(1, 2))
        if bad.any():
            i = int(np.argmax(bad))
            if bad_x[i]:
                _checked_input(xs[i, 1], n)
            if bad_a[i]:
                raise InvalidParameter("A entries must be finite")
        yield _components(z, k)  # raises where a projection overflowed


def _projection(key: HashKey, x: np.ndarray) -> np.ndarray:
    """A x + U in numpy's own loop. Not `key.a @ x`: BLAS runs a large one on
    workers that spin ~0.1 s after it returns, in an order (so to the last bit)
    set by their number."""
    return np.einsum("ij,j->i", key.a, x) + key.u


def _checked_input(x, n: int) -> np.ndarray:
    """x as a float64 vector of n finite entries."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidInput("input must be a 1-D vector")
    if x.shape[0] != n:
        raise DimensionMismatch(f"input has length {x.shape[0]}, key expects {n}")
    if not np.isfinite(x).all():
        raise InvalidInput("input entries must be finite")
    return x


def _components(z: np.ndarray, k: int) -> np.ndarray:
    """floor(z) mod k of projections z = A x + U that did not overflow."""
    if not np.isfinite(z).all():
        raise InvalidInput("projection overflowed the floating-point range")
    return np.mod(np.floor(z), k).astype(np.int64)


def hash_vector(key: HashKey, x) -> HashVector:
    """Hash a length-N real vector: floor(A x + U) mod k, component-wise.

    The modulo is mathematical (result always in {0..k-1}), so arbitrarily
    negative projections still land in Z_k.
    """
    z = _projection(key, _checked_input(x, key.n))
    return _adopt(HashVector, k=key.k, components=_components(z, key.k))


def lee_distance(a: int, b: int, k: int) -> int:
    """Shortest arc between a and b on the ring of circumference k."""
    k = _check_size(k, "k")
    if not (0 <= a < k) or not (0 <= b < k):
        raise InvalidInput("a and b must lie in Z_k")
    d = abs(int(a) - int(b))
    return min(d, k - d)


def _lee_componentwise(c1: np.ndarray, c2: np.ndarray, k: int) -> np.ndarray:
    d = np.abs(c1 - c2)
    return np.minimum(d, k - d)


def mean_lee_distance(h1: HashVector, h2: HashVector) -> Fraction:
    """Exact per-component average Lee distance between two hash vectors.

    Returned as a Fraction so downstream de-obfuscation stays exact; use
    float() for the real view.
    """
    if h1.k != h2.k:
        raise DimensionMismatch(f"alphabet mismatch: {h1.k} vs {h2.k}")
    if h1.m != h2.m:
        raise DimensionMismatch(f"length mismatch: {h1.m} vs {h2.m}")
    total = int(_lee_componentwise(h1.components, h2.components, h1.k).sum())
    return Fraction(total, h1.m)


def apply_permutation(h: HashVector, p: Permutation) -> HashVector:
    """Re-index a hash vector: output component i is input component p.mapping[i]."""
    if p.size != h.m:
        raise DimensionMismatch(f"permutation size {p.size} != vector length {h.m}")
    return _adopt(HashVector, k=h.k, components=h.components[p.mapping])


def concat_hashes(h: HashVector, z: HashVector) -> HashVector:
    """Stack two hash vectors over the same alphabet."""
    if h.k != z.k:
        raise DimensionMismatch(f"alphabet mismatch: {h.k} vs {z.k}")
    return _adopt(HashVector, k=h.k, components=np.concatenate([h.components, z.components]))


def _encode_components(comps: np.ndarray, k: int) -> np.ndarray:
    """(M,) symbols -> (M, k/2) bit blocks of the ring code."""
    half = k // 2
    pos = np.arange(1, half + 1, dtype=np.int64)[None, :]
    a = comps[:, None]
    low = a <= half
    bits = np.where(low, pos <= a, pos > (a - half))
    return bits.astype(np.uint8)


def _decode_blocks(blocks: np.ndarray, k: int) -> np.ndarray:
    """(M, k/2) bit blocks -> (M,) symbols; raises InvalidInput on non-codewords."""
    half = k // 2
    ones = blocks.sum(axis=1, dtype=np.int64)
    symbols = np.where(
        ones == 0, 0,
        np.where(ones == half, half, np.where(blocks[:, 0] == 1, ones, k - ones)),
    ).astype(np.int64)
    if not np.array_equal(_encode_components(symbols, k), blocks):
        raise InvalidInput("block is not a ring codeword")
    return symbols


def encode_lee_to_binary(h: HashVector) -> BinaryCode:
    """Ring-encode each component into k/2 bits; Hamming distance between two
    codes then equals the summed Lee distance between the source vectors."""
    return _adopt(BinaryCode, k=h.k, bits=_encode_components(h.components, h.k).reshape(-1))


def decode_binary_to_lee(code: BinaryCode) -> HashVector:
    """Invert encode_lee_to_binary (every block decodes to a unique symbol)."""
    half = code.k // 2
    return _adopt(HashVector, k=code.k, components=_decode_blocks(code.bits.reshape(-1, half), code.k))


def hamming_distance(b1: BinaryCode, b2: BinaryCode) -> int:
    """Number of differing bit positions between two equal-shape codes."""
    if b1.k != b2.k:
        raise DimensionMismatch(f"alphabet mismatch: {b1.k} vs {b2.k}")
    if b1.bits.shape != b2.bits.shape:
        raise DimensionMismatch("code lengths differ")
    return int(np.count_nonzero(b1.bits != b2.bits))
