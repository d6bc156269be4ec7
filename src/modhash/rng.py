"""Deterministic randomness for key material and experiments.

Everything random in this package is derived from a 32-byte seed through a
ChaCha20 keystream, so identical seeds reproduce identical keys, permutations
and trials on any platform. A uniform is the top 53 bits of one big-endian
u64 draw. A Gaussian comes from one draw too, through a 256-layer ziggurat
(Marsaglia and Tsang 2000) with separate bit fields for layer, sign and
magnitude (Doornik 2005): the low 9 bits pick the layer and the sign, the
next 52 the magnitude. 98.5 % of values lie in their layer's rectangle
under the curve and are taken at once, in a few whole-array passes. Each of
the others gets a fixed budget of _BUDGET draws, in value order, from a
second stream derived from the stream's key, for the wedge and tail tests of
the ziggurat; a value that needs more continues from a stream derived from
its own index. Every value's draws are thus known before any is resolved,
and no bit depends on how the values are split into blocks or calls. The
layer tables are computed once, at the first normal, in decimal arithmetic,
and the wedge and tail tests use an exp and a log built from IEEE-exact
operations alone, so no bit depends on the platform's libm either: numpy's
own exp settles a wedge test only where its error cannot change the outcome.

Every batch of normals or uniforms is filled in place by normals_into or
uniforms_into, a row per stream, each stage over the whole batch, KEY_BLOCK
values at a time. A stream keeps its position and its second stream from one
batch to the next, and is consumed as one big-endian u64 per value, in
order, whatever the block edges or the batches. A permutation of range(n),
n >= 2, orders n big-endian u64 keys from the keystream (the random-keys
shuffle; Knuth, TAOCP Vol. 2, 3.4.2): position p holds the index of the
p-th smallest key. While any two keys are equal, all n are drawn afresh, so
the order is exactly uniform and no sort can break a tie. All these rules
are part of the package's determinism contract.
"""

import decimal
import functools
import hashlib
import math
import threading
from fractions import Fraction

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from .errors import InvalidParameter

SEED_BYTES = 32
KEY_BLOCK = 1 << 15  # values per block: 256 KB of float64, small enough to stay in cache

_ZERO_NONCE = bytes(16)
_TWO_NEG_53 = 2.0 ** -53
_SHIFT = np.uint64(11)
_F64, _U64, _BIG_U64, _U8 = (np.dtype(t) for t in (np.float64, np.uint64, ">u8", np.uint8))
_ZERO_BLOCK = memoryview(bytes(8 * KEY_BLOCK))

# The ziggurat: 256 layers of area _V under f(x) = exp(-x**2 / 2). Layer 0
# holds [0, r] x [0, f(r)] and the tail beyond r; _R is the r at which the
# top layer closes at f = 1. Both are checked against mpmath in the tests.
_R = "3.654152885361008771645429720399515762975"
_V = "0.004928673233974655347361775402336028069135"
_R_FLOAT = float(_R)
_BUDGET = 8  # second-stream draws per value outside its rectangle: four steps of two
_REDRAWS, _FALLBACK = b"ziggurat redraws", b"ziggurat fallback"
# Every normal is below r but a tail value r + t, and t is taken only if
# t**2 < 2 y with y = -ln(w') <= 53 ln 2: so |normal| < r + sqrt(106 ln 2) = 12.23
NORMAL_BOUND = 12.5
NORMAL_SAMPLER = "ziggurat256"  # named in seed-form key files
_LOW9, _NINE, _MAGNITUDE, _ONE = np.uint64(511), np.uint64(9), np.uint64((1 << 52) - 1), np.uint64(1)
_SCRATCH = threading.local()


def _kernel_constants():
    """ln 2 split for Cody-Waite reduction (a 32-bit head and the rest),
    1 / ln 2 and sqrt(1/2), each rounded once from 40 decimal digits."""
    with decimal.localcontext(decimal.Context(prec=40)):
        ln2 = decimal.Decimal(2).ln()
        head = int(ln2 * 2**32) * 2.0**-32
        return head, float(ln2 - decimal.Decimal(head)), float(1 / ln2), float(decimal.Decimal("0.5").sqrt())


_LN2_HEAD, _LN2_TAIL, _INV_LN2, _SQRT_HALF = _kernel_constants()
_EXP_TERMS = tuple(float(Fraction(1, math.factorial(j))) for j in range(13, -1, -1))  # 1/13! .. 1/0!
_LOG_TERMS = tuple(float(Fraction(2, 2 * j + 1)) for j in range(10, -1, -1))  # 2/21 .. 2/1


def check_seed(seed: bytes) -> bytes:
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_BYTES:
        raise InvalidParameter(f"seed must be exactly {SEED_BYTES} bytes")
    return bytes(seed)


def subseed(seed: bytes, label: bytes) -> bytes:
    """Derive an independent 32-byte seed for one named purpose."""
    return hashlib.sha256(check_seed(seed) + b"\x00" + label).digest()


class ChaChaStream:
    """Arbitrary-length deterministic byte/number stream from one seed."""

    def __init__(self, seed: bytes, label: bytes = b""):
        self._key = subseed(seed, label) if label else check_seed(seed)
        self._enc = Cipher(algorithms.ChaCha20(self._key, _ZERO_NONCE), mode=None).encryptor()
        self._normals = 0  # normals drawn so far: the index of the next one
        self._redraw = None  # the second stream of the normals, once first needed

    def take(self, n: int) -> bytes:
        return self._enc.update(bytes(n))

    def uint64(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * n), dtype=">u8")

    def _draws_into(self, out: np.ndarray) -> np.ndarray:
        """Overwrite the C-contiguous float64 array `out` with its share of the
        stream, one big-endian u64 draw per value in memory order, for
        _uniform01 or _rectangle to turn into numbers in place, KEY_BLOCK values
        to a cipher call; returns out."""
        values = out.reshape(-1)
        for start in range(0, values.size, KEY_BLOCK):
            block = values[start : start + KEY_BLOCK]
            self._enc.update_into(_ZERO_BLOCK[: 8 * block.size], block.view(_U8))
        return out

    def uniform01_into(self, out: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Fill `out` with doubles uniform on [0, 1), 53 bits each, times
        scale; returns out."""
        uniforms_into(out[None], (self,), scale)
        return out

    def standard_normal_into(self, out: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Fill `out` with standard normals from the ziggurat, times scale;
        returns out."""
        normals_into(out[None], (self,), scale)
        return out

    def uniform01(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), 53 bits each."""
        return self.uniform01_into(np.empty(n))

    def standard_normal(self, n: int) -> np.ndarray:
        """n standard normal doubles from the ziggurat."""
        return self.standard_normal_into(np.empty(n))

    def integers_below(self, bound: int, n: int) -> np.ndarray:
        """n integers uniform on {0..bound-1}, rejection-sampled (no modulo bias)."""
        if bound < 1:
            raise InvalidParameter("bound must be >= 1")
        out = np.empty(n, dtype=np.int64)
        if (1 << 64) % bound == 0:
            out[:] = (self.uint64(n) % np.uint64(bound)).astype(np.int64)
            return out
        limit = np.uint64((1 << 64) // bound * bound)
        filled = 0
        while filled < n:
            raw = self.uint64(n - filled + 8)
            good = raw[raw < limit]
            vals = (good % np.uint64(bound)).astype(np.int64)[: n - filled]
            out[filled : filled + len(vals)] = vals
            filled += len(vals)
        return out

    def permutation_indices(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n): the indices of n fresh u64
        keys in key order, redrawn while two keys are equal (about n**2 / 2**65
        per attempt). n < 2 draws nothing."""
        if n < 2:
            return np.arange(n)
        while True:
            keys = self.uint64(n).astype(_U64)
            order = np.argsort(keys)
            ranked = keys.take(order)
            if (ranked[1:] != ranked[:-1]).all():
                return order


def _drawn(rows: np.ndarray, streams) -> np.ndarray:
    """Overwrite each row rows[j] of the C-contiguous float64 array `rows`
    with the next draws of streams[j]; returns rows as a 1-D view."""
    if rows.dtype != _F64 or not rows.flags.c_contiguous or rows.shape[:1] != (len(streams),):
        raise InvalidParameter("the array must be C-contiguous float64, one row per stream")
    for stream, row in zip(streams, rows):
        stream._draws_into(row)
    return rows.reshape(-1)


def uniforms_into(rows: np.ndarray, streams, scale: float = 1.0) -> np.ndarray:
    """Fill each row rows[j] of the C-contiguous float64 array `rows`, in
    memory order, with the next doubles uniform on [0, 1) of streams[j], 53
    bits each, times scale; returns rows."""
    _uniform01(_drawn(rows, streams), scale)
    return rows


def normals_into(rows: np.ndarray, streams, scale: float = 1.0) -> np.ndarray:
    """Fill each row rows[j] of the C-contiguous float64 array `rows`, in
    memory order, with the next standard normals of streams[j], times scale;
    returns rows. The streams are distinct. Every row is drawn, _rectangle
    runs once over the batch, and the values outside their rectangles are
    resolved together, each from its own stream's second stream."""
    values = _drawn(rows, streams)
    width = math.prod(rows.shape[1:])
    pos, bits, x = _rectangle(values, scale)
    if pos.size:
        row, col = np.divmod(pos, width)
        draws = []
        for stream, count in zip(streams, np.bincount(row).tolist()):
            if count:
                if stream._redraw is None:
                    stream._redraw = ChaChaStream(stream._key, _REDRAWS)
                draws.append(stream._redraw.uint64(count * _BUDGET))
        # big-endian, as read: each step converts the columns it uses
        draws = (draws[0] if len(draws) == 1 else np.concatenate(draws)).reshape(-1, _BUDGET)

        def fallback(i):  # the stream of the i-th value's own index, once its budget is spent
            stream = streams[row[i]]
            return ChaChaStream(stream._key, _FALLBACK + (stream._normals + int(col[i])).to_bytes(8, "big"))

        values[pos] = scale * _resolve(bits, x, draws, fallback)
    for stream in streams:
        stream._normals += width
    return rows


def _top53(draws: np.ndarray) -> np.ndarray:
    """Reduce each big-endian u64 draw v held in the float64 array `draws` to
    v >> 11, in place; returns the array's uint64 view."""
    top53 = draws.view(_U64)
    np.right_shift(draws.view(_BIG_U64), _SHIFT, out=top53)
    return top53


def _uniform01(draws: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Turn the draws in `draws` into doubles uniform on [0, 1), 53 bits each,
    times scale, in place; returns draws."""
    np.multiply(_top53(draws), _TWO_NEG_53, out=draws)
    draws *= scale
    return draws


@functools.cache
def _layers() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(widths, limits, floors, heights): the ziggurat's layers, computed in
    decimal arithmetic at 30 digits (about 20 ms, once) and rounded once.

    Layer i >= 1 is [0, x_i] x [f(x_i), f(x_i) + v / x_i], from x_255 = r
    up: each x_(i-1) is where f reaches the top of layer i. Layer 0 is
    [0, v / f(r)] x [0, f(r)]; its part beyond r stands for the tail. For the
    low 9 bits b of a draw (layer b & 255, sign b >> 8), widths[b] is the
    layer's width times 2**-52, negative for sign 1, and limits[b] counts the
    52-bit magnitudes whose point lies left of the layer's inner edge (x_(i-1);
    0 for the top layer; r for layer 0), so wholly under the curve. floors and
    heights give each layer's y-range, for the wedge test.
    """
    with decimal.localcontext(decimal.Context(prec=30)):
        r, v = decimal.Decimal(_R), decimal.Decimal(_V)
        edges, tops = [r], [(-r * r / 2).exp()]  # x_255 down to x_1, and f there
        while len(edges) < 255:
            x = (-2 * (tops[-1] + v / edges[-1]).ln()).sqrt()
            edges.append(x)
            tops.append((-x * x / 2).exp())
        edges.reverse()
        tops.reverse()
        widths = [v / tops[-1]] + edges
        inners = [r, decimal.Decimal(0)] + edges[:-1]
        limits = [math.ceil(inner / width * 2**52) for inner, width in zip(inners, widths)]
        floors = [0.0] + [float(t) for t in tops]
        heights = [0.0] + [float(v / x) for x in edges]
    widths = np.array([float(w) for w in widths]) * 2.0**-52
    tables = np.concatenate([widths, -widths]), np.array(limits * 2, dtype=_U64), np.array(floors), np.array(heights)
    for table in tables:
        table.setflags(write=False)  # shared by every caller
    return tables


def _exp(t: np.ndarray) -> np.ndarray:
    """e**t for float64 t in [-8, 0]: t = n ln 2 + g with |g| <= ln 2 / 2
    (Cody and Waite), and e**g by its Taylor polynomial to g**13."""
    n = np.rint(t * _INV_LN2)
    g = t - n * _LN2_HEAD
    g -= n * _LN2_TAIL
    p = np.full_like(g, _EXP_TERMS[0])
    for c in _EXP_TERMS[1:]:
        p *= g
        p += c
    return np.ldexp(p, n.astype(np.int32))


def _below_exp(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """y < _exp(t), elementwise, settled by numpy's exp wherever that cannot
    err: an exp within 2**-45 of the true value (numpy's is within a few
    ulps) puts _exp(t) inside exp(t) * (1 +- 2**-40), so only a y in that
    band, about once in 10**12, needs _exp itself. That saves _exp's 30
    numpy calls, the larger part of the wedge test on a small key."""
    e = np.exp(t)
    below = y < e * (1.0 - 2.0**-40)
    band = ~below & (y < e * (1.0 + 2.0**-40))
    if band.any():
        below[band] = y[band] < _exp(t[band])
    return below


def _log(u: np.ndarray) -> np.ndarray:
    """ln u for float64 u in (0, 1]: u = m 2**e with m in [sqrt(1/2), sqrt(2)),
    and ln m = 2 atanh(s), s = (m - 1) / (m + 1), by its series to s**21."""
    m, e = np.frexp(u)
    low = m < _SQRT_HALF
    m = np.where(low, m + m, m)
    e = (e - low).astype(np.float64)
    f = m - 1.0
    s = f / (f + 2.0)
    z = s * s
    p = np.full_like(z, _LOG_TERMS[0])
    for c in _LOG_TERMS[1:]:
        p *= z
        p += c
    return e * _LN2_HEAD + (e * _LN2_TAIL + s * p)


def _scratch(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's work buffers for _rectangle, two of 8-byte and one of
    bool values, n <= KEY_BLOCK long. They are kept: temporaries this large,
    freed after every block, went back to the system and faulted in again,
    at about 160 page faults a block."""
    bufs = getattr(_SCRATCH, "bufs", None)
    if bufs is None or bufs[0].size < n:
        bufs = _SCRATCH.bufs = (np.empty(KEY_BLOCK, np.int64), np.empty(KEY_BLOCK, _U64), np.empty(KEY_BLOCK, bool))
    return bufs[0][:n], bufs[1][:n], bufs[2][:n]


def _rectangle(draws: np.ndarray, scale: float, start: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ziggurat's fast path, in place over the raw draws in the 1-D
    float64 array `draws`, KEY_BLOCK values at a time: each draw v becomes
    (v >> 9 & (2**52 - 1)) * widths[v & 511] times scale, its normal wherever
    that magnitude is below limits[v & 511]. Returns the positions (plus
    start) where it is not, with their low 9 bits and unscaled values, for
    normals_into."""
    if draws.size > KEY_BLOCK:
        parts = [_rectangle(draws[i : i + KEY_BLOCK], scale, start + i) for i in range(0, draws.size, KEY_BLOCK)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    widths, limits, _, _ = _layers()
    bits, mags, outside = _scratch(draws.size)
    raw = draws.view(_BIG_U64)
    # int64 indices, and no bounds check to spend (they are below 512): take
    # is then 6x faster
    np.bitwise_and(raw, _LOW9, out=bits.view(_U64))
    np.right_shift(raw, _NINE, out=mags)
    mags &= _MAGNITUDE
    # draws is free from here on: it holds each draw's limit, then its width
    np.greater_equal(mags, limits.take(bits, out=draws.view(_U64), mode="clip"), out=outside)
    pos = np.flatnonzero(outside)
    np.multiply(mags, widths.take(bits, out=draws, mode="clip"), out=draws)
    x = draws[pos]
    if scale != 1.0:
        draws *= scale
    return pos + start, bits[pos], x


def _resolve(bits: np.ndarray, x: np.ndarray, draws: np.ndarray, fallback) -> np.ndarray:
    """The normals of the values outside their rectangles, given their low 9
    bits, their values x and a (count, _BUDGET) array of second-stream draws
    each, two per step of _step; fallback(i) is the stream that value i
    continues from if its budget runs out (about 2 in 10**7 of them, nearly
    all in the tail)."""
    out = np.empty(x.size)
    todo = np.arange(x.size)
    for s in range(0, _BUDGET, 2):
        if not todo.size:
            return out
        done, value, bits, x = _step(bits, x, draws[todo, s], draws[todo, s + 1])
        out[todo[done]] = value[done]
        todo, bits, x = todo[~done], bits[~done], x[~done]
    for i, b, v in zip(todo.tolist(), bits, x):
        stream, done, b, v = fallback(i), [False], b[None], v[None]
        while not done[0]:
            u, w = stream.uint64(2)
            done, value, b, v = _step(b, v, u[None], w[None])
        out[i] = value[0]
    return out


def _step(bits, x, u, w):
    """One step of the ziggurat past the rectangle test, with draws u and w
    for each value, given by its low 9 bits and its value x.

    In layer 0 it is a tail attempt (Marsaglia and Tsang): with u' and w'
    uniform on (0, 1] from u and w, t = -ln(u') / r and y = -ln(w') give
    +-(r + t), the sign of the layer, if 2 y > t**2. In any other layer it is
    the wedge test: x is taken if floor + u'' * height < exp(-x**2 / 2), u''
    uniform on [0, 1) from u; if not, w is a whole new draw, taken if it lies
    in its rectangle. Returns (done, value, bits, x), the last two for the
    next step: a rejected tail attempt stays in the tail, and a rejected
    wedge goes on with w.
    """
    widths, limits, floors, heights = _layers()
    layer = bits & 255
    tail = layer == 0
    y = (u >> _SHIFT) * _TWO_NEG_53
    y *= heights.take(layer)
    y += floors.take(layer)
    wedge = _below_exp(y, x * x * -0.5)
    new_bits = (w & _LOW9).view(np.int64)
    mags = (w >> _NINE) & _MAGNITUDE
    new_x = mags * widths.take(new_bits)
    done = ~tail & (wedge | (mags < limits.take(new_bits)))
    value = np.where(wedge, x, new_x)
    bits, x = np.where(tail, bits, new_bits), np.where(tail, x, new_x)
    if tail.any():
        t = np.flatnonzero(tail)
        logs = _log(((np.concatenate((u[t], w[t])) >> _SHIFT) + _ONE) * _TWO_NEG_53)
        dx, dy = -logs[: t.size] / _R_FLOAT, -logs[t.size :]
        value[t] = np.copysign(_R_FLOAT + dx, widths.take(bits[t]))
        done[t] = dy + dy > dx * dx
    return done, value, bits, x

