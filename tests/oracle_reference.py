"""Recompute the frozen expectation-curve reference values two independent ways.

The expected per-component Lee distance admits two derivations that share no
code with the library:

  1. 50-digit summation of the series  k/4 - (2k/pi^2) sum (2j-1)^-2 e^(-c(2j-1)^2)
  2. 50-digit quadrature of  E = integral f(u) w(u) du  where f is the
     half-normal density of |<a, x1 - x2>| (a ~ N(0, 1/delta^2) rows) and w is
     the period-k triangle wave (the mean Lee distance at a fixed projected
     gap), split at every kink of w and at multiples of the density's scale

The library evaluates neither: it sums the series in double precision for
c >= pi/2 and a closed form of the integral (the dual form, erfc and exp
terms) below that. The series (`nsum`) is slow and inaccurate as c -> 0,
and the quadrature needs one interval per half period of w, so each point
uses the derivation that suits it, and both where both are cheap; the
`reference` column says which. Where both run they agree to ~1e-40.

SERIES_REFERENCE in test_analysis.py freezes the series at the original five
points (17 significant digits, gated at abs 1e-9, reused by the acceptance
suite). DOMAIN_REFERENCE freezes the points below, which span the accepted
domain: d from 1e-8 to 100k, both sides of the crossover c = pi/2
(d = 0.2251 k at the default scale), k up to the wire limit 65534, and one
non-default delta; it is gated at 1e-12 relative. At the default scale the
tiny-d points also satisfy |E(d) - d| <= F(d, k) = d exp(-k^2 / (4 pi d^2)),
which is far below one ulp of d there; the script prints that bound.

Inputs are the exact doubles the tests pass, including delta.

reference_frame is a second, unrelated oracle: it encodes a protocol envelope
the plain way, converting every field to bytes and joining them, from the
frame layout in the wire module's docstring. test_wire.py checks the
library's one-pass encoder against it.

reference_sweep, reference_hashes_under_fresh_key and
reference_uniformity_counts are the Monte-Carlo harness as it was written
before it batched its trials: one trial at a time, each key made by
generate_key and applied by hash_vector. test_simulator.py checks that
run_sweep and uniformity_report give the same bits.

reference_normals is the normal sampler one value at a time, in plain
Python floats: the ziggurat's layers found afresh with mpmath (the r that
closes the top layer, by root finding), each value's draws read from the
ChaCha20 keystreams through `cryptography` directly, and the exp and log of
the wedge and tail tests written out as scalar code. test_rng.py checks the
package's whole-array sampler against it bit for bit.

Run:  python tests/oracle_reference.py
"""

import functools
import hashlib
import math
import struct
from fractions import Fraction

import mpmath as mp
import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from modhash.core import (
    HashKey,
    _check_even_k,
    _check_real,
    _check_size,
    _checked_input,
    generate_key,
    hash_vector,
    mean_lee_distance,
)
from modhash.rng import ChaChaStream, subseed
from modhash.simulate import SweepRow, _trial_seed, expected_lee

DELTA = math.sqrt(2.0 / math.pi)
POINTS = [(0.5, 8), (1.0, 8), (2.0, 8), (2.0, 16), (3.0, 6)]
WIRE_K = (2, 28, 256, 65534)
DOMAIN_POINTS = (
    [(d, k, DELTA) for d in (1e-8, 1e-6, 1e-4, 1e-3) for k in WIRE_K]
    + [(d, k, DELTA) for k, ds in ((2, (0.44, 0.46)), (28, (6.16, 6.44)), (256, (56.32, 58.88)),
                                   (65534, (14417.48, 15072.82))) for d in ds]
    + [(f * k, k, DELTA) for f in (10.0, 100.0) for k in WIRE_K]
    + [(d, 28, 1.5) for d in (1e-6, 11.5, 12.0, 280.0)]
)

mp.mp.dps = 50


def series_value(dist, k, delta=DELTA):
    d, k, delta = mp.mpf(dist), mp.mpf(k), mp.mpf(delta)
    if d == 0:
        return mp.mpf(0)
    c = 2 * (mp.pi * d / (delta * k)) ** 2
    s = mp.nsum(lambda j: mp.exp(-c * (2 * j - 1) ** 2) / (2 * j - 1) ** 2, [1, mp.inf])
    return k / 4 - (2 * k / mp.pi**2) * s


def quadrature_value(dist, k, delta=DELTA):
    d, k, delta = mp.mpf(dist), mp.mpf(k), mp.mpf(delta)
    if d == 0:
        return mp.mpf(0)
    scale = d / delta
    upper = 17 * scale  # the density is below 1e-62 of its peak beyond
    cuts = {mp.mpf(0), upper}
    cuts |= {j * k / 2 for j in range(1, int(upper / (k / 2)) + 1)}
    cuts |= {m * scale for m in (1, 2, 4, 8)}

    def integrand(u):
        r = mp.fmod(u, k)
        density = mp.sqrt(2 / mp.pi) / scale * mp.exp(-((u / scale) ** 2) / 2)
        return density * min(r, k - r)

    return mp.quad(integrand, sorted(c for c in cuts if c <= upper))


def reference(dist, k, delta=DELTA):
    """(value, which): the series where it converges fast, the quadrature
    where it needs few intervals, and both (checked to agree) in between."""
    c = 2 * (math.pi * dist / (delta * k)) ** 2
    use_series = c >= 0.05
    use_quad = dist / delta <= 6 * k
    values = {}
    if use_series:
        values["series"] = series_value(dist, k, delta)
    if use_quad:
        values["quadrature"] = quadrature_value(dist, k, delta)
    if len(values) == 2:
        s, q = values["series"], values["quadrature"]
        assert abs(s - q) <= mp.mpf(10) ** -35 * abs(s), (dist, k, delta, s, q)
        return s, "both"
    (which, value), = values.items()
    return value, which


def main():
    print(f"{'dist':>6} {'k':>3} {'series (50 dps)':>22} {'quadrature':>22} {'|diff|':>10}")
    for dist, k in POINTS:
        s = series_value(dist, k)
        q = quadrature_value(dist, k)
        print(f"{dist:6.2f} {k:3d} {mp.nstr(s, 17):>22} {mp.nstr(q, 17):>22} {float(abs(s - q)):>10.2e}")
    print("\nfreeze the series column into SERIES_REFERENCE when points change\n")
    print("DOMAIN_REFERENCE = {")
    for dist, k, delta in DOMAIN_POINTS:
        value, which = reference(dist, k, delta)
        key = f"({dist!r}, {k}, {'DEFAULT_DELTA' if delta == DELTA else repr(delta)})"
        note = f"  # F(d, k) = {dist * math.exp(-k * k / (4 * math.pi * dist * dist)):.1e}" if dist < 1e-2 and delta == DELTA else ""
        print(f"    {key}: ({float(value)!r}, {which!r}),{note}")
    print("}")


def _payload(body) -> bytes:
    name = type(body).__name__
    if name == "KeyShare":
        key = body.key
        m, n = key.a.shape
        parts = [struct.pack(">IdII", key.k, key.delta, n, m), b"\x00"]  # a_form: A in full
        parts.append(np.asarray(key.a, dtype=np.float64).astype(">f8", order="C").tobytes())
        parts.append(np.asarray(key.u, dtype=np.float64).astype(">f8").tobytes())
        perm = body.permutation
        if perm is None:
            parts.append(struct.pack(">I", 0))
        else:
            parts += [struct.pack(">I", perm.size), perm.mapping.astype(">u4").tobytes()]
        if body.pad1 is None:
            parts.append(struct.pack(">I", 0))
        else:
            parts.append(struct.pack(">I", body.pad1.m))
            parts += [pad.components.astype(">u2").tobytes() for pad in (body.pad1, body.pad2)]
        return b"".join(parts)
    if name == "HashSubmission":
        v = body.vector
        return struct.pack(">II", v.k, v.m) + v.components.astype(">u2").tobytes()
    if name == "DistanceResult":
        frac = Fraction(body.mean_lee)
        return struct.pack(">QQI", frac.numerator, frac.denominator, body.count)
    if name == "Abort":
        reason = body.reason.encode("utf-8")
        return struct.pack(">H", len(reason)) + reason
    raise TypeError(f"no reference encoding for {name}")


_FAMILIES = {"KeyShare": 1, "HashSubmission": 2, "DistanceResult": 3, "Abort": 6}


def reference_frame(env) -> bytes:
    """The frame of a valid envelope: u32 length, version 1, msg_type
    (family << 4 | kind << 2 | sender), the session id and the payload."""
    payload = _payload(env.body)
    msg_type = (_FAMILIES[type(env.body).__name__] << 4) | (int(env.kind) << 2) | int(env.sender)
    rest = bytes([1, msg_type]) + bytes(env.session_id) + payload
    return struct.pack(">I", len(rest)) + rest


def reference_hashes_under_fresh_key(k, m, n, seed, delta, xs, dither=True):
    """[hash_vector(generate_key(k, m, n, seed, delta), x) for x in xs], with
    an all-zero dither instead of U without dither, the inputs being checked
    before the key is made."""
    _check_even_k(k), _check_size(m, "M"), _check_size(n, "N"), _check_real(delta, "delta")
    xs = [_checked_input(x, n) for x in xs]
    key = generate_key(k, m, n, seed, delta)
    if not dither:
        key = HashKey(k, key.delta, key.a, np.zeros(m))
    return [hash_vector(key, x) for x in xs]


def _reference_pair(stream, n, distance):
    x1 = stream.standard_normal(n)
    norm = 0.0
    while norm == 0.0:
        direction = stream.standard_normal(n)
        norm = math.sqrt(np.einsum("i,i->", direction, direction))
    return x1, x1 + (distance / norm) * direction


def reference_sweep(spec):
    """run_sweep one trial at a time."""
    rows = []
    for k in spec.k_values:
        for distance in spec.distances:
            means = np.empty(spec.trials)
            for trial in range(spec.trials):
                tseed = _trial_seed(spec.seed, k, distance, trial)
                x1, x2 = _reference_pair(ChaChaStream(tseed, b"inputs"), spec.n, distance)
                h1, h2 = reference_hashes_under_fresh_key(
                    k, spec.m, spec.n, subseed(tseed, b"key"), spec.delta, (x1, x2)
                )
                means[trial] = float(mean_lee_distance(h1, h2))
            mean = float(means.mean())
            std = float(means.std(ddof=1)) if spec.trials > 1 else 0.0
            expected = expected_lee(distance, k, spec.delta)
            rows.append(SweepRow(k, distance, mean, std, expected, abs(mean - expected)))
    return rows


def reference_uniformity_counts(k, m, n, x, samples, seed, zero_dither=False):
    """uniformity_report's histogram, one key at a time."""
    counts = np.zeros(k, dtype=np.int64)
    for i in range(-(-samples // m)):
        key_seed = subseed(seed, b"uniformity" + struct.pack(">I", i))
        (h,) = reference_hashes_under_fresh_key(k, m, n, key_seed, DELTA, (x,), dither=not zero_dither)
        counts += np.bincount(h.components, minlength=k)
    return tuple(int(c) for c in counts)


# ------------------------------------------------------------------ normals

ZIGGURAT_LAYERS = 256
ZIGGURAT_BUDGET = 8  # second-stream draws reserved for each value outside its rectangle
_MASK52 = (1 << 52) - 1


def _f(x):
    return mp.exp(-x * x / 2)


def _ziggurat_edges(r):
    """x_255 = r, then each x_(i-1) where f reaches the top of layer i, down to
    x_1; and the layers' common area v (the base strip plus the tail)."""
    v = r * _f(r) + mp.sqrt(mp.pi / 2) * mp.erfc(r / mp.sqrt(2))
    edges = [r]
    for _ in range(ZIGGURAT_LAYERS - 2):
        edges.append(mp.sqrt(-2 * mp.log(_f(edges[-1]) + v / edges[-1])))
    return edges, v


@functools.cache
def ziggurat_root():
    """(r, v) at 50 digits: the r at which the top layer, [0, x_1] x
    [f(x_1), f(x_1) + v / x_1], reaches f = 1 exactly."""
    def gap(r):
        edges, v = _ziggurat_edges(r)
        return _f(edges[-1]) + v / edges[-1] - 1

    # the secant steps may stray where a log's argument passes 1; the root is real
    r = mp.re(mp.findroot(gap, mp.mpf("3.654")))
    return r, _ziggurat_edges(r)[1]


@functools.cache
def ziggurat_tables():
    """(widths, limits, floors, heights) as the rng module's docstring of
    _layers defines them, from mpmath at 50 digits, each rounded once."""
    r, v = ziggurat_root()
    edges = _ziggurat_edges(r)[0][::-1]  # x_1 .. x_255
    widths = [v / _f(r)] + edges
    inners = [r, mp.mpf(0)] + edges[:-1]
    limits = [int(mp.ceil(inner / width * 2**52)) for inner, width in zip(inners, widths)]
    widths = [float(w) * 2.0**-52 for w in widths]
    return (
        widths + [-w for w in widths],
        limits * 2,
        [0.0] + [float(_f(x)) for x in edges],
        [0.0] + [float(v / x) for x in edges],
    )


@functools.cache
def _kernel_constants():
    ln2 = mp.log(2)
    head = math.floor(ln2 * 2**32) * 2.0**-32
    return head, float(ln2 - head), float(1 / ln2), float(mp.sqrt(mp.mpf(1) / 2))


def reference_exp(t):
    """e**t as the rng module computes it: n = t / ln 2 rounded half to even,
    g = (t - n * head) - n * tail, Horner's rule on 1/13! .. 1/0!."""
    head, tail, inv_ln2, _ = _kernel_constants()
    n = round(t * inv_ln2)
    g = t - n * head
    g = g - n * tail
    p = float(Fraction(1, math.factorial(13)))
    for j in range(12, -1, -1):
        p = p * g + float(Fraction(1, math.factorial(j)))
    return math.ldexp(p, n)


def reference_log(u):
    """ln u as the rng module computes it, for u in (0, 1]: u = m 2**e with
    m in [sqrt(1/2), sqrt(2)), s = (m - 1) / (m + 1), z = s**2, Horner's rule
    on 2/21 .. 2/1 in z, times s."""
    head, tail, _, sqrt_half = _kernel_constants()
    m, e = math.frexp(u)
    if m < sqrt_half:
        m, e = m + m, e - 1
    f = m - 1.0
    s = f / (f + 2.0)
    z = s * s
    p = float(Fraction(2, 21))
    for j in range(9, -1, -1):
        p = p * z + float(Fraction(2, 2 * j + 1))
    return e * head + (e * tail + s * p)


def _keystream(key: bytes):
    """The big-endian u64 draws of ChaCha20 under key, with a zero nonce."""
    enc = Cipher(algorithms.ChaCha20(key, bytes(16)), mode=None).encryptor()
    while True:
        block = enc.update(bytes(4096))
        yield from (int.from_bytes(block[i : i + 8], "big") for i in range(0, len(block), 8))


def _label_key(key: bytes, label: bytes) -> bytes:
    return hashlib.sha256(key + b"\x00" + label).digest()


def reference_normal(v, budget, fallback, path=None):
    """The normal of main draw v. budget() returns this value's
    ZIGGURAT_BUDGET second-stream draws, taken only if v lies outside its
    rectangle; fallback() returns an iterator over the draws that follow them
    if the budget runs out. The list `path`, if given, gets the name of each
    way the value went: rectangle, wedge, redraw, tail, fallback."""
    path = [] if path is None else path
    widths, limits, floors, heights = ziggurat_tables()
    r = float(ziggurat_root()[0])
    b, mag = v & 511, (v >> 9) & _MASK52
    x = mag * widths[b]
    if mag < limits[b]:
        path.append("rectangle")
        return x
    draws, rest, i = budget(), None, 0
    while True:
        if i == len(draws):
            if rest is None:
                path.append("fallback")
                rest = fallback()
            draws += [next(rest), next(rest)]
        u, w = draws[i], draws[i + 1]
        i += 2
        layer = b & 255
        if layer == 0:  # a tail attempt
            path.append("tail")
            dx = -reference_log(((u >> 11) + 1) * 2.0**-53) / r
            dy = -reference_log(((w >> 11) + 1) * 2.0**-53)
            if dy + dy > dx * dx:
                return math.copysign(r + dx, widths[b])
        else:  # the wedge test, then a whole new draw
            path.append("wedge")
            y = floors[layer] + (u >> 11) * 2.0**-53 * heights[layer]
            if y < reference_exp(x * x * -0.5):
                return x
            path.append("redraw")
            b, mag = w & 511, (w >> 9) & _MASK52
            x = mag * widths[b]
            if mag < limits[b]:
                return x


def reference_fallback(key: bytes, index: int):
    """The draws after value `index`'s budget, of the stream with this key."""
    return _keystream(_label_key(key, b"ziggurat fallback" + index.to_bytes(8, "big")))


def reference_normals(seed: bytes, count: int, label: bytes = b"", first: int = 0):
    """Normals first .. first + count - 1 of ChaChaStream(seed, label), one
    value at a time: the main stream gives one draw per value; the stream
    keyed sha256(key || 0 || "ziggurat redraws") gives ZIGGURAT_BUDGET draws to
    each value outside its rectangle, in value order; and value i continues
    from the stream keyed sha256(key || 0 || "ziggurat fallback" || i as 8
    bytes big-endian) if it needs more."""
    key = _label_key(seed, label) if label else seed
    main, redraws = _keystream(key), _keystream(_label_key(key, b"ziggurat redraws"))
    out = []
    for i in range(first + count):
        v = next(main)

        def budget():
            return [next(redraws) for _ in range(ZIGGURAT_BUDGET)]

        x = reference_normal(v, budget, lambda i=i: reference_fallback(key, i))
        if i >= first:
            out.append(x)
    return out


if __name__ == "__main__":
    main()
