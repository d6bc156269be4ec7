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
before it batched its trials: one trial, one key and one einsum per input
at a time. test_simulator.py checks that run_sweep and uniformity_report
give the same bits.

Run:  python tests/oracle_reference.py
"""

import math
import struct
from fractions import Fraction

import mpmath as mp
import numpy as np

from modhash.core import (
    HashVector,
    _adopt,
    _check_even_k,
    _check_real,
    _check_size,
    _checked_input,
    _components,
    _sealed,
    mean_lee_distance,
)
from modhash.errors import InvalidParameter
from modhash.rng import KEY_BLOCK, ChaChaStream, check_seed, subseed
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
        m = len(body.u)
        parts = [struct.pack(">IdII", body.k, body.delta, body.n, m)]
        if body.a is not None:
            parts += [b"\x00", np.asarray(body.a, dtype=np.float64).astype(">f8", order="C").tobytes()]
        else:
            parts += [b"\x01", bytes(body.a_digest)]
        parts.append(np.asarray(body.u, dtype=np.float64).astype(">f8").tobytes())
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
    if name == "HammingRequest":
        code = body.code
        return struct.pack(">II", code.k, code.m) + np.packbits(code.bits).tobytes()
    if name == "HammingResponse":
        return struct.pack(">Q", body.distance)
    if name == "Abort":
        reason = body.reason.encode("utf-8")
        return struct.pack(">H", len(reason)) + reason
    raise TypeError(f"no reference encoding for {name}")


_FAMILIES = {"KeyShare": 1, "HashSubmission": 2, "DistanceResult": 3,
             "HammingRequest": 4, "HammingResponse": 5, "Abort": 6}


def reference_frame(env) -> bytes:
    """The frame of a valid envelope: u32 length, version 1, msg_type
    (family << 4 | kind << 2 | sender), the session id and the payload."""
    payload = _payload(env.body)
    msg_type = (_FAMILIES[type(env.body).__name__] << 4) | (int(env.kind) << 2) | int(env.sender)
    rest = bytes([1, msg_type]) + bytes(env.session_id) + payload
    return struct.pack(">I", len(rest)) + rest


def reference_hashes_under_fresh_key(k, m, n, seed, delta, xs, dither=True):
    """[hash_vector(generate_key(k, m, n, seed, delta), x) for x in xs] without
    holding A: A in blocks of whole rows, one einsum per x and block, then U
    (not drawn without dither)."""
    k = _check_even_k(k)
    m, n = _check_size(m, "M"), _check_size(n, "N")
    delta = _check_real(delta, "delta")
    stream = ChaChaStream(check_seed(seed))
    xs = [_checked_input(x, n) for x in xs]
    zs = np.empty((len(xs), m))
    rows = max(1, KEY_BLOCK // n)
    buf = np.empty((min(rows, m), n))
    for start in range(0, m, rows):
        block = stream.standard_normal_into(buf[: m - start], 1.0 / delta)
        if not np.isfinite(block).all():
            raise InvalidParameter("A entries must be finite")
        for x, z in zip(xs, zs):
            np.einsum("ij,j->i", block, x, out=z[start : start + len(block)])
    if dither:
        zs += stream.uniform01_into(np.empty(m), k)
    return [_adopt(HashVector, k=k, components=c) for c in _sealed(_components(zs, k))]


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


if __name__ == "__main__":
    main()
