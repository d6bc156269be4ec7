"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line (pytest reports FAIL on assertion).

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import struct
import time
from fractions import Fraction

import numpy as np

from modhash import (
    DEFAULT_DELTA,
    HashVector,
    Permutation,
    ProtocolKind,
    ProtocolParams,
    Role,
    bias_bound,
    deobfuscate_distance,
    drive_local,
    encode_lee_to_binary,
    expected_lee,
    expected_lee_bounds,
    generate_key,
    hash_vector,
    lee_distance,
    mean_lee_distance,
    obfuscate_hash,
    plan_m,
    plan_parameters,
    run_over_tcp,
    uniformity_report,
)
from modhash.errors import DecodeError
from modhash.messages import Envelope, HashSubmission
from modhash.rng import ChaChaStream, subseed
from modhash.simulate import SweepSpec, run_sweep
from modhash.transport import BobServer, CharlieServer
from modhash.wire import HEADER_LEN, decode_frame, encode_envelope

SEED = bytes.fromhex("00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff")


def _report(num, summary, t0):
    print(f"criterion {num:>2} PASS ({time.perf_counter() - t0:5.1f}s): {summary}")


def test_criterion_01_planner_worked_example():
    t0 = time.perf_counter()
    assert plan_m(8, 0.5, 10) == 244
    params = plan_parameters(1.9, 1.0, 10)
    assert (params.k, params.m) == (8, 244)
    _report(1, "plan_m(8, 0.5, 10) = 244 and the planner lands on (k=8, M=244)", t0)


def test_criterion_02_series_zero_point():
    t0 = time.perf_counter()
    for k in range(2, 66, 2):
        assert abs(expected_lee(0.0, k, DEFAULT_DELTA)) <= 1e-9
    _report(2, "expected_lee(0, k) = 0 within 1e-9 for all even k in [2, 64]", t0)


def test_criterion_03_series_vs_monte_carlo():
    t0 = time.perf_counter()
    k, n_keys = 8, 100_000
    seeds = ChaChaStream(SEED, b"mc-bridge")
    checks = []
    for dist in (0.5, 1.0, 2.0, 4.0, 8.0):
        x1 = np.array([0.0])
        x2 = np.array([dist])
        lees = np.empty(n_keys)
        for i in range(n_keys):
            key = generate_key(k, 1, 1, seeds.take(32))
            lees[i] = lee_distance(
                int(hash_vector(key, x1).components[0]),
                int(hash_vector(key, x2).components[0]),
                k,
            )
        mean = float(lees.mean())
        se = float(lees.std(ddof=1)) / math.sqrt(n_keys)
        theory = expected_lee(dist, k, DEFAULT_DELTA)
        assert abs(mean - theory) <= 3.0 * se, (dist, mean, theory, se)
        checks.append(f"d={dist:g}: |{mean:.4f}-{theory:.4f}|<={3*se:.4f}")
    _report(3, f"10^5 fresh single-component keys per point; {'; '.join(checks)}", t0)


def _grid_50x10():
    for k in range(2, 22, 2):
        for d in np.linspace(0.0, 2.0 * k, 50):
            yield float(d), k


def test_criterion_04_sandwich_bounds():
    t0 = time.perf_counter()
    violations = 0
    for d, k in _grid_50x10():
        lo, hi = expected_lee_bounds(d, k, DEFAULT_DELTA)
        val = expected_lee(d, k, DEFAULT_DELTA)
        if not (lo - 1e-12 <= val <= hi + 1e-12):
            violations += 1
    assert violations == 0
    _report(4, "lower <= series <= upper on the 50x10 (distance, k) grid, 0 violations", t0)


def test_criterion_05_identity_error_bound():
    t0 = time.perf_counter()
    violations = 0
    for d, k in _grid_50x10():
        if abs(expected_lee(d, k, DEFAULT_DELTA) - d) > bias_bound(d, k) + 1e-12:
            violations += 1
    assert violations == 0
    _report(5, "|expected_lee(d,k) - d| <= F(d,k) on the same grid, 0 violations", t0)


def test_criterion_06_simulated_curve_reproduction():
    t0 = time.perf_counter()
    m, n, trials = 500, 5000, 20
    knee_checked = plateau_checked = 0
    for k in (4, 8, 16):
        distances = tuple(sorted({k * i / 8.0 for i in range(9)} | {100.0 * k}))
        spec = SweepSpec((k,), m, n, distances, trials, subseed(SEED, b"figure2"))
        for row in run_sweep(spec):
            band = 3.0 * (k / 2.0) / (2.0 * math.sqrt(m * trials))
            assert row.abs_deviation <= band, (row, band)
            if row.distance == 100.0 * k:
                assert abs(row.empirical_mean - k / 4.0) <= 0.5, row
                plateau_checked += 1
            elif bias_bound(row.distance, k) < 0.05:
                assert abs(row.empirical_mean - row.distance) <= 0.5, row
                knee_checked += 1
    assert knee_checked >= 6 and plateau_checked == 3
    _report(
        6,
        f"N=5000, M=500, 20 trials/point: identity holds at {knee_checked} "
        f"below-knee points, plateau within 0.5 of k/4 at d=100k for k in (4,8,16)",
        t0,
    )


def test_criterion_07_lee_hamming_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for k in range(2, 66, 2):
        symbols = HashVector(k, np.arange(k))
        blocks = encode_lee_to_binary(symbols).bits.reshape(k, k // 2)
        ham = (blocks[:, None, :] != blocks[None, :, :]).sum(axis=2)
        vals = np.arange(k)
        lee = np.minimum(np.abs(vals[:, None] - vals[None, :]), k - np.abs(vals[:, None] - vals[None, :]))
        mismatches += int((ham != lee).sum())
    assert mismatches == 0
    _report(7, "hamming(c(a), c(b)) = lee(a, b) for all a, b and every even k <= 64", t0)


def test_criterion_08_obfuscation_algebra():
    t0 = time.perf_counter()
    stream = ChaChaStream(SEED, b"obfuscation")
    k = 8
    # exact de-mixing identity over randomized instances
    for i in range(10_000):
        m = 1 + int(stream.integers_below(40, 1)[0])
        p = int(stream.integers_below(81, 1)[0])
        h1 = HashVector(k, stream.integers_below(k, m))
        h2 = HashVector(k, stream.integers_below(k, m))
        if p:
            z1 = HashVector(k, stream.integers_below(k, p))
            z2 = HashVector(k, stream.integers_below(k, p))
        else:
            z1 = z2 = None
        perm = Permutation.random(m + p, stream)
        d = mean_lee_distance(obfuscate_hash(h1, z1, perm), obfuscate_hash(h2, z2, perm))
        d_tilde = mean_lee_distance(z1, z2) if p else Fraction(0)
        assert deobfuscate_distance(d, d_tilde, m, p) == mean_lee_distance(h1, h2)
    # plateau concentration at P = 10 M
    m, p = 32, 320
    sigma = (k / 2.0) / (2.0 * math.sqrt(m + p))
    hits = 0
    trials = 10_000
    for _ in range(trials):
        h1 = HashVector(k, stream.integers_below(k, m))
        h2 = HashVector(k, stream.integers_below(k, m))
        z1 = HashVector(k, stream.integers_below(k, p))
        z2 = HashVector(k, stream.integers_below(k, p))
        perm = Permutation.random(m + p, stream)
        d = mean_lee_distance(obfuscate_hash(h1, z1, perm), obfuscate_hash(h2, z2, perm))
        if abs(float(d) - k / 4.0) <= 3.0 * sigma:
            hits += 1
    assert hits >= 0.99 * trials, hits
    _report(
        8,
        f"10^4 instances de-mix exactly; with P=10M the observed mean sat within "
        f"3 Hoeffding deviations of k/4 in {hits / trials:.2%}",
        t0,
    )


def test_criterion_09_protocol_equivalence():
    t0 = time.perf_counter()
    params = ProtocolParams.from_dimensions(8, 64)
    n = 16
    tcp_checked = 0
    for s in range(100):
        scen_seed = subseed(SEED, b"scenario" + struct.pack(">I", s))
        vecs = ChaChaStream(scen_seed, b"vectors")
        x1 = vecs.standard_normal(n)
        x2 = x1 + 0.35 * vecs.standard_normal(n)
        means = set()
        for kind in ProtocolKind:
            local = drive_local(kind, x1, x2, params, scen_seed)
            means.add(local.mean_lee)
            with CharlieServer() as charlie:
                charlie.start()
                with BobServer(x2, charlie_address=charlie.address) as bob:
                    bob.start()
                    tcp = run_over_tcp(
                        kind, x1, params, scen_seed,
                        bob_address=bob.address,
                        charlie_address=(
                            charlie.address if kind != ProtocolKind.TWO_PARTY_HAMMING else None
                        ),
                    )
                    bob_estimate = bob.wait_result(tcp.session_id)
            assert tcp.mean_lee == local.mean_lee
            assert tcp.estimate == local.alice_estimate
            assert bob_estimate == local.bob_estimate
            local_inbound = [t.data for t in local.transcript if t.recipient == Role.ALICE]
            assert list(tcp.received_frames) == local_inbound  # byte-for-byte
            tcp_checked += 1
        assert len(means) == 1, f"scenario {s}: kinds disagree: {means}"
    assert tcp_checked == 300
    _report(
        9,
        "100 scenarios x 3 kinds: identical exact mean-Lee rationals; TCP "
        "loopback results byte-identical to in-process runs",
        t0,
    )


def test_criterion_10_dimension_hiding():
    t0 = time.perf_counter()
    frames = {}
    for n in (10, 100_000):
        key = generate_key(8, 244, n, subseed(SEED, b"dimhide"))
        h = hash_vector(key, np.zeros(n))
        env = Envelope(bytes(16), ProtocolKind.FULL_KEY_3P, Role.ALICE, HashSubmission(h))
        frames[n] = encode_envelope(env)
    assert len(frames[10]) == len(frames[100_000])
    (length,) = struct.unpack(">I", frames[10][:4])
    assert length == HEADER_LEN + 496 == 18 + 496
    assert len(frames[10]) == 4 + 18 + 496
    _report(10, "hash frame is 18+496 framed bytes at (k=8, M=244) for N=10 and N=10^5 alike", t0)


def test_criterion_11_uniformity():
    t0 = time.perf_counter()
    x = np.linspace(-3.0, 3.0, 8)
    stats = []
    for k in (4, 8, 16):
        report = uniformity_report(k, 50, 8, x, 100_000, subseed(SEED, b"uniformity"))
        assert report.passed, (k, report.statistic, report.threshold)
        stats.append(f"k={k}: chi2={report.statistic:.1f}<{report.threshold:.1f}")
    control = uniformity_report(
        8, 50, 8, np.zeros(8), 100_000, subseed(SEED, b"uniformity"), zero_dither=True
    )
    assert not control.passed
    _report(11, f"{'; '.join(stats)}; broken-dither negative control fails", t0)


def test_criterion_12_decoder_robustness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xC0FFEE)
    params = ProtocolParams.from_dimensions(8, 16, padding=8)
    x = np.linspace(-1, 1, 6)
    run = drive_local(ProtocolKind.OBFUSCATED_3P, x, x + 0.2, params, SEED)
    valid = [t.data for t in run.transcript]
    run2 = drive_local(ProtocolKind.TWO_PARTY_HAMMING, x, x + 0.2, params, SEED)
    valid += [t.data for t in run2.transcript]

    total = 1_000_000
    decoded = crashes = 0
    lengths = rng.integers(0, 96, size=total // 4)
    mut_pick = rng.integers(0, len(valid), size=total)
    for i in range(total):
        kind = i & 3
        if kind == 0:  # pure noise
            data = rng.bytes(int(lengths[i // 4]))
        elif kind == 1:  # mutated valid frame
            base = bytearray(valid[mut_pick[i]])
            for _ in range(1 + (i % 7)):
                base[int(rng.integers(len(base)))] = int(rng.integers(256))
            data = bytes(base)
        elif kind == 2:  # truncated / padded valid frame
            base = valid[mut_pick[i]]
            cut = int(rng.integers(0, len(base) + 4))
            data = base[:cut] if cut <= len(base) else base + bytes(cut - len(base))
        else:  # plausible header, random payload
            payload = rng.bytes(int(rng.integers(0, 64)))
            data = (
                struct.pack(">IBB", 18 + len(payload), 0x01, int(rng.integers(256)))
                + rng.bytes(16)
                + payload
            )
        try:
            decode_frame(data)
            decoded += 1
        except DecodeError:
            pass
        except Exception:  # anything else is a crash
            crashes += 1
    assert crashes == 0
    _report(
        12,
        f"10^6 fuzzed frames: 0 crashes, {decoded} decoded cleanly, rest typed errors",
        t0,
    )
