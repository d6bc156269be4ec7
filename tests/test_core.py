import ast
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_reference import reference_normals

import modhash
from modhash import (
    BinaryCode,
    DimensionMismatch,
    HashKey,
    HashVector,
    InvalidInput,
    InvalidParameter,
    Permutation,
    ProtocolParams,
    apply_permutation,
    decode_binary_to_lee,
    deobfuscate_distance,
    encode_lee_to_binary,
    expected_lee,
    generate_key,
    hamming_distance,
    hash_vector,
    lee_distance,
    mean_lee_distance,
    plan_m,
)
from modhash import core
from modhash.core import DEFAULT_DELTA, _hashes_under_fresh_keys
from modhash.messages import KeyShare
from modhash.rng import KEY_BLOCK, ChaChaStream
from modhash.simulate import SweepSpec, run_sweep, uniformity_report

SEED = bytes(range(32))


# ------------------------------------------------------------------ keys


def test_generate_key_is_deterministic():
    k1 = generate_key(8, 244, 100, SEED)
    k2 = generate_key(8, 244, 100, SEED)
    assert np.array_equal(k1.a, k2.a)
    assert np.array_equal(k1.u, k2.u)
    assert k1 == k2


# SHA-256 of a.tobytes() + u.tobytes(), pinned from whole-array draws of A
# (ziggurat normals) and then U. Keys are made in blocks of KEY_BLOCK values;
# these shapes put the block edges everywhere they could change a bit.
KEY_DIGESTS = [
    (8, 1, 1, None, "a67f4b66295312f15376bbb2f35fbb2013a706be76829f5f68865f3993304c8c"),
    (8, 500, 5000, None, "6adf1ffb4541eeb6437d435d9c581f79b2ffd63e71105fbc4e9702dcb13aa6a2"),
    (28, 2989, 100, None, "e01135f40d990f1369f098b7a5b244a1b484f9274441819ee318a5f2bd5849e9"),
    (6, 5000, 2, None, "05cc0c41dc118f42ba8f2dc5b5f6e6e6fa5923fa2cbd26260d76490130b33ff7"),
    (8, 217, 151, None, "3d51c5804c05894e6cb07f575c8ae996e5c8fcd48722f6bb4157727a0e0b36b2"),  # KEY_BLOCK - 1
    (8, 256, 128, None, "588d98cf32e6f56f90b528dc6a9c03508579974bdeca9fd8292fda460add3cdf"),  # KEY_BLOCK
    (8, 99, 331, None, "5044e876bb2d264e1bddee4d66eb4bf96e6a12992fb53e1c43627b33b3b32f00"),  # KEY_BLOCK + 1
    (8, 7, 3, None, "2969b11ecb0871e03b9361ca6ff7b3afac3642b9b52d20ae93ec07456685c179"),  # U mid ChaCha block
    (4, 40000, 1, None, "385ca5ad93ab1e14d18d5a9eb3f6871258bc14a02363b5333ec00eaedf1be0cd"),  # U spans 2 blocks
    (16, 123, 457, 1.25, "f2f2168d227de2dba32e2dad2c55953f420e4b7e7376cc788ab72578949e34e8"),
]


@pytest.mark.parametrize("k, m, n, delta, digest", KEY_DIGESTS, ids=[f"{k}-{m}-{n}-{d}" for k, m, n, d, _ in KEY_DIGESTS])
def test_key_bits_are_pinned_across_block_edges(k, m, n, delta, digest):
    key = generate_key(k, m, n, SEED) if delta is None else generate_key(k, m, n, SEED, delta)
    assert hashlib.sha256(key.a.tobytes() + key.u.tobytes()).hexdigest() == digest


def test_pinned_key_shapes_straddle_the_block_edges():
    sizes = [m * n for _, m, n, _, _ in KEY_DIGESTS]
    assert {KEY_BLOCK - 1, KEY_BLOCK, KEY_BLOCK + 1} <= set(sizes)
    # U's first draw falls mid-block (A leaves a partial last block) and U
    # itself needs more than one block
    assert any(size % KEY_BLOCK and m > KEY_BLOCK for (_, m, _, _, _), size in zip(KEY_DIGESTS, sizes))


def test_stream_fills_match_whole_array_draws_at_any_length():
    want = np.array(reference_normals(SEED, 2 * KEY_BLOCK + 3))
    for n in (1, 7, KEY_BLOCK - 1, KEY_BLOCK, 2 * KEY_BLOCK + 3):
        draws = (ChaChaStream(SEED).uint64(n) >> np.uint64(11)).astype(np.float64)
        normals = ChaChaStream(SEED).standard_normal_into(np.empty(n), 1.5)
        assert np.array_equal(normals, want[:n] * 1.5)
        assert np.array_equal(ChaChaStream(SEED).uniform01(n), draws * 2.0**-53)


def test_key_matrix_is_the_streams_normals_times_its_scale():
    key = generate_key(8, 217, 151, SEED, 0.75)
    assert np.array_equal(key.a.reshape(-1), ChaChaStream(SEED).standard_normal(217 * 151) * (1.0 / 0.75))


def test_stream_fill_refuses_a_buffer_it_cannot_fill_in_place():
    with pytest.raises(InvalidParameter):
        ChaChaStream(SEED).standard_normal_into(np.empty((4, 3)).T)
    with pytest.raises(InvalidParameter):
        ChaChaStream(SEED).uniform01_into(np.empty(4, dtype=np.float32))


def test_generated_arrays_are_read_only():
    key = generate_key(8, 4, 3, SEED)
    h = hash_vector(key, np.arange(3.0))
    p = Permutation.random(5, ChaChaStream(SEED))
    for arr in (key.a, key.u, h.components, p.mapping, p.inverse().mapping):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0
    # the public constructors copy even the package's own sealed arrays
    assert HashKey(key.k, key.delta, key.a, key.u).a is not key.a
    assert HashVector(h.k, h.components).components is not h.components


def test_tiny_delta_overflowing_a_is_still_refused():
    with pytest.raises(InvalidParameter, match="A entries must be finite"):
        generate_key(8, 2, 2, SEED, delta=1e-310)


def test_constructors_copy_what_a_caller_can_still_write():
    a, u = np.ones((2, 3)), np.array([0.5, 1.5])
    comps, mapping = np.array([1, 2, 3]), np.array([2, 0, 1])
    key, h, p = HashKey(8, 1.0, a, u), HashVector(8, comps), Permutation(3, mapping)
    a[:], u[:], comps[:], mapping[:] = 7.0, 2.5, 0, [0, 1, 2]
    assert (key.a == 1.0).all() and key.u.tolist() == [0.5, 1.5]
    assert h.components.tolist() == [1, 2, 3] and p.mapping.tolist() == [2, 0, 1]
    # a read-only view is copied too: its base is still writable
    base = np.ones((2, 3))
    view = base.view()
    view.setflags(write=False)
    key = HashKey(8, 1.0, view, np.zeros(2))
    base[:] = 5.0
    assert (key.a == 1.0).all()


def test_constructors_copy_locked_arrays_a_caller_can_still_reach():
    # a writable view made before its base was locked still writes to it
    a, comps, mapping = np.ones((2, 3)), np.array([1, 2, 3]), np.array([2, 0, 1])
    views = a[:], comps[:], mapping[:]
    for arr in (a, comps, mapping):
        arr.setflags(write=False)
    key, h, p = HashKey(8, 1.0, a, np.zeros(2)), HashVector(8, comps), Permutation(3, mapping)
    views[0][0, 0], views[1][0], views[2][:] = np.nan, 99, [0, 0, 0]
    assert (key.a == 1.0).all() and h.components.tolist() == [1, 2, 3] and p.mapping.tolist() == [2, 0, 1]
    # the owner of a locked array can turn writing back on
    for arr in (a, comps, mapping):
        arr.setflags(write=True)
    a[0, 0], comps[0], mapping[:] = np.inf, -1, [1, 1, 1]
    assert (key.a == 1.0).all() and h.components.tolist() == [1, 2, 3] and p.mapping.tolist() == [2, 0, 1]


def test_shared_key_checks_everything_and_copies_only_writable_arrays():
    # A key share holds Alice's HashKey as it is: its arrays are sealed, so
    # nothing is copied again. A caller's writable arrays are copied by the
    # HashKey constructor, which runs every check of key material.
    key = generate_key(8, 4, 3, SEED)
    share = KeyShare(key)
    assert share.key is key and share.key.a is key.a and share.key.u is key.u
    a, u = np.ones((2, 3)), np.array([0.5, 1.5])
    bob = HashKey(8, 1.0, a, u)
    a[:], u[:] = 7.0, 2.5
    assert (bob.a == 1.0).all() and bob.u.tolist() == [0.5, 1.5] and a.flags.writeable
    bad_a = np.ones((2, 3))
    bad_a[0, 0] = np.nan
    bad_a.setflags(write=False)
    cases = [
        (7, 1.0, np.ones((2, 3)), np.zeros(2), "even integer"),
        (8, 0.0, np.ones((2, 3)), np.zeros(2), "delta"),
        (8, 1.0, bad_a, np.zeros(2), "A entries must be finite"),
        (8, 1.0, np.ones(3), np.zeros(1), "2-D matrix"),
        (8, 1.0, np.ones((2, 3)), np.array([0.0, 8.0]), "0 <= u < k"),
    ]
    for k, delta, a, u, match in cases:
        with pytest.raises(InvalidParameter, match=match):
            HashKey(k, delta, a, u)
    with pytest.raises(DimensionMismatch, match="one entry per row"):
        HashKey(8, 1.0, np.ones((2, 3)), np.zeros(3))


def test_generate_key_differs_across_seeds():
    k1 = generate_key(8, 32, 16, SEED)
    k2 = generate_key(8, 32, 16, bytes(32))
    assert not np.array_equal(k1.a, k2.a)


def test_projection_variance_matches_default_scale():
    # At the default scale the projection entries have variance pi/2; a
    # chi-square interval over 24400 samples stays well within 5%.
    key = generate_key(8, 244, 100, SEED)
    assert key.a.shape == (244, 100)
    sample_var = float(key.a.var())
    assert abs(sample_var - math.pi / 2) / (math.pi / 2) < 0.05


def test_dither_is_uniform_on_half_open_range():
    key = generate_key(6, 5000, 2, SEED)
    assert float(key.u.min()) >= 0.0
    assert float(key.u.max()) < 6.0
    assert abs(float(key.u.mean()) - 3.0) < 0.15


@pytest.mark.parametrize("bad_k", [7, 1, 0, -2, 3])
def test_odd_or_small_k_rejected(bad_k):
    with pytest.raises(InvalidParameter):
        generate_key(bad_k, 4, 4, SEED)


@pytest.mark.parametrize("m,n", [(0, 4), (4, 0), (-1, 4)])
def test_nonpositive_dimensions_rejected(m, n):
    with pytest.raises(InvalidParameter):
        generate_key(8, m, n, SEED)


# One call per numeric check: its name, the call, and whether it takes floats.
_NUMERIC_CHECKS = {
    "_check_real": (lambda v: expected_lee(v, 8), True),
    "_check_size": (Permutation.identity, False),
    "generate_key M": (lambda v: generate_key(8, v, 2, SEED), False),
    "generate_key N": (lambda v: generate_key(8, 2, v, SEED), False),
}


@pytest.mark.parametrize("check", sorted(_NUMERIC_CHECKS))
@pytest.mark.parametrize("value", [True, False, np.int64(3), np.uint16(3), np.float32(2.5), np.float64(2.5)], ids=repr)
def test_numeric_checks_refuse_bools_and_take_numpy_scalars(check, value):
    call, takes_floats = _NUMERIC_CHECKS[check]
    if isinstance(value, bool) or (isinstance(value, np.floating) and not takes_floats):
        with pytest.raises(InvalidParameter):
            call(value)
    else:
        assert call(value) == call(value.item())


_PARAMS_8_4 = ProtocolParams.from_dimensions(8, 4)

# Every count the package takes goes through core._check_size: each site's
# call, and whether it takes 0 (a padding length may be 0).
_COUNT_SITES = {
    "lee_distance k": (lambda v: lee_distance(0, 1, v), False),
    "plan_m beta": (lambda v: plan_m(8, 0.5, v), False),
    "ProtocolParams beta": (lambda v: dataclasses.replace(_PARAMS_8_4, beta=v), False),
    "ProtocolParams M": (lambda v: dataclasses.replace(_PARAMS_8_4, m=v), False),
    "ProtocolParams padding": (lambda v: dataclasses.replace(_PARAMS_8_4, padding=v), True),
    "from_dimensions M": (lambda v: ProtocolParams.from_dimensions(8, v), False),
    "from_dimensions beta": (lambda v: ProtocolParams.from_dimensions(8, 4, beta=v), False),
    "deobfuscate_distance M": (lambda v: deobfuscate_distance(1, 1, v, 0), False),
    "deobfuscate_distance P": (lambda v: deobfuscate_distance(1, 1, 4, v), True),
    "SweepSpec M": (lambda v: SweepSpec((8,), v, 4, (0.5,), 4, SEED), False),
    "SweepSpec N": (lambda v: SweepSpec((8,), 4, v, (0.5,), 4, SEED), False),
    "SweepSpec trials": (lambda v: SweepSpec((8,), 4, 4, (0.5,), v, SEED), False),
    "uniformity_report M": (lambda v: uniformity_report(2, v, 4, np.ones(4), 200, SEED), False),
    "uniformity_report N": (lambda v: uniformity_report(2, 4, v, np.ones(4), 200, SEED), False),
}


@pytest.mark.parametrize("site", sorted(_COUNT_SITES))
@pytest.mark.parametrize("value", [True, "x", 2.5, -1, 0, np.int64(4)], ids=repr)
def test_every_count_goes_through_check_size(site, value):
    call, zero_ok = _COUNT_SITES[site]
    if type(value) is np.int64 or (type(value) is int and value == 0 and zero_ok):
        # Kept as a Python int: np.int64(4) would show in the repr otherwise.
        assert repr(call(value)) == repr(call(int(value)))
    else:
        with pytest.raises(InvalidParameter):
            call(value)


def test_short_seed_rejected():
    with pytest.raises(InvalidParameter):
        generate_key(8, 4, 4, b"short")


def test_key_invariants_enforced():
    with pytest.raises(InvalidParameter):
        HashKey(k=8, delta=1.0, a=np.zeros((2, 2)), u=np.array([0.0, 8.0]))  # u = k
    with pytest.raises(InvalidParameter):
        HashKey(k=8, delta=0.0, a=np.zeros((2, 2)), u=np.zeros(2))
    with pytest.raises(InvalidParameter):
        HashKey(k=8, delta=1.0, a=np.array([[np.inf, 0.0]]), u=np.zeros(1))


# ------------------------------------------------------------------ hashing


def test_hash_of_zero_matrix_floors_the_dither():
    key = HashKey(k=4, delta=1.0, a=np.zeros((2, 3)), u=np.array([0.5, 3.9]))
    h = hash_vector(key, np.array([7.0, -2.0, 1.0]))
    assert h.components.tolist() == [0, 3]


def test_hash_uses_mathematical_modulo():
    key = HashKey(k=4, delta=1.0, a=np.array([[1.0]]), u=np.array([0.0]))
    h = hash_vector(key, np.array([-1.0]))
    assert h.components.tolist() == [3]


def test_hash_dimension_mismatch():
    key = generate_key(8, 4, 10, SEED)
    with pytest.raises(DimensionMismatch):
        hash_vector(key, np.zeros(9))


def test_hash_rejects_non_finite_input():
    key = generate_key(8, 4, 3, SEED)
    with pytest.raises(InvalidInput):
        hash_vector(key, np.array([1.0, np.nan, 0.0]))


def test_components_stay_in_range_for_extreme_inputs():
    key = generate_key(8, 64, 6, SEED)
    for scale in (0.0, 1e-12, 1.0, 1e6, 1e8, -1e8):
        h = hash_vector(key, np.full(6, scale))
        assert int(h.components.min()) >= 0
        assert int(h.components.max()) < 8


def test_hash_component_independence_proxy():
    # Correlation between distinct components over fresh keys is 0 within
    # 3 standard errors (~3/sqrt(keys)).
    x = np.linspace(-1, 1, 8)
    n_keys = 3000
    seeds = ChaChaStream(SEED, b"indep")
    comps = np.empty((n_keys, 4))
    for i in range(n_keys):
        key = generate_key(8, 4, 8, seeds.take(32))
        comps[i] = hash_vector(key, x).components
    corr = np.corrcoef(comps.T)
    off_diag = corr[~np.eye(4, dtype=bool)]
    assert np.abs(off_diag).max() < 3.0 / math.sqrt(n_keys)


def _key_path_hashes(k, m, n, seed, delta, xs, dither):
    key = generate_key(k, m, n, seed, delta)
    if not dither:
        key = HashKey(k, key.delta, key.a, np.zeros(m))
    return [hash_vector(key, x) for x in xs]


def _fresh_key_hashes(k, m, n, delta, seeds, x, dither=True):
    """(keys, M) components of x under one fresh key per seed."""
    return np.concatenate(list(_hashes_under_fresh_keys(k, m, n, delta, seeds, x=x, dither=dither)))[:, 0]


_SWEEP_TRIAL = dict(k=8, seed=SEED, delta=DEFAULT_DELTA, inputs=2, scale=1.0, dither=True)
_SWEEP_BLOCK = core._SWEEP_BLOCKS * KEY_BLOCK  # values of A a sweep buffers at once


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([2, 8, 28, 1024]),
    # rows of A per sweep block: _SWEEP_BLOCK // n for short rows, a few for
    # rows of about a KEY_BLOCK, and two for rows longer than a block
    n=st.one_of(
        st.integers(1, 9), st.integers(10, 12000), st.integers(KEY_BLOCK - 1, KEY_BLOCK + 2),
        st.integers(_SWEEP_BLOCK - 1, _SWEEP_BLOCK + 2),
    ),
    blocks=st.integers(0, 2),
    extra=st.integers(-1, 3),
    keys=st.integers(1, 4),
    seed=st.binary(min_size=32, max_size=32),
    delta=st.sampled_from([DEFAULT_DELTA, 0.05, 3.0]),
    inputs=st.integers(1, 3),
    scale=st.sampled_from([1e-3, 1.0, 1e4]),
    dither=st.booleans(),
)
@example(n=1, blocks=0, extra=1, keys=4, **_SWEEP_TRIAL)  # M = N = 1, many keys per block
@example(n=_SWEEP_BLOCK + 1, blocks=2, extra=1, keys=2, **_SWEEP_TRIAL)  # rows longer than a block
@example(n=5000, blocks=19, extra=6, keys=1, **_SWEEP_TRIAL)  # 500 x 5000, criterion 6's shape
@example(n=1024, blocks=1, extra=0, keys=3, **_SWEEP_TRIAL)  # each key fills a block exactly
# the longest rows that share a block, and the shortest that do not; at scale
# 1e15 a projection is so large that floor(z) mod k shows its last bit
@example(n=8192, blocks=0, extra=1, keys=4, **{**_SWEEP_TRIAL, "k": 1024, "scale": 1e15})
@example(n=8194, blocks=0, extra=1, keys=3, **{**_SWEEP_TRIAL, "k": 1024, "scale": 1e15})
def test_hashes_under_fresh_key_match_the_key_path(k, n, blocks, extra, keys, seed, delta, inputs, scale, dither):
    # m on both sides of every block edge: whole blocks, one row short of
    # them, and a few rows past them; keys share a block where they fit
    m = max(1, blocks * max(1, _SWEEP_BLOCK // n) + extra)
    seeds = [seed] + [bytes([i]) + seed[1:] for i in range(1, keys)]
    xs = np.random.default_rng(int.from_bytes(seed[:8], "big")).standard_normal((inputs, n)) * scale
    want = [_key_path_hashes(k, m, n, s, delta, xs, dither) for s in seeds]
    for i, x in enumerate(xs):
        got = _fresh_key_hashes(k, m, n, delta, seeds, x, dither)
        assert got.shape == (keys, m) and got.dtype == np.int64
        assert all(np.array_equal(g, w[i].components) for g, w in zip(got, want))


def test_hashes_under_fresh_key_match_the_key_path_where_a_block_is_one_long_row():
    # einsum sums a lone row longer than 8192 values in pieces, and each row
    # of a key of two or more rows in one pass: such rows are drawn at least
    # two to a block
    m, n = 2, KEY_BLOCK - 1
    x = ChaChaStream(SEED, b"long row").standard_normal(n) * 1e15
    got = _fresh_key_hashes(1024, m, n, DEFAULT_DELTA, [SEED], x)
    assert np.array_equal(got[0], _key_path_hashes(1024, m, n, SEED, DEFAULT_DELTA, [x], True)[0].components)


# keys of two or three rows per sweep block whose last row would be alone
# (and joins the block before it), and a key of one row, alone on both paths
@pytest.mark.parametrize(
    "m, n", [(3, _SWEEP_BLOCK // 2 + 1), (5, _SWEEP_BLOCK // 2 + 1), (4, 40000), (7, 40000), (1, _SWEEP_BLOCK + 1)]
)
def test_hashes_under_fresh_key_match_the_key_path_where_rows_are_long(m, n):
    x = ChaChaStream(SEED, b"long row").standard_normal(n) * 1e15
    got = _fresh_key_hashes(1024, m, n, DEFAULT_DELTA, [SEED], x)
    assert np.array_equal(got[0], _key_path_hashes(1024, m, n, SEED, DEFAULT_DELTA, [x], True)[0].components)


@pytest.mark.parametrize(
    "delta, xs",
    [
        (1e-320, [np.zeros(4)]),  # 1/delta overflows: A is not finite
        (DEFAULT_DELTA, [np.zeros((2, 2))]),
        (DEFAULT_DELTA, [np.zeros(4), np.zeros(5)]),
        (DEFAULT_DELTA, [np.array([1.0, np.nan, 0.0, 0.0])]),
        (DEFAULT_DELTA, [np.full(4, 1.5e308)]),  # the projection overflows
    ],
    ids=["non-finite A", "2-D input", "wrong length", "non-finite input", "overflow"],
)
def test_hashes_under_fresh_key_raise_what_the_key_path_raises(delta, xs):
    with pytest.raises(modhash.ModHashError) as want:
        _key_path_hashes(8, 3, 4, SEED, delta, xs, True)
    with pytest.raises(type(want.value)) as got:
        for x in xs:
            _fresh_key_hashes(8, 3, 4, delta, [SEED, bytes(32)], x)
    assert str(got.value) == str(want.value)


def _cpu_burned_asleep(seconds: float = 0.3) -> float:
    """CPU time this process spends while its main thread sleeps: what any
    thread left running (a BLAS worker spinning on) takes from the machine."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    time.sleep(seconds)
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


def test_no_cpu_is_burned_after_hashing():
    # Criterion 6's shape, and a sweep whose input norm spans 20,000 values:
    # BLAS runs both on worker threads that busy-wait ~0.1 s after returning
    # (0.12 s burned in the sleep below when hash_vector used `A @ x`).
    key = generate_key(8, 500, 5000, SEED)
    x = ChaChaStream(SEED, b"idle").standard_normal(5000)
    _cpu_burned_asleep()  # let threads an earlier test woke fall asleep
    hash_vector(key, x)
    assert _cpu_burned_asleep() < 0.03
    run_sweep(SweepSpec((8,), 1, 20000, (1.0,), 1, SEED))
    assert _cpu_burned_asleep() < 0.03


_PROJECTION_DIGEST = """
import hashlib, sys
from modhash import generate_key
from modhash.core import _projection
from modhash.rng import ChaChaStream
key = generate_key(8, 500, 5000, bytes(range(32)))
x = ChaChaStream(bytes(range(32)), b"threads").standard_normal(5000)
sys.stdout.write(hashlib.sha256(_projection(key, x).tobytes()).hexdigest())
"""


def _run_fresh(code: str, **env_vars) -> str:
    """Standard output of `code` run in a fresh interpreter on this modhash."""
    src = str(pathlib.Path(modhash.__file__).parents[1])
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_projection_bits_do_not_depend_on_the_blas_thread_count():
    digests = {_run_fresh(_PROJECTION_DIGEST, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")}
    assert len(digests) == 1


# The scipy modules loaded after each step, in a fresh interpreter: importing
# the package and its CLI; Bob and Charlie running a session through the wire
# on a key made by the public constructor; one key generation; a session of
# every kind; a sweep; one uniformity check.
_SCIPY_BY_STEP = """
import json, sys
import numpy as np

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

steps = {}
import modhash, modhash.cli
from modhash import DEFAULT_DELTA, Envelope, HashKey, ProtocolKind, Role, hash_vector, start_session, wire
from modhash.messages import HashSubmission, KeyShare
steps["import"] = scipy_modules()

key = HashKey(8, DEFAULT_DELTA, np.arange(12.0).reshape(4, 3) / 7, np.full(4, 0.5))
sid, kind = bytes(16), ProtocolKind.FULL_KEY_3P
bob, _ = start_session(Role.BOB, kind, x=np.ones(3), session_id=sid)
charlie, _ = start_session(Role.CHARLIE, kind, session_id=sid)
relay = lambda env: wire.decode_frame(wire.encode_envelope(env))
share = Envelope(sid, kind, Role.ALICE, KeyShare(key))
(bob_hash,) = bob.on_message(relay(share))
charlie.on_message(relay(Envelope(sid, kind, Role.ALICE, HashSubmission(hash_vector(key, np.zeros(3))))))
_, to_bob = charlie.on_message(relay(bob_hash))
bob.on_message(relay(to_bob))
assert bob.done and charlie.done
steps["bob and charlie"] = scipy_modules()

modhash.generate_key(8, 4, 3, bytes(32))
steps["generate_key"] = scipy_modules()
params = modhash.plan_parameters(5.0, 1.0, 10)
for kind in ProtocolKind:
    modhash.drive_local(kind, np.zeros(100), np.full(100, 0.1), params, bytes(32))
steps["drive_local"] = scipy_modules()
modhash.run_sweep(modhash.SweepSpec((8,), 20, 10, (0.5,), 3, bytes(32)))
steps["run_sweep"] = scipy_modules()
modhash.uniformity_report(2, 1, 1, [0.0], 200, bytes(32))
steps["uniformity_report"] = scipy_modules()
sys.stdout.write(json.dumps(steps))
"""


def test_scipy_is_imported_only_where_a_quantile_is_computed():
    steps = json.loads(_run_fresh(_SCIPY_BY_STEP))
    assert {step: names for step, names in steps.items() if names} == {"uniformity_report": steps["uniformity_report"]}
    assert "scipy.special" in steps["uniformity_report"]
    assert not any(name.startswith("scipy.stats") for name in steps["uniformity_report"])


# Calls that hand a product to BLAS, whose threads outlive the call and whose
# bits depend on the thread count; `einsum(..., optimize=...)` reaches BLAS
# through tensordot. The idle-CPU test above cannot see them on one CPU.
_BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}


def _blas_use(node: ast.AST) -> str | None:
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
        return node.attr
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        dotted = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
        if _BLAS_NAMES & {part for name in dotted for part in name.split(".")}:
            return "import"
    if isinstance(node, ast.Call) and any(kw.arg == "optimize" for kw in node.keywords):
        return "optimize="
    return None


def test_no_module_calls_blas():
    found = [
        f"{path.name}:{node.lineno} {_blas_use(node)}"
        for path in sorted(pathlib.Path(modhash.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _blas_use(node)
    ]
    assert found == []


# The only places that build an Abort: a failed session's, one for every other
# party; a server's refusal of a message for no open session; the decoder. A
# new site would be a second abort path that the servers do not route.
_ABORT_SITES = {"protocol.py:Session.abort", "transport.py:_RoleServer._serve", "wire.py:_decode_abort"}


def _abort_sites(node: ast.AST, scope=()):
    """The qualified name of the function around each `Abort(...)` call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None)) == "Abort":
            yield ".".join(scope)
        inner = (*scope, child.name) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
        yield from _abort_sites(child, inner)


def test_aborts_are_built_in_one_place_per_path():
    found = {
        f"{path.name}:{site}"
        for path in sorted(pathlib.Path(modhash.__file__).parent.rglob("*.py"))
        for site in _abort_sites(ast.parse(path.read_text(), str(path)))
    }
    assert found == _ABORT_SITES


# ------------------------------------------------------------------ lee metric


def test_lee_distance_examples():
    assert lee_distance(1, 5, 6) == 2
    assert lee_distance(5, 5, 9) == 0
    assert lee_distance(0, 4, 8) == 4  # antipodal maximum k/2


def test_lee_distance_range_checks():
    with pytest.raises(InvalidInput):
        lee_distance(6, 0, 6)
    with pytest.raises(InvalidInput):
        lee_distance(0, -1, 6)


def test_lee_distance_is_a_metric_exhaustively():
    for k in range(2, 33, 2):
        vals = np.arange(k)
        d = np.minimum(np.abs(vals[:, None] - vals[None, :]), k - np.abs(vals[:, None] - vals[None, :]))
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        assert ((d == 0) == np.eye(k, dtype=bool)).all()
        assert int(d.max()) == k // 2
        # triangle inequality over all triples
        lhs = d[:, None, :]  # d(a, c)
        rhs = d[:, :, None] + d[None, :, :]  # d(a, b) + d(b, c)
        assert (lhs <= rhs).all()


def test_mean_lee_examples():
    h1 = HashVector(6, np.array([0, 1]))
    h2 = HashVector(6, np.array([3, 5]))
    assert mean_lee_distance(h1, h2) == pytest.approx(2.5)
    assert mean_lee_distance(h1, h2).denominator == 2
    assert mean_lee_distance(h1, h1) == 0


def test_mean_lee_mismatches():
    h1 = HashVector(6, np.array([0, 1]))
    with pytest.raises(DimensionMismatch):
        mean_lee_distance(h1, HashVector(8, np.array([0, 1])))
    with pytest.raises(DimensionMismatch):
        mean_lee_distance(h1, HashVector(6, np.array([0, 1, 2])))


def test_mean_lee_permutation_invariant():
    stream = ChaChaStream(SEED, b"perm-invariance")
    for _ in range(20):
        comps1 = stream.integers_below(8, 50)
        comps2 = stream.integers_below(8, 50)
        h1, h2 = HashVector(8, comps1), HashVector(8, comps2)
        p = Permutation.random(50, stream)
        assert mean_lee_distance(apply_permutation(h1, p), apply_permutation(h2, p)) == mean_lee_distance(h1, h2)


# ------------------------------------------------------------------ permutations


def test_identity_permutation_is_noop():
    h = HashVector(8, np.array([1, 2, 3]))
    assert apply_permutation(h, Permutation.identity(3)) == h


def test_permutation_roundtrip():
    stream = ChaChaStream(SEED, b"roundtrip")
    h = HashVector(8, stream.integers_below(8, 40))
    p = Permutation.random(40, stream)
    assert apply_permutation(apply_permutation(h, p), p.inverse()) == h


def test_permutation_must_be_bijective():
    with pytest.raises(InvalidParameter):
        Permutation(3, np.array([0, 0, 2]))


def test_permutation_size_mismatch():
    h = HashVector(8, np.array([1, 2, 3]))
    with pytest.raises(DimensionMismatch):
        apply_permutation(h, Permutation.identity(4))


# ------------------------------------------------------------------ ring coding


def test_ring_code_worked_examples():
    h = HashVector(6, np.array([4, 0, 1]))
    code = encode_lee_to_binary(h)
    assert code.bits.tolist() == [0, 1, 1, 0, 0, 0, 1, 0, 0]


def test_ring_code_rejects_odd_k():
    with pytest.raises(InvalidParameter):
        BinaryCode(k=5, bits=np.array([1, 0]))


def test_hamming_equals_lee_exhaustively():
    for k in range(2, 66, 2):
        vals = HashVector(k, np.arange(k))
        blocks = encode_lee_to_binary(vals).bits.reshape(k, k // 2)
        for a in range(k):
            for b in range(k):
                ham = int(np.count_nonzero(blocks[a] != blocks[b]))
                assert ham == lee_distance(a, b, k), (a, b, k)


def test_ring_code_roundtrip_exhaustively():
    for k in range(2, 66, 2):
        h = HashVector(k, np.arange(k))
        assert decode_binary_to_lee(encode_lee_to_binary(h)) == h


def test_invalid_block_rejected():
    # 0110 is a middle run, not any symbol's code for k = 8
    with pytest.raises(InvalidInput):
        BinaryCode(k=8, bits=np.array([0, 1, 1, 0]))


def test_hamming_distance_examples():
    c1 = encode_lee_to_binary(HashVector(6, np.array([1])))
    c4 = encode_lee_to_binary(HashVector(6, np.array([4])))
    assert c1.bits.tolist() == [1, 0, 0]
    assert c4.bits.tolist() == [0, 1, 1]
    assert hamming_distance(c1, c4) == 3 == lee_distance(1, 4, 6)
    assert hamming_distance(c1, c1) == 0


def test_hamming_length_mismatch():
    c1 = encode_lee_to_binary(HashVector(6, np.array([1])))
    c2 = encode_lee_to_binary(HashVector(6, np.array([1, 2])))
    with pytest.raises(DimensionMismatch):
        hamming_distance(c1, c2)


def test_hamming_over_m_equals_mean_lee_exactly():
    stream = ChaChaStream(SEED, b"ham-vs-lee")
    for _ in range(10):
        h1 = HashVector(8, stream.integers_below(8, 100))
        h2 = HashVector(8, stream.integers_below(8, 100))
        ham = hamming_distance(encode_lee_to_binary(h1), encode_lee_to_binary(h2))
        assert mean_lee_distance(h1, h2) * 100 == ham
