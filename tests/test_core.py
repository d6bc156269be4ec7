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
from scipy.special import ndtri

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
from modhash.core import _shared_key
from modhash.rng import KEY_BLOCK, ChaChaStream
from modhash.simulate import SweepSpec, run_sweep

SEED = bytes(range(32))


# ------------------------------------------------------------------ keys


def test_generate_key_is_deterministic():
    k1 = generate_key(8, 244, 100, SEED)
    k2 = generate_key(8, 244, 100, SEED)
    assert np.array_equal(k1.a, k2.a)
    assert np.array_equal(k1.u, k2.u)
    assert k1 == k2


# SHA-256 of a.tobytes() + u.tobytes(), pinned from whole-array draws of A
# and then U. Keys are made in blocks of KEY_BLOCK values; these shapes put
# the block edges everywhere they could change a bit.
KEY_DIGESTS = [
    (8, 1, 1, None, "fd26aa385f83c6470fccf614093007f46ac5b8a173a4dbec64e8dbc33bbe16d0"),
    (8, 500, 5000, None, "76bc13c5a393cd990a327795924d67907a3d94d5b013bee5847f62d9d393d3e3"),
    (28, 2989, 100, None, "86b43966fc644cde494d9c220cd698295ae2fe82cc99a846bd6e00252a8547ca"),
    (6, 5000, 2, None, "a39b7d9864fa8d909390204ca37e8a53904a5c040791b8b5aca4dcb08504682b"),
    (8, 217, 151, None, "799e0948aa4b259b309c1e6ca9ea299da324b360db9da28603ad94e6be07fd52"),  # KEY_BLOCK - 1
    (8, 256, 128, None, "b9c9ca43f6dc425165c051c06b6dc1432b3a9dab68f6694a511c4ca7361da799"),  # KEY_BLOCK
    (8, 99, 331, None, "9781cd1b997d3182a6f004ff827f14d3fb493eb87b79f2ad9433baf45ae83ca4"),  # KEY_BLOCK + 1
    (8, 7, 3, None, "02c80f6ea44541b1665839a69c67d325fc6eb3f52d17e5047a38c6a953416ca2"),  # U mid ChaCha block
    (4, 40000, 1, None, "f3332edb9b98cb0166b018cc9249c1204e64910fb34ed59e2f5e1f1e1f4f513b"),  # U spans 2 blocks
    (16, 123, 457, 1.25, "18db5479f58312dbe16a8b4d139dfde70ae536982f6b26a74ea255afdc9808a1"),
]


@pytest.mark.parametrize("k, m, n, delta, digest", KEY_DIGESTS)
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
    for n in (1, 7, KEY_BLOCK - 1, KEY_BLOCK, 2 * KEY_BLOCK + 3):
        draws = (ChaChaStream(SEED).uint64(n) >> np.uint64(11)).astype(np.float64)
        normals = ChaChaStream(SEED).standard_normal_into(np.empty(n), 1.5)
        assert np.array_equal(normals, ndtri((draws + 0.5) * 2.0**-53) * 1.5)
        assert np.array_equal(ChaChaStream(SEED).uniform01(n), draws * 2.0**-53)


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
    key = generate_key(8, 4, 3, SEED)
    bob = _shared_key(key.k, key.delta, key.a, key.u)
    assert bob == key and bob.a is key.a and bob.u is key.u
    a, u = np.ones((2, 3)), np.array([0.5, 1.5])
    bob = _shared_key(8, 1.0, a, u)
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
            _shared_key(k, delta, a, u)
    with pytest.raises(DimensionMismatch):
        _shared_key(8, 1.0, np.ones((2, 3)), np.zeros(3))


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
# on a key made by the public constructor; one key generation; one uniformity
# check.
_SCIPY_BY_STEP = """
import json, sys
import numpy as np

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

steps = {}
import modhash, modhash.cli
from modhash import Envelope, HashKey, ProtocolKind, Role, hash_vector, start_session, wire
from modhash.messages import HashSubmission, KeyShare
steps["import"] = scipy_modules()

key = HashKey(8, 1.0, np.arange(12.0).reshape(4, 3) / 7, np.full(4, 0.5))
sid, kind = bytes(16), ProtocolKind.FULL_KEY_3P
bob, _ = start_session(Role.BOB, kind, x=np.ones(3), session_id=sid)
charlie, _ = start_session(Role.CHARLIE, kind, session_id=sid)
relay = lambda env: wire.decode_frame(wire.encode_envelope(env))
share = Envelope(sid, kind, Role.ALICE, KeyShare(k=8, delta=1.0, n=3, u=key.u, a=key.a))
(bob_hash,) = bob.on_message(relay(share))
charlie.on_message(relay(Envelope(sid, kind, Role.ALICE, HashSubmission(hash_vector(key, np.zeros(3))))))
_, to_bob = charlie.on_message(relay(bob_hash))
bob.on_message(relay(to_bob))
assert bob.done and charlie.done
steps["bob and charlie"] = scipy_modules()

modhash.generate_key(8, 4, 3, bytes(32))
steps["generate_key"] = scipy_modules()
modhash.uniformity_report(2, 1, 1, [0.0], 200, bytes(32))
steps["uniformity_report"] = scipy_modules()
sys.stdout.write(json.dumps(steps))
"""


def test_scipy_is_imported_only_where_a_normal_or_a_quantile_is_computed():
    steps = json.loads(_run_fresh(_SCIPY_BY_STEP))
    assert steps["import"] == []
    assert steps["bob and charlie"] == []
    assert "scipy.special" in steps["generate_key"]
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
