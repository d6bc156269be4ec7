"""Command-line interface.

Machine-readable output is line-oriented key=value on stdout. Exit codes:
0 success, 2 invalid flags or inputs, 3 transport/protocol runtime failure.
Every command is deterministic given --seed, so a fixed seed is a tool for
reproducing a run: run's seed fixes the session's key, pads, permutation
and id. Two obfuscated sessions with one seed and one x2 let Charlie recover
the true mean over the slots that changed (he read 0.488, 2.596 and 7.140
against 0.493, 2.529 and 6.982 at the planned point), so run without --seed
draws fresh key material for its session; keygen, sweep and uniformity
require a seed. The default third-party address can be set through the
MODHASH_CHARLIE_ADDR environment variable.
"""

import argparse
import dataclasses
import hashlib
import logging
import os
import signal
import sys
from fractions import Fraction

import numpy as np

from .analysis import (
    EstimateMode,
    ProtocolParams,
    estimate_distance,
    plan_parameters,
)
from .core import DEFAULT_DELTA, generate_key, hash_vector
from .errors import ModHashError, ProtocolViolation, TransportClosed
from .messages import ProtocolKind, Role
from .protocol import drive_local
from .simulate import (
    SweepSpec,
    default_distance_grid,
    emit_csv,
    run_sweep,
    theoretical_curve,
    uniformity_report,
)
from .transport import (
    BobServer,
    CharlieServer,
    key_from_json,
    key_to_json,
    run_over_tcp,
)

CHARLIE_ADDR_ENV = "MODHASH_CHARLIE_ADDR"

_KINDS = {
    "full-key": ProtocolKind.FULL_KEY_3P,
    "two-party": ProtocolKind.TWO_PARTY_HAMMING,
    "obfuscated": ProtocolKind.OBFUSCATED_3P,
}
_MODES = {"raw": EstimateMode.RAW, "curve": EstimateMode.CURVE_INVERTED}


def _parse_seed(text: str) -> bytes:
    """64 hex chars are taken verbatim; anything else is hashed to 32 bytes."""
    if len(text) == 64:
        try:
            return bytes.fromhex(text)
        except ValueError:
            pass
    return hashlib.sha256(text.encode("utf-8")).digest()


def _parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT, got {text!r}")
    if not 0 <= int(port) <= 65535:
        raise ValueError(f"port must lie in 0-65535, got {text!r}")
    return host, int(port)


def _read_vector(path: str) -> np.ndarray:
    values = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{line_no}: not a decimal: {line!r}") from None
    if not values:
        raise ValueError(f"{path}: empty vector file")
    return np.array(values, dtype=np.float64)


def _emit(**fields):
    for name, value in fields.items():
        print(f"{name}={value}")


def _fmt_fraction(frac: Fraction) -> str:
    return f"{frac.numerator}/{frac.denominator}"


def _params_from_args(args) -> ProtocolParams:
    if args.k is not None or args.m is not None:
        if args.k is None or args.m is None:
            raise ValueError("--k and --m must be given together")
        return ProtocolParams.from_dimensions(
            args.k, args.m, beta=args.beta, padding=args.padding
        )
    if args.threshold is None or args.epsilon is None:
        raise ValueError("either --threshold/--epsilon or --k/--m is required")
    params = plan_parameters(args.threshold, args.epsilon, args.beta)
    if args.padding is not None:
        params = dataclasses.replace(params, padding=args.padding)
    return params


def _charlie_address(args) -> tuple[str, int] | None:
    """--charlie, else $MODHASH_CHARLIE_ADDR; None if neither is set."""
    raw = args.charlie or os.environ.get(CHARLIE_ADDR_ENV)
    return _parse_address(raw) if raw else None


# ------------------------------------------------------------------ commands


def _cmd_plan(args) -> int:
    params = plan_parameters(args.threshold, args.epsilon, args.beta)
    _emit(
        k=params.k,
        m=params.m,
        epsilon_bias=params.epsilon_bias,
        epsilon_stat=params.epsilon_stat,
        beta=params.beta,
        padding=params.padding,
    )
    return 0


def _cmd_keygen(args) -> int:
    seed = _parse_seed(args.seed)
    key = generate_key(args.k, args.m, args.n, seed, args.delta)
    with open(args.out, "w") as fh:
        fh.write(key_to_json(key, seed=seed if args.seed_only else None))
    _emit(key_file=args.out, k=key.k, m=key.m, n=key.n, delta=key.delta)
    return 0


def _cmd_hash(args) -> int:
    with open(args.key) as fh:
        key = key_from_json(fh.read())
    x = _read_vector(args.input)
    h = hash_vector(key, x)
    _emit(k=h.k, m=h.m, hash=",".join(str(int(c)) for c in h.components))
    return 0


def _cmd_estimate(args) -> int:
    mean = Fraction(args.mean_lee)
    est = estimate_distance(mean, args.k, _MODES[args.mode])
    _emit(mean_lee=_fmt_fraction(mean), estimate=est)
    return 0


# Each runner returns (mean, Charlie's view, Alice's estimate, Bob's or None).


def _run_local(args, kind, x1, params, seed):
    run = drive_local(kind, x1, _read_vector(args.x2), params, seed, mode=_MODES[args.mode])
    return run.mean_lee, run.charlie_observed, run.alice_estimate, run.bob_estimate


def _run_tcp_selftest(args, kind, x1, params, seed):
    """Self-contained TCP run: ephemeral Bob/Charlie servers on loopback."""
    x2 = _read_vector(args.x2)
    with CharlieServer() as charlie_srv:
        charlie_srv.start()
        with BobServer(x2, charlie_address=charlie_srv.address, mode=_MODES[args.mode]) as bob_srv:
            bob_srv.start()
            result = run_over_tcp(
                kind, x1, params, seed,
                bob_address=bob_srv.address,
                charlie_address=charlie_srv.address,
                mode=_MODES[args.mode],
            )
            bob_estimate = bob_srv.wait_result(result.session_id)
    return result.mean_lee, result.observed_mean, result.estimate, bob_estimate


def _run_tcp_alice(args, kind, x1, params, seed):
    """Distributed run: this process is Alice against remote Bob/Charlie."""
    bob_addr = _parse_address(args.bob)
    charlie_addr = _charlie_address(args)
    if Role.CHARLIE in kind.parties and charlie_addr is None:
        raise ValueError(f"--charlie or ${CHARLIE_ADDR_ENV} required for {args.kind}")
    result = run_over_tcp(
        kind, x1, params, seed, bob_address=bob_addr, charlie_address=charlie_addr,
        mode=_MODES[args.mode],
    )
    return result.mean_lee, result.observed_mean, result.estimate, None


def _cmd_run(args) -> int:
    params = _params_from_args(args)
    seed = None if args.seed is None else _parse_seed(args.seed)
    if args.transport == "local" and args.role is not None:
        raise ValueError("--role only applies to --transport tcp")
    if args.role is None and not args.x2:
        raise ValueError("--x2 is required unless running distributed with --role")
    if args.role is not None and not args.bob:
        raise ValueError("--role alice requires --bob HOST:PORT")
    if args.role is not None:
        runner = _run_tcp_alice
    else:
        runner = _run_local if args.transport == "local" else _run_tcp_selftest
    kind = _KINDS[args.kind]
    mean, observed, alice_estimate, bob_estimate = runner(args, kind, _read_vector(args.x1), params, seed)
    _emit(kind=args.kind, mean_lee=_fmt_fraction(mean))
    if kind == ProtocolKind.OBFUSCATED_3P:
        _emit(charlie_observed=_fmt_fraction(observed))
    _emit(alice_estimate=alice_estimate)
    if bob_estimate is not None:
        _emit(bob_estimate=bob_estimate)
    return 0


def _cmd_serve(args) -> int:
    host, port = _parse_address(args.listen)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    if args.role == "charlie":
        server = CharlieServer(host, port)
    else:
        if not args.x2:
            raise ValueError("serve --role bob requires --x2")
        server = BobServer(
            _read_vector(args.x2), charlie_address=_charlie_address(args),
            host=host, port=port, mode=_MODES[args.mode],
        )
    server.start()
    _emit(role=args.role, listening=f"{server.address[0]}:{server.address[1]}")
    sys.stdout.flush()
    stop = {"flag": False}

    def _shutdown(signum, frame):
        stop["flag"] = True

    signal.signal(signal.SIGINT, _shutdown)
    signal.signal(signal.SIGTERM, _shutdown)
    while not stop["flag"]:
        signal.pause()
    server.stop()
    return 0


def _cmd_sweep(args) -> int:
    seed = _parse_seed(args.seed)
    ks = [int(v) for v in args.k.split(",")]
    distances = tuple(float(v) for v in args.distances.split(",")) if args.distances else None
    grids = [distances or default_distance_grid(k, args.grid_points) for k in ks]
    specs = [SweepSpec((k,), args.m, args.n, g, args.trials, seed, args.delta) for k, g in zip(ks, grids)]
    rows = [row for spec in specs for row in run_sweep(spec)]  # every k is checked before any runs
    emit_csv(rows, args.out)
    _emit(rows=len(rows), out=args.out)
    return 0


def _cmd_curve(args) -> int:
    if args.distances:
        distances = [float(v) for v in args.distances.split(",")]
    else:
        distances = list(default_distance_grid(args.k, args.grid_points))
    points = theoretical_curve(args.k, args.delta, distances)
    with open(args.out, "w", newline="") as fh:
        fh.write("distance,expected_lee\n")
        for d, e in points:
            fh.write(f"{d:.9g},{e:.9g}\n")
    _emit(rows=len(points), out=args.out)
    return 0


def _cmd_uniformity(args) -> int:
    seed = _parse_seed(args.seed)
    x = _read_vector(args.x) if args.x else np.zeros(args.n)
    report = uniformity_report(
        args.k, args.m, args.n, x, args.samples, seed, zero_dither=args.broken_dither
    )
    _emit(
        k=report.k,
        samples=report.samples,
        chi_square=f"{report.statistic:.6f}",
        dof=report.dof,
        threshold=f"{report.threshold:.6f}",
        **{"pass": str(report.passed).lower()},
    )
    return 0


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modhash",
        description="Privacy-preserving Euclidean distance estimation from keyed modular hashes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="derive (k, M) from a threshold and precision budget")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--beta", type=int, default=10)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("keygen", help="write a hash key file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--out", required=True)
    p.add_argument("--seed-only", action="store_true",
                   help="write the compact non-interoperable {seed} form")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("hash", help="hash a vector file with a key file")
    p.add_argument("--key", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_hash)

    p = sub.add_parser("estimate", help="turn a mean Lee distance into a distance estimate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mean-lee", required=True, help="rational like 5/2 or decimal")
    p.add_argument("--mode", choices=sorted(_MODES), default="raw")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("run", help="execute one protocol end to end")
    p.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p.add_argument("--x1", required=True, help="vector file, one decimal per line")
    p.add_argument("--x2", help="vector file (orchestrating modes)")
    p.add_argument("--seed", help="fixes the session's key, pads, permutation and id, to reproduce a run "
                                  "(default: fresh random key material)")
    p.add_argument("--threshold", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--beta", type=int, default=10)
    p.add_argument("--k", type=int, help="use explicit (k, M) instead of planning")
    p.add_argument("--m", type=int)
    p.add_argument("--padding", type=int)
    p.add_argument("--mode", choices=sorted(_MODES), default="raw")
    p.add_argument("--transport", choices=["local", "tcp"], default="local")
    p.add_argument("--role", choices=["alice"], help="distributed TCP: act as this role only")
    p.add_argument("--bob", help="Bob endpoint HOST:PORT (distributed TCP)")
    p.add_argument("--charlie", help=f"Charlie endpoint HOST:PORT (default ${CHARLIE_ADDR_ENV})")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("serve", help="run a long-lived Bob or Charlie endpoint")
    p.add_argument("--role", choices=["charlie", "bob"], required=True)
    p.add_argument("--listen", required=True, help="HOST:PORT (port 0 picks one)")
    p.add_argument("--x2", help="Bob's vector file")
    p.add_argument("--charlie", help=f"Charlie endpoint for Bob (default ${CHARLIE_ADDR_ENV})")
    p.add_argument("--mode", choices=sorted(_MODES), default="raw")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("sweep", help="Monte-Carlo sweep of empirical mean-Lee curves")
    p.add_argument("--k", required=True, help="comma-separated even alphabet sizes")
    p.add_argument("--m", type=int, default=500)
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--distances", help="comma-separated grid (default: 0..k per k)")
    p.add_argument("--grid-points", type=int, default=41)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--seed", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("curve", help="tabulate the theoretical expectation curve")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--distances")
    p.add_argument("--grid-points", type=int, default=41)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("uniformity", help="chi-square uniformity report over fresh keys")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--x", help="fixed input vector file (default: zero vector)")
    p.add_argument("--broken-dither", action="store_true",
                   help="negative control: zero every key's dither")
    p.set_defaults(func=_cmd_uniformity)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TransportClosed, ConnectionError) as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 3
    except ProtocolViolation as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return 3
    except ModHashError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
