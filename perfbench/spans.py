"""Per-layer span tracing of modhash, done entirely from outside the package.

`traced(tracer)` replaces each layer's public functions, at the places other
modules import them from, with wrappers that record a span (name, start, end,
parent) and a work count, then restores the originals on exit. Spans are
kept in memory per thread; when a thread's outermost span closes, its spans
are folded into per-name self times (duration minus the part of the interval
that child spans cover) and the first few thousand are kept verbatim so they
can be written out at the end of a run.
"""

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import modhash.analysis as analysis
import modhash.protocol as protocol
import modhash.simulate as simulate
import modhash.transport as transport
import modhash.wire as wire
from modhash.rng import ChaChaStream

SAMPLE_SPANS = 5000

# Message families by the high nibble of frame byte 5 (see modhash.wire).
_FAMILIES = {
    wire.FAMILY_KEY_SHARE: "key_share",
    wire.FAMILY_HASH_SUBMISSION: "hash_submission",
    wire.FAMILY_DISTANCE_RESULT: "distance_result",
    wire.FAMILY_HAMMING_REQUEST: "hamming_request",
    wire.FAMILY_HAMMING_RESPONSE: "hamming_response",
    wire.FAMILY_ABORT: "abort",
}
WIRE_FAMILIES = tuple(f for f in _FAMILIES.values() if f != "abort")


def self_times(spans) -> dict[str, float]:
    """Self time per span name for spans given as (id, parent_id, name, start, end).

    A span's self time is its duration minus the union of its children's
    intervals, clipped to the span, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for _sid, parent, _name, t0, t1 in spans:
        children[parent].append((t0, t1))
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, name, t0, t1 in spans:
        covered = 0.0
        run_start = run_end = None
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, t0), min(c1, t1)
            if c1 <= c0:
                continue
            if run_end is None or c0 > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c0, c1
            else:
                run_end = max(run_end, c1)
        if run_end is not None:
            covered += run_end - run_start
        out[name] += (t1 - t0) - covered
    return dict(out)


class _ThreadState:
    __slots__ = ("stack", "spans", "counts")

    def __init__(self):
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    """Span recorder shared by every thread of one process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._states: list[_ThreadState] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.sample: list[tuple] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _fold(self, st: _ThreadState):
        with self._lock:
            spans, counts = st.spans, st.counts
            st.spans, st.counts = [], defaultdict(int)
        selfs = self_times(spans)
        with self._lock:
            for name, v in selfs.items():
                self.self_s[name] += v
            for name, v in counts.items():
                self.counts[name] += v
            room = SAMPLE_SPANS - len(self.sample)
            if room > 0:
                self.sample.extend(spans[:room])

    def add(self, key: str, amount: int):
        """Add to a work count of the calling thread."""
        self._state().counts[key] += amount

    def wrap(self, fn, name, count=None):
        """Wrap fn in a span. `name` is a string or a function of the call's
        (args, kwargs, result); `count(counts, args, kwargs, result)` records
        work. Both run after the call; result is None if it raised."""
        ids = self._ids
        state = self._state
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st = state()
            sid = next(ids)
            parent = st.stack[-1] if st.stack else 0
            st.stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                st.stack.pop()
                label = name if isinstance(name, str) else name(args, kwargs, result)
                st.spans.append((sid, parent, label, t0, t1))
                if count is not None:
                    count(st.counts, args, kwargs, result)
                if not st.stack:
                    self._fold(st)

        wrapper.__wrapped__ = fn
        return wrapper

    def operation(self, fn):
        """Wrap one benchmark operation in the root span `bench.op`, whose
        self time is the benchmark's own glue."""
        return self.wrap(fn, "bench.op", _add("bench.ops", lambda a, kw, r: 1))

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Fold what every thread still holds and return (self times, counts)."""
        with self._lock:
            states = list(self._states)
        for st in states:
            if not st.stack and (st.spans or st.counts):
                self._fold(st)
        with self._lock:
            return dict(self.self_s), dict(self.counts)

    def reset(self):
        with self._lock:
            self.self_s.clear()
            self.counts.clear()


# ---------------------------------------------------------------- counts


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _add(key, amount):
    def count(counts, args, kwargs, result):
        counts[key] += amount(args, kwargs, result)
    return count


def _sweep_trials(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    return len(spec.k_values) * len(spec.distances) * spec.trials


def _wire(direction):
    """(span name, byte count) of a wire call. The frame is what an encode
    returns and what a decode is given; its byte 5 carries the family."""
    def frame(args, kwargs, result):
        return result if direction == "encode" else _arg(args, kwargs, 0, "data")

    def name(args, kwargs, result):
        f = frame(args, kwargs, result)
        family = _FAMILIES.get(f[5] >> 4, "invalid") if f is not None and len(f) > 5 else "invalid"
        return f"wire.{direction}.{family}"

    def count(counts, args, kwargs, result):
        f = frame(args, kwargs, result)
        counts[name(args, kwargs, result) + ".bytes"] += len(f) if f is not None else 0

    return name, count


def _patches(tracer: Tracer):
    """(owner, attribute, replacement) for every layer boundary traced."""
    w = tracer.wrap
    n_arg = lambda i, key: lambda a, kw, r: _arg(a, kw, i, key)  # noqa: E731
    one = lambda a, kw, r: 1  # noqa: E731
    out = []

    def method(cls, attr, name, count=None, fn=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            out.append((cls, attr, classmethod(w(raw.__func__, name, count))))
        else:
            out.append((cls, attr, w(fn or raw, name, count)))

    def func(module, attr, name, count=None):
        out.append((module, attr, w(getattr(module, attr), name, count)))

    # rng: ChaCha keystream, probit normals, uniforms, Fisher-Yates permutation
    method(ChaChaStream, "__init__", "rng.stream_init", _add("rng.streams", one))
    raw_take = ChaChaStream.__dict__["take"]
    raw_permutation = ChaChaStream.__dict__["permutation_indices"]

    def permutation_indices(stream, n):
        # Fisher-Yates takes 8 bytes per slot: a span per take would cost more
        # than the draw, so the untraced take is shadowed on the instance and
        # only its bytes are counted.
        consumed = 0

        def take(k):
            nonlocal consumed
            consumed += k
            return raw_take(stream, k)

        stream.take = take
        try:
            return raw_permutation(stream, n)
        finally:
            del stream.take
            tracer.add("rng.keystream_bytes", consumed)

    method(ChaChaStream, "take", "rng.take", _add("rng.keystream_bytes", n_arg(1, "n")))
    method(ChaChaStream, "standard_normal", "rng.standard_normal", _add("rng.normals", n_arg(1, "n")))
    method(ChaChaStream, "uniform01", "rng.uniform")
    method(ChaChaStream, "integers_below", "rng.uniform")
    method(ChaChaStream, "permutation_indices", "rng.permutation", _add("rng.perm_slots", n_arg(1, "n")),
           fn=permutation_indices)

    # core, where protocol and simulate import it
    def key_macs(a, kw, r):
        key = _arg(a, kw, 0, "key")
        return key.m * key.n

    for mod in (protocol, simulate):
        func(mod, "generate_key", "core.generate_key", _add("core.keys", one))
        func(mod, "hash_vector", "core.hash_vector", _add("core.hash_macs", key_macs))
        func(mod, "mean_lee_distance", "core.mean_lee",
             _add("core.mean_lee_components", lambda a, kw, r: _arg(a, kw, 0, "h1").m))
    func(protocol, "encode_lee_to_binary", "core.ring_code",
         _add("core.ring_code_bits", lambda a, kw, r: r.bits.shape[0] if r is not None else 0))
    func(protocol, "apply_permutation", "core.permute")
    func(protocol, "concat_hashes", "core.permute")
    func(protocol, "hamming_distance", "core.hamming")

    # analysis: the series (also inside curve inversion) and estimation
    func(analysis, "expected_lee", "analysis.expected_lee", _add("analysis.expected_lee_calls", one))
    func(simulate, "expected_lee", "analysis.expected_lee", _add("analysis.expected_lee_calls", one))
    func(protocol, "estimate_distance", "analysis.estimate_distance", _add("analysis.estimates", one))

    # wire: protocol and transport call it through the module attribute
    func(wire, "encode_envelope", *_wire("encode"))
    func(wire, "decode_frame", *_wire("decode"))

    # protocol: session set-up, the state machines, drive_local
    for mod in (protocol, transport):
        func(mod, "start_session", "protocol.start_session", _add("protocol.sessions", one))
    raw_on_message = protocol.Session.__dict__["on_message"]

    def on_message(session, env):
        was_aborted = session.aborted
        try:
            return raw_on_message(session, env)
        finally:
            if session.aborted and not was_aborted:
                tracer.add("protocol.aborts", 1)

    method(protocol.Session, "on_message", "protocol.on_message", fn=on_message)
    func(protocol, "drive_local", "protocol.drive")

    # transport: TCP connection, framed send and receive, run_over_tcp
    method(transport.TcpTransport, "connect", "transport.connect", _add("transport.connects", one))
    method(transport.TcpTransport, "send_frame", "transport.send",
           _add("transport.bytes_sent", lambda a, kw, r: len(_arg(a, kw, 1, "data"))))
    method(transport.TcpTransport, "recv_frame", "transport.recv_wait",
           _add("transport.bytes_recv", lambda a, kw, r: len(r) if r is not None else 0))
    func(transport, "run_over_tcp", "transport.run")

    # simulate: run_sweep's own work (seed derivation, pair geometry, bookkeeping)
    func(simulate, "run_sweep", "simulate.run_sweep", _add("simulate.trials", _sweep_trials))
    return out


@contextmanager
def traced(tracer: Tracer):
    """Install the tracing wrappers for the duration of the block."""
    patches = _patches(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------- metrics

# (metric, unit, source): source "self:<span>" is seconds of self time,
# "count:<counter>" a work count; both are reported per benchmark operation.
LAYER_METRICS = [
    ("rng.keystream_bytes", "B/op", "count:rng.keystream_bytes"),
    ("rng.take_s", "s/op", "self:rng.take"),
    ("rng.normals", "count/op", "count:rng.normals"),
    ("rng.standard_normal_s", "s/op", "self:rng.standard_normal"),
    ("rng.uniform_s", "s/op", "self:rng.uniform"),
    ("rng.perm_slots", "count/op", "count:rng.perm_slots"),
    ("rng.permutation_s", "s/op", "self:rng.permutation"),
    ("rng.streams", "count/op", "count:rng.streams"),
    ("rng.stream_init_s", "s/op", "self:rng.stream_init"),
    ("core.keys", "count/op", "count:core.keys"),
    ("core.generate_key_s", "s/op", "self:core.generate_key"),
    ("core.hash_macs", "count/op", "count:core.hash_macs"),
    ("core.hash_vector_s", "s/op", "self:core.hash_vector"),
    ("core.mean_lee_components", "count/op", "count:core.mean_lee_components"),
    ("core.mean_lee_s", "s/op", "self:core.mean_lee"),
    ("core.ring_code_bits", "count/op", "count:core.ring_code_bits"),
    ("core.ring_code_s", "s/op", "self:core.ring_code"),
    ("core.permute_s", "s/op", "self:core.permute"),
    ("core.hamming_s", "s/op", "self:core.hamming"),
    ("analysis.expected_lee_calls", "count/op", "count:analysis.expected_lee_calls"),
    ("analysis.expected_lee_s", "s/op", "self:analysis.expected_lee"),
    ("analysis.estimates", "count/op", "count:analysis.estimates"),
    ("analysis.estimate_distance_s", "s/op", "self:analysis.estimate_distance"),
    *[
        (f"wire.{d}.{f}.{what}", unit, f"{src}:wire.{d}.{f}{suffix}")
        for d in ("encode", "decode")
        for f in WIRE_FAMILIES
        for what, unit, src, suffix in (("bytes", "B/op", "count", ".bytes"), ("s", "s/op", "self", ""))
    ],
    ("protocol.sessions", "count/op", "count:protocol.sessions"),
    ("protocol.aborts", "count/op", "count:protocol.aborts"),
    ("protocol.start_session_s", "s/op", "self:protocol.start_session"),
    ("protocol.on_message_s", "s/op", "self:protocol.on_message"),
    ("protocol.drive_s", "s/op", "self:protocol.drive"),
    ("transport.connects", "count/op", "count:transport.connects"),
    ("transport.connect_s", "s/op", "self:transport.connect"),
    ("transport.bytes_sent", "B/op", "count:transport.bytes_sent"),
    ("transport.send_s", "s/op", "self:transport.send"),
    ("transport.bytes_recv", "B/op", "count:transport.bytes_recv"),
    ("transport.recv_wait_s", "s/op", "self:transport.recv_wait"),
    ("transport.run_s", "s/op", "self:transport.run"),
    ("simulate.trials", "count/op", "count:simulate.trials"),
    ("simulate.self_s", "s/op", "self:simulate.run_sweep"),
]

# The TCP server child runs Bob and Charlie: no key generation, no sweeps, no
# drive_local and no run_over_tcp.
SERVER_LAYERS = ("core.", "analysis.", "wire.", "protocol.", "transport.")
SERVER_EXCLUDED = {"protocol.drive_s", "transport.run_s"}
SERVER_METRICS = [
    ("server." + name, unit, source)
    for name, unit, source in LAYER_METRICS
    if name.startswith(SERVER_LAYERS) and name not in SERVER_EXCLUDED
]


def layer_values(metrics, self_s, counts, ops: int) -> dict[str, float]:
    """Per-operation value of each (metric, unit, source) from folded totals."""
    out = {}
    for name, _unit, source in metrics:
        kind, key = source.split(":", 1)
        total = self_s.get(key, 0.0) if kind == "self" else counts.get(key, 0)
        out[name] = total / ops
    return out
