"""Span recording from outside the library, and the per-layer ledger.

The benchmark never edits ``src/``.  Instead :func:`install` wraps a fixed
list of public callables of ``repro`` (class methods are replaced on the
class, module-level functions wherever a ``repro`` module has bound them)
so every call records a span: name, layer, start, end, parent, the op ids
it served, the thread it ran on, and a few attributes read from its
arguments or result.  Spans stay in memory; nothing is written until the
benchmark asks for a Chrome trace or a ledger.

Layers are named after the modules under ``src/repro``: ``serve``,
``plan``, ``cache``, ``sparse``, ``rng``, ``kernels`` and ``parallel``.
An op's root span (``core.sketch``, the cold-stream op, or
``SketchService.handle``) is the wall time the ledger explains.

Ledger rule: every instant of a root span is handed to the innermost
spans open at that instant, one per thread, after dropping any span that
is an ancestor of another open one; concurrent spans share the instant
equally.  A layer's self time is what it receives.  Instants that only
the root covers are the residual.  So layer self times plus the residual
equal the root's wall time by construction, also when the thread engine
runs kernels on two threads at once.

Process-pool workers run in other processes, so their kernel time cannot
be spanned from here.  ``ProcessPoolSupervisor.execute`` returns the
workers' ``KernelStats``; the ledger moves ``sample_seconds / active``
and ``compute_seconds / active`` of that span's self time to ``rng`` and
``kernels`` and leaves the rest (dispatch, IPC, commit checks) to
``parallel``.  ``active`` is the number of workers that had a block task,
the smaller of the fleet size and the plan's task count.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import sys
import threading
import time

LAYERS = ("serve", "plan", "cache", "sparse", "rng", "kernels", "parallel")

#: Synthetic thread id for spans that no thread runs (queue waits).
QUEUE_TID = -1


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "ops",
                 "tid", "attrs")

    def __init__(self, sid, name, layer, start, parent, ops, tid):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.ops = ops
        self.tid = tid
        self.attrs = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"sid": self.sid, "name": self.name, "layer": self.layer,
                "start": self.start, "end": self.end, "parent": self.parent,
                "ops": list(self.ops), "tid": self.tid,
                "attrs": self.attrs or {}}

    @classmethod
    def from_dict(cls, doc: dict) -> "Span":
        s = cls(doc["sid"], doc["name"], doc["layer"], doc["start"],
                doc["parent"], tuple(doc["ops"]), doc["tid"])
        s.end = doc["end"]
        s.attrs = doc["attrs"] or None
        return s


class Recorder:
    """Keeps spans of one process in memory.

    Recording is off until :attr:`enabled` is set, so an untraced phase
    runs the wrapped callables with one attribute check of overhead.
    Spans opened in forked pool workers are ignored (``pid`` check).
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._tl = threading.local()
        self._lock = threading.Lock()
        #: Op ids for threads with no op context of their own (the
        #: library workloads run one op at a time).
        self.ops: tuple = ()
        #: Span stack of the thread that runs library ops; spans opened
        #: on helper threads with an empty stack take its top as parent.
        self.home: list | None = None

    def _stack(self) -> list:
        stack = getattr(self._tl, "stack", None)
        if stack is None:
            stack = self._tl.stack = []
        return stack

    def set_thread_ops(self, ops: tuple) -> None:
        self._tl.ops = ops

    def thread_ops(self) -> tuple:
        return getattr(self._tl, "ops", None) or self.ops

    def make_home(self) -> None:
        self.home = self._stack()

    def begin(self, name: str, layer: str, ops: tuple | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self.home:
            parent = self.home[-1].sid
        else:
            parent = None
        span = Span(next(self._ids), name, layer, time.monotonic(), parent,
                    self.thread_ops() if ops is None else ops,
                    threading.get_ident())
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, name: str, layer: str, start: float, end: float,
            ops: tuple, tid: int = QUEUE_TID) -> Span:
        """Record a span measured elsewhere (e.g. a queue wait)."""
        span = Span(next(self._ids), name, layer, start, None, ops, tid)
        span.end = end
        with self._lock:
            self.spans.append(span)
        return span

    def reopen(self, ops: tuple) -> None:
        """Tag the spans open on this thread with *ops* (the serve root
        learns its request id only once the body is parsed)."""
        for span in self._stack():
            span.ops = ops
        self.set_thread_ops(ops)


def _wrap(rec: Recorder, fn, name: str, layer: str, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled or os.getpid() != rec.pid:
            return fn(*args, **kwargs)
        span = rec.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.finish(span)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result
    return wrapper


# -- attribute readers (run after the span closed) ---------------------------

def _kernel_attrs(batched: bool):
    def read(args, kwargs, result):
        out, A = args[1], args[2]
        d1 = out.shape[-2]
        k = out.shape[0] if batched else 1
        return {"flops": 2.0 * k * d1 * A.nnz}
    return read


def _rng_attrs(args, kwargs, result):
    rng = args[0]
    return {"samples": int(result.size), "dist": rng.dist.name}


def _pool_attrs(args, kwargs, result):
    _ahat, stats = result
    workers = max(1, int(stats.extra.get("workers", 1)))
    # A plan with fewer block tasks than workers keeps the rest idle.
    active = max(1, min(workers, int(stats.blocks_processed)))
    health = stats.health
    plan = args[0].plan
    return {"workers": workers, "active": active,
            "sample_seconds": stats.sample_seconds,
            "compute_seconds": stats.compute_seconds,
            "samples": int(stats.samples_generated),
            "flops": float(stats.flops),
            "dist": plan.rng.distribution,
            "requeues": int(health.tasks_requeued) if health else 0,
            "split": {"rng": stats.sample_seconds / active,
                      "kernels": stats.compute_seconds / active}}


def _engine_attrs(args, kwargs, result):
    _ahat, stats = result
    return {"cpu_seconds": stats.cpu_seconds,
            "wall_seconds": stats.wall_seconds,
            "threads": int(args[0].plan.threads)}


def _compile_attrs(args, kwargs, result):
    trials = 0
    for decision in result.decisions:
        if decision.field == "blocking" and "cache" not in decision.data:
            trials = int(decision.data.get("trials", 0))
    return {"trials": trials}


def _fetch_attrs(args, kwargs, result):
    return {"hit": result is not None}


def _encode_attrs(args, kwargs, result):
    output = args[1] if len(args) > 1 else kwargs.get("output", "digest")
    return {"output": output}


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module binding of *original* at *wrapper*."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) \
                or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap the public callables each layer is timed through."""
    import repro.serve  # noqa: F401 - load every module whose names we bind
    from repro.cache.store import ArtifactCache
    from repro.kernels.backends.numpy_backend import NumpyBackend
    from repro.parallel.executor import PlanExecutionEngine
    from repro.parallel.procpool import ProcessPoolSupervisor
    from repro.plan.planner import Planner
    from repro.plan.runtime import Runtime
    from repro.rng.base import SketchingRNG
    from repro.rng.batched import BatchedSketchRNG
    from repro.serve import protocol
    from repro.serve.admission import AdmissionQueue
    from repro.serve.service import SketchService
    from repro.sparse import convert

    methods = [
        (Planner, "compile", "plan", _compile_attrs),
        (Runtime, "run", "plan", None),
        (ArtifactCache, "fetch", "cache", _fetch_attrs),
        (ArtifactCache, "insert", "cache", None),
        (SketchingRNG, "column_block_batch", "rng", _rng_attrs),
        (BatchedSketchRNG, "column_block_stack", "rng", _rng_attrs),
        (NumpyBackend, "algo3_block", "kernels", _kernel_attrs(False)),
        (NumpyBackend, "algo4_block", "kernels", _kernel_attrs(False)),
        (NumpyBackend, "algo3_block_batched", "kernels", _kernel_attrs(True)),
        (NumpyBackend, "algo4_block_batched", "kernels", _kernel_attrs(True)),
        (ProcessPoolSupervisor, "start", "parallel", None),
        (ProcessPoolSupervisor, "execute", "parallel", _pool_attrs),
        (ProcessPoolSupervisor, "close", "parallel", None),
        (PlanExecutionEngine, "execute", "parallel", _engine_attrs),
        (SketchService, "handle", "root", None),
    ]
    for cls, attr, layer, attrs in methods:
        fn = getattr(cls, attr)
        setattr(cls, attr, _wrap(rec, fn, f"{cls.__name__}.{attr}", layer,
                                 attrs))

    functions = [
        (convert, "csc_to_blocked_csr", "sparse", None),
        (protocol, "encode_result", "serve", _encode_attrs),
    ]
    for module, attr, layer, attrs in functions:
        fn = getattr(module, attr)
        _rebind(fn, _wrap(rec, fn, attr, layer, attrs))

    # parse_request is where a serve root learns its request id.
    parse = protocol.parse_request

    @functools.wraps(parse)
    def parse_request(*args, **kwargs):
        if not rec.enabled or os.getpid() != rec.pid:
            return parse(*args, **kwargs)
        span = rec.begin("parse_request", "serve")
        try:
            request = parse(*args, **kwargs)
        finally:
            rec.finish(span)
        ops = (request.request_id,)
        span.ops = ops
        rec.reopen(ops)
        return request
    parse_request.__perfbench_original__ = parse
    _rebind(parse, parse_request)

    submit = SketchService.submit

    @functools.wraps(submit)
    def submit_wrapper(self, request):
        if not rec.enabled or os.getpid() != rec.pid:
            return submit(self, request)
        span = rec.begin("SketchService.submit", "serve")
        try:
            return submit(self, request)
        finally:
            rec.finish(span)
            span.ops = (request.request_id,)
    SketchService.submit = submit_wrapper

    # The admission queue's wait is not a call anyone makes; it is the
    # gap from Ticket.enqueued to the take() that hands the ticket to an
    # executor thread, recorded as a synthetic serve span per request.
    take, take_matching = AdmissionQueue.take, AdmissionQueue.take_matching

    def _queued(tickets) -> None:
        now = time.monotonic()
        for t in tickets:
            rid = t.request.request_id
            rec.add("AdmissionQueue.wait", "serve", t.enqueued, now, (rid,))

    @functools.wraps(take)
    def take_wrapper(self, timeout=None):
        ticket = take(self, timeout)
        if ticket is not None and rec.enabled and os.getpid() == rec.pid:
            _queued([ticket])
            rec.set_thread_ops((ticket.request.request_id,))
        return ticket

    @functools.wraps(take_matching)
    def take_matching_wrapper(self, predicate, limit):
        taken = take_matching(self, predicate, limit)
        if taken and rec.enabled and os.getpid() == rec.pid:
            _queued(taken)
            rec.set_thread_ops(rec.thread_ops()
                               + tuple(t.request.request_id for t in taken))
        return taken

    AdmissionQueue.take = take_wrapper
    AdmissionQueue.take_matching = take_matching_wrapper


# -- the ledger ---------------------------------------------------------------

def _self_times(root: Span, spans: list[Span]) -> tuple[dict, float]:
    """Sweep one op's spans; returns ``({sid: self seconds}, residual)``."""
    lo, hi = root.start, root.end
    spans = [s for s in spans if s.end > lo and s.start < hi]
    by_id = {s.sid: s for s in spans}
    by_id[root.sid] = root
    events = []
    for s in spans:
        events.append((max(s.start, lo), 1, s))
        events.append((min(s.end, hi), 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    open_by_tid: dict[int, list[Span]] = {}
    own: dict[int, float] = {}
    residual = 0.0
    t_prev = lo
    i = 0
    while True:
        t_next = events[i][0] if i < len(events) else hi
        width = t_next - t_prev
        if width > 0:
            tops = [stack[-1] for stack in open_by_tid.values() if stack]
            ancestors = set()
            for s in tops:
                p = s.parent
                while p is not None and p not in ancestors:
                    ancestors.add(p)
                    parent = by_id.get(p)
                    p = parent.parent if parent is not None else None
            leaves = [s for s in tops if s.sid not in ancestors]
            if leaves:
                share = width / len(leaves)
                for s in leaves:
                    own[s.sid] = own.get(s.sid, 0.0) + share
            else:
                residual += width
        if i >= len(events):
            break
        t_prev = t_next
        _t, kind, s = events[i]
        stack = open_by_tid.setdefault(s.tid, [])
        if kind == 1:
            stack.append(s)
            stack.sort(key=lambda x: (x.start, -x.end))
        elif s in stack:
            stack.remove(s)
        i += 1
    return own, residual


def op_ledger(root: Span, spans: list[Span]) -> dict:
    """Seconds per layer for one op; ``residual`` + layers == ``wall``."""
    own, residual = _self_times(root, spans)
    layers = dict.fromkeys(LAYERS, 0.0)
    by_id = {s.sid: s for s in spans}
    for sid, seconds in own.items():
        span = by_id[sid]
        split = (span.attrs or {}).get("split")
        if split:
            for layer, want in split.items():
                moved = min(want, seconds)
                layers[layer] += moved
                seconds -= moved
        layers[span.layer] += seconds
    return {"wall": root.seconds, "residual": residual, "layers": layers}


def ledgers(roots: list[Span], spans: list[Span]) -> list[dict]:
    """One ledger per root, each from the spans that served its op."""
    by_op: dict = {}
    for s in spans:
        for op in s.ops:
            by_op.setdefault(op, []).append(s)
    out = []
    for root in roots:
        mine = [s for s in by_op.get(root.ops[0], []) if s is not root]
        led = op_ledger(root, mine)
        led["op"] = root.ops[0]
        out.append(led)
    return out


def chrome_trace(spans: list[Span], pid: int, label: str) -> list[dict]:
    """Chrome ``traceEvents`` for *spans* (microseconds)."""
    events = [{"name": "process_name", "ph": "M", "pid": pid,
               "args": {"name": label}}]
    for s in spans:
        events.append({
            "name": s.name, "cat": s.layer, "ph": "X", "pid": pid,
            "tid": s.tid, "ts": s.start * 1e6, "dur": s.seconds * 1e6,
            "args": {"ops": [str(o) for o in s.ops], "parent": s.parent,
                     **(s.attrs or {})},
        })
    return events


# -- per-layer metrics ----------------------------------------------------------

DISTS = ("gaussian", "rademacher", "uniform")


def quantile(values: list, q: float) -> float:
    """The *q* quantile (a whole percent), interpolated; 0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def _thread_self(spans: list[Span], layer: str, child_layer: str) -> float:
    """Summed durations of *layer* spans minus their *child_layer*
    children on the same thread (busy seconds, not wall share)."""
    ids = {s.sid for s in spans if s.layer == layer}
    total = sum(s.seconds for s in spans if s.layer == layer)
    total -= sum(s.seconds for s in spans
                 if s.layer == child_layer and s.parent in ids)
    return total


def layer_metrics(spans: list[Span], led: list[dict], n_ops: int,
                  all_spans: list[Span] | None = None) -> dict:
    """Per-layer numbers from the traced window.

    *spans* are the spans recorded while the measured ops ran, *led*
    their ledgers, *n_ops* how many ops completed; *all_spans* adds the
    set-up spans (pool spawns happen there).
    """
    n = max(1, n_ops)

    def named(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    def attr(s, key, default=0):
        return (s.attrs or {}).get(key, default)

    wall = sum(x["wall"] for x in led) or 1.0
    frac = {layer: sum(x["layers"][layer] for x in led) / wall
            for layer in LAYERS}
    m = {}

    compiles = named("Planner.compile")
    m["plan.compile_ms"] = 1e3 * sum(s.seconds for s in compiles) / n
    m["plan.autotune_trials"] = sum(attr(s, "trials") for s in compiles) / n
    m["plan.self_frac"] = frac["plan"]

    fetches = named("ArtifactCache.fetch")
    hits = sum(1 for s in fetches if attr(s, "hit", False))
    m["cache.fetch_ms"] = 1e3 * sum(s.seconds for s in fetches) / n
    m["cache.insert_ms"] = 1e3 * sum(
        s.seconds for s in named("ArtifactCache.insert")) / n
    m["cache.hit_ratio"] = hits / len(fetches) if fetches else 0.0
    m["cache.self_frac"] = frac["cache"]

    converts = named("csc_to_blocked_csr")
    m["sparse.convert_ms"] = 1e3 * sum(s.seconds for s in converts) / n
    m["sparse.converts_per_op"] = len(converts) / n
    m["sparse.self_frac"] = frac["sparse"]

    pools = named("ProcessPoolSupervisor.execute")
    rng_spans = [s for s in spans if s.layer == "rng"]
    m["rng.sample_frac"] = frac["rng"]
    m["rng.samples_per_op"] = (sum(attr(s, "samples") for s in rng_spans)
                               + sum(attr(s, "samples") for s in pools)) / n
    for dist in DISTS:
        samples = busy = 0.0
        for s in rng_spans:
            if attr(s, "dist", None) == dist:
                samples += attr(s, "samples")
                busy += s.seconds
        for s in pools:
            if attr(s, "dist", None) == dist:
                samples += attr(s, "samples")
                busy += attr(s, "sample_seconds")
        m[f"rng.msamples_per_s.{dist}"] = samples / busy / 1e6 if busy else 0.0

    kernel_busy = (_thread_self(spans, "kernels", "rng")
                   + sum(attr(s, "compute_seconds") for s in pools))
    flops = (sum(attr(s, "flops") for s in spans if s.layer == "kernels")
             + sum(attr(s, "flops") for s in pools))
    m["kernels.compute_frac"] = frac["kernels"]
    m["kernels.gflops"] = flops / kernel_busy / 1e9 if kernel_busy else 0.0

    starts = [s for s in (all_spans or spans)
              if s.name == "ProcessPoolSupervisor.start"]
    m["parallel.spawn_ms"] = (1e3 * sum(s.seconds for s in starts)
                              / len(starts) if starts else 0.0)
    worker_busy = sum(attr(s, "sample_seconds") + attr(s, "compute_seconds")
                      for s in pools)
    m["parallel.dispatch_ms"] = 1e3 * sum(
        s.seconds - (attr(s, "sample_seconds") + attr(s, "compute_seconds"))
        / attr(s, "active", 1) for s in pools) / n
    fleet_wall = sum(attr(s, "workers", 1) * s.seconds for s in pools)
    m["parallel.worker_busy_frac"] = (worker_busy / fleet_wall
                                      if fleet_wall else 0.0)
    engines = named("PlanExecutionEngine.execute")
    engine_wall = sum(attr(s, "threads", 1) * attr(s, "wall_seconds")
                      for s in engines)
    m["parallel.engine_busy_frac"] = (
        sum(attr(s, "cpu_seconds") for s in engines) / engine_wall
        if engine_wall else 0.0)
    m["parallel.requeues_per_op"] = sum(attr(s, "requeues")
                                        for s in pools) / n
    m["parallel.self_frac"] = frac["parallel"]

    waits = [1e3 * s.seconds for s in named("AdmissionQueue.wait")]
    m["serve.queue_wait_ms_p50"] = quantile(waits, 0.5)
    m["serve.queue_wait_ms_p90"] = quantile(waits, 0.9)
    parses = named("parse_request")
    encodes = named("encode_result")
    arrays = [s for s in encodes if attr(s, "output", None) == "array"]
    m["serve.parse_ms"] = (1e3 * sum(s.seconds for s in parses) / len(parses)
                           if parses else 0.0)
    m["serve.encode_ms"] = (1e3 * sum(s.seconds for s in encodes)
                            / len(encodes) if encodes else 0.0)
    m["serve.encode_ms.array"] = (1e3 * sum(s.seconds for s in arrays)
                                  / len(arrays) if arrays else 0.0)
    m["serve.self_frac"] = frac["serve"]

    m["ledger.residual_frac"] = sum(x["residual"] for x in led) / wall
    return m
