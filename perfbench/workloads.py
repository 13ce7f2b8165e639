"""One workload in one process: set up, measure, verify, report.

``run.py`` starts this file once per cold start::

    python perfbench/workloads.py --workload fixed_a --seed 0 --seconds 6 \\
        --t0 <time.monotonic() before the spawn> --out DIR

It sets up, runs the measured phases for ``--seconds``, timing the
reference job of ``speed.py`` whenever the workload is idle, checks the
outputs and prints one JSON document as its last stdout line: the set-up
time, every latency and the rate as measured, and the speed factor.
``--trace`` runs the phases with and without span recording (see
``spans.py``) and writes ``TRACE_<workload>.json`` and
``LEDGER_<workload>.json`` into ``--out``.

Outputs are checked after the timed phases: every tenth library op,
every tenth ``serve_http`` request and every tenth ``serve_burst``
burst is compared bit for bit with the same plan run on the serial
driver without a cache.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import http.client
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from speed import (ONE_THREAD, SERVICE, TWO_THREADS,  # noqa: E402
                   MachineSpeed)

WORKLOADS = ("fixed_a", "rng_bound", "cold_stream", "serve_http",
             "serve_burst")

#: Problem sizes.  A full-size library op takes 40-200 ms on a 2-core
#: host, so a run holds well over 100 ops (ten beyond the p90).  The
#: percentiles of a run are only as steady as its sample count allows, so
#: the ops are kept small: halving rng_bound's op halved the spread of its
#: p50.  The serve request is 8000 x 128 at density 2e-3 with d = 64:
#: about 30 ms of service on a 2-core host, most of it sketch work in the
#: pool workers.  The planner gives such a request one block task, so one
#: of the two pool workers does all of it.  serve_http offers 12
#: requests/s in phase A, about 0.4 of what the service completes back to
#: back, so a slow state of the host lengthens requests instead of
#: queueing them, which the speed normalisation (``speed.py``) could not
#: undo.  (With d = 256 the host's slow states pushed serve_http to 0.8 of
#: capacity.)
FULL = {
    "fixed_a": {"shape": (10000, 700), "b_d": 2100, "b_n": 140},
    "rng_bound": {"shape": (800, 80), "b_d": 240, "b_n": 20},
    "cold_stream": {"shape": (800, 14), "nnz": 4800},
    "serve": {"random": (8000, 128, 2e-3), "d": 64, "rate": 12.0},
}
SMOKE = {
    "fixed_a": {"shape": (2000, 100), "b_d": 300, "b_n": 20},
    "rng_bound": {"shape": (200, 20), "b_d": 32, "b_n": 8},
    "cold_stream": {"shape": (300, 8), "nnz": 1200},
    "serve": {"random": (1000, 32, 1e-2), "d": 64, "rate": 15.0},
}

#: Share of an untraced serve_http run spent in the open-loop phase A (the
#: rest is the closed-loop phase B).
PHASE_A_SHARE = 0.75
#: Share of phase B that warms the service up to back-to-back load and is
#: not counted.
B_WARMUP_SHARE = 0.15
#: Both phases of serve_http run in this many slices, with the reference
#: job timed in between, when nothing is in flight.  A traced run
#: alternates untraced and traced slices in phase B.
SLICES = 4
#: Library workloads time the reference job after every this many ops.
SPEED_EVERY = 2
VERIFY_EVERY = 10
BURST = 8
DISTS = spans.DISTS


class Workload:
    """Shared plumbing: seeds, temp dirs, the span recorder, the machine
    speed."""

    #: Parts of the reference job the measured times are scaled by.
    speed_weights = ONE_THREAD
    #: Whether a time is scaled by the speed samples nearest to it (True)
    #: or by all the samples of the process.
    local_speed = True

    def __init__(self, args) -> None:
        self.args = args
        self.size = (SMOKE if args.smoke else FULL)
        seeds = np.random.default_rng(
            [args.seed, WORKLOADS.index(args.workload)])
        self.matrix_seed = int(seeds.integers(1, 2**31))
        self.sketch_seed0 = int(seeds.integers(1, 2**30))
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                         dir=args.out))
        self.rec = spans.Recorder()
        if args.trace:
            spans.install(self.rec)
        self.ids = itertools.count()
        self.flip_pending = args.inject_mismatch
        #: Built after set-up, so ``setup_s`` does not include it.
        self.speed: MachineSpeed | None = None

    def sketch_seed(self, i: int) -> int:
        return self.sketch_seed0 + i

    def flip(self, array) -> None:
        """Flip one bit of the first reference (``--inject-mismatch``)."""
        if self.flip_pending:
            self.flip_pending = False
            # order="A" keeps this a view of C- and F-ordered sketches.
            array.reshape(-1, order="A").view(np.uint8)[0] ^= 1

    def stop(self) -> None:
        """Stop the services the workload started (idempotent)."""

    def teardown(self) -> None:
        self.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)


# -- library workloads ---------------------------------------------------------

class LibraryWorkload(Workload):
    """Closed loop, one caller; each op is one root span."""

    root_name = "core.sketch"

    def __init__(self, args) -> None:
        super().__init__(args)
        self.samples: list = []      # (plan, A, digest) of every 10th op
        self.roots: list = []
        self.attempted = 0

    def one_op(self, i: int):
        """Run op *i*; returns ``(seconds, SketchResult, A)``."""
        raise NotImplementedError

    def setup(self) -> None:
        self.one_op(-1)

    def timed(self) -> tuple[bool, float]:
        """Op number next; ``(traced, seconds)``."""
        from repro.serve import sketch_digest

        i = next(self.ids)
        rec = self.rec
        # A traced run records odd ops only, so the traced and untraced
        # rates come from the same stretch of time.
        rec.enabled = traced = bool(self.args.trace) and i % 2 == 1
        root = None
        if traced:
            rec.ops = (i,)
            root = rec.begin(self.root_name, "root", ops=(i,))
        seconds, result, A = self.one_op(i)
        if root is not None:
            rec.finish(root)
            self.roots.append(root)
        rec.enabled = False
        if i % VERIFY_EVERY == 0:
            self.samples.append((result.plan, A,
                                 sketch_digest(result.sketch)))
        if i % SPEED_EVERY == 0:
            self.speed.sample()
        return traced, seconds

    def loop_may_stop(self, n_ops: int) -> bool:
        return n_ops % 2 == 0

    def measure(self) -> dict:
        self.rec.make_home()
        lat, busy = [], {False: [], True: []}
        end = time.monotonic() + self.args.seconds
        while time.monotonic() < end or not self.loop_may_stop(
                self.attempted):
            traced, seconds = self.timed()
            busy[traced].append((time.monotonic(), seconds, 1))
            if traced == bool(self.args.trace):
                lat.append((time.monotonic(), seconds))
            self.attempted += 1
        return {"latencies": lat, "busy": busy, "trace_roots": self.roots}

    def verify(self) -> tuple[int, int]:
        from repro import Runtime
        from repro.serve import sketch_digest

        failed = 0
        for plan, A, got in self.samples:
            serial = dataclasses.replace(plan, driver="serial")
            ref = Runtime().run(serial, A).sketch
            self.flip(ref)
            failed += sketch_digest(ref) != got
        return len(self.samples), failed

    def computed_bytes(self) -> float:
        from repro.model.traffic import algo3_traffic, algo4_traffic

        plan, A, _got = self.samples[0]
        est = (algo4_traffic if plan.kernel == "algo4" else algo3_traffic)(
            A, plan.problem.d, plan.b_d, plan.b_n)
        words = est.words_sparse + est.words_output + est.words_sketch
        return 8.0 * words


class FixedA(LibraryWorkload):
    """The fixed-A hot path: one matrix, many seeds, every artifact cached."""

    def __init__(self, args) -> None:
        super().__init__(args)
        from repro import CachePolicy
        from repro.workloads import ABNORMAL_SUITE

        size = self.size["fixed_a"]
        m, n = size["shape"]
        self.A = ABNORMAL_SUITE["Abnormal_A"].builder(m, n, self.matrix_seed)
        self.cache = CachePolicy(cache_dir=str(self.tmp / "cache"))

    def one_op(self, i):
        import repro

        size = self.size["fixed_a"]
        cfg = repro.SketchConfig(kernel="algo4", rng_kind="philox",
                                 b_d=size["b_d"], b_n=size["b_n"],
                                 seed=self.sketch_seed(i))
        t = time.monotonic()
        result = repro.sketch(self.A, gamma=3, config=cfg, cache=self.cache)
        return time.monotonic() - t, result, self.A


class RngBound(LibraryWorkload):
    """Thread engine, RNG-dominated: +-1 boundary matrix, algo3."""

    speed_weights = TWO_THREADS

    def __init__(self, args) -> None:
        super().__init__(args)
        from repro import CachePolicy
        from repro.workloads import SPMM_SUITE

        m, n = self.size["rng_bound"]["shape"]
        self.A = SPMM_SUITE["mk-12"].builder(m, n, self.matrix_seed)
        self.cache = CachePolicy(cache_dir=str(self.tmp / "cache"))

    def one_op(self, i):
        import repro

        size = self.size["rng_bound"]
        cfg = repro.SketchConfig(kernel="algo3", rng_kind="philox",
                                 threads=2, b_d=size["b_d"],
                                 b_n=size["b_n"],
                                 distribution=DISTS[i % len(DISTS)],
                                 seed=self.sketch_seed(i))
        t = time.monotonic()
        result = repro.sketch(self.A, gamma=3, config=cfg, cache=self.cache)
        return time.monotonic() - t, result, self.A

    def loop_may_stop(self, n_ops: int) -> bool:
        # Whole distribution cycles of traced and untraced ops only, so
        # every run has the same mix.
        return n_ops % (2 * len(DISTS)) == 0


class ColdStream(LibraryWorkload):
    """A new matrix every op: measured planning, cache writes, conversion."""

    root_name = "cold_stream.op"

    def one_op(self, i):
        from repro import ArtifactCache, CachePolicy, Planner, Runtime, \
            SketchConfig
        from repro.sparse import rail_like_sparse

        size = self.size["cold_stream"]
        m, n = size["shape"]
        A = rail_like_sparse(m, n, size["nnz"],
                             seed=self.matrix_seed + i + 1)
        cache_dir = tempfile.mkdtemp(dir=self.tmp)
        cache = ArtifactCache(CachePolicy(cache_dir=cache_dir))
        cfg = SketchConfig(kernel="algo4", rng_kind="philox",
                           seed=self.sketch_seed(i))
        t = time.monotonic()
        plan = Planner(tune="measure").compile(A, cfg, gamma=3, cache=cache)
        result = Runtime().run(plan, A, cache=cache)
        seconds = time.monotonic() - t
        shutil.rmtree(cache_dir, ignore_errors=True)
        return seconds, result, A


# -- serve workloads -----------------------------------------------------------

class ServeWorkload(Workload):
    """Requests against one matrix spec, each with a fresh seed."""

    #: Requests the service runs as one plan (coalesced bursts).
    group = 1
    speed_weights = SERVICE

    def __init__(self, args) -> None:
        super().__init__(args)
        from repro.sparse import random_sparse

        size = self.size["serve"]
        m, n, density = size["random"]
        self.matrix = {"random": [m, n, density], "seed": self.matrix_seed}
        self.A = random_sparse(m, n, density, seed=self.matrix_seed)
        self.d = size["d"]
        #: (request index, request id, array output?, what came back,
        #: batch size); request index i carries sketch seed
        #: ``sketch_seed(i)``.
        self.responses: list = []
        self.phase_ids: dict[str, list] = {}

    def body(self, tag: str) -> dict:
        """The next request of phase *tag*; one in four asks for the
        sketch itself, the rest for its digest."""
        i = next(self.ids)
        self.phase_ids.setdefault(tag, []).append(f"{tag}{i}")
        return {"matrix": self.matrix, "request_id": f"{tag}{i}",
                "config": {"kernel": "algo4", "rng_kind": "philox",
                           "d": self.d, "driver": "process", "workers": 2,
                           "seed": self.sketch_seed(i)},
                "output": "array" if i % 4 == 3 else "digest"}

    @property
    def attempted(self) -> int:
        return len(self.responses)

    def record(self, body: dict, doc) -> None:
        """Keep only what the check needs: the service's digest and, for
        array output, the digest of the returned bytes."""
        from repro.serve import sketch_digest

        got = None
        if doc is not None and doc.get("status") == "ok":
            data = doc["sketch"].get("data")
            got = (doc["sketch"].get("digest"), None if data is None else
                   sketch_digest(np.frombuffer(base64.b64decode(data),
                                               "<f8")))
        batch = (doc or {}).get("coalesced", {}).get("batch", 1)
        i = body["config"]["seed"] - self.sketch_seed0
        self.responses.append((i, body["request_id"],
                               body["output"] == "array", got, batch))

    def checked(self, g: int, chunk: list) -> bool:
        """Whether group *g* (responses *chunk*) is checked."""
        raise NotImplementedError

    def verify(self) -> tuple[int, int]:
        """Failed responses, plus the checked groups that differ from the
        plan the service ran for them, executed on the serial driver
        without a cache."""
        from repro import Planner, Runtime, SketchConfig
        from repro.serve import sketch_digest

        failed = sum(1 for r in self.responses if r[3] is None)
        checked = 0
        for g, start in enumerate(range(0, len(self.responses), self.group)):
            chunk = self.responses[start:start + self.group]
            if not self.checked(g, chunk):
                continue
            seeds = [self.sketch_seed(i) for i, *_rest in chunk]
            plan = Planner().compile(
                self.A, SketchConfig(kernel="algo4", rng_kind="philox"),
                d=self.d, driver="serial", batch_seeds=seeds)
            refs = Runtime().run(plan, self.A).sketch.reshape(
                len(seeds), self.d, -1)
            for (_i, _rid, array, got, _batch), ref in zip(chunk, refs):
                if got is None:
                    continue
                ref = np.ascontiguousarray(ref, dtype="<f8")
                self.flip(ref)
                want = sketch_digest(ref)
                failed += got != (want, want if array else None)
                checked += 1
        return checked, failed

    def computed_bytes(self) -> float:
        from repro import Planner, SketchConfig
        from repro.model.traffic import algo4_traffic

        plan = Planner().compile(self.A, SketchConfig(kernel="algo4"),
                                 d=self.d)
        est = algo4_traffic(self.A, self.d, plan.b_d, plan.b_n)
        return 8.0 * (est.words_sparse + est.words_output + est.words_sketch)


class ServeHttp(ServeWorkload):
    """A ``repro serve`` daemon over two keep-alive HTTP connections."""

    #: The reference job runs only between slices, a second or more
    #: apart, so the samples nearest a request are no closer to it than
    #: the rest of the process's, only fewer: all of them scale it.
    local_speed = False

    def __init__(self, args) -> None:
        super().__init__(args)
        self.proc = None
        self.conns: list = []
        self.spans_file = self.tmp / "daemon_spans.json"

    def setup(self) -> None:
        ready = self.tmp / "ready"
        serve_args = ["--cache-dir", str(self.tmp / "cache"),
                      "--ready-file", str(ready), "--port", "0"]
        if self.args.trace:
            cmd = [sys.executable, str(HERE / "_traced_serve.py"),
                   str(self.spans_file), *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        log = self.tmp / "daemon.log"
        with open(log, "wb") as fh:
            self.proc = subprocess.Popen(cmd, env=env, stdout=fh, stderr=fh)
        deadline = time.monotonic() + 60
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not become ready:\n"
                                   + log.read_text()[-2000:])
            time.sleep(0.005)
        host, port = ready.read_text().strip().rsplit(":", 1)
        self.conns = [http.client.HTTPConnection(host, int(port), timeout=60)
                      for _ in range(2)]
        status, _doc = self.post(self.conns[0], self.body("warm"))
        if status != 200:
            raise RuntimeError(f"first request failed with HTTP {status}")

    @staticmethod
    def post(conn, body: dict):
        """One request; ``(status, document)``, status 0 on a transport
        failure (counted as a failed request)."""
        try:
            conn.request("POST", "/v1/sketch", body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        except (OSError, http.client.HTTPException, ValueError):
            conn.close()
            return 0, None

    def run_threads(self, target) -> None:
        threads = [threading.Thread(target=target, args=(c,))
                   for c in self.conns]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def open_loop(self, seconds: float) -> dict:
        """Requests due every 1/rate seconds, sent on whichever
        connection is free; latency runs from the due time."""
        rate = self.size["serve"]["rate"]
        bodies = [self.body("a") for _ in range(max(1, int(seconds * rate)))]
        n = len(bodies)
        lat, lag, docs = [(0.0, 0.0)] * n, [0.0] * n, [None] * n
        rtt: dict[str, tuple] = {}
        counter = itertools.count()
        t0 = time.monotonic() + 0.05

        def sender(conn) -> None:
            while (k := next(counter)) < n:
                due = t0 + k / rate
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                sent = time.monotonic()
                status, doc = self.post(conn, bodies[k])
                done = time.monotonic()
                lat[k], lag[k] = (done, done - due), sent - due
                rtt[bodies[k]["request_id"]] = (sent, done)
                docs[k] = doc if status == 200 else None

        self.run_threads(sender)
        for body, doc in zip(bodies, docs):
            self.record(body, doc)
        return {"latencies": lat, "generator_lag_ms_max": 1e3 * max(lag),
                "rtt": rtt}

    def closed_loop(self, seconds: float, tag: str) -> list:
        """Requests back to back for *seconds*; one busy entry per
        request: its time divided by the number of callers, so a rate
        over the summed entries does not depend on when the slowest
        caller's last request ends (Little's law)."""
        lock = threading.Lock()
        busy = []
        end = time.monotonic() + seconds

        def sender(conn) -> None:
            while time.monotonic() < end:
                body = self.body(tag)
                sent = time.monotonic()
                status, doc = self.post(conn, body)
                done = time.monotonic()
                with lock:
                    busy.append((done, (done - sent) / len(self.conns), 1))
                    self.record(body, doc if status == 200 else None)

        self.run_threads(sender)
        return busy

    def set_trace(self, on: bool) -> None:
        """Switch the daemon's span recording (see ``_traced_serve.py``)."""
        if not self.args.trace:
            return
        self.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        time.sleep(0.02)

    def checked(self, g: int, chunk: list) -> bool:
        # Every tenth request; half of them ask for array output.
        return chunk[0][0] % VERIFY_EVERY == 3

    def phase_b(self, seconds: float) -> dict:
        """Throughput at saturation.  The first stretch brings the service
        from paced to back-to-back load and is not counted.  The rest runs
        in slices, with the reference job timed between them.  A traced
        run alternates untraced and traced slices, so both rates come
        from the same stretch of time and ``trace.overhead_frac`` does not
        pick up host drift.  Rates are taken over busy time, since a
        slice holds only a dozen requests."""
        self.set_trace(False)
        self.closed_loop(B_WARMUP_SHARE * seconds, "w")
        seconds *= 1 - B_WARMUP_SHARE
        busy = {False: [], True: []}
        for k in range(SLICES):
            traced = bool(self.args.trace) and k % 2 == 1
            self.set_trace(traced)
            busy[traced] += self.closed_loop(seconds / SLICES,
                                             "t" if traced else "b")
            self.speed.sample()
        self.set_trace(False)
        return busy

    def measure(self) -> dict:
        """Phase A (open loop, latency) in slices, each a fresh schedule
        that drains before the reference job is timed; then phase B
        (closed loop, throughput).  A traced run gives each phase half
        the run."""
        share = 0.5 if self.args.trace else PHASE_A_SHARE
        a = share * self.args.seconds
        lat, lag, rtt = [], 0.0, {}
        for _ in range(SLICES):
            got = self.open_loop(a / SLICES)
            self.speed.sample()
            lat += got["latencies"]
            lag = max(lag, got["generator_lag_ms_max"])
            rtt.update(got["rtt"])
        return {"latencies": lat, "generator_lag_ms_max": lag, "rtt": rtt,
                "busy": self.phase_b(self.args.seconds - a)}

    def stop(self) -> None:
        for conn in self.conns:
            conn.close()
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def daemon_spans(self) -> tuple[list, int]:
        doc = json.loads(self.spans_file.read_text())
        return [spans.Span.from_dict(s) for s in doc["spans"]], doc["pid"]


class ServeBurst(ServeWorkload):
    """In-process ``SketchService`` with coalescing up to eight requests."""

    group = BURST

    def __init__(self, args) -> None:
        super().__init__(args)
        self.service = None

    def setup(self) -> None:
        from repro.serve import ServeConfig, SketchService

        self.service = SketchService(ServeConfig(
            max_batch=BURST, cache_dir=str(self.tmp / "cache"))).start()
        self.service.handle(self.body("warm"))

    def burst(self, tag: str) -> list:
        """Submit eight requests at once and wait for all of them;
        returns ``(request id, submitted, done)`` per request."""
        from repro.serve import parse_request

        # This path submits parsed requests; parsing here is bench work.
        parse_request = getattr(parse_request, "__perfbench_original__",
                                parse_request)
        bodies = [self.body(tag) for _ in range(BURST)]
        tickets = []
        for body in bodies:
            request = parse_request(body)
            tickets.append((time.monotonic(), self.service.submit(request)))
        out = []
        for body, (submitted, ticket) in zip(bodies, tickets):
            try:
                doc = ticket.wait(timeout=60)
            except Exception:  # noqa: BLE001 - any failure counts as failed
                doc = None
            out.append((body["request_id"], submitted, time.monotonic()))
            self.record(body, doc)
        return out

    def checked(self, g: int, chunk: list) -> bool:
        # Every tenth burst, against one batched reference run; each
        # burst holds two array requests.
        return g % VERIFY_EVERY == 0

    def measure(self) -> dict:
        """Bursts back to back: submit eight, wait for all eight, submit
        the next eight.  Each burst meets an idle service, so its
        makespan, first submit to last ticket done, is the service's time
        for eight coalesced requests.  A request's latency runs from its
        burst's first submit to its ticket being done, and ``ops_per_s``
        is eight over the mean makespan.  A traced run traces every other
        burst; the untraced ones in between give ``trace.overhead_frac``
        from the same stretch of time."""
        trace = bool(self.args.trace)
        lat, roots = [], []
        busy = {False: [], True: []}
        end = time.monotonic() + self.args.seconds
        k = 0
        while time.monotonic() < end or k % 2:
            traced = trace and k % 2 == 1
            self.rec.enabled = traced
            got = self.burst("a" if traced == trace else "b")
            self.rec.enabled = False
            start, done = got[0][1], got[-1][2]
            busy[traced].append((done, done - start, len(got)))
            if traced == trace:
                lat += [(t, t - start) for _rid, _sub, t in got]
                roots += got
            k += 1
            if k % SPEED_EVERY == 0:
                self.speed.sample()
        return {"latencies": lat, "roots": roots, "busy": busy}

    def stop(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


CLASSES = {"fixed_a": FixedA, "rng_bound": RngBound,
           "cold_stream": ColdStream, "serve_http": ServeHttp,
           "serve_burst": ServeBurst}


# -- reporting -----------------------------------------------------------------

def rate(busy: list, factor_at=None) -> float:
    """Ops per second over *busy*, a list of ``(moment, seconds, ops)``.
    With *factor_at*, each entry's seconds are first scaled by the speed
    factor at its moment (``MachineSpeed.factor``)."""
    ops = sum(n for _t, _s, n in busy)
    return ops / sum(s * (factor_at(near=t) if factor_at else 1.0)
                     for t, s, _n in busy)


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def trace_report(w: Workload, res: dict) -> dict:
    """Ledger, Chrome trace and per-layer metrics of the traced phase."""
    out = Path(w.args.out)
    name = w.args.workload
    events = []
    if isinstance(w, ServeHttp):
        all_spans, pid = w.daemon_spans()
        wanted = set(w.phase_ids.get("a", []))
        roots = [s for s in all_spans if s.layer == "root"
                 and s.ops and s.ops[0] in wanted]
        events += spans.chrome_trace(all_spans, pid, "repro serve")
        client = spans.Recorder()
        for rid, (sent, done) in res["rtt"].items():
            client.add("client.request", "client", sent, done, (rid,), tid=0)
        events += spans.chrome_trace(client.spans, os.getpid(),
                                     "bench client")
        handle = {s.ops[0]: s.seconds for s in roots}
        transport = [done - sent - handle[rid]
                     for rid, (sent, done) in res["rtt"].items()
                     if rid in handle]
    else:
        all_spans = list(w.rec.spans)
        if isinstance(w, ServeBurst):
            wanted = set(w.phase_ids.get("a", []))
            roots = [w.rec.add("serve.request", "root", sub, done, (rid,),
                               tid=0) for rid, sub, done in res["roots"]]
            all_spans += roots
        else:
            roots = res["trace_roots"]
            wanted = {r.ops[0] for r in roots}
        events += spans.chrome_trace(all_spans, os.getpid(), name)
        transport = []
    window = [s for s in all_spans if any(o in wanted for o in s.ops)]
    led = spans.ledgers(roots, window)
    metrics = spans.layer_metrics(window, led, len(roots), all_spans)
    metrics["kernels.computed_bytes_per_op"] = w.computed_bytes()
    metrics["serve.transport_ms"] = (1e3 * statistics.fmean(transport)
                                     if transport else 0.0)
    if isinstance(w, ServeWorkload):
        metrics["serve.batch_size_mean"] = statistics.fmean(
            batch for _s, rid, _a, _g, batch in w.responses if rid in wanted)
    else:
        metrics["serve.batch_size_mean"] = 1.0
    metrics["trace.overhead_frac"] = 1.0 - (res["ops_per_s"]
                                            / res["plain_ops_per_s"])
    (out / f"TRACE_{name}.json").write_text(json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}))
    (out / f"LEDGER_{name}.json").write_text(json.dumps({
        "workload": name, "ops": len(led),
        "wall_s": sum(x["wall"] for x in led),
        "residual_s": sum(x["residual"] for x in led),
        "layers_s": {layer: sum(x["layers"][layer] for x in led)
                     for layer in spans.LAYERS},
        "per_op": [{**x, "op": str(x["op"])} for x in led],
    }, indent=1))
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--inject-mismatch", action="store_true")
    args = p.parse_args(argv)

    w = CLASSES[args.workload](args)
    try:
        # Pools spawn during set-up, so a traced run records it too; the
        # set-up op itself belongs to no measured op and stays out of the
        # ledger.
        w.rec.enabled = args.trace
        w.setup()
        setup_end = time.monotonic()
        setup_s = setup_end - args.t0
        w.rec.enabled = False
        w.speed = MachineSpeed()
        setup_factor = w.speed.factor(ONE_THREAD, near=setup_end)
        res = w.measure()
        w.stop()
        checked, failed = w.verify()

        def at(near: float) -> float:
            return w.speed.factor(w.speed_weights,
                                  near if w.local_speed else None)

        busy = res["busy"][bool(args.trace)]
        doc = {
            "setup_s": setup_s,
            "setup_s_norm": setup_s * setup_factor,
            "ops_per_s": rate(busy),
            "ops_per_s_norm": rate(busy, at),
            "latencies_ms": [1e3 * s for _t, s in res["latencies"]],
            "latencies_at": [t for t, _s in res["latencies"]],
            "latencies_ms_norm": [1e3 * s * at(near=t)
                                  for t, s in res["latencies"]],
            "speed_factor": w.speed.factor(w.speed_weights),
            "speed": w.speed.record(),
            "checked": checked,
            "failed": failed,
            "attempted": w.attempted,
        }
        if "generator_lag_ms_max" in res:
            doc["generator_lag_ms_max"] = res["generator_lag_ms_max"]
        if args.trace:
            res["ops_per_s"] = doc["ops_per_s"]
            res["plain_ops_per_s"] = rate(res["busy"][False])
            doc["layers"] = trace_report(w, res)
    finally:
        w.teardown()
    import scipy
    from repro.kernels.backends import available_backends

    doc["peak_rss_mb"] = peak_rss_mb()
    doc["env"] = {"numpy": np.__version__, "scipy": scipy.__version__,
                  "backends": available_backends()}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
