"""SIGTERM graceful drain, end to end against the real daemon.

The drain contract: on SIGTERM the daemon stops admitting, lets
in-flight requests finish (their responses arrive bit-identical),
sheds queued requests with retry hints, checkpoints drain state, and
exits 0 within the drain deadline.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.core.config import SketchConfig
from repro.plan import Planner, Runtime
from repro.sparse import random_sparse

from ._daemon import ServeProcess, decode_sketch

MATRIX = {"random": [300, 60, 0.05], "seed": 11}


def serial_reference(d=12, seed=4):
    A = random_sparse(300, 60, 0.05, seed=11)
    plan = Planner().compile(A, SketchConfig(seed=seed), d=d)
    return Runtime().run(plan, A).sketch


@pytest.fixture
def daemon(tmp_path):
    d = ServeProcess(str(tmp_path), "--allow-chaos", "--executors", "1",
                     "--drain-timeout", "30",
                     "--checkpoint-dir", str(tmp_path / "ckpt"))
    yield d
    d.kill()


class TestEndpoints:
    def test_health_ready_metrics(self, daemon):
        assert daemon.get("/healthz")[0] == 200
        assert daemon.get("/readyz")[0] == 200
        status, text = daemon.get("/metrics")
        assert status == 200
        assert "serve_queue_depth" in text
        assert "repro_dropped_events" in text

    def test_unknown_route_404(self, daemon):
        assert daemon.get("/nope")[0] == 404

    def test_malformed_request_400(self, daemon):
        status, body, _ = daemon.post({"not": "valid"})
        assert status == 400
        assert body["error"] == "ConfigError"

    def test_backend_config_field_400(self, daemon):
        status, body, _ = daemon.post({"matrix": MATRIX,
                                       "config": {"backend": "numpy"}})
        assert status == 400
        assert body["error"] == "ConfigError"
        assert "backend" in body["message"]


class TestSigtermDrain:
    def test_drain_contract(self, daemon):
        """One SIGTERM mid-request: in-flight completes bit-identically,
        a queued request is shed with a retry hint, exit code is 0."""
        results = {}

        def _inflight():
            # stall keeps this request on the single executor ~1.2s
            results["inflight"] = daemon.post({
                "request_id": "inflight",
                "matrix": MATRIX,
                "config": {"d": 12, "seed": 4, "driver": "engine"},
                "output": "array",
                "chaos": {"faults": [{"kind": "stall",
                                      "sleep_seconds": 1.2}]},
            })

        def _queued():
            results["queued"] = daemon.post({
                "request_id": "queued",
                "matrix": MATRIX,
                "config": {"d": 12, "seed": 4},
                "output": "array",
            })

        t1 = threading.Thread(target=_inflight)
        t1.start()
        time.sleep(0.4)   # executor has picked up the stalled request
        t2 = threading.Thread(target=_queued)
        t2.start()
        time.sleep(0.2)   # second request is sitting in the queue
        daemon.sigterm()

        # readiness flips quickly while the in-flight request finishes
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                if daemon.get("/readyz", timeout=2.0)[0] == 503:
                    break
            except OSError:  # socket already closed - also fine
                break
            time.sleep(0.05)

        rc = daemon.wait(timeout=45.0)
        t1.join(timeout=10.0)
        t2.join(timeout=10.0)
        assert rc == 0, daemon.proc.stderr.read().decode()

        status, body, _ = results["inflight"]
        assert status == 200
        assert np.array_equal(decode_sketch(body), serial_reference())

        status, body, headers = results["queued"]
        assert status == 503
        assert body["reason"] == "draining"
        assert body["retry_after"] > 0
        assert int(headers["Retry-After"]) >= 1

    def test_admission_refused_while_draining(self, daemon, tmp_path):
        def _inflight():
            daemon.post({
                "matrix": MATRIX,
                "config": {"d": 12, "driver": "engine"},
                "chaos": {"faults": [{"kind": "stall",
                                      "sleep_seconds": 1.5}]},
            })

        t = threading.Thread(target=_inflight)
        t.start()
        time.sleep(0.4)
        daemon.sigterm()
        time.sleep(0.3)
        status, body, _ = daemon.post(
            {"matrix": MATRIX, "config": {"d": 8}}, timeout=10.0)
        assert status == 503
        assert body["reason"] == "draining"
        assert daemon.wait(timeout=45.0) == 0
        t.join(timeout=10.0)
        # drain state checkpoint was persisted atomically
        state = json.loads(
            (tmp_path / "ckpt" / "serve_drain_state.json").read_text())
        assert state["clean"] is True

    def test_idle_sigterm_exits_zero_fast(self, daemon):
        start = time.monotonic()
        daemon.sigterm()
        rc = daemon.wait(timeout=30.0)
        assert rc == 0
        assert time.monotonic() - start < 30.0
