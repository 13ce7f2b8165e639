"""SketchService: the transport-independent serving core.

Covers admission + shedding, deadline phases, warm-pool reuse, chaos
crash recovery with bit-identical replay, breaker integration, and
drain semantics — all in-process, no HTTP.
"""

import threading
import time

import base64

import numpy as np
import pytest

from repro.core.config import SketchConfig
from repro.errors import (
    ConfigError,
    RequestDeadlineError,
    RequestShedError,
)
from repro.parallel import WorkerPoolConfig
from repro.plan import PartitionSpec, Planner, Runtime
from repro.plan.events import (
    DEADLINE_MISSED,
    DRAIN_STARTED,
    REQUEST_ADMITTED,
    REQUEST_DONE,
    REQUEST_SHED,
    SHARD_START,
)
from repro.serve import ServeConfig, SketchService
from repro.sparse import random_sparse

MATRIX = {"random": [300, 60, 0.05], "seed": 11}


def serial_reference(d=12, seed=4):
    A = random_sparse(300, 60, 0.05, seed=11)
    plan = Planner().compile(A, SketchConfig(seed=seed), d=d)
    return Runtime().run(plan, A).sketch


def decode(doc):
    raw = base64.b64decode(doc["sketch"]["data"])
    return np.frombuffer(raw, dtype=doc["sketch"]["dtype"]).reshape(
        doc["sketch"]["shape"])


@pytest.fixture
def service():
    svc = SketchService(ServeConfig(queue_capacity=8, executors=2,
                                    default_deadline=60.0,
                                    drain_timeout=10.0,
                                    allow_chaos=True)).start()
    yield svc
    svc.close()


class TestServing:
    def test_serial_request_bit_identical(self, service):
        doc = service.handle({
            "matrix": MATRIX,
            "config": {"d": 12, "seed": 4, "driver": "serial"},
            "output": "array",
        })
        assert doc["status"] == "ok"
        assert np.array_equal(decode(doc), serial_reference())

    def test_process_request_bit_identical(self, service):
        doc = service.handle({
            "matrix": MATRIX,
            "config": {"d": 12, "seed": 4, "driver": "process",
                       "workers": 2},
            "output": "array",
        })
        assert np.array_equal(decode(doc), serial_reference())

    def test_warm_pool_reused_across_requests(self, service):
        body = {"matrix": MATRIX,
                "config": {"d": 12, "seed": 4, "driver": "process",
                           "workers": 2}}
        service.handle(body)
        assert len(service._pools) == 1
        pool = next(iter(service._pools.values()))
        doc = service.handle(body)
        # same supervisor object, and the warm run paid no conversion
        assert next(iter(service._pools.values())) is pool
        assert doc["stats"]["conversion_seconds"] == 0.0

    def test_sharded_and_unsharded_requests_share_one_pool(self, service):
        A = random_sparse(300, 60, 0.05, seed=11)

        def plan(partition):
            return Planner().compile(
                A, SketchConfig(seed=4, b_n=16), d=12, driver="process",
                pool=WorkerPoolConfig(workers=2),
                partition=partition).to_dict()

        starts = []
        service.bus.subscribe_observer(SHARD_START, starts.append)
        sharded = service.handle({"matrix": MATRIX, "output": "array",
                                  "plan": plan(PartitionSpec(shards=3))})
        assert len(starts) == 3
        pool = next(iter(service._pools.values()))
        binding = pool._binding
        plain = service.handle({"matrix": MATRIX, "output": "array",
                                "plan": plan(None)})
        assert len(service._pools) == 1
        # Same binding object: the switch sent the workers no reload.
        assert pool._binding is binding
        assert np.array_equal(decode(sharded), serial_reference())
        assert np.array_equal(decode(plain), serial_reference())

    def test_warm_pool_fills_its_fleet(self, service):
        # d=64 over 128 columns is one default block; the planner splits
        # it into a column stripe per worker so neither core sits idle.
        doc = service.handle({
            "matrix": {"random": [8000, 128, 2e-3], "seed": 3},
            "config": {"d": 64, "kernel": "algo4", "driver": "process",
                       "workers": 2}})
        assert doc["status"] == "ok"
        pool = next(iter(service._pools.values()))
        assert pool.health.tasks == 2
        assert len(pool.worker_pids()) == 2

    def test_request_ids_assigned_and_echoed(self, service):
        doc = service.handle({"matrix": MATRIX, "config": {"d": 8}})
        assert doc["request_id"].startswith("r")
        doc2 = service.handle({"matrix": MATRIX, "config": {"d": 8},
                               "request_id": "mine"})
        assert doc2["request_id"] == "mine"

    def test_full_plan_replay(self, service):
        A = random_sparse(300, 60, 0.05, seed=11)
        plan = Planner().compile(A, SketchConfig(seed=4), d=12)
        doc = service.handle({"matrix": MATRIX, "plan": plan.to_dict(),
                              "output": "array"})
        assert np.array_equal(decode(doc), serial_reference())

    def test_invalid_plan_is_config_error(self, service):
        with pytest.raises(ConfigError, match="invalid plan record"):
            service.handle({"matrix": MATRIX, "plan": {"bogus": 1}})

    def test_bad_request_does_not_feed_breaker(self, service):
        for _ in range(service.breaker.threshold + 2):
            with pytest.raises(ConfigError):
                service.handle({"matrix": MATRIX, "plan": {"bogus": 1}})
        assert service.breaker.state == "closed"


class TestDeadlines:
    def test_queue_phase_miss(self, service):
        events = []
        service.bus.subscribe(DEADLINE_MISSED,
                              lambda e: events.append(e.payload))
        with pytest.raises(RequestDeadlineError) as exc:
            service.handle({"matrix": MATRIX, "config": {"d": 12},
                            "deadline_seconds": 1e-4})
        assert exc.value.phase == "queue"
        assert service.counters["deadline_missed"] == 1
        assert events and events[0]["phase"] == "queue"

    def test_deadline_propagates_into_task_timeout(self, service):
        # A stall fault longer than the request budget: the engine's
        # post-hoc per-task check raises, and the service surfaces the
        # miss as phase="execute".
        with pytest.raises(RequestDeadlineError) as exc:
            service.handle({
                "matrix": MATRIX,
                "config": {"d": 12, "driver": "engine",
                           "resilience": {"reexecute_stragglers": False}},
                "deadline_seconds": 0.4,
                "chaos": {"faults": [{"kind": "stall",
                                      "sleep_seconds": 1.5}]},
            })
        assert exc.value.phase == "execute"

    def test_deadline_miss_is_breaker_neutral(self, service):
        for _ in range(service.breaker.threshold + 2):
            with pytest.raises(RequestDeadlineError):
                service.handle({"matrix": MATRIX, "config": {"d": 12},
                                "deadline_seconds": 1e-4})
        assert service.breaker.state == "closed"


class TestShedding:
    def test_queue_full_sheds_with_retry_hint(self):
        # No executors: nothing drains the queue.
        svc = SketchService(ServeConfig(queue_capacity=2, executors=1,
                                        allow_chaos=True))
        try:
            from repro.serve.protocol import parse_request

            body = {"matrix": MATRIX, "config": {"d": 8}}
            svc.submit(parse_request(body))
            svc.submit(parse_request(body))
            with pytest.raises(RequestShedError) as exc:
                svc.submit(parse_request(body))
            assert exc.value.reason == "queue_full"
            assert exc.value.retry_after > 0
            assert svc.counters["shed"] == 1
        finally:
            svc.queue.close()

    def test_breaker_open_sheds_immediately(self, service):
        for _ in range(service.breaker.threshold):
            service.breaker.record_failure()
        with pytest.raises(RequestShedError) as exc:
            service.handle({"matrix": MATRIX, "config": {"d": 8}})
        assert exc.value.reason == "breaker_open"


class TestCrashRecovery:
    def test_kill_pool_recovers_bit_identically(self, service):
        # Hang one task long enough for the kill timer to land, then
        # massacre the workers mid-request: the service must fall back
        # to a serial re-execution with the exact same bytes.
        doc = service.handle({
            "matrix": MATRIX,
            "config": {"d": 12, "seed": 4, "driver": "process",
                       "workers": 2},
            "output": "array",
            "chaos": {"kill_pool": True,
                      "faults": [{"kind": "hang_worker",
                                  "sleep_seconds": 0.4}]},
        })
        assert doc["status"] == "ok"
        assert np.array_equal(decode(doc), serial_reference())

    def test_collapsed_warm_pool_is_recycled(self, service):
        # With no respawn budget, a massacre leaves the warm pool with no
        # workers.  The pool must be rebuilt, not reused: a later request
        # on the same matrix runs on a fresh fleet, undegraded.
        A = random_sparse(300, 60, 0.05, seed=11)
        plan = Planner().compile(
            A, SketchConfig(seed=4), d=12, driver="process",
            pool=WorkerPoolConfig(workers=2, max_respawns=0)).to_dict()
        first = service.handle({
            "matrix": MATRIX, "output": "array", "plan": plan,
            "chaos": {"kill_pool": True,
                      "faults": [{"kind": "hang_worker",
                                  "sleep_seconds": 0.4}]}})
        assert first["status"] == "ok"
        docs = [service.handle({"matrix": MATRIX, "output": "array",
                                "plan": plan}) for _ in range(2)]
        for doc in [first] + docs:
            assert np.array_equal(decode(doc), serial_reference())
        assert not docs[-1]["health"]["degraded_to_thread"]
        pool = next(iter(service._pools.values()))
        assert len(pool.worker_pids()) == 2

    def test_chaos_faults_do_not_outlive_their_request(self, service):
        # A poison tile is quarantined on the first request's ladder; the
        # next request on the same warm pool must not see its fault.
        body = {"matrix": MATRIX, "output": "array",
                "config": {"d": 12, "seed": 4, "driver": "process",
                           "workers": 2}}
        first = service.handle({**body, "chaos": {"faults": [
            {"kind": "corrupt_tile", "task": [0, 0], "max_hits": None}]}})
        second = service.handle(body)
        for doc in (first, second):
            assert doc["status"] == "ok"
            assert np.array_equal(decode(doc), serial_reference())
        assert first["health"]["degraded_to_thread"]
        assert second["health"]["clean"]

    def test_injected_kill_worker_still_served(self, service):
        doc = service.handle({
            "matrix": MATRIX,
            "config": {"d": 12, "seed": 4, "driver": "process",
                       "workers": 2},
            "output": "array",
            "chaos": {"faults": [{"kind": "kill_worker"}]},
        })
        assert doc["status"] == "ok"
        assert np.array_equal(decode(doc), serial_reference())


class TestDrain:
    def test_drain_sheds_queued_and_finishes_inflight(self):
        svc = SketchService(ServeConfig(queue_capacity=8, executors=1,
                                        drain_timeout=30.0,
                                        allow_chaos=True)).start()
        events = []
        svc.bus.subscribe(DRAIN_STARTED, lambda e: events.append(e.payload))
        from repro.serve.protocol import parse_request

        slow = parse_request({
            "matrix": MATRIX,
            "config": {"d": 12, "seed": 4, "driver": "engine"},
            "output": "array",
            "chaos": {"faults": [{"kind": "stall",
                                  "sleep_seconds": 0.5}]},
        }, allow_chaos=True)
        queued = parse_request({"matrix": MATRIX, "config": {"d": 8}})
        in_flight = svc.submit(slow)
        time.sleep(0.15)  # let the executor pick it up
        waiting = svc.submit(queued)
        assert svc.drain() is True
        # queued request shed with a retry hint
        with pytest.raises(RequestShedError) as exc:
            waiting.wait(timeout=1.0)
        assert exc.value.reason == "draining"
        assert exc.value.retry_after > 0
        # in-flight request completed bit-identically
        doc = in_flight.wait(timeout=10.0)
        assert np.array_equal(decode(doc), serial_reference())
        assert events and "in_flight" in events[0]
        # post-drain admissions shed
        with pytest.raises(RequestShedError):
            svc.submit(parse_request({"matrix": MATRIX, "config": {"d": 8}}))
        assert not svc.ready

    def test_drain_writes_state_file(self, tmp_path):
        svc = SketchService(ServeConfig(
            executors=1, checkpoint_dir=str(tmp_path))).start()
        assert svc.drain() is True
        import json

        state = json.loads(
            (tmp_path / "serve_drain_state.json").read_text())
        assert state["clean"] is True
        assert "counters" in state

    def test_drain_idempotent(self):
        svc = SketchService(ServeConfig(executors=1)).start()
        assert svc.drain() is True
        assert svc.drain() is True


class TestEvents:
    def test_lifecycle_events_emitted(self, service):
        seen = {}
        for name in (REQUEST_ADMITTED, REQUEST_DONE, REQUEST_SHED):
            service.bus.subscribe(
                name, lambda e, n=name: seen.setdefault(n, e.payload))
        service.handle({"matrix": MATRIX, "config": {"d": 8}})
        for _ in range(service.breaker.threshold):
            service.breaker.record_failure()
        with pytest.raises(RequestShedError):
            service.handle({"matrix": MATRIX, "config": {"d": 8}})
        assert REQUEST_ADMITTED in seen
        assert REQUEST_DONE in seen and seen[REQUEST_DONE]["status"] == "ok"
        assert seen[REQUEST_SHED]["reason"] == "breaker_open"

    def test_queue_wait_recorded_behind_busy_executor(self):
        from repro.obs import RunObserver
        from repro.serve.protocol import parse_request

        svc = SketchService(ServeConfig(queue_capacity=8, executors=1,
                                        allow_chaos=True)).start()
        obs = RunObserver(trace=False).attach(svc.bus)
        waits = {}
        svc.bus.subscribe(REQUEST_DONE, lambda e: waits.setdefault(
            e.payload["request_id"], e.payload["queue_wait"]))
        try:
            busy = svc.submit(parse_request({
                "matrix": MATRIX, "request_id": "busy",
                "config": {"d": 12, "driver": "engine"},
                "chaos": {"faults": [{"kind": "stall",
                                      "sleep_seconds": 0.3}]},
            }, allow_chaos=True))
            time.sleep(0.1)  # let the one executor pick it up
            held = svc.submit(parse_request({
                "matrix": MATRIX, "request_id": "held",
                "config": {"d": 8}}))
            busy.wait(timeout=30.0)
            held.wait(timeout=30.0)
        finally:
            svc.close()
        assert waits["held"] > 0.0
        families = {f.name: f for f in obs.registry.families()}
        series = families["repro_serve_queue_wait_seconds"].series()
        assert series["count"] == 2
        assert series["sum"] >= waits["held"] > 0.0
