"""Tests for repro.obs.tracing (span collection from bus events)."""

import json

import pytest

from repro.obs import Span, Tracer
from repro.plan import (
    BLOCK_DONE,
    BLOCK_START,
    CHECKPOINT_WRITTEN,
    DEGRADED,
    DONE,
    PLAN_COMPILED,
    RETRY,
    EventBus,
    ProblemSpec,
    RngSpec,
    SketchPlan,
)


def make_plan():
    return SketchPlan(problem=ProblemSpec(m=120, n=30, d=36, nnz=360),
                      kernel="algo3", b_d=12, b_n=10,
                      rng=RngSpec(kind="philox", seed=9))


class TestSpan:
    def test_seconds(self):
        assert Span("x", 1.0, end=3.5).seconds == 2.5
        assert Span("x", 1.0).seconds == 0.0  # still open

    def test_to_dict(self):
        d = Span("block", 0.0, end=1.0, attrs={"task": [0, 0]}).to_dict()
        assert d == {"name": "block", "start": 0.0, "end": 1.0,
                     "seconds": 1.0, "attrs": {"task": [0, 0]}}


class TestTracer:
    def test_run_and_block_spans(self):
        bus = EventBus()
        tracer = Tracer().attach(bus)
        bus.emit(PLAN_COMPILED, plan=make_plan(), driver="serial")
        bus.emit(BLOCK_START, task=(0, 0), kernel="algo3")
        bus.emit(BLOCK_DONE, task=(0, 0), kernel="algo3")
        bus.emit(DONE, plan=make_plan(), driver="serial")
        spans = tracer.to_dict()["spans"]
        assert [s["name"] for s in spans] == ["run", "block"]
        run, block = spans
        assert run["attrs"]["driver"] == "serial"
        assert run["attrs"]["kernel"] == "algo3"
        assert run["end"] is not None
        assert block["attrs"]["task"] == [0, 0]
        assert block["end"] >= block["start"]

    def test_checkpoint_span_backdated_by_payload_seconds(self):
        bus = EventBus()
        tracer = Tracer().attach(bus)
        bus.emit(PLAN_COMPILED, plan=make_plan(), driver="engine")
        bus.emit(CHECKPOINT_WRITTEN, path="/tmp/x", rows=(0, 12),
                 snapshots_written=1, seconds=0.25)
        ck = [s for s in tracer.to_dict()["spans"]
              if s["name"] == "checkpoint"][0]
        assert ck["seconds"] == pytest.approx(0.25)

    def test_retry_and_degraded_become_annotations(self):
        bus = EventBus()
        tracer = Tracer().attach(bus)
        bus.emit(RETRY, task=(0, 0), attempt=1, kind="injected")
        bus.emit(DEGRADED, kind="serial_fallback", tasks=3)
        anns = tracer.to_dict()["annotations"]
        assert [a["name"] for a in anns] == ["retry", "degraded"]
        assert anns[0]["attrs"]["kind"] == "injected"
        assert anns[1]["attrs"]["tasks"] == 3

    def test_unfinished_blocks_flagged_at_done(self):
        bus = EventBus()
        tracer = Tracer().attach(bus)
        bus.emit(PLAN_COMPILED, plan=make_plan(), driver="engine")
        bus.emit(BLOCK_START, task=(0, 0), kernel="algo3")
        bus.emit(DONE, plan=make_plan(), driver="engine")
        block = [s for s in tracer.to_dict()["spans"]
                 if s["name"] == "block"][0]
        assert block["attrs"]["unfinished"] is True

    def test_duplicate_start_keeps_earliest(self):
        bus = EventBus()
        tracer = Tracer().attach(bus)
        bus.emit(BLOCK_START, task=(0, 0), kernel="algo3")
        bus.emit(BLOCK_START, task=(0, 0), kernel="algo3")
        bus.emit(BLOCK_DONE, task=(0, 0), kernel="algo3")
        blocks = [s for s in tracer.to_dict()["spans"]
                  if s["name"] == "block"]
        assert len(blocks) == 1
        assert blocks[0]["end"] is not None

    def test_done_without_start_recorded(self):
        bus = EventBus()
        tracer = Tracer().attach(bus)
        bus.emit(BLOCK_DONE, task=(3, 0), kernel="algo3")
        blocks = [s for s in tracer.to_dict()["spans"]
                  if s["name"] == "block"]
        assert len(blocks) == 1

    def test_detach_stops_collection(self):
        bus = EventBus()
        tracer = Tracer().attach(bus)
        bus.emit(BLOCK_START, task=(0, 0), kernel="algo3")
        tracer.detach()
        bus.emit(BLOCK_START, task=(1, 0), kernel="algo3")
        assert len(tracer.to_dict()["spans"]) == 1

    def test_double_attach_rejected(self):
        tracer = Tracer().attach(EventBus())
        with pytest.raises(RuntimeError):
            tracer.attach(EventBus())

    def test_json_and_chrome_export(self, tmp_path):
        bus = EventBus()
        tracer = Tracer().attach(bus)
        bus.emit(PLAN_COMPILED, plan=make_plan(), driver="serial")
        bus.emit(RETRY, task=(0, 0), attempt=1, kind="x")
        bus.emit(DONE, plan=make_plan(), driver="serial")
        path = tmp_path / "trace.json"
        text = tracer.to_json(path)
        assert json.loads(path.read_text()) == json.loads(text)
        chrome = tracer.to_chrome()
        assert {e["ph"] for e in chrome} == {"X", "i"}
        json.dumps(chrome)  # must be serializable

    def test_tracer_bug_is_swallowed_by_observer_boundary(self):
        """Tracer handlers are observers: a bug in one is isolated and
        counted, and later observers (the real tracer) still run."""
        bus = EventBus()

        def boom(event):
            raise RuntimeError("tracer bug")

        bus.subscribe_observer(PLAN_COMPILED, boom)
        tracer = Tracer().attach(bus)
        bus.emit(PLAN_COMPILED, plan=make_plan(), driver="serial")
        assert bus.dropped_events[PLAN_COMPILED] == 1
        assert [s["name"] for s in tracer.to_dict()["spans"]] == ["run"]


class TestBlockWork:
    """``block`` spans carry the tile's time and samples, on every rung."""

    @staticmethod
    def _blocks(driver, threads=1):
        from repro.core import SketchConfig
        from repro.parallel import WorkerPoolConfig
        from repro.plan import Planner, Runtime
        from repro.sparse import abnormal_a

        # fixed_a's shape, scaled down: every column block has the same
        # 20 dense rows.
        A = abnormal_a(2000, 100, period=100, seed=1)
        cfg = SketchConfig(kernel="algo4", rng_kind="philox", seed=5,
                           b_d=150, b_n=20, threads=threads)
        bus = EventBus()
        tracer = Tracer().attach(bus)
        pool = WorkerPoolConfig(workers=2) if driver == "process" else None
        result = Runtime(bus).run(
            Planner().compile(A, cfg, d=300, driver=driver, pool=pool), A)
        spans = [s["attrs"] for s in tracer.to_dict()["spans"]
                 if s["name"] == "block"]
        return spans, result.stats

    def test_serial_run_samples_each_row_block_once(self):
        blocks, stats = self._blocks("serial")
        assert len(blocks) == 10
        for attrs in blocks:
            _i, j = attrs["task"]
            assert attrs["samples"] == (150 * 20 if j == 0 else 0)
            assert attrs["sample_seconds"] >= 0.0
            assert attrs["compute_seconds"] > 0.0
        assert stats.samples_generated == 300 * 20

    @pytest.mark.parametrize("driver, threads",
                             [("engine", 2), ("process", 1)])
    def test_thread_and_process_runs_sample_every_block(self, driver,
                                                        threads):
        blocks, stats = self._blocks(driver, threads)
        assert len(blocks) == 10
        for attrs in blocks:
            assert attrs["samples"] == 150 * 20
            assert attrs["compute_seconds"] > 0.0
        assert stats.samples_generated == 10 * 150 * 20
