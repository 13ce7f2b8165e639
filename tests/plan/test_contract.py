"""The output contract, as one differential test.

A sketch depends only on ``(seed, block offsets)``.  Driver, thread and
worker count, batch size, cache state and every fault a driver recovers
from must leave each sketch bit-identical to the scalar reference
kernel (``sketch_spmm(..., reference=True)``) run on the same seed.

Hypothesis sweeps driver {serial, engine on 1 or 2 threads, process on
2 workers} x kernel {algo3, algo4} x batch {1, 3} x cache {none, cold,
warm} x partition {none, 2 shards ``even``, 2 shards ``nnz_balanced``},
on a uniform random matrix, and adds a fault that the drawn driver is
expected to survive:
``raise`` and ``rng`` under a resilience policy on the engine,
``kill_worker`` and ``corrupt_tile`` on the process driver, and a
``bitflip`` in every payload of a warm cache.  A hung worker and a
poison task that ends on the degradation ladder are explicit examples,
and so are runs on an Abnormal_A matrix, whose column blocks all share
their non-empty rows: the serial rung then samples each row block's
panel once and reuses it in every later column block.

An unbatched case may also crash (batched plans refuse persistence): it
checkpoints after every row block, a ``torn_write`` at snapshot ``s``
kills the run, and a resume on a freshly drawn driver and partition must
still match the reference.
"""

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cache import ArtifactCache, CachePolicy
from repro.core import SketchConfig
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.plan import InjectedCrashError
from repro.kernels import sketch_spmm
from repro.parallel import ResilienceConfig, WorkerPoolConfig
from repro.plan import PartitionSpec, PersistencePolicy, Planner, Runtime
from repro.rng import make_rng
from repro.sparse import abnormal_a, random_sparse

A = random_sparse(90, 24, 0.12, seed=2024)
MATRICES = {"random_sparse": A,
            "abnormal_a": abnormal_a(90, 24, period=6, seed=2024)}
D, B_D, B_N = 24, 8, 6            # 3 x 4 = 12 block tasks
TASKS = [(i, j) for i in range(0, D, B_D) for j in range(0, 24, B_N)]
BATCH_SEEDS = (5, 17, 29)

DRIVERS = ("serial", "engine-1", "engine-2", "process-2")
PARTITIONS = ("none", "even", "nnz_balanced")
# A tear at snapshot s >= 2 leaves snapshot s - 1 to resume from (a
# lineage with no verifiable snapshot is refused, never recomputed);
# every=1 writes one snapshot per row block and stripe.
CRASHES = (0,) + tuple(range(2, D // B_D + 1))
FAULTS = {
    "serial": ("none",),
    "engine-1": ("none", "raise", "rng"),
    "engine-2": ("none", "raise", "rng"),
    "process-2": ("none", "kill_worker", "corrupt_tile"),
}


@dataclass(frozen=True)
class Case:
    driver: str
    kernel: str
    batch: int
    cache: str
    fault: str
    task: tuple[int, int] = (0, 0)
    rng_kind: str = "philox"
    distribution: str = "uniform"
    seed: int = 0
    partition: str = "none"
    crash: int = 0                # the snapshot whose write tears (0: none)
    resume_driver: str = "serial"
    resume_partition: str = "none"
    matrix: str = "random_sparse"


@st.composite
def cases(draw) -> Case:
    driver = draw(st.sampled_from(DRIVERS))
    cache = draw(st.sampled_from(("none", "cold", "warm")))
    faults = FAULTS[driver] + (("bitflip",) if cache == "warm" else ())
    batch = draw(st.sampled_from((1, 3)))
    crash = draw(st.sampled_from(CRASHES)) if batch == 1 else 0
    return Case(
        driver=driver,
        kernel=draw(st.sampled_from(("algo3", "algo4"))),
        batch=batch,
        cache=cache,
        fault=draw(st.sampled_from(faults)),
        task=draw(st.sampled_from(TASKS)),
        rng_kind=draw(st.sampled_from(("philox", "threefry", "xoshiro"))),
        distribution=draw(st.sampled_from(
            ("uniform", "gaussian", "rademacher"))),
        seed=draw(st.integers(0, 2**31 - 1)),
        partition=draw(st.sampled_from(PARTITIONS)),
        crash=crash,
        resume_driver=(draw(st.sampled_from(DRIVERS)) if crash
                       else "serial"),
        resume_partition=(draw(st.sampled_from(PARTITIONS)) if crash
                          else "none"),
    )


def _resilience(case: Case):
    if case.fault == "raise":
        return ResilienceConfig(max_retries=2)
    if case.fault == "rng":
        return ResilienceConfig(max_retries=2, guardrail="recompute")
    return None


def _pool(case: Case):
    if not case.driver.startswith("process"):
        return None
    # A poison task keeps killing its worker: one replay, then quarantine.
    requeues = 1 if case.fault == "poison" else 3
    return WorkerPoolConfig(workers=2, heartbeat_timeout=1.0,
                            max_requeues=requeues, backoff_base=0.0)


def _injector(case: Case):
    specs = []
    if case.fault == "poison":
        specs.append(FaultSpec(kind="kill_worker", task=case.task,
                               max_hits=None))
    elif case.fault == "hang_worker":
        specs.append(FaultSpec(kind="hang_worker", task=case.task,
                               sleep_seconds=10.0))
    elif case.fault not in ("none", "bitflip"):
        specs.append(FaultSpec(kind=case.fault, task=case.task))
    if case.crash:
        # Storage faults address (snapshot seq, block index).
        specs.append(FaultSpec(kind="torn_write", task=(case.crash, 0)))
    return FaultInjector(FaultPlan(specs)) if specs else None


def _run(case: Case, cache_dir: Path | None,
         persistence: PersistencePolicy | None = None):
    A = MATRICES[case.matrix]
    driver, _, threads = case.driver.partition("-")
    cfg = SketchConfig(kernel=case.kernel, rng_kind=case.rng_kind,
                       seed=case.seed, distribution=case.distribution,
                       b_d=B_D, b_n=B_N,
                       threads=int(threads) if driver == "engine" else 1,
                       resilience=_resilience(case))
    seeds = ([case.seed + s for s in BATCH_SEEDS] if case.batch > 1
             else None)
    cache = (None if cache_dir is None
             else ArtifactCache(CachePolicy(cache_dir=str(cache_dir))))
    partition = (None if case.partition == "none"
                 else PartitionSpec(shards=2, strategy=case.partition))
    plan = Planner().compile(A, cfg, d=D, driver=driver, pool=_pool(case),
                             batch_seeds=seeds, cache=cache,
                             partition=partition, persistence=persistence)
    return Runtime().run(plan, A, injector=_injector(case), cache=cache)


def _reference(case: Case) -> np.ndarray:
    seeds = ([case.seed + s for s in BATCH_SEEDS] if case.batch > 1
             else [case.seed])
    members = [sketch_spmm(MATRICES[case.matrix], D,
                           make_rng(case.rng_kind, s, case.distribution),
                           kernel=case.kernel, b_d=B_D, b_n=B_N,
                           reference=True)[0]
               for s in seeds]
    return np.stack(members) if case.batch > 1 else members[0]


def _flip_payloads(cache_dir: Path) -> None:
    for payload in sorted(cache_dir.glob("*/*/*.npy")):
        raw = bytearray(payload.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        payload.write_bytes(bytes(raw))


def _check(case: Case) -> None:
    want = _reference(case)
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = None if case.cache == "none" else Path(tmp, "cache")
        if case.cache == "warm":
            # The warm-up run fills the cache (and must be exact itself).
            first = _run(replace(case, cache="cold", fault="none", crash=0),
                         cache_dir)
            assert np.array_equal(first.sketch, want)
            if case.fault == "bitflip":
                _flip_payloads(cache_dir)
        if case.crash:
            ckpt = str(Path(tmp, "ckpt"))
            with pytest.raises(InjectedCrashError):
                _run(case, cache_dir, PersistencePolicy(checkpoint_dir=ckpt,
                                                        every=1))
            result = _run(
                replace(case, driver=case.resume_driver, fault="none",
                        crash=0, partition=case.resume_partition),
                cache_dir, PersistencePolicy(checkpoint_dir=ckpt, every=1,
                                             resume=True))
            if case.resume_partition == case.partition:
                assert result.stats.extra["resumed_from"] is not None
        else:
            result = _run(case, cache_dir)
    got = result.sketch
    assert got.shape == want.shape
    if case.batch > 1:
        for member in range(case.batch):
            assert np.array_equal(got[member], want[member]), member
    else:
        assert np.array_equal(got, want)
    if case.fault == "poison":
        assert result.stats.health.quarantined_tasks == 1
        assert result.stats.health.degraded_to_thread


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
@example(case=Case("process-2", "algo3", 1, "none", "hang_worker", (8, 6)))
@example(case=Case("process-2", "algo4", 3, "cold", "poison", (16, 12)))
@example(case=Case("process-2", "algo4", 1, "warm", "kill_worker", (16, 6),
                   crash=2, resume_driver="engine-2",
                   resume_partition="nnz_balanced"))
@example(case=Case("engine-2", "algo3", 1, "none", "raise", (8, 18),
                   partition="even", crash=3, resume_driver="process-2",
                   resume_partition="even"))
@example(case=Case("serial", "algo4", 3, "cold", "none",
                   rng_kind="xoshiro", distribution="gaussian",
                   partition="even", matrix="abnormal_a"))
@example(case=Case("engine-1", "algo4", 1, "none", "rng", (8, 12),
                   crash=2, resume_driver="serial", matrix="abnormal_a"))
def test_every_driver_matches_the_reference(case):
    _check(case)
