"""``SketchPlan`` — the immutable, serializable record of a sketching run.

The paper's whole design is a *planning* problem: pick a kernel
(Algorithm 3 vs 4), a blocking ``(b_d, b_n)``, an RNG family, and a
layout from the machine model (Section III, Eq. 4–7).  A
:class:`SketchPlan` is that decision record made explicit: everything
needed to execute — problem shape, ``d``, kernel, blocking,
generator spec, resilience policy, persistence policy — plus a list of
:class:`PlanDecision` entries recording *why* each choice was made
(rendered by :meth:`SketchPlan.explain`).

Because a plan is a frozen dataclass with a JSON round trip
(:meth:`to_json` / :meth:`from_json`), it is the unit you can cache,
diff, ship to a worker, or replay: two runs of the same plan produce
bit-identical sketches (the property the golden-equivalence suite
asserts).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..errors import ConfigError
from ..kernels.backends import NUMPY, available_backends
from ..parallel.procpool import WorkerPoolConfig
from ..parallel.resilience import DegradationPolicy, ResilienceConfig
from ..rng.base import SketchingRNG, make_rng
from ..rng.distributions import get_distribution
from ..utils.validation import check_choice, check_positive_int
from .policy import PersistencePolicy

__all__ = [
    "PLAN_FORMAT_VERSION",
    "ProblemSpec",
    "RngSpec",
    "PlanDecision",
    "PartitionSpec",
    "SketchPlan",
    "compute_shards",
    "resilience_to_dict",
    "resilience_from_dict",
]

PLAN_FORMAT_VERSION = 1

_PLAN_KERNELS = ("algo3", "algo4", "pregen")
_DRIVERS = ("auto", "serial", "engine", "process")


# -- resilience serialization ------------------------------------------------


def resilience_to_dict(cfg: ResilienceConfig | None) -> dict | None:
    """JSON-ready record of a :class:`ResilienceConfig` (or ``None``)."""
    if cfg is None:
        return None
    return {
        "max_retries": int(cfg.max_retries),
        "task_timeout": (None if cfg.task_timeout is None
                         else float(cfg.task_timeout)),
        "reexecute_stragglers": bool(cfg.reexecute_stragglers),
        "guardrail": cfg.guardrail,
        "guardrail_bound_factor": float(cfg.guardrail_bound_factor),
        "degradation": {
            "kernel_fallback": bool(cfg.degradation.kernel_fallback),
            "serial_fallback": bool(cfg.degradation.serial_fallback),
        },
        "retry_backoff": float(cfg.retry_backoff),
        "retry_backoff_factor": float(cfg.retry_backoff_factor),
        "retry_backoff_max": float(cfg.retry_backoff_max),
    }


def resilience_from_dict(data: dict | None) -> ResilienceConfig | None:
    """Inverse of :func:`resilience_to_dict`."""
    if data is None:
        return None
    deg = data.get("degradation", {})
    return ResilienceConfig(
        max_retries=int(data.get("max_retries", 2)),
        task_timeout=data.get("task_timeout"),
        reexecute_stragglers=bool(data.get("reexecute_stragglers", True)),
        guardrail=data.get("guardrail"),
        guardrail_bound_factor=float(data.get("guardrail_bound_factor", 4.0)),
        degradation=DegradationPolicy(
            kernel_fallback=bool(deg.get("kernel_fallback", True)),
            serial_fallback=bool(deg.get("serial_fallback", True)),
        ),
        retry_backoff=float(data.get("retry_backoff", 0.0)),
        retry_backoff_factor=float(data.get("retry_backoff_factor", 2.0)),
        retry_backoff_max=float(data.get("retry_backoff_max", 1.0)),
    )


# -- plan components ---------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """The input problem and the sketch size chosen for it.

    ``batch`` is the number of sketches computed in one pass (the
    batched multi-sketch tier); 1 — the default — is the classic single
    sketch.  A batched problem produces a ``(batch, d, n)`` output stack
    whose slice ``[t]`` is bit-identical to the single sketch seeded
    with the t-th entry of :attr:`RngSpec.batch_seeds`.
    """

    m: int                      # rows of A (columns of the implicit S)
    n: int                      # columns of A
    d: int                      # sketch size (rows of S)
    nnz: int | None = None      # nonzeros of A, when known at plan time
    gamma: float | None = None  # the multiplier d was derived from, if any
    batch: int = 1              # sketches computed per pass

    def __post_init__(self) -> None:
        check_positive_int(self.m, "m")
        check_positive_int(self.n, "n")
        check_positive_int(self.d, "d")
        check_positive_int(self.batch, "batch")

    @property
    def density(self) -> float | None:
        if self.nnz is None:
            return None
        return self.nnz / (self.m * self.n)

    def to_dict(self) -> dict:
        record = {"m": int(self.m), "n": int(self.n), "d": int(self.d),
                  "nnz": (None if self.nnz is None else int(self.nnz)),
                  "gamma": (None if self.gamma is None
                            else float(self.gamma))}
        # Only present when batched: single-sketch problems keep their
        # exact canonical JSON (and therefore their pinned digests).
        if self.batch != 1:
            record["batch"] = int(self.batch)
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemSpec":
        return cls(m=int(data["m"]), n=int(data["n"]), d=int(data["d"]),
                   nnz=(None if data.get("nnz") is None
                        else int(data["nnz"])),
                   gamma=(None if data.get("gamma") is None
                          else float(data["gamma"])),
                   batch=int(data.get("batch", 1)))


@dataclass(frozen=True)
class RngSpec:
    """The generator recipe: family, seed, entry distribution, scaling.

    ``batch_seeds`` carries the per-sketch seeds of a batched plan
    (``ProblemSpec.batch > 1``); each sketch in the stack is generated
    exactly as if ``seed`` had been that entry.  ``None`` — the default
    — is the single-sketch recipe using ``seed``.
    """

    kind: str = "xoshiro"
    seed: int = 0
    distribution: str = "uniform"
    normalize: bool = False
    batch_seeds: tuple | None = None

    def __post_init__(self) -> None:
        get_distribution(self.distribution)  # validates the name
        if self.batch_seeds is not None:
            seeds = tuple(int(s) for s in self.batch_seeds)
            if not seeds:
                raise ConfigError("batch_seeds must be non-empty when set")
            object.__setattr__(self, "batch_seeds", seeds)

    def build(self, worker: int = 0) -> SketchingRNG:
        """Instantiate the generator (fresh counters per call; *worker*
        exists for factory-signature compatibility and is unused — both
        families key output on coordinates, never on the worker)."""
        return make_rng(self.kind, self.seed, self.distribution)

    def build_batched(self, worker: int = 0) -> "BatchedSketchRNG":
        """Instantiate the stacked generator for a batched plan.

        One member per entry of ``batch_seeds`` (falling back to a
        batch of one over ``seed``); each member is exactly what
        :meth:`build` would produce for that seed.
        """
        from ..rng.batched import BatchedSketchRNG

        seeds = self.batch_seeds if self.batch_seeds is not None \
            else (self.seed,)
        return BatchedSketchRNG(
            [make_rng(self.kind, s, self.distribution) for s in seeds])

    def normalization(self, d: int) -> float:
        """The ``1/sqrt(d * var)`` isometry factor (1.0 when disabled)."""
        if not self.normalize:
            return 1.0
        return get_distribution(self.distribution).normalization(d)

    def to_dict(self) -> dict:
        record = {"kind": self.kind, "seed": int(self.seed),
                  "distribution": self.distribution,
                  "normalize": bool(self.normalize)}
        # Only present when set, keeping single-sketch digests pinned.
        if self.batch_seeds is not None:
            record["batch_seeds"] = [int(s) for s in self.batch_seeds]
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "RngSpec":
        return cls(kind=data.get("kind", "xoshiro"),
                   seed=int(data.get("seed", 0)),
                   distribution=data.get("distribution", "uniform"),
                   normalize=bool(data.get("normalize", False)),
                   batch_seeds=(None if data.get("batch_seeds") is None
                                else tuple(int(s)
                                           for s in data["batch_seeds"])))


@dataclass(frozen=True)
class PlanDecision:
    """One planning choice and the reason it was made."""

    field: str        # which plan field this decision set
    value: str        # human-readable rendering of the chosen value
    reason: str       # why (model rule, user override, heuristic)
    data: dict = dataclasses.field(default_factory=dict)  # model numbers

    def to_dict(self) -> dict:
        return {"field": self.field, "value": self.value,
                "reason": self.reason, "data": dict(self.data)}

    @classmethod
    def from_dict(cls, data: dict) -> "PlanDecision":
        return cls(field=data["field"], value=data["value"],
                   reason=data.get("reason", ""),
                   data=dict(data.get("data", {})))


# -- partitioning ------------------------------------------------------------


@dataclass(frozen=True)
class PartitionSpec:
    """How many column stripes a plan's run commits in.

    The runtime resolves it with :func:`compute_shards`; the shard count
    is capped at the number of column blocks, so tiny problems never get
    empty stripes.
    """

    shards: int

    def __post_init__(self) -> None:
        check_positive_int(self.shards, "shards")

    def to_dict(self) -> dict:
        # The one stripe rule left; recorded so plan digests stay put.
        return {"shards": int(self.shards), "strategy": "even"}

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionSpec":
        strategy = data.get("strategy", "even")
        if strategy != "even":
            raise ConfigError(
                f"partition strategy must be 'even' (stripes hold equal "
                f"column-block counts), got {strategy!r}")
        return cls(shards=int(data.get("shards", 1)))


def compute_shards(spec: PartitionSpec, *, n: int,
                   b_n: int) -> tuple[tuple[int, int], ...]:
    """The column stripes of a partitioned plan, as ``(c0, c1)`` bounds.

    Stripe ``k`` of ``K`` ends at column block ``ceil((k + 1) B / K)`` of
    the ``B`` blocks, so every stripe holds ``floor(B / K)`` or
    ``ceil(B / K)`` blocks.  Cuts fall on multiples of *b_n*, so
    within-stripe blocking is the unsharded blocking and a sharded run
    realizes the same entries of ``S``.
    """
    check_positive_int(n, "n")
    check_positive_int(b_n, "b_n")
    n_blocks = -(-n // b_n)
    shards = min(spec.shards, n_blocks)
    ends = [-(-(s + 1) * n_blocks // shards) for s in range(shards)]
    return tuple((b0 * b_n, min(n, b1 * b_n))
                 for b0, b1 in zip([0] + ends, ends))


# -- the plan ---------------------------------------------------------------


@dataclass(frozen=True)
class SketchPlan:
    """The full decision record for one sketching run.

    Attributes
    ----------
    problem:
        Shape/size of the input and the chosen sketch size ``d``.
    kernel:
        ``"algo3"``, ``"algo4"``, or ``"pregen"`` — resolved, never
        ``"auto"`` (resolution is the planner's job).
    b_d, b_n:
        The Algorithm 1 blocking.
    rng:
        Generator recipe (family, seed, distribution, normalization).
    threads:
        Executor parallelism (the engine hands tasks to threads one per
        free slot, so there is no partition strategy to choose).
    driver:
        Execution driver: ``"auto"`` (the engine when ``threads > 1``,
        else serial), ``"serial"`` (the engine pinned to one thread),
        ``"engine"`` (the resilient block executor, any thread count),
        or ``"process"`` (the supervised multi-process pool of
        :mod:`repro.parallel.procpool`).  Every driver but ``pregen``
        honours the resilience and persistence policies, so the choice
        moves no bit of the sketch.
    resilience:
        Fault-handling policy, or ``None`` for the engine's bare policy
        (one attempt per task, no fallback, no health report).
    persistence:
        Durable-checkpoint policy (see :class:`PersistencePolicy`).
    pool:
        Worker-fleet supervision policy for the ``process`` driver
        (see :class:`~repro.parallel.procpool.WorkerPoolConfig`);
        ``None`` everywhere else (a default config is synthesized when
        the driver is ``"process"``).
    partition:
        Column-partition request (see :class:`PartitionSpec`); ``None``
        for an unsharded run.  The runtime resolves it into column
        stripes via :func:`compute_shards`; the driver runs them as
        consecutive groups of one task list.
    decisions:
        Why each choice was made; rendered by :meth:`explain`.
    """

    problem: ProblemSpec
    kernel: str
    b_d: int
    b_n: int
    rng: RngSpec = RngSpec()
    threads: int = 1
    driver: str = "auto"
    resilience: ResilienceConfig | None = None
    persistence: PersistencePolicy = field(default_factory=PersistencePolicy)
    pool: WorkerPoolConfig | None = None
    partition: "PartitionSpec | None" = None
    decisions: tuple = ()

    def __post_init__(self) -> None:
        check_choice(self.kernel, "kernel", _PLAN_KERNELS)
        check_choice(self.driver, "driver", _DRIVERS)
        check_positive_int(self.b_d, "b_d")
        check_positive_int(self.b_n, "b_n")
        check_positive_int(self.threads, "threads")
        if self.kernel == "pregen" and self.persistence.enabled:
            raise ConfigError(
                "checkpointing is not supported for the 'pregen' kernel"
            )
        if self.problem.batch > 1:
            if self.kernel == "pregen":
                raise ConfigError(
                    "batched execution is not supported for the 'pregen' "
                    "kernel (it materializes a single explicit S)"
                )
            if self.persistence.enabled:
                raise ConfigError(
                    "checkpointing is not supported for batched plans "
                    "(snapshots record a single (d, n) sketch)"
                )
            if self.rng.batch_seeds is None:
                raise ConfigError(
                    f"a batched plan (batch={self.problem.batch}) needs "
                    f"rng.batch_seeds with one seed per sketch"
                )
            if len(self.rng.batch_seeds) != self.problem.batch:
                raise ConfigError(
                    f"rng.batch_seeds has {len(self.rng.batch_seeds)} "
                    f"seed(s) but problem.batch={self.problem.batch}"
                )
        elif self.rng.batch_seeds is not None:
            raise ConfigError(
                "rng.batch_seeds is set but problem.batch is 1; batched "
                "recipes must declare the batch axis on the problem"
            )
        if self.partition is not None:
            if not isinstance(self.partition, PartitionSpec):
                raise ConfigError(
                    f"partition must be a PartitionSpec or None, got "
                    f"{type(self.partition).__name__}"
                )
            if self.kernel == "pregen":
                raise ConfigError(
                    "sharded execution is not supported for the 'pregen' "
                    "kernel (it has no column-block structure to partition)"
                )
        if self.resilience is not None and \
                not isinstance(self.resilience, ResilienceConfig):
            raise ConfigError(
                f"resilience must be a ResilienceConfig or None, got "
                f"{type(self.resilience).__name__}"
            )
        if self.pool is not None and \
                not isinstance(self.pool, WorkerPoolConfig):
            raise ConfigError(
                f"pool must be a WorkerPoolConfig or None, got "
                f"{type(self.pool).__name__}"
            )
        if self.driver == "process" and self.pool is None:
            object.__setattr__(self, "pool", WorkerPoolConfig())
        object.__setattr__(self, "decisions", tuple(self.decisions))

    # -- execution hooks -----------------------------------------------------

    def rng_factory(self) -> Callable[[int], SketchingRNG]:
        """The worker-indexed generator factory the runtime executes with.

        Batched plans return the :meth:`RngSpec.build_batched` factory:
        each call yields a fresh
        :class:`~repro.rng.batched.BatchedSketchRNG` whose members map
        1:1 onto ``rng.batch_seeds``.
        """
        if self.problem.batch > 1:
            return self.rng.build_batched
        return self.rng.build

    def scale(self) -> float:
        """Normalization factor applied to the finished sketch."""
        return self.rng.normalization(self.problem.d)

    def fingerprint(self, mode: str = "blocked") -> dict:
        """Immutable run identity for checkpoint compatibility checks."""
        from ..persist.snapshot import run_fingerprint

        fp = run_fingerprint(
            mode=mode, d=self.problem.d, n=self.problem.n,
            b_d=self.b_d, b_n=self.b_n, kernel=self.kernel,
            rng_kind=self.rng.kind,
            seed=self.rng.seed, distribution=self.rng.distribution,
        )
        if self.problem.batch != 1:
            fp["batch"] = int(self.problem.batch)
            fp["batch_seeds"] = [int(s) for s in self.rng.batch_seeds]
        return fp

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        record = {
            "version": PLAN_FORMAT_VERSION,
            "problem": self.problem.to_dict(),
            "kernel": self.kernel,
            "b_d": int(self.b_d),
            "b_n": int(self.b_n),
            # The one kernel backend; recorded so plan digests stay put.
            "backend": NUMPY.name,
            "rng": self.rng.to_dict(),
            "threads": int(self.threads),
            # The one task order left; recorded so plan digests stay put.
            "strategy": "static",
            "driver": self.driver,
            "resilience": resilience_to_dict(self.resilience),
            "persistence": self.persistence.to_dict(),
            "pool": (None if self.pool is None else self.pool.to_dict()),
            "decisions": [d.to_dict() for d in self.decisions],
        }
        # Only present when set: pre-partition plans keep their exact
        # canonical JSON (and therefore their pinned digests).
        if self.partition is not None:
            record["partition"] = self.partition.to_dict()
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "SketchPlan":
        version = int(data.get("version", PLAN_FORMAT_VERSION))
        if version > PLAN_FORMAT_VERSION:
            raise ConfigError(
                f"plan format version {version} is newer than this library "
                f"understands (max {PLAN_FORMAT_VERSION})"
            )
        strategy = data.get("strategy", "static")
        if strategy != "static":
            raise ConfigError(
                f"plan strategy must be 'static' (tasks are handed out one "
                f"per free thread), got {strategy!r}")
        check_choice(data.get("backend", NUMPY.name), "backend",
                     available_backends())
        return cls(
            problem=ProblemSpec.from_dict(data["problem"]),
            kernel=data["kernel"],
            b_d=int(data["b_d"]),
            b_n=int(data["b_n"]),
            rng=RngSpec.from_dict(data.get("rng", {})),
            threads=int(data.get("threads", 1)),
            driver=data.get("driver", "auto"),
            resilience=resilience_from_dict(data.get("resilience")),
            persistence=PersistencePolicy.from_dict(
                data.get("persistence", {})),
            pool=(None if data.get("pool") is None
                  else WorkerPoolConfig.from_dict(data["pool"])),
            partition=(None if data.get("partition") is None
                       else PartitionSpec.from_dict(data["partition"])),
            decisions=tuple(PlanDecision.from_dict(d)
                            for d in data.get("decisions", ())),
        )

    def to_json(self, path: str | Path | None = None, *, indent: int = 2) -> str:
        """Serialize to JSON; optionally also write the text to *path*.

        The rendering is canonical: keys are sorted and floats use
        Python's shortest-round-trip ``repr``, so two processes
        serializing equal plans produce byte-identical text (modulo the
        *indent* choice — :meth:`digest` always hashes the compact
        form).
        """
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    def digest(self) -> str:
        """SHA-256 over the plan's canonical compact JSON record.

        Deterministic across processes and hosts for equal plans — the
        identity the artifact cache and any external plan registry can
        address a compiled plan by.  The ``decisions`` audit trail is
        excluded: it is provenance, not behaviour, and a warm compile
        (which annotates its decisions with cache hits) must digest
        identically to the cold compile it reproduces bit-for-bit.
        """
        from ..utils.canonical import canonical_digest

        record = self.to_dict()
        record.pop("decisions", None)
        return canonical_digest(record)

    @classmethod
    def from_json(cls, source: str | Path) -> "SketchPlan":
        """Deserialize from a JSON string or a path to a JSON file."""
        if isinstance(source, Path) or (
                isinstance(source, str) and "\n" not in source
                and not source.lstrip().startswith("{")):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = str(source)
        return cls.from_dict(json.loads(text))

    # -- presentation --------------------------------------------------------

    def explain(self) -> str:
        """Render the plan and the reasoning behind every choice."""
        p = self.problem
        nnz = "?" if p.nnz is None else f"{p.nnz}"
        dens = "" if p.density is None else f", density {p.density:.2e}"
        gamma = "" if p.gamma is None else f" (gamma={p.gamma:g})"
        lines = [
            f"SketchPlan: {p.m} x {p.n} sparse input (nnz={nnz}{dens}) "
            f"-> {p.d} x {p.n} sketch, d={p.d}{gamma}",
            f"  kernel      : {self.kernel}",
            f"  blocking    : b_d={self.b_d}, b_n={self.b_n}",
            f"  backend     : {NUMPY.name}",
            f"  rng         : {self.rng.kind} "
            + (f"batch_seeds={list(self.rng.batch_seeds)} "
               if self.rng.batch_seeds is not None
               else f"seed={self.rng.seed} ")
            + f"{self.rng.distribution}"
            f"{' (normalized)' if self.rng.normalize else ''}",
            f"  execution   : driver={self.driver}, threads={self.threads}",
            f"  resilience  : "
            + ("off" if self.resilience is None else
               f"max_retries={self.resilience.max_retries}, "
               f"timeout={self.resilience.task_timeout}, "
               f"guardrail={self.resilience.guardrail}"),
            f"  persistence : "
            + ("off" if not self.persistence.enabled else
               f"dir={self.persistence.to_dict()['checkpoint_dir']}, "
               f"every={self.persistence.every}, "
               f"keep={self.persistence.keep}, "
               f"resume={self.persistence.resume}"),
        ]
        if self.problem.batch != 1:
            lines.append(
                f"  batch       : {self.problem.batch} sketches per pass "
                f"(one per batch seed)")
        if self.pool is not None:
            lines.append(
                f"  pool        : workers={self.pool.workers}, "
                f"heartbeat={self.pool.heartbeat_timeout:g}s, "
                f"max_requeues={self.pool.max_requeues}, "
                f"max_respawns={self.pool.max_respawns}")
        if self.partition is not None:
            lines.append(f"  partition   : shards={self.partition.shards}")
        if self.decisions:
            lines.append("decisions:")
            for dec in self.decisions:
                lines.append(f"  - {dec.field} = {dec.value}: {dec.reason}")
                if dec.data:
                    detail = ", ".join(
                        f"{k}={_fmt(v)}" for k, v in sorted(dec.data.items()))
                    lines.append(f"      [{detail}]")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
