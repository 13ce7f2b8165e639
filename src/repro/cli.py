"""Command-line interface: ``python -m repro <command>``.

Gives shell access to the library's main entry points so the kernels can
be exercised without writing Python:

* ``probe``  — measure this host's bandwidth and RNG throughput and report
  the paper's ``h`` parameter;
* ``sketch`` — sketch a MatrixMarket file (or a generated random matrix)
  and report the kernel's cost split;
* ``lsq``    — solve a least-squares problem with SAP / LSQR-D / direct QR
  and report time, iterations, error, and workspace;
* ``svd``    — randomized low-rank SVD via the sketching kernels;
* ``suite``  — list the paper's surrogate test suites at the active scale;
* ``cache``  — inspect, clear, or verify the content-addressed artifact
  cache used by repeated runs over the same matrix (``verify`` exits
  with code 2 when corrupt entries are found, so CI and the serving
  runbook can gate on cache health);
* ``serve``  — run the long-lived sketch service daemon
  (:mod:`repro.serve`): local HTTP, bounded admission queue, per-request
  deadlines, circuit breaker, graceful SIGTERM drain.

Every command prints a plain-text report to stdout; machine-readable
output (``--json``) covers scripting uses.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from .core import SketchConfig
from .lsq import CscOperator, solve_direct_qr, solve_lsqr_diag, solve_sap
from .rng import estimate_h, stream_copy_bandwidth
from .sparse import CSCMatrix, random_sparse, read_matrix_market
from .utils import format_table, render_kv_block

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for every subcommand (exposed for testing)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Sketching SpMM with on-the-fly RNG (IPPS 2024 reproduction)",
    )
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of tables")
    sub = p.add_subparsers(dest="command", required=True)

    probe = sub.add_parser("probe", help="measure bandwidth / RNG cost h")
    probe.add_argument("--rng", default="xoshiro",
                       choices=["xoshiro", "philox", "threefry", "junk"])
    probe.add_argument("--dist", default="uniform")
    probe.add_argument("--calibrate", action="store_true",
                       help="measure a full MachineModel for this host")

    sk = sub.add_parser(
        "sketch", help="sketch a sparse matrix",
        description="Sketch a sparse matrix: compile a SketchPlan "
                    "(inspect it with --explain / --plan-json), then "
                    "execute it on the shared runtime.")

    g_problem = sk.add_argument_group(
        "problem", "what to sketch and how large the sketch is")
    src = g_problem.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="MatrixMarket file to sketch")
    src.add_argument("--random", nargs=3, metavar=("M", "N", "DENSITY"),
                     help="generate a random input instead")
    g_problem.add_argument("--gamma", type=float, default=3.0,
                           help="sketch-size multiplier: d = ceil(gamma * n)")

    g_kernel = sk.add_argument_group(
        "kernel", "compute kernel and Algorithm 1 blocking")
    g_kernel.add_argument("--kernel", default="auto",
                          choices=["auto", "algo3", "algo4", "pregen"])
    g_kernel.add_argument("--b-d", type=int, default=None,
                          help="row-block size override (default: planned)")
    g_kernel.add_argument("--b-n", type=int, default=None,
                          help="column-block size override (default: planned)")
    g_kernel.add_argument("--rng", default="xoshiro",
                          choices=["xoshiro", "philox", "threefry", "junk"])
    g_kernel.add_argument("--dist", default="uniform")
    g_kernel.add_argument("--seed", type=int, default=0)

    g_exec = sk.add_argument_group("execution", "parallel execution")
    g_exec.add_argument("--threads", type=int, default=1,
                        help="worker threads for the execution engine")
    g_exec.add_argument("--driver", default="auto",
                        choices=["auto", "serial", "engine", "process"],
                        help="execution driver (auto = engine when "
                             "--threads > 1, else serial; process = the "
                             "crash-tolerant supervised worker pool)")
    g_exec.add_argument("--workers", type=int, default=None,
                        help="worker processes for --driver process "
                             "(default: 2)")
    g_exec.add_argument("--worker-heartbeat", type=float, default=None,
                        metavar="SECONDS",
                        help="heartbeat deadline for --driver process: "
                             "a worker silent this long with assigned "
                             "tasks is declared hung and replaced "
                             "(default: 30)")

    g_shard = sk.add_argument_group(
        "sharding", "partition the input into column shards that execute "
        "as consecutive task groups of one run, each with its own "
        "checkpoint lineage (bit-identical to the unsharded run)")
    g_shard.add_argument("--shards", type=int, default=None,
                         help="number of column shards (default: unsharded; "
                              "capped at the plan's column-block count)")

    g_resil = sk.add_argument_group(
        "resilience", "fault handling (any flag enables retries and the "
        "health report)")
    g_resil.add_argument("--max-retries", type=int, default=None,
                         help="per-task retry budget")
    g_resil.add_argument("--task-timeout", type=float, default=None,
                         help="per-task deadline in seconds; stragglers are "
                              "re-executed")
    g_resil.add_argument("--guardrail", default=None,
                         choices=["raise", "recompute", "mask"],
                         help="numerical guardrail policy for "
                              "NaN/Inf/outlier blocks (default: off)")

    g_persist = sk.add_argument_group(
        "persistence", "durable checkpoints and resume")
    g_persist.add_argument("--checkpoint-dir", default=None,
                           help="write atomic snapshots of the partial "
                                "sketch to this directory")
    g_persist.add_argument("--checkpoint-every", type=int, default=1,
                           help="snapshot cadence in completed row blocks "
                                "(default: every block)")
    g_persist.add_argument("--resume", action="store_true",
                           help="resume from the newest verified snapshot "
                                "in --checkpoint-dir instead of starting "
                                "over")
    g_persist.add_argument("--verify", action="store_true",
                           help="audit the newest snapshot of each "
                                "lineage in --checkpoint-dir against the "
                                "input matrix (RNG replay of sampled "
                                "tiles) instead of sketching")
    g_persist.add_argument("--verify-exhaustive", action="store_true",
                           help="with --verify: replay every tile, not a "
                                "sample")

    g_cache = sk.add_argument_group(
        "cache", "content-addressed artifact cache for repeated runs "
        "over the same matrix (plans, autotune results, blocked-CSR "
        "conversion)")
    g_cache.add_argument("--cache-dir", default=None,
                         help="cache directory (default: $REPRO_CACHE_DIR "
                              "when set, else caching is off)")
    g_cache.add_argument("--no-cache", action="store_true",
                         help="disable the artifact cache even when "
                              "$REPRO_CACHE_DIR is set")

    g_plan = sk.add_argument_group(
        "plan", "inspect the compiled SketchPlan")
    g_plan.add_argument("--explain", action="store_true",
                        help="print plan.explain() and exit without running")
    g_plan.add_argument("--plan-json", metavar="PATH", default=None,
                        help="dump the compiled SketchPlan as JSON to PATH")

    g_obs = sk.add_argument_group(
        "observability", "metrics, traces and roofline profiles "
        "(observer-isolated: cannot fail or slow-path the sketch)")
    g_obs.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write run metrics in Prometheus text format "
                            "(.json suffix switches to the JSON exporter)")
    g_obs.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write the span trace as JSON "
                            "(.chrome.json suffix emits the Chrome "
                            "trace-event format)")
    g_obs.add_argument("--profile", action="store_true",
                       help="append a roofline-model profile (attained vs "
                            "Eq. 4 predicted GFlop/s) to the report")
    g_obs.add_argument("--profile-out", metavar="PATH", default=None,
                       help="also write the profile as JSON to PATH "
                            "(implies --profile)")
    sk.add_argument("--output", help="write the dense sketch as .npy")

    lsq = sub.add_parser("lsq", help="solve a least-squares problem")
    lsrc = lsq.add_mutually_exclusive_group(required=True)
    lsrc.add_argument("--matrix", help="MatrixMarket file (tall)")
    lsrc.add_argument("--random", nargs=3, metavar=("M", "N", "DENSITY"))
    lsq.add_argument("--solver", default="sap-qr",
                     choices=["sap-qr", "sap-svd", "lsqr-d", "direct"])
    lsq.add_argument("--gamma", type=float, default=2.0)
    lsq.add_argument("--seed", type=int, default=0)

    svd = sub.add_parser("svd", help="randomized low-rank SVD of a sparse matrix")
    ssrc = svd.add_mutually_exclusive_group(required=True)
    ssrc.add_argument("--matrix", help="MatrixMarket file")
    ssrc.add_argument("--random", nargs=3, metavar=("M", "N", "DENSITY"))
    svd.add_argument("--rank", type=int, default=10)
    svd.add_argument("--oversample", type=int, default=8)
    svd.add_argument("--power-iters", type=int, default=1)
    svd.add_argument("--seed", type=int, default=0)

    cache = sub.add_parser(
        "cache", help="inspect or maintain the artifact cache")
    cache.add_argument("action", choices=["stats", "clear", "verify"],
                       help="stats: entry/byte counts per artifact class; "
                            "clear: delete every entry; verify: checksum "
                            "every entry, quarantining corrupt ones")
    cache.add_argument("--cache-dir", default=None,
                       help="cache directory (default: $REPRO_CACHE_DIR)")

    serve = sub.add_parser(
        "serve", help="run the sketch service daemon",
        description="Long-running local HTTP daemon executing SketchPlan "
                    "requests on warm worker pools, with bounded "
                    "admission, per-request deadlines, a circuit "
                    "breaker, and graceful SIGTERM drain "
                    "(see docs/serving.md).")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port; 0 picks an ephemeral port "
                            "(written to --ready-file)")
    serve.add_argument("--queue-capacity", type=int, default=16,
                       help="admission queue bound; beyond it requests "
                            "are shed with a retry hint")
    serve.add_argument("--executors", type=int, default=1,
                       help="executor threads consuming the queue")
    serve.add_argument("--default-deadline", type=float, default=30.0,
                       help="implicit per-request deadline in seconds "
                            "(0 disables)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="graceful-drain budget on SIGTERM")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive degraded requests before the "
                            "circuit breaker opens")
    serve.add_argument("--breaker-recovery", type=float, default=5.0,
                       help="seconds the breaker stays open before a "
                            "half-open probe")
    serve.add_argument("--max-batch", type=int, default=1,
                       help="coalesce up to this many compatible queued "
                            "requests (same matrix/config, different "
                            "seeds) into one batched run; 1 disables")
    serve.add_argument("--warm-pools", type=int, default=2,
                       help="LRU bound on warm worker pools")
    serve.add_argument("--checkpoint-dir", default=None,
                       help="directory for drain-state persistence")
    serve.add_argument("--cache-dir", default=None,
                       help="artifact-cache directory (default: "
                            "$REPRO_CACHE_DIR)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the artifact cache")
    serve.add_argument("--allow-chaos", action="store_true",
                       help="accept fault-injection request fields "
                            "(testing only)")
    serve.add_argument("--ready-file", default=None,
                       help="write host:port here once listening")

    sub.add_parser("suite", help="list the surrogate experiment suites")
    return p


def _load_matrix(args) -> CSCMatrix:
    if args.matrix:
        return read_matrix_market(args.matrix)
    m, n, density = int(args.random[0]), int(args.random[1]), float(args.random[2])
    return random_sparse(m, n, density, seed=getattr(args, "seed", 0))


def _cmd_probe(args) -> dict:
    probe = estimate_h(args.rng, args.dist)
    bw = stream_copy_bandwidth()
    out = {
        "rng": args.rng,
        "distribution": args.dist,
        "samples_per_second": probe.samples_per_second,
        "copy_bandwidth_bytes_per_second": bw,
        "h": probe.h,
        "regeneration_beats_memory": probe.h < 1.0,
    }
    if args.calibrate:
        from .model import calibrate_machine

        m = calibrate_machine(rng_kind=args.rng, dist=args.dist)
        from .kernels import choose_kernel
        from .sparse import random_sparse

        choice = choose_kernel(m, random_sparse(500, 100, 0.02, seed=0))
        out.update({
            "peak_gflops": m.peak_gflops,
            "cache_bytes": m.cache_bytes,
            "random_access_penalty": m.random_access_penalty,
            "cores": m.cores,
            "favors_reuse": m.favors_reuse,
            "recommended_kernel": choice.kernel,
        })
    return out


def _cache_policy_from_args(args):
    """Resolve the artifact-cache policy for this invocation.

    Explicit ``--cache-dir`` wins; otherwise ``$REPRO_CACHE_DIR`` is
    consulted; ``--no-cache`` (or neither source) disables caching.
    Returns ``None`` when disabled so callers pay nothing.
    """
    if getattr(args, "no_cache", False):
        return None
    from .cache import CachePolicy

    if getattr(args, "cache_dir", None):
        return CachePolicy(cache_dir=args.cache_dir)
    policy = CachePolicy.from_env()
    return policy if policy.enabled else None


def _resilience_from_args(args):
    """Build a ResilienceConfig only when a resilience flag was passed.

    Leaving every flag at its default returns ``None``, which keeps the
    original fast execution path byte-for-byte.
    """
    if (args.max_retries is None and args.task_timeout is None
            and args.guardrail is None):
        return None
    from .parallel import ResilienceConfig

    return ResilienceConfig(
        max_retries=args.max_retries if args.max_retries is not None else 2,
        task_timeout=args.task_timeout,
        guardrail=args.guardrail,
    )


def _cmd_sketch(args) -> dict:
    A = _load_matrix(args)
    if args.verify:
        if not args.checkpoint_dir:
            from .errors import ConfigError

            raise ConfigError("--verify requires --checkpoint-dir")
        from .persist import verify_checkpoints

        reports = verify_checkpoints(args.checkpoint_dir, A,
                                     exhaustive=args.verify_exhaustive,
                                     seed=args.seed)
        # A sharded run's directory holds one lineage per column stripe.
        out = (reports[0].as_dict() if len(reports) == 1 else
               {"ok": all(r.ok for r in reports),
                "lineages": [r.as_dict() for r in reports]})
        out["input_shape"] = list(A.shape)
        out["input_nnz"] = A.nnz
        return out
    from .plan import PersistencePolicy, Planner, Runtime

    cfg = SketchConfig(gamma=args.gamma, distribution=args.dist,
                       rng_kind=args.rng, kernel=args.kernel, seed=args.seed,
                       threads=args.threads, b_d=args.b_d, b_n=args.b_n,
                       resilience=_resilience_from_args(args))
    pol = PersistencePolicy(checkpoint_dir=args.checkpoint_dir,
                            every=args.checkpoint_every, resume=args.resume)
    pool = None
    if args.workers is not None or args.worker_heartbeat is not None:
        if args.driver != "process":
            from .errors import ConfigError

            raise ConfigError(
                "--workers / --worker-heartbeat require --driver process")
        from .parallel import WorkerPoolConfig

        pool = WorkerPoolConfig(
            workers=args.workers if args.workers is not None else 2,
            heartbeat_timeout=(args.worker_heartbeat
                               if args.worker_heartbeat is not None else 30.0),
        )
    want_profile = args.profile or args.profile_out is not None
    observer = None
    runtime = Runtime()
    if args.metrics_out or args.trace_out or want_profile:
        from .obs import RunObserver

        observer = RunObserver(trace=args.trace_out is not None)
        observer.attach(runtime.bus)
    cache = None
    cache_policy = _cache_policy_from_args(args)
    if cache_policy is not None:
        from .cache import ArtifactCache

        cache = ArtifactCache(cache_policy, bus=runtime.bus)
    partition = None
    if args.shards is not None:
        from .plan import PartitionSpec

        partition = PartitionSpec(shards=args.shards)
    plan = Planner().compile(A, cfg, persistence=pol, driver=args.driver,
                             pool=pool, partition=partition, cache=cache)
    if args.plan_json:
        plan.to_json(args.plan_json)
    if args.explain:
        out = {
            "input_shape": list(A.shape),
            "input_nnz": A.nnz,
            "explain": plan.explain(),
            "plan": plan.to_dict(),
        }
        if args.plan_json:
            out["plan_json"] = args.plan_json
        return out
    result = runtime.run(plan, A, cache=cache)
    if args.output:
        np.save(args.output, result.sketch)
    st = result.stats
    out = {
        "input_shape": list(A.shape),
        "input_nnz": A.nnz,
        "sketch_shape": list(result.sketch.shape),
        "kernel": result.kernel_used,
        "backend": st.extra.get("backend", "numpy"),
        "total_seconds": st.total_seconds,
        "sample_seconds": st.sample_seconds,
        "samples_generated": st.samples_generated,
        "gflops": st.gflops_rate,
        "output": args.output,
    }
    if st.extra.get("shards"):
        out["shards"] = st.extra["shards"]
        out["merge_seconds"] = st.extra.get("merge_seconds", 0.0)
        resumed_shards = st.extra.get("shards_resumed", 0)
        if resumed_shards:
            out["shards_resumed"] = resumed_shards
    if args.checkpoint_dir:
        out["checkpoint_dir"] = args.checkpoint_dir
        out["snapshots_written"] = st.extra.get("snapshots_written", 0)
        resumed = st.extra.get("resumed_from")
        if resumed:
            out["resumed_from"] = str(resumed)
    if cache is not None:
        # Whole-invocation counters (compile-time autotune/kernel-choice
        # lookups happen before Runtime.run, so read the cache itself
        # rather than the per-run deltas in stats.extra).
        out["cache"] = {
            "dir": str(cache.root),
            "hits": cache.hit_total(),
            "misses": cache.miss_total(),
            "evictions": cache.eviction_total(),
        }
        source = st.extra.get("blocked_csr_source")
        if source is not None:
            out["cache"]["blocked_csr_source"] = source
    if st.health is not None:
        out["health"] = st.health.as_dict() if args.json else st.health.summary()
    dropped = runtime.bus.dropped_total()
    if dropped:
        # Observer handlers are isolated by design, but a silently broken
        # metrics/tracing pipeline should not go unnoticed in scripts.
        out["dropped_events"] = dropped
        print(f"warning: {dropped} observer event(s) dropped during this "
              f"run (a metrics/tracing handler raised); the sketch itself "
              f"is unaffected", file=sys.stderr)
    if observer is not None:
        if args.metrics_out:
            if str(args.metrics_out).endswith(".json"):
                observer._sync_dropped()
                observer.registry.write_json(args.metrics_out)
            else:
                observer.write_metrics(args.metrics_out)
            out["metrics_out"] = args.metrics_out
        if args.trace_out:
            if str(args.trace_out).endswith(".chrome.json"):
                from pathlib import Path

                Path(args.trace_out).write_text(
                    json.dumps(observer.tracer.to_chrome(), indent=2) + "\n",
                    encoding="utf-8")
            else:
                observer.tracer.to_json(args.trace_out)
            out["trace_out"] = args.trace_out
        if want_profile:
            profile = observer.profile(result)
            out["profile"] = profile.as_dict()
            if not args.json:
                out["profile_text"] = profile.render()
            if args.profile_out:
                from pathlib import Path

                Path(args.profile_out).write_text(
                    json.dumps(profile.as_dict(), indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
                out["profile_out"] = args.profile_out
        observer.detach()
    return out


def _cmd_lsq(args) -> dict:
    A = _load_matrix(args)
    rng = np.random.default_rng(args.seed)
    b = (CscOperator(A).matvec(rng.standard_normal(A.shape[1]))
         + rng.standard_normal(A.shape[0]))
    if args.solver == "lsqr-d":
        sol = solve_lsqr_diag(A, b, max_iter=40 * A.shape[1])
    elif args.solver == "direct":
        sol = solve_direct_qr(A, b)
    else:
        method = args.solver.split("-", 1)[1]
        sol = solve_sap(A, b, gamma=args.gamma, method=method,
                        config=SketchConfig(gamma=args.gamma, seed=args.seed))
    return {
        "solver": sol.method,
        "shape": list(A.shape),
        "nnz": A.nnz,
        "seconds": sol.seconds,
        "iterations": sol.iterations,
        "error": sol.error,
        "workspace_mbytes": sol.memory_mbytes,
        "converged": sol.converged,
    }


def _cmd_svd(args) -> dict:
    from .core import SketchConfig, randomized_svd

    A = _load_matrix(args)
    res = randomized_svd(A, rank=args.rank, oversample=args.oversample,
                         power_iters=args.power_iters,
                         config=SketchConfig(seed=args.seed))
    return {
        "shape": list(A.shape),
        "nnz": A.nnz,
        "rank": res.rank,
        "singular_values": [float(s) for s in res.s],
        "power_iterations": res.power_iterations,
        "sketch_samples_generated": res.sketch_stats.samples_generated,
    }


def _cmd_suite(args) -> dict:
    from .workloads import ABNORMAL_SUITE, LSQ_SUITE, SPMM_SUITE, current_scale, scale_dims

    out = {"scale": current_scale(), "suites": {}}
    for label, suite in (("spmm", SPMM_SUITE), ("lsq", LSQ_SUITE),
                         ("abnormal", ABNORMAL_SUITE)):
        rows = []
        for case in suite.values():
            m, n = scale_dims(case.m, case.n, out["scale"])
            rows.append({"name": case.name, "structure": case.structure,
                         "paper_m": case.m, "paper_n": case.n,
                         "paper_nnz": case.nnz, "scaled_m": m, "scaled_n": n})
        out["suites"][label] = rows
    return out


def _cmd_cache(args) -> dict:
    """``repro cache {stats,clear,verify}`` maintenance subcommand."""
    from .cache import ArtifactCache, CachePolicy

    if args.cache_dir:
        policy = CachePolicy(cache_dir=args.cache_dir)
    else:
        policy = CachePolicy.from_env()
        if not policy.enabled:
            from .errors import ConfigError

            raise ConfigError(
                "no cache directory: pass --cache-dir or set $REPRO_CACHE_DIR")
    cache = ArtifactCache(policy)
    if args.action == "stats":
        out = cache.stats()
        # Counters are per-process and this process did no lookups;
        # the on-disk inventory is the useful part here.
        for transient in ("hits", "misses", "evictions"):
            out.pop(transient, None)
        return {"action": "stats", **out}
    if args.action == "clear":
        removed = cache.clear()
        return {"action": "clear", "cache_dir": str(cache.root),
                "removed_entries": removed}
    report = cache.verify()
    return {"action": "verify", "cache_dir": str(cache.root), **report}


def _cmd_serve(args) -> int:
    """``repro serve`` — run the daemon until drained; returns its exit
    code directly (0 = clean drain, 1 = drain budget expired)."""
    from .serve import ServeConfig, ServeDaemon

    cache_dir = None
    if not args.no_cache:
        if args.cache_dir:
            cache_dir = args.cache_dir
        else:
            from .cache import CachePolicy

            policy = CachePolicy.from_env()
            cache_dir = policy.cache_dir if policy.enabled else None
    cfg = ServeConfig(
        host=args.host, port=args.port,
        queue_capacity=args.queue_capacity, executors=args.executors,
        default_deadline=(None if args.default_deadline <= 0
                          else args.default_deadline),
        drain_timeout=args.drain_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_recovery=args.breaker_recovery,
        max_batch=args.max_batch,
        warm_pools=args.warm_pools,
        checkpoint_dir=args.checkpoint_dir,
        cache_dir=cache_dir,
        allow_chaos=args.allow_chaos,
        ready_file=args.ready_file,
    )
    daemon = ServeDaemon(cfg).start()
    host, port = daemon.address
    print(f"repro serve listening on http://{host}:{port} "
          f"(queue={cfg.queue_capacity}, executors={cfg.executors})",
          file=sys.stderr)
    return daemon.run()


def _render(command: str, payload: dict) -> str:
    if command == "sketch" and "explain" in payload:
        lines = [payload["explain"]]
        if payload.get("plan_json"):
            lines.append(f"plan written to {payload['plan_json']}")
        return "\n".join(lines)
    if command == "sketch" and "profile_text" in payload:
        payload = dict(payload)
        profile_text = payload.pop("profile_text")
        payload.pop("profile", None)
        return render_kv_block(command, list(payload.items())) \
            + "\n\n" + profile_text
    if command == "suite":
        parts = [f"scale: {payload['scale']}"]
        for label, rows in payload["suites"].items():
            table_rows = [[r["name"], r["structure"], r["paper_m"],
                           r["paper_n"], r["paper_nnz"], r["scaled_m"],
                           r["scaled_n"]] for r in rows]
            parts.append(format_table(
                ["name", "structure", "m(p)", "n(p)", "nnz(p)", "m", "n"],
                table_rows, title=f"{label} suite"))
        return "\n\n".join(parts)
    return render_kv_block(command, list(payload.items()))


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        # The daemon owns stdout/stderr and the process exit code; no
        # JSON payload to print.
        try:
            return _cmd_serve(args)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    handlers = {
        "probe": _cmd_probe,
        "sketch": _cmd_sketch,
        "lsq": _cmd_lsq,
        "svd": _cmd_svd,
        "suite": _cmd_suite,
        "cache": _cmd_cache,
    }
    try:
        payload = handlers[args.command](args)
    except Exception as exc:  # surface library errors as exit-code failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(_render(args.command, payload))
    if args.command == "cache" and payload.get("action") == "verify" \
            and payload.get("corrupt"):
        # `repro cache verify` is a CI guard: corrupt entries must fail
        # the pipeline, not just print a report.
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
