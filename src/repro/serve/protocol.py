"""Wire protocol of the sketch service: request parsing, response
encoding.

Requests are JSON documents::

    {
      "matrix":  {"random": [m, n, density], "seed": 0}   // or
                 {"path": "A.mtx"},
      "plan":    { ...SketchPlan.to_dict()... },          // or
      "config":  {"kernel": "algo3", "d": 64, "seed": 7,
                  "driver": "process", ...},
      "deadline_seconds": 5.0,                            // optional
      "output":  "digest" | "array" | "none",             // default digest
      "chaos":   { ... }                                  // gated, see below
    }

Exactly one of ``plan`` (a full frozen plan record, replayed verbatim)
or ``config`` (planning inputs compiled server-side by
:class:`~repro.plan.Planner`) must be present; ``config`` may be
omitted entirely for all-defaults planning.  ``output="array"`` returns
the sketch itself as base64-encoded little-endian float64 C-order bytes
— the representation is exact, so two servers (or a server and a local
``Runtime.run``) can be compared for *bit-identity*, which is the
service's core determinism contract.  ``"digest"`` returns only a
checksum of those bytes (cheap bit-identity checks), ``"none"`` just
stats.

``chaos`` is refused unless the daemon was started with
``--allow-chaos``: it carries a fault plan for the request
(``faults``: list of :class:`~repro.faults.FaultSpec` fields), an
optional ``slow_client`` delay in seconds (the *response* is written
that much later, proving a slow reader cannot stall the executor
threads), and ``kill_pool: true`` (kill the warm pool's workers
mid-request, exercising crash recovery).

Parsing raises :class:`~repro.errors.ConfigError` for malformed
requests — the daemon maps that to HTTP 400.
"""

from __future__ import annotations

import base64
import json
import sys
from dataclasses import dataclass, field

from ..errors import ConfigError

__all__ = ["SketchRequest", "parse_request", "encode_result",
           "sketch_digest", "OUTPUT_MODES"]

OUTPUT_MODES = ("digest", "array", "none")

_CONFIG_FIELDS = frozenset({
    "gamma", "distribution", "rng_kind", "kernel", "b_d", "b_n", "seed",
    "normalize", "threads", "resilience", "d", "driver", "workers",
})

_CHAOS_FIELDS = frozenset({"faults", "seed", "slow_client", "kill_pool"})

_FAULT_FIELDS = frozenset({"kind", "task", "max_hits", "sleep_seconds",
                           "magnitude", "kernel", "scope"})


@dataclass
class SketchRequest:
    """One parsed, validated request (transport-independent)."""

    matrix: dict
    plan: dict | None = None
    config: dict = field(default_factory=dict)
    deadline_seconds: float | None = None
    output: str = "digest"
    chaos: dict | None = None
    request_id: str = ""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _parse_matrix(spec) -> dict:
    _require(isinstance(spec, dict), "matrix must be an object")
    if "random" in spec:
        _require(set(spec) <= {"random", "seed"},
                 "random matrix spec allows only 'random' and 'seed'")
        dims = spec["random"]
        _require(isinstance(dims, (list, tuple)) and len(dims) == 3,
                 "matrix.random must be [m, n, density]")
        m, n, density = dims
        _require(isinstance(m, int) and isinstance(n, int)
                 and m > 0 and n > 0, "matrix dimensions must be positive")
        _require(isinstance(density, (int, float)) and 0 < density <= 1,
                 "matrix density must be in (0, 1]")
        seed = spec.get("seed", 0)
        _require(isinstance(seed, int), "matrix seed must be an integer")
        return {"random": [int(m), int(n), float(density)],
                "seed": int(seed)}
    if "path" in spec:
        _require(set(spec) <= {"path"},
                 "path matrix spec allows only 'path'")
        _require(isinstance(spec["path"], str) and spec["path"],
                 "matrix.path must be a non-empty string")
        return {"path": spec["path"]}
    raise ConfigError("matrix spec needs either 'random' or 'path'")


def _parse_chaos(spec, allow_chaos: bool) -> dict:
    _require(allow_chaos,
             "chaos injection is disabled; start the daemon with "
             "--allow-chaos to enable fault hooks")
    _require(isinstance(spec, dict), "chaos must be an object")
    unknown = set(spec) - _CHAOS_FIELDS
    _require(not unknown, f"unknown chaos field(s): {sorted(unknown)}")
    faults = spec.get("faults", [])
    _require(isinstance(faults, list), "chaos.faults must be a list")
    for f in faults:
        _require(isinstance(f, dict), "each chaos fault must be an object")
        bad = set(f) - _FAULT_FIELDS
        _require(not bad, f"unknown fault field(s): {sorted(bad)}")
        _require("kind" in f, "each chaos fault needs a 'kind'")
    slow = spec.get("slow_client")
    _require(slow is None or (isinstance(slow, (int, float))
                              and 0 <= slow <= 30),
             "chaos.slow_client must be in [0, 30] seconds")
    kill = spec.get("kill_pool", False)
    _require(isinstance(kill, bool), "chaos.kill_pool must be a boolean")
    return spec


def parse_request(body: bytes | str | dict, *,
                  allow_chaos: bool = False) -> SketchRequest:
    """Validate one request document into a :class:`SketchRequest`.

    Accepts raw JSON bytes/text or an already-decoded dict; raises
    :class:`ConfigError` (→ HTTP 400) on any malformed field.
    """
    if isinstance(body, (bytes, bytearray, str)):
        try:
            payload = json.loads(body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}") \
                from None
    else:
        payload = body
    _require(isinstance(payload, dict), "request body must be a JSON object")
    known = {"matrix", "plan", "config", "deadline_seconds", "output",
             "chaos", "request_id"}
    unknown = set(payload) - known
    _require(not unknown, f"unknown request field(s): {sorted(unknown)}")
    _require("matrix" in payload, "request needs a 'matrix' spec")
    matrix = _parse_matrix(payload["matrix"])

    request_id = payload.get("request_id", "")
    _require(isinstance(request_id, str) and len(request_id) <= 256,
             "request_id must be a string of at most 256 characters")

    plan = payload.get("plan")
    config = payload.get("config", {})
    _require(plan is None or isinstance(plan, dict),
             "plan must be an object (SketchPlan.to_dict())")
    _require(isinstance(config, dict), "config must be an object")
    _require(plan is None or not config,
             "pass either a full 'plan' or planning 'config', not both")
    bad = set(config) - _CONFIG_FIELDS
    _require(not bad, f"unknown config field(s): {sorted(bad)}")

    deadline = payload.get("deadline_seconds")
    _require(deadline is None or (isinstance(deadline, (int, float))
                                  and deadline > 0),
             "deadline_seconds must be a positive number")

    output = payload.get("output", "digest")
    _require(output in OUTPUT_MODES,
             f"output must be one of {OUTPUT_MODES}, got {output!r}")

    chaos = payload.get("chaos")
    if chaos is not None:
        chaos = _parse_chaos(chaos, allow_chaos)

    return SketchRequest(matrix=matrix, plan=plan, config=dict(config),
                         deadline_seconds=(None if deadline is None
                                           else float(deadline)),
                         output=output, chaos=chaos,
                         request_id=request_id)


def sketch_digest(sketch) -> str:
    """Checksum of the sketch's canonical bytes (little-endian float64,
    C order) — the cheap form of the bit-identity contract."""
    import numpy as np

    from ..persist.checksum import checksum_bytes, default_algo

    canonical = np.ascontiguousarray(sketch, dtype="<f8")
    return f"{default_algo()}:{checksum_bytes(canonical.tobytes(), default_algo())}"


def encode_result(result, output: str = "digest",
                  request_id: str = "") -> dict:
    """Serialize a :class:`~repro.plan.SketchResult` for the wire."""
    import numpy as np

    sketch = result.sketch
    doc = {
        "status": "ok",
        "request_id": request_id,
        "plan_digest": result.plan.digest(),
        "kernel": result.kernel_used,
        "scale": result.scale,
        "sketch": {
            "shape": list(sketch.shape),
            "dtype": "<f8",
            "digest": sketch_digest(sketch),
        },
        "stats": {
            "total_seconds": result.stats.total_seconds,
            "sample_seconds": result.stats.sample_seconds,
            "compute_seconds": result.stats.compute_seconds,
            "conversion_seconds": result.stats.conversion_seconds,
            "samples_generated": result.stats.samples_generated,
            "driver": result.stats.extra.get("driver"),
        },
    }
    if result.stats.health is not None:
        h = result.stats.health
        doc["health"] = {
            "summary": h.summary(),
            "ok": h.ok,
            "clean": h.clean,
            "workers_lost": h.workers_lost,
            "degraded_to_thread": h.degraded_to_thread,
            "degraded_to_serial": h.degraded_to_serial,
            "timeouts": h.timeouts,
        }
    if output == "array":
        canonical = np.ascontiguousarray(sketch, dtype="<f8")
        if sys.byteorder != "little":  # pragma: no cover - BE hosts
            canonical = canonical.astype("<f8")
        doc["sketch"]["data"] = base64.b64encode(
            canonical.tobytes()).decode("ascii")
    elif output == "none":
        doc["sketch"].pop("digest")
    return doc
