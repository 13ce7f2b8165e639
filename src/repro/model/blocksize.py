"""Block-size optimization for the Section III-A model.

The paper reduces Equation (4) to a one-dimensional problem: for fixed
``n1``, the cache constraint ``d1 n1 + m1 n1 rho <= M`` is tight at
``d1 = M / (2 n1)`` and ``m1 = M / (2 n1 rho)``, leaving

    g(n1) = 4 n1 rho / M  +  h (1 - (1 - rho)^{n1}) / n1

to minimize (per unit ``d m n``).  There is no closed form, so
:func:`optimize_blocks` scans integer ``n1`` (the function is unimodal in
practice); the closed-form limits — ``n1 = 1`` for small ``rho``,
``n1 = sqrt(hM)/(2 sqrt(rho))`` for ``rho -> 1`` — are exposed for
comparison and tested against the numeric optimum.

:func:`recommend_block_sizes` maps the model's ``(d1, m1, n1)`` (a
three-way blocking) onto Algorithm 1's practical two-parameter blocking
``(b_d, b_n)``, which never blocks the inner dimension: ``b_d = d1``,
``b_n = n1``, clipped to the actual problem dimensions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .machine import MachineModel
from .roofline import computational_intensity, reciprocal_ci_objective

__all__ = ["BlockPlan", "scan_objective", "optimize_blocks", "recommend_block_sizes"]


@dataclass(frozen=True)
class BlockPlan:
    """An optimized block triple and its model scores."""

    d1: int
    m1: int
    n1: int
    ci: float
    objective: float
    cache_words: int
    h: float
    rho: float

    def satisfies_cache(self) -> bool:
        """Check the Equation (4) constraint ``d1 n1 + m1 n1 rho <= M``."""
        return self.d1 * self.n1 + self.m1 * self.n1 * self.rho <= self.cache_words + 1e-9


def _tight_d1_m1(n1: int, M: int, rho: float) -> tuple[int, int]:
    """The constraint-saturating split ``d1 = M/(2 n1)``, ``m1 = M/(2 n1 rho)``.

    After integer clamping (``d1 >= 1``) the remaining budget is given to
    ``m1`` so the cache constraint ``d1 n1 + m1 n1 rho <= M`` always holds
    (relevant when ``n1`` approaches ``M`` and the even split would round
    past the budget).
    """
    d1 = max(1, int(M / (2 * n1)))
    if rho > 0:
        budget = max(0.0, M - d1 * n1)
        m1 = max(1, int(budget / (n1 * rho)))
    else:
        m1 = max(1, int(M / (2 * n1)))
    return d1, m1


def scan_objective(rho: float, M: int, h: float,
                   n1_max: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the reduced objective ``g(n1)`` on ``n1 = 1 .. n1_max``.

    Returns ``(n1_values, g_values)``; benches use this to plot the
    tradeoff curve, tests to verify unimodality around the optimum.
    """
    if not (0.0 < rho <= 1.0):
        raise ConfigError(f"rho must be in (0, 1], got {rho}")
    if M <= 0 or h < 0:
        raise ConfigError("need M > 0 and h >= 0")
    if n1_max is None:
        # The dense-regime optimum is sqrt(hM)/(2 sqrt(rho)); scan past
        # twice that (capped to keep the grid bounded for extreme rho).
        guess = 2.0 * np.sqrt(max(h, 1e-9) * M / max(rho, 1e-12))
        n1_max = int(min(max(64.0, guess), 4e6))
    # A block column must fit in cache even at d1 = m1 = 1.
    n1_max = max(1, min(n1_max, M // 2))
    if n1_max <= 4096:
        n1 = np.arange(1, n1_max + 1, dtype=np.float64)
    else:
        # Dense low range + geometric tail, then integer refinement around
        # the coarse optimum in optimize_blocks.
        low = np.arange(1, 2049, dtype=np.float64)
        tail = np.unique(np.geomspace(2048, n1_max, 4096).astype(np.int64))
        n1 = np.concatenate([low, tail.astype(np.float64)])
    g = 4.0 * n1 * rho / M + h * (1.0 - (1.0 - rho) ** n1) / n1
    return n1.astype(np.int64), g


@functools.lru_cache(maxsize=256, typed=True)
def optimize_blocks(rho: float, M: int, h: float,
                    n1_max: int | None = None) -> BlockPlan:
    """Numerically minimize Equation (4) over the tight-constraint family.

    Scans integer ``n1``, sets ``(d1, m1)`` to the constraint-saturating
    values, and returns the best plan with its CI.  The result is a pure
    function of the arguments, so it is memoized: the planner asks for
    the same numbers on every compile of a problem.
    """
    n1_vals, g = scan_objective(rho, M, h, n1_max=n1_max)
    best = int(n1_vals[np.argmin(g)])

    # Integer refinement: the coarse grid may skip the exact argmin, so
    # walk downhill among immediate neighbours until locally optimal.
    def g_at(n1: int) -> float:
        return 4.0 * n1 * rho / M + h * (1.0 - (1.0 - rho) ** n1) / n1

    n1_cap = max(1, M // 2)
    while best > 1 and g_at(best - 1) < g_at(best):
        best -= 1
    while best < n1_cap and g_at(best + 1) < g_at(best):
        best += 1
    d1, m1 = _tight_d1_m1(best, M, rho)
    return BlockPlan(
        d1=d1,
        m1=m1,
        n1=best,
        ci=computational_intensity(d1, m1, best, rho, M, h),
        objective=reciprocal_ci_objective(d1, m1, best, rho, M, h),
        cache_words=M,
        h=h,
        rho=rho,
    )


def recommend_block_sizes(machine: MachineModel, rho: float, d: int, n: int,
                          dist: str = "uniform") -> tuple[int, int]:
    """Practical ``(b_d, b_n)`` for Algorithm 1 from the model optimum.

    Clips the model's ``(d1, n1)`` to the problem dimensions and rounds
    ``b_n`` up to a floor of 1.  Note Algorithm 1 does not block the inner
    (``m``) dimension, so the model's ``m1`` is advisory only.
    """
    if d <= 0 or n <= 0:
        raise ConfigError("d and n must be positive")
    plan = optimize_blocks(rho, machine.cache_words, machine.h(dist))
    b_d = max(1, min(d, plan.d1))
    b_n = max(1, min(n, plan.n1))
    return b_d, b_n
