"""The planner's Eq. 4 numbers are memoized without changing a bit.

``optimize_blocks`` is a pure function of ``(rho, M, h)``, so the
planner reuses its result across compiles instead of rescanning the
``n1`` grid every time.  The memo must be invisible: every compile of a
problem gives the same decisions and digest, a different machine model
gets numbers of its own, and the memo stays bounded.
"""

import dataclasses

import pytest

from repro.core import SketchConfig
from repro.model import FRONTERA, LAPTOP, optimize_blocks
from repro.plan import Planner
from repro.sparse import random_sparse

CFG = SketchConfig(kernel="algo4", rng_kind="philox", seed=3)


@pytest.fixture(scope="module")
def A():
    return random_sparse(2000, 120, 5e-3, seed=42)


def blocking(plan):
    return next(d for d in plan.decisions if d.field == "blocking")


def fresh_numbers(A, machine):
    """The Eq. 4 optimum computed from scratch, bypassing the memo."""
    return optimize_blocks.__wrapped__(A.density, machine.cache_words,
                                       machine.h(CFG.distribution))


class TestModelMemo:
    def test_repeat_compiles_are_identical(self, A):
        optimize_blocks.cache_clear()
        first = Planner().compile(A, CFG, d=64)
        misses = optimize_blocks.cache_info().misses
        second = Planner().compile(A, CFG, d=64)
        assert optimize_blocks.cache_info().misses == misses
        assert optimize_blocks.cache_info().hits >= 1
        assert blocking(first).data == blocking(second).data
        assert first.digest() == second.digest()
        assert first.to_dict() == second.to_dict()

    def test_memo_returns_the_uncached_optimum(self, A):
        Planner().compile(A, CFG, d=64)
        data = blocking(Planner().compile(A, CFG, d=64)).data
        want = fresh_numbers(A, LAPTOP)
        assert (data["model_n1"], data["model_d1"], data["model_ci"]) == \
            (want.n1, want.d1, want.ci)

    @pytest.mark.parametrize("machine", [
        FRONTERA,
        dataclasses.replace(LAPTOP, name="laptop-4x-cache",
                            cache_bytes=4 * LAPTOP.cache_bytes),
        dataclasses.replace(LAPTOP, name="laptop-slow-rng",
                            h_base=2 * LAPTOP.h_base),
    ], ids=lambda m: m.name)
    def test_other_machine_gets_its_own_numbers(self, A, machine):
        laptop = blocking(Planner().compile(A, CFG, d=64)).data
        other = blocking(Planner(machine=machine).compile(A, CFG, d=64)).data
        want = fresh_numbers(A, machine)
        assert other["M_words"] == machine.cache_words
        assert other["h"] == machine.h(CFG.distribution)
        assert (other["model_n1"], other["model_d1"], other["model_ci"]) == \
            (want.n1, want.d1, want.ci)
        assert other != laptop
        # ... and the laptop's entry is still its own afterwards.
        assert blocking(Planner().compile(A, CFG, d=64)).data == laptop

    def test_memo_is_bounded(self):
        maxsize = optimize_blocks.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1024
