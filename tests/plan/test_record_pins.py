"""Pinned records that name the kernel backend and the stripe rule.

Plans, cache keys and checkpoint fingerprints all record
``"backend": "numpy"``, and a sharded plan records its partition's
``"strategy": "even"``.  Whatever form these settings take, the records
must not move: a moved plan digest orphans stored plans, a moved cache
key turns every warm cache cold, and a moved fingerprint refuses every
stored checkpoint.  The values below are literal, so the test reads the
same before and after any change to how the backend or the stripes are
chosen.
"""

import json
import platform

import pytest

from repro import Planner, SketchConfig
from repro.cache import ArtifactCache, CachePolicy
from repro.core.streaming import StreamingSketch
from repro.model import LAPTOP
from repro.plan import PartitionSpec
from repro.rng import make_rng
from repro.sparse import random_sparse

# The artifact keys fold in the host's coarse identity; pin it so the
# hex values hold on any host.
HOST = {"system": "Linux", "machine": "x86_64"}

PLAN_DIGEST = (
    "ad9d5aae1b098f948bb3a65765a56a51ba98a9a53f076f2c8b235cfbf3ab4306")
SHARDED_PLAN_DIGEST = (
    "6e1e9e23d394586352bf1ba1580d4cf9032dc69223b82417067dc41e6f61225c")
TUNE_KEY = (
    "07fb12a1e6d9171699b00770e3ce5d91cc7c5884fe4a6e1d6671d55adc363d41")
CHOICE_KEY = (
    "2ee11a4bd507f3f70599ecc48dd1f1e6fbffc9ff57309334809eba1a1eb13fb7")

FINGERPRINT = {
    "mode": "blocked", "d": 90, "n": 30, "b_d": 32, "b_n": 16,
    "kernel": "algo4", "backend": "numpy", "rng_kind": "philox",
    "seed": 11, "distribution": "uniform", "dtype": "float64",
}
STREAMING_FINGERPRINT = {
    "mode": "streaming", "d": 40, "n": 30, "b_d": 8, "b_n": 16,
    "kernel": "algo3", "backend": "numpy", "rng_kind": "philox",
    "seed": 5, "distribution": "uniform", "dtype": "float64",
}


@pytest.fixture
def pinned_host(monkeypatch):
    monkeypatch.setattr(platform, "system", lambda: HOST["system"])
    monkeypatch.setattr(platform, "machine", lambda: HOST["machine"])


def _matrix():
    return random_sparse(120, 30, 0.1, seed=3)


def _config(**overrides):
    base = dict(kernel="algo4", rng_kind="philox", seed=11, b_d=32, b_n=16)
    base.update(overrides)
    return SketchConfig(**base)


def _keys(cache, artifact):
    return sorted(p.name for p in (cache.root / artifact).iterdir()
                  if not p.name.startswith("."))


class TestPlanRecord:
    def test_record_names_numpy(self):
        plan = Planner(LAPTOP).compile(_matrix(), _config(), d=90)
        record = plan.to_dict()
        assert record["backend"] == "numpy"
        assert json.loads(plan.to_json())["backend"] == "numpy"

    def test_digest_is_pinned(self):
        plan = Planner(LAPTOP).compile(_matrix(), _config(), d=90)
        assert plan.digest() == PLAN_DIGEST

    def test_sharded_digest_is_pinned(self):
        plan = Planner(LAPTOP).compile(_matrix(), _config(), d=90,
                                       partition=PartitionSpec(shards=2))
        assert plan.to_dict()["partition"] == {"shards": 2,
                                               "strategy": "even"}
        assert plan.digest() == SHARDED_PLAN_DIGEST

    def test_fingerprint_is_pinned(self):
        plan = Planner(LAPTOP).compile(_matrix(), _config(), d=90)
        assert plan.fingerprint() == FINGERPRINT

    def test_streaming_fingerprint_is_pinned(self):
        st = StreamingSketch(40, 30, make_rng("philox", 5), kernel="algo3",
                             b_d=8, b_n=16)
        assert st.fingerprint() == STREAMING_FINGERPRINT


class TestCacheKeys:
    def test_kernel_choice_key_is_pinned(self, tmp_path, pinned_host):
        cache = ArtifactCache(CachePolicy(cache_dir=tmp_path))
        Planner(LAPTOP).compile(_matrix(), _config(kernel="auto"), d=90,
                                cache=cache)
        assert _keys(cache, "kernel_choice") == [CHOICE_KEY]

    def test_tune_key_is_pinned(self, tmp_path, pinned_host):
        cache = ArtifactCache(CachePolicy(cache_dir=tmp_path))
        Planner(LAPTOP, tune="measure").compile(
            _matrix(), _config(b_d=None, b_n=None), d=90, cache=cache)
        assert _keys(cache, "tune") == [TUNE_KEY]
        entry = json.loads(
            next((cache.root / "tune" / TUNE_KEY).glob("tune.json"))
            .read_text(encoding="utf-8"))
        assert entry["backend"] == "numpy"
