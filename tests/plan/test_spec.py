"""SketchPlan serialization: JSON round trip, validation, explain()."""

import itertools
import json

import pytest

from repro.errors import ConfigError
from repro.parallel import DegradationPolicy, ResilienceConfig
from repro.plan import (
    PLAN_FORMAT_VERSION,
    PersistencePolicy,
    PlanDecision,
    ProblemSpec,
    RngSpec,
    SketchPlan,
)


def make_plan(**overrides):
    base = dict(
        problem=ProblemSpec(m=120, n=30, d=90, nnz=360, gamma=3.0),
        kernel="algo3", b_d=32, b_n=16,
    )
    base.update(overrides)
    return SketchPlan(**base)


class TestProblemSpec:
    def test_density(self):
        p = ProblemSpec(m=100, n=10, d=30, nnz=50)
        assert p.density == 0.05
        assert ProblemSpec(m=100, n=10, d=30).density is None

    @pytest.mark.parametrize("field", ["m", "n", "d"])
    def test_positive_dims_required(self, field):
        kwargs = dict(m=10, n=10, d=10)
        kwargs[field] = 0
        with pytest.raises(ConfigError):
            ProblemSpec(**kwargs)


class TestRngSpec:
    def test_build_matches_family_and_seed(self):
        rng = RngSpec(kind="philox", seed=42, distribution="rademacher").build()
        assert rng.family == "philox"
        assert rng.seed == 42
        assert rng.dist.name == "rademacher"

    def test_fresh_generator_per_build(self):
        spec = RngSpec(kind="xoshiro", seed=5)
        assert spec.build() is not spec.build()

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigError):
            RngSpec(distribution="cauchy")

    def test_normalization(self):
        assert RngSpec(normalize=False).normalization(100) == 1.0
        assert RngSpec(normalize=True,
                       distribution="gaussian").normalization(100) == 0.1


class TestPlanValidation:
    def test_kernel_choices(self):
        with pytest.raises(ConfigError):
            make_plan(kernel="algo5")

    def test_driver_choices(self):
        with pytest.raises(ConfigError):
            make_plan(driver="distributed")

    @pytest.mark.parametrize("backend", ["numba", "bogus"])
    def test_unregistered_backend_rejected_at_load(self, backend):
        data = make_plan().to_dict()
        data["backend"] = backend
        with pytest.raises(ConfigError, match="backend"):
            SketchPlan.from_dict(data)
        with pytest.raises(ConfigError, match="backend"):
            SketchPlan.from_json(json.dumps(data))

    def test_numpy_plan_keeps_its_digest(self):
        plan = make_plan()
        clone = SketchPlan.from_json(plan.to_json())
        assert clone.to_dict()["backend"] == "numpy"
        # Pinned: removing the other backends must not move a digest.
        assert clone.digest() == plan.digest() == (
            "c70bbf49791d0d7cc3e274ec550620924b1494d84910946b30e92450ef3deb4f")

    def test_pregen_rejects_persistence(self):
        with pytest.raises(ConfigError, match="pregen"):
            make_plan(kernel="pregen",
                      persistence=PersistencePolicy(checkpoint_dir="/tmp/x"))

    def test_resilience_type_checked(self):
        with pytest.raises(ConfigError, match="ResilienceConfig"):
            make_plan(resilience={"max_retries": 3})

    def test_frozen(self):
        plan = make_plan()
        with pytest.raises(AttributeError):
            plan.kernel = "algo4"


class TestJsonRoundTrip:
    def test_dict_round_trip_identity(self):
        plan = make_plan(
            rng=RngSpec(kind="philox", seed=7, distribution="rademacher",
                        normalize=True),
            threads=4, driver="engine",
            resilience=ResilienceConfig(
                max_retries=3, task_timeout=1.5, guardrail="recompute",
                degradation=DegradationPolicy(kernel_fallback=False)),
            persistence=PersistencePolicy(checkpoint_dir="/tmp/ck", every=2,
                                          keep=3),
            decisions=(PlanDecision(field="kernel", value="algo3",
                                    reason="forced", data={"rho": 0.1}),),
        )
        clone = SketchPlan.from_dict(plan.to_dict())
        assert clone == plan
        assert clone.to_dict() == plan.to_dict()

    def test_json_string_round_trip(self):
        plan = make_plan()
        clone = SketchPlan.from_json(plan.to_json())
        assert clone == plan

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = make_plan(threads=2, driver="engine")
        text = plan.to_json(path)
        assert path.read_text() == text + "\n"
        assert SketchPlan.from_json(path) == plan
        assert SketchPlan.from_json(str(path)) == plan

    def test_newer_format_version_rejected(self):
        data = make_plan().to_dict()
        data["version"] = PLAN_FORMAT_VERSION + 1
        with pytest.raises(ConfigError, match="newer"):
            SketchPlan.from_dict(data)

    def test_round_trip_property_over_config_grid(self):
        """Every combination in a small config grid survives the trip."""
        kernels = ("algo3", "algo4", "pregen")
        rngs = (RngSpec(), RngSpec(kind="philox", seed=11,
                                   distribution="gaussian", normalize=True))
        resiliences = (None, ResilienceConfig(max_retries=1))
        persistences = (PersistencePolicy(),
                        PersistencePolicy(checkpoint_dir="ck", every=3,
                                          resume=True))
        for kernel, rng, res, pol in itertools.product(
                kernels, rngs, resiliences, persistences):
            if kernel == "pregen" and pol.enabled:
                continue  # invalid by design, covered above
            plan = make_plan(kernel=kernel, rng=rng, resilience=res,
                             persistence=pol, threads=2)
            clone = SketchPlan.from_json(plan.to_json())
            assert clone == plan, (kernel, rng, res, pol)

    def test_manager_backed_policy_serializes_its_directory(self, tmp_path):
        from repro.persist import CheckpointManager

        pol = PersistencePolicy(manager=CheckpointManager(tmp_path))
        assert pol.to_dict()["checkpoint_dir"] == str(tmp_path)


class TestDigest:
    # Pinned so an accidental change to the canonical serialization (key
    # order, float repr, field set) is caught: every artifact cache and
    # plan registry keyed by digest would silently go cold otherwise.
    PINNED = "c70bbf49791d0d7cc3e274ec550620924b1494d84910946b30e92450ef3deb4f"

    def test_digest_is_pinned(self):
        assert make_plan().digest() == self.PINNED

    def test_digest_ignores_decisions(self):
        """The audit trail is provenance: a warm compile annotates its
        decisions (cache hits) yet must digest identically to cold."""
        annotated = make_plan(decisions=(
            PlanDecision(field="kernel", value="algo3",
                         reason="forced (cached tuning)",
                         data={"cache": "hit"}),
        ))
        assert annotated.digest() == make_plan().digest()

    def test_digest_tracks_behaviour(self):
        assert make_plan(kernel="algo4").digest() != make_plan().digest()
        assert make_plan(b_n=8).digest() != make_plan().digest()

    def test_to_json_is_canonical(self):
        """Equal plans render byte-identical JSON (sorted keys, stable
        float repr) — required for content addressing."""
        a, b = make_plan(), make_plan()
        assert a.to_json() == b.to_json()
        assert a.to_json(indent=2) == b.to_json(indent=2)
        # Keys are sorted at every nesting level.
        import json as _json

        rendered = _json.loads(a.to_json())
        assert list(rendered) == sorted(rendered)

    def test_digest_stable_across_json_round_trip(self):
        plan = make_plan(threads=2, driver="engine")
        from repro.plan import SketchPlan as SP

        assert SP.from_json(plan.to_json()).digest() == plan.digest()


class TestExplain:
    def test_explain_lists_choices_and_reasons(self):
        plan = make_plan(decisions=(
            PlanDecision(field="kernel", value="algo3",
                         reason="column mass concentrated",
                         data={"rho": 0.1, "model_ci": 2.5}),
        ))
        text = plan.explain()
        assert "kernel      : algo3" in text
        assert "b_d=32, b_n=16" in text
        assert "gamma=3" in text
        assert "column mass concentrated" in text
        assert "rho=0.1" in text

    def test_explain_renders_policies(self):
        plan = make_plan(
            resilience=ResilienceConfig(max_retries=5, guardrail="mask"),
            persistence=PersistencePolicy(checkpoint_dir="/tmp/ck", every=4),
        )
        text = plan.explain()
        assert "max_retries=5" in text
        assert "dir=/tmp/ck" in text
        assert "every=4" in text


class TestPersistencePolicy:
    def test_manager_and_dir_mutually_exclusive(self, tmp_path):
        from repro.persist import CheckpointManager

        with pytest.raises(ConfigError,
                           match="at most one of checkpoint / checkpoint_dir"):
            PersistencePolicy(checkpoint_dir=str(tmp_path),
                              manager=CheckpointManager(tmp_path))

    def test_resume_requires_target(self):
        with pytest.raises(ConfigError, match="resume=True requires"):
            PersistencePolicy(resume=True)

    def test_enabled(self, tmp_path):
        assert not PersistencePolicy().enabled
        assert PersistencePolicy(checkpoint_dir=str(tmp_path)).enabled

    def test_build_manager(self, tmp_path):
        assert PersistencePolicy().build_manager() is None
        mgr = PersistencePolicy(checkpoint_dir=str(tmp_path)).build_manager()
        assert str(mgr.directory) == str(tmp_path)

    def test_cadence_validated(self):
        with pytest.raises(ConfigError):
            PersistencePolicy(every=0)
