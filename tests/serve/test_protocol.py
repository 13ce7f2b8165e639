"""Wire protocol: request parsing/validation, response encoding."""

import base64
import json

import numpy as np
import pytest

from repro.core.config import SketchConfig
from repro.errors import ConfigError
from repro.plan import Planner, Runtime
from repro.serve.protocol import (
    encode_result,
    parse_request,
    sketch_digest,
)
from repro.sparse import random_sparse

GOOD = {
    "matrix": {"random": [100, 20, 0.1], "seed": 3},
    "config": {"d": 8, "seed": 1},
}


class TestParseRequest:
    def test_accepts_bytes_text_and_dict(self):
        as_dict = parse_request(dict(GOOD))
        as_text = parse_request(json.dumps(GOOD))
        as_bytes = parse_request(json.dumps(GOOD).encode())
        assert as_dict.matrix == as_text.matrix == as_bytes.matrix

    def test_defaults(self):
        req = parse_request(dict(GOOD))
        assert req.output == "digest"
        assert req.deadline_seconds is None
        assert req.chaos is None
        assert req.plan is None

    def test_request_id_round_trips(self):
        req = parse_request({**GOOD, "request_id": "abc-123"})
        assert req.request_id == "abc-123"

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_request(b"{nope")

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown request field"):
            parse_request({**GOOD, "bogus": 1})

    def test_matrix_required(self):
        with pytest.raises(ConfigError, match="matrix"):
            parse_request({"config": {"d": 8}})

    def test_matrix_spec_validated(self):
        with pytest.raises(ConfigError):
            parse_request({"matrix": {"random": [0, 10, 0.5]}})
        with pytest.raises(ConfigError):
            parse_request({"matrix": {"random": [10, 10, 2.0]}})
        with pytest.raises(ConfigError):
            parse_request({"matrix": {"path": ""}})

    def test_plan_xor_config(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_request({"matrix": GOOD["matrix"],
                           "plan": {"kernel": "algo3"},
                           "config": {"d": 8}})

    def test_unknown_config_field(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            parse_request({"matrix": GOOD["matrix"],
                           "config": {"dd": 8}})

    def test_backend_is_an_unknown_config_field(self):
        # numpy is the one kernel backend; nothing selects it.
        with pytest.raises(ConfigError, match="unknown config field"):
            parse_request({"matrix": GOOD["matrix"],
                           "config": {"backend": "numpy"}})

    def test_deadline_must_be_positive(self):
        with pytest.raises(ConfigError, match="deadline_seconds"):
            parse_request({**GOOD, "deadline_seconds": -1})
        with pytest.raises(ConfigError, match="deadline_seconds"):
            parse_request({**GOOD, "deadline_seconds": 0})

    def test_output_mode_validated(self):
        with pytest.raises(ConfigError, match="output"):
            parse_request({**GOOD, "output": "csv"})


class TestChaosGating:
    def test_chaos_refused_by_default(self):
        with pytest.raises(ConfigError, match="--allow-chaos"):
            parse_request({**GOOD, "chaos": {"kill_pool": True}})

    def test_chaos_allowed_when_enabled(self):
        req = parse_request({**GOOD, "chaos": {"kill_pool": True}},
                            allow_chaos=True)
        assert req.chaos == {"kill_pool": True}

    def test_chaos_fields_validated(self):
        with pytest.raises(ConfigError, match="unknown chaos field"):
            parse_request({**GOOD, "chaos": {"explode": 1}},
                          allow_chaos=True)
        with pytest.raises(ConfigError, match="slow_client"):
            parse_request({**GOOD, "chaos": {"slow_client": 1e9}},
                          allow_chaos=True)
        with pytest.raises(ConfigError, match="kind"):
            parse_request({**GOOD, "chaos": {"faults": [{"task": [0, 0]}]}},
                          allow_chaos=True)


class TestEncodeResult:
    def _result(self):
        A = random_sparse(80, 16, 0.1, seed=5)
        plan = Planner().compile(A, SketchConfig(seed=2), d=8)
        return Runtime().run(plan, A)

    def test_digest_mode(self):
        result = self._result()
        doc = encode_result(result, "digest", "rq")
        assert doc["status"] == "ok"
        assert doc["request_id"] == "rq"
        assert doc["plan_digest"] == result.plan.digest()
        assert doc["sketch"]["digest"] == sketch_digest(result.sketch)
        assert "data" not in doc["sketch"]

    def test_array_mode_is_bit_identical(self):
        result = self._result()
        doc = encode_result(result, "array")
        raw = base64.b64decode(doc["sketch"]["data"])
        arr = np.frombuffer(raw, dtype=doc["sketch"]["dtype"]).reshape(
            doc["sketch"]["shape"])
        assert np.array_equal(arr, result.sketch)

    def test_none_mode_omits_payload(self):
        doc = encode_result(self._result(), "none")
        assert "data" not in doc["sketch"]
        assert "digest" not in doc["sketch"]
        assert doc["stats"]["samples_generated"] > 0

    def test_digest_deterministic_across_runs(self):
        a = encode_result(self._result(), "digest")
        b = encode_result(self._result(), "digest")
        assert a["sketch"]["digest"] == b["sketch"]["digest"]
        assert a["plan_digest"] == b["plan_digest"]
