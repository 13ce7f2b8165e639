"""Replay audits of a sharded run's checkpoints.

A sharded run keeps one lineage per column stripe.  Each replays against
its columns of the full input (the generators key on the row offset and
the sparse row, never on the column), and ``--verify`` on the base
directory audits every lineage in it.
"""

import json

import pytest

from repro.cli import main
from repro.core import SketchConfig
from repro.persist import verify_checkpoints, verify_snapshot
from repro.persist.shards import stripe_lineages
from repro.plan import PartitionSpec, PersistencePolicy, Planner, Runtime
from repro.sparse import random_sparse

from .test_verify import _collude_flip


@pytest.fixture(scope="module")
def A():
    return random_sparse(200, 48, 0.1, seed=21)


def sharded_run(A, base, kernel="algo4"):
    plan = Planner().compile(
        A, SketchConfig(kernel=kernel, seed=4, b_d=8, b_n=8), d=24,
        persistence=PersistencePolicy(checkpoint_dir=str(base)),
        partition=PartitionSpec(shards=3))
    Runtime().run(plan, A)


@pytest.mark.parametrize("kernel", ["algo3", "algo4"])
def test_a_stripe_lineage_replays_against_the_full_input(A, tmp_path,
                                                         kernel):
    sharded_run(A, tmp_path, kernel)
    lineages = stripe_lineages(tmp_path)
    assert [(c0, c1) for c0, c1, _p in lineages] == [(0, 16), (16, 32),
                                                     (32, 48)]
    for _c0, _c1, path in lineages:
        report = verify_snapshot(path, A, exhaustive=True)
        assert report.ok and report.method == "replay"
        assert report.tiles_audited == report.tiles_total == 3 * 2


def test_the_base_directory_audits_every_stripe(A, tmp_path):
    sharded_run(A, tmp_path)
    reports = verify_checkpoints(tmp_path, A, exhaustive=True)
    assert len(reports) == 3 and all(r.ok for r in reports)

    _c0, _c1, middle = stripe_lineages(tmp_path)[1]
    snap_dir = max(middle.glob("snapshot-*"))
    bad_row = _collude_flip(snap_dir)
    reports = verify_checkpoints(tmp_path, A, exhaustive=True)
    assert [r.ok for r in reports] == [True, False, True]
    assert reports[1].quarantined_row_offsets == [bad_row]


def test_cli_verify_on_a_sharded_checkpoint_dir(tmp_path, capsys):
    args = ["--json", "sketch", "--random", "400", "80", "0.05",
            "--b-n", "16", "--checkpoint-dir", str(tmp_path)]
    assert main(args + ["--shards", "3"]) == 0
    capsys.readouterr()
    assert main(args + ["--verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert len(payload["lineages"]) == 3
    assert all(lin["method"] == "replay" for lin in payload["lineages"])
