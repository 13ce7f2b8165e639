"""Property sweep of :func:`repro.plan.compute_shards`.

The stripe computation is the foundation of every partition guarantee:
each stripe must be non-empty, cut at column-block boundaries (so the
within-stripe blocking realizes identical RNG entries to the unsharded
run), hold ``floor(B / K)`` or ``ceil(B / K)`` of the ``B`` column
blocks for ``K`` stripes, and together the stripes must cover ``[0, n)`` exactly once, in
order, for *every* (n, b_n, shards) combination.

The ``record`` axis is the partition strategy a stored plan names: the
one rule left (``even``) loads and is swept; a retired rule
(``nnz_balanced``, ``propagation``) is refused on load, whatever the
shape, never re-cut silently.
"""

import pytest

from repro.errors import ConfigError
from repro.plan import PartitionSpec, compute_shards

NS = (1, 5, 7, 12, 64, 100)
B_NS = (1, 3, 4, 7, 64, 128)
SHARD_COUNTS = (1, 2, 3, 7, 50)


def _load(requested: int, record: str):
    """The stripes of a stored partition record, or ``None`` when the
    record names a retired rule (which must be refused)."""
    data = {"shards": requested, "strategy": record}
    if record != "even":
        with pytest.raises(ConfigError, match=record):
            PartitionSpec.from_dict(data)
        return None
    return PartitionSpec.from_dict(data)


def _check_stripes(stripes, *, n: int, b_n: int, requested: int):
    n_blocks = (n + b_n - 1) // b_n
    assert len(stripes) == min(requested, n_blocks)
    widths = set()
    cursor = 0
    for c0, c1 in stripes:
        # Non-empty, contiguous, in column order.
        assert c0 == cursor
        assert c1 > c0
        # Block aligned: starts on a b_n multiple; stops on one or at n.
        assert c0 % b_n == 0
        assert c1 % b_n == 0 or c1 == n
        widths.add(-(-c1 // b_n) - c0 // b_n)
        cursor = c1
    # Exactly-once coverage of [0, n).
    assert cursor == n
    # Block counts are level to within one block.
    assert max(widths) - min(widths) <= 1


@pytest.mark.parametrize("record", ("even", "nnz_balanced", "propagation"))
@pytest.mark.parametrize("requested", SHARD_COUNTS)
@pytest.mark.parametrize("b_n", B_NS)
@pytest.mark.parametrize("n", NS)
def test_stripes_cover_exactly_once(n, b_n, requested, record):
    spec = _load(requested, record)
    if spec is not None:
        _check_stripes(compute_shards(spec, n=n, b_n=b_n), n=n, b_n=b_n,
                       requested=requested)


@pytest.mark.parametrize("record", ("even", "propagation"))
@pytest.mark.parametrize("n,b_n,requested", [
    (1, 1, 1), (5, 3, 2), (100, 7, 7), (64, 64, 50), (12, 4, 3),
])
def test_stripes_without_col_nnz(n, b_n, requested, record):
    """The stripes depend on the shape alone: equal inputs cut equal
    stripes, and the first stripe is a widest one."""
    spec = _load(requested, record)
    if spec is None:
        return
    stripes = compute_shards(spec, n=n, b_n=b_n)
    assert stripes == compute_shards(PartitionSpec(requested), n=n, b_n=b_n)
    _check_stripes(stripes, n=n, b_n=b_n, requested=requested)
    blocks = [-(-c1 // b_n) - c0 // b_n for c0, c1 in stripes]
    assert blocks[0] == max(blocks)
