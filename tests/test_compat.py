"""Ray 2.49 containment regressions (streammd_ray/compat.py): joins must
survive hash partitions that receive no rows on one side (the zero-column
ArrowBlockBuilder.build defect — acero otherwise fails with "No match ...
for key field reference"), and chained hash shuffles must not reserve the
CPU or memory their own shuffle tasks need."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

import streammd_ray  # noqa: F401 — applies the join containment patch


def _tiny(n, key, start=0):
    return rd.from_arrow(
        pa.table(
            {
                key: pa.array(np.arange(start, start + n), pa.int64()),
                f"payload_{key}": pa.array([f"v{i}" for i in range(n)]),
            }
        )
    )


@pytest.mark.parametrize("join_type", ["inner", "left_semi", "left_anti"])
def test_join_survives_empty_partitions(ray_session, join_type):
    # 3 distinct keys on each side, 8 partitions → ≥5 empty partitions per
    # side, the exact shape that crashed q3 at sf0.001 on a 32-CPU cluster
    left = _tiny(5, "k")
    right = _tiny(3, "k").map_batches(
        lambda t: t.rename_columns(["k2", "payload_k2"]), batch_format="pyarrow"
    )
    out = left.join(
        right, join_type, num_partitions=8, on=("k",), right_on=("k2",)
    ).to_pandas()
    if join_type == "inner":
        assert sorted(out["k"]) == [0, 1, 2]
        assert set(out.columns) >= {"k", "payload_k", "payload_k2"}
    elif join_type == "left_semi":
        assert sorted(out["k"]) == [0, 1, 2]
    else:  # left_anti
        assert sorted(out["k"]) == [3, 4]


def test_join_chain_with_empty_partitions(ray_session):
    # chained joins: the first join's empty-partition output blocks must not
    # poison the second join (q3's two-join shape)
    a = _tiny(6, "x")
    b = _tiny(4, "x").map_batches(
        lambda t: t.rename_columns(["y", "payload_y"]), batch_format="pyarrow"
    )
    c = _tiny(2, "x").map_batches(
        lambda t: t.rename_columns(["z", "payload_z"]), batch_format="pyarrow"
    )
    j1 = a.join(b, "inner", num_partitions=8, on=("x",), right_on=("y",))
    j2 = j1.join(c, "inner", num_partitions=8, on=("x",), right_on=("z",))
    out = j2.to_pandas()
    assert sorted(out["x"]) == [0, 1]


def test_join_one_side_entirely_empty(ray_session):
    left = _tiny(4, "k")
    right = _tiny(4, "k").filter(lambda r: False)
    right = right.map_batches(
        lambda t: t.rename_columns(["k2", "payload_k2"]), batch_format="pyarrow"
    )
    out = left.join(
        right, "inner", num_partitions=8, on=("k",), right_on=("k2",)
    ).to_pandas()
    assert len(out) == 0
    anti = left.join(
        _tiny(4, "k")
        .filter(lambda r: False)
        .map_batches(
            lambda t: t.rename_columns(["k2", "payload_k2"]), batch_format="pyarrow"
        ),
        "left_anti",
        num_partitions=8,
        on=("k",),
        right_on=("k2",),
    ).to_pandas()
    assert sorted(anti["k"]) == [0, 1, 2, 3]


def test_patch_is_applied():
    from ray.data._internal.execution.operators import hash_shuffle as ray_shuffle
    from ray.data._internal.execution.operators import join as ray_join

    from streammd_ray.compat import (
        SchemaSafeJoinAggregation,
        _capped_aggregator_args,
    )

    assert ray_join.JoiningShuffleAggregation is SchemaSafeJoinAggregation
    assert (
        ray_shuffle.HashShufflingOperatorBase._get_default_aggregator_ray_remote_args
        is _capped_aggregator_args
    )
