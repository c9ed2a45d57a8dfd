"""Partition-vectorized window operators: key co-location invariant and
equivalence with the per-group reference implementation."""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from streammd_ray.hashing import hash64_batch
from streammd_ray.stages.windows import (
    partitioned_group_apply,
    per_key_diff_partition,
)


def _events(n_users=200, n_events=4000, seed=7):
    rng = np.random.default_rng(seed)
    user = rng.integers(0, n_users, n_events)
    ts = np.sort(rng.integers(0, 10**10, n_events))
    return pa.table(
        {
            "event_id": np.arange(n_events, dtype=np.int64),
            "user_id": user.astype(np.int64),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )


def test_partition_apply_sees_whole_keys(ray_session):
    """Every row of a key must arrive in exactly one partition call."""
    t = _events()

    def record(part: pa.Table) -> pd.DataFrame:
        sz = part.to_pandas().groupby("user_id").size()
        return pd.DataFrame({"user_id": sz.index.to_numpy(), "n": sz.to_numpy()})

    out = partitioned_group_apply(
        rd.from_arrow(t).repartition(8), "user_id", record, num_partitions=16
    ).to_pandas()
    # each user appears in exactly ONE partition output row, with its full count
    assert out["user_id"].is_unique
    want = pd.Series(t["user_id"].to_numpy()).value_counts()
    got = out.set_index("user_id")["n"]
    assert got.sort_index().equals(want.sort_index().astype(got.dtype))


@pytest.mark.parametrize("n", [1, 16])
def test_partition_apply_one_partition_per_call(ray_session, n):
    """num_partitions=n runs exactly n reducers: every call holds exactly one
    partition id, and each id reaches exactly one call."""
    t = _events()

    def tag(part: pa.Table) -> pa.Table:
        call = str(uuid.uuid4())
        return part.select(["user_id"]).append_column(
            "call", pa.array([call] * part.num_rows)
        )

    out = partitioned_group_apply(
        rd.from_arrow(t).repartition(8), "user_id", tag, num_partitions=n
    ).to_pandas()
    assert len(out) == t.num_rows
    part = hash64_batch(pa.array(out["user_id"].to_numpy())) % np.uint64(n)
    out["part"] = part.astype(np.int64)
    assert (out.groupby("call")["part"].nunique() == 1).all()
    assert (out.groupby("part")["call"].nunique() == 1).all()
    assert out["call"].nunique() == out["part"].nunique() == n
    assert (out.groupby("user_id")["call"].nunique() == 1).all()


def test_per_key_diff_partition_matches_reference(ray_session):
    t = pa.table(
        {
            "conv_id": ["a"] * 3 + ["b"] * 2,
            "turn_idx": [0, 1, 2, 0, 1],
            "ts": pa.array([0, 5, 9, 100, 101], pa.timestamp("us")),
        }
    )
    out = partitioned_group_apply(
        rd.from_arrow(t),
        "conv_id",
        per_key_diff_partition(),
        num_partitions=4,
    ).to_pandas()
    assert sorted(out["dt_us"]) == [1, 4, 5]
