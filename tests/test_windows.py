"""Partition-vectorized window operators: key co-location invariant and
equivalence with the per-group reference implementation."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

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
    seen = []

    def record(df: pd.DataFrame) -> pd.DataFrame:
        sz = df.groupby("user_id").size()
        return pd.DataFrame({"user_id": sz.index.to_numpy(), "n": sz.to_numpy()})

    out = partitioned_group_apply(
        rd.from_arrow(t).repartition(8), "user_id", record, num_partitions=16
    ).to_pandas()
    # each user appears in exactly ONE partition output row, with its full count
    assert out["user_id"].is_unique
    want = pd.Series(t["user_id"].to_numpy()).value_counts()
    got = out.set_index("user_id")["n"]
    assert got.sort_index().equals(want.sort_index().astype(got.dtype))


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
