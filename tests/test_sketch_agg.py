"""Sketch aggregation: one-scan multi-sketch pass, tree merge, and the
AggregateFnV2 UDAF adapters (global + grouped)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from streammd_ray.sketches import KLL, CountMinSketch, HyperLogLog, TDigest
from streammd_ray.stages import (
    CmsAgg,
    HllAgg,
    KllAgg,
    TDigestAgg,
    run_sketches,
    sketch_column,
    tree_merge,
)


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(21)
    n = 50_000
    df = pd.DataFrame(
        {
            "conv_id": np.char.add("c", (rng.integers(0, 5000, n)).astype(str)),
            "role": rng.choice(["user", "assistant", "tool"], n, p=[0.5, 0.4, 0.1]),
            "tool": np.char.add("tool-", np.clip(rng.zipf(1.5, n), 1, 40).astype(str)),
            "text_len": rng.lognormal(5, 1, n),
        }
    )
    return df


def test_run_sketches_one_scan(ray_session, table):
    ds = rd.from_arrow(pa.Table.from_pandas(table, preserve_index=False)).repartition(8)
    merged = run_sketches(
        ds,
        {
            "convs": ("conv_id", HyperLogLog()),
            "tools": ("tool", CountMinSketch(eps=1e-3, delta=1e-3, track_heavy=8)),
            "len_td": ("text_len", TDigest()),
            "len_kll": ("text_len", KLL()),
        },
    )
    true_convs = table["conv_id"].nunique()
    est = merged["convs"].estimate()
    assert abs(est - true_convs) / true_convs < 4 * merged["convs"].relative_error

    true_top = table["tool"].value_counts()
    got_top = dict(merged["tools"].top_k(3))
    for k, v in got_top.items():
        assert v >= true_top[k]
        assert v - true_top[k] <= merged["tools"].eps * len(table)
    assert set(got_top) == set(true_top.index[:3])

    data = table["text_len"].to_numpy()
    for q in (0.1, 0.5, 0.9):
        for sk in ("len_td", "len_kll"):
            est_q = merged[sk].quantile(q)
            r = (data <= est_q).mean()
            assert abs(r - q) < 0.02, (sk, q, r)


def test_sketch_column_and_tree_merge(ray_session, table):
    ds = rd.from_arrow(pa.Table.from_pandas(table, preserve_index=False)).repartition(4)
    hll = sketch_column(ds, "conv_id", HyperLogLog())
    true_convs = table["conv_id"].nunique()
    assert abs(hll.estimate() - true_convs) / true_convs < 0.05


def test_tree_merge_many_states(ray_session):
    # more states than one fanin round → exercises the remote fold
    parts = []
    for i in range(70):
        h = HyperLogLog()
        h.insert_batch(np.arange(i * 1000, (i + 1) * 1000).astype(str))
        parts.append(h.to_bytes())
    merged = tree_merge(parts, fanin=8)
    assert abs(merged.estimate() - 70_000) / 70_000 < 0.04


def test_udaf_global(ray_session, table):
    ds = rd.from_arrow(pa.Table.from_pandas(table, preserve_index=False)).repartition(6)
    res = ds.aggregate(
        HllAgg("conv_id", alias_name="distinct_convs"),
        TDigestAgg("text_len", quantiles=(0.5,), alias_name="len_p50"),
        KllAgg("text_len", quantiles=(0.5,), alias_name="len_p50_kll"),
        CmsAgg("tool", track_heavy=5, alias_name="top_tools"),
    )
    true_convs = table["conv_id"].nunique()
    assert abs(res["distinct_convs"] - true_convs) / true_convs < 0.05
    true_med = float(np.quantile(table["text_len"], 0.5))
    assert abs(res["len_p50"][0] - true_med) / true_med < 0.05
    assert abs(res["len_p50_kll"][0] - true_med) / true_med < 0.05
    assert res["top_tools"][0][0] == "tool-1"


def test_udaf_grouped(ray_session, table):
    ds = rd.from_arrow(pa.Table.from_pandas(table, preserve_index=False)).repartition(6)
    out = (
        ds.groupby("role")
        .aggregate(HllAgg("conv_id", alias_name="distinct_convs"))
        .to_pandas()
        .set_index("role")["distinct_convs"]
    )
    truth = table.groupby("role")["conv_id"].nunique()
    for role, true_n in truth.items():
        assert abs(out[role] - true_n) / true_n < 0.05, role


def test_bloom_count_agg(ray_session, table):
    from streammd_ray.stages import BloomCountAgg

    ds = rd.from_arrow(pa.Table.from_pandas(table, preserve_index=False)).repartition(4)
    est = ds.aggregate(BloomCountAgg("conv_id", p=1e-4, capacity=100_000, alias_name="approx_convs"))
    true_n = table["conv_id"].nunique()
    assert abs(est["approx_convs"] - true_n) / true_n < 0.02
