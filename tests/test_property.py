"""Hypothesis property tests — randomized (deterministically seeded) checks
of the sketch laws beyond the fixed-stream suites: Bloom no-false-negatives,
HLL/CMS merge == whole-stream, quantile sketches bounded rank error under
arbitrary splits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streammd_ray.sketches import KLL, BloomFilter, CountMinSketch, HyperLogLog, TDigest

keys = st.lists(st.text(min_size=0, max_size=30), min_size=1, max_size=300)


@settings(max_examples=25, deadline=None)
@given(keys)
def test_bloom_never_false_negative(ks):
    bf = BloomFilter(1e-3, 10_000)
    bf.add_batch(ks)
    assert bf.contains_batch(ks).all()


@settings(max_examples=25, deadline=None)
@given(keys, st.integers(1, 5))
def test_bloom_split_invariance_of_survivor_count(ks, n_splits):
    """However the stream is split into sequential batches, exactly one
    insert per distinct key reports was_new."""
    bf = BloomFilter(1e-9, 10_000)
    total_new = 0
    for chunk in np.array_split(np.array(ks, dtype=object), n_splits):
        total_new += int(bf.add_batch(list(chunk)).sum())
    assert total_new == len(set(ks))


@settings(max_examples=20, deadline=None)
@given(keys, st.integers(1, 4))
def test_hll_merge_equals_whole_stream(ks, n_splits):
    whole = HyperLogLog()
    whole.insert_batch(ks)
    merged = HyperLogLog()
    for chunk in np.array_split(np.array(ks, dtype=object), n_splits):
        part = HyperLogLog()
        part.insert_batch(list(chunk))
        merged.merge(part)
    assert np.array_equal(whole.regs, merged.regs)


@settings(max_examples=20, deadline=None)
@given(keys, st.integers(1, 4))
def test_cms_merge_equals_whole_stream(ks, n_splits):
    whole = CountMinSketch(eps=1e-2, delta=1e-2)
    whole.insert_batch(ks)
    merged = CountMinSketch(eps=1e-2, delta=1e-2)
    for chunk in np.array_split(np.array(ks, dtype=object), n_splits):
        part = CountMinSketch(eps=1e-2, delta=1e-2)
        part.insert_batch(list(chunk))
        merged.merge(part)
    assert np.array_equal(whole.counts, merged.counts)
    assert whole.total == merged.total


floats = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=5, max_size=500
)


@settings(max_examples=20, deadline=None)
@given(floats, st.integers(1, 4))
def test_tdigest_rank_error_under_splits(vals, n_splits):
    data = np.asarray(vals)
    merged = TDigest(delta=100)
    for chunk in np.array_split(data, n_splits):
        part = TDigest(delta=100)
        part.insert_batch(chunk)
        merged.merge(part)
    for q in (0.1, 0.5, 0.9):
        est = merged.quantile(q)
        # two-sided rank interval handles ties (an all-equal stream has
        # r_lo=0, r_hi=1 for its single value)
        r_lo, r_hi = (data < est).mean(), (data <= est).mean()
        slack = 0.15 + 1.0 / len(data)
        assert r_lo - slack <= q <= r_hi + slack


@settings(max_examples=20, deadline=None)
@given(floats, st.integers(1, 4))
def test_kll_rank_error_under_splits(vals, n_splits):
    data = np.asarray(vals)
    merged = KLL(k=100)
    for chunk in np.array_split(data, n_splits):
        part = KLL(k=100)
        part.insert_batch(chunk)
        merged.merge(part)
    assert merged.n == len(data)
    for q in (0.25, 0.75):
        est = merged.quantile(q)
        r_lo, r_hi = (data < est).mean(), (data <= est).mean()
        slack = 0.15 + 1.0 / len(data)
        assert r_lo - slack <= q <= r_hi + slack


def test_cli_show_capacity_math():
    from streammd_ray.cli import build_parser, show_capacity

    args = build_parser().parse_args(
        ["--show-capacity", "-p", "1e-6", "-m", "1GiB", "--num-shards", "8"]
    )
    info = show_capacity(args)
    assert info["mem_bytes"] == 2**30
    assert info["bits_per_shard_pow2"] == 2**30  # 8 shards x 2^30 bits = 2^33 = 8*mem
    assert info["capacity_total"] == 8 * info["capacity_per_shard"]
    assert info["k"] == 10
    # a budget that leaves a shard no bits is refused by name, not with a
    # negative shift or a division by zero
    for bad in (["-m", "0B"], ["--num-shards", "0"]):
        args = build_parser().parse_args(["--show-capacity", *bad])
        with pytest.raises(ValueError, match="mem=.* num_shards="):
            show_capacity(args)


def test_cli_show_capacity_follows_layout():
    """--show-capacity reports the (m, k) and capacity of the shards that
    --bloom-layout would spawn: k=10 classic, structural k=8 split."""
    from streammd_ray.cli import build_parser, show_capacity

    base = ["--show-capacity", "-m", "2MiB", "--num-shards", "2"]
    classic = show_capacity(build_parser().parse_args(base))
    split = show_capacity(build_parser().parse_args(base + ["--bloom-layout", "split"]))
    assert classic["bits_per_shard_pow2"] == split["bits_per_shard_pow2"] == 2**23
    assert (classic["k"], classic["capacity_per_shard"]) == (10, 242_656)
    assert (split["k"], split["capacity_per_shard"]) == (8, 205_318)
    assert split["capacity_total"] == 2 * 205_318


@given(
    vals=st.lists(
        st.floats(
            min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=400,
    ),
    q=st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=25, deadline=None)
def test_exact_quantile_select_property(ray_session, vals, q):
    """Distributed selection == the quantile_disc rank rule on ANY input."""
    import math

    import pyarrow as pa
    import ray.data as rd

    from streammd_ray.stages.quantiles import exact_quantile_select

    v = np.array(vals)
    ds = rd.from_arrow(pa.table({"x": v})).repartition(3)
    got = exact_quantile_select(ds, "x", (q,))[0]
    s = np.sort(v)
    want = float(s[max(0, math.ceil(q * len(s)) - 1)])
    assert got == want
