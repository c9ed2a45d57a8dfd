"""Exact-set layout (`--bloom-layout exact`, sketches/bloom.py
ExactSetFilter): p = 0 dedup state behind the BloomFilter interface."""

import numpy as np
import pandas as pd
import pytest


def _f(**kw):
    from streammd_ray.sketches.bloom import ExactSetFilter

    return ExactSetFilter(1e-6, kw.pop("n", 10_000), **kw)


def test_exact_set_add_contains_semantics():
    f = _f()
    h1 = np.array([1, 2, 3, 2, 1, 9], np.uint64)
    h2 = np.array([7, 8, 9, 8, 7, 9], np.uint64)
    # within-batch: only the first occurrence of a pair is new
    assert f.add_hashed(h1, h2).tolist() == [True, True, True, False, False, True]
    assert f.add_hashed(h1, h2).tolist() == [False] * 6
    assert f.contains_hashed(h1, h2).all()
    assert f.n_added == 4
    assert f.marginal_fpr() == 0.0
    assert f.count_estimate() == 4.0  # exact, not an estimate


@pytest.mark.parametrize("layout", ["classic", "blocked", "split", "exact"])
def test_marginal_fpr_takes_n_items(layout):
    """Every layout answers marginal_fpr(n_items) for a load other than its
    own; only the exact set stays at zero under load."""
    from streammd_ray.sketches.bloom import (
        BlockedBloomFilter,
        BloomFilter,
        ExactSetFilter,
        SplitBlockBloomFilter,
    )

    cls = {
        "classic": BloomFilter,
        "blocked": BlockedBloomFilter,
        "split": SplitBlockBloomFilter,
        "exact": ExactSetFilter,
    }[layout]
    f = cls(1e-6, 10_000)
    assert f.marginal_fpr(n_items=0) == 0.0
    loaded = f.marginal_fpr(n_items=10**6)
    assert loaded == 0.0 if layout == "exact" else loaded > 1e-3
    assert f.marginal_fpr() == 0.0  # nothing inserted yet


def test_exact_set_never_false_positive_bulk():
    """10^5 random inserts, 10^5 disjoint probes: zero false positives —
    the property no probabilistic layout can offer."""
    f = _f(n=200_000)
    rng = np.random.default_rng(3)
    ins1 = rng.integers(0, 2**63, 100_000).astype(np.uint64)
    ins2 = rng.integers(0, 2**63, 100_000).astype(np.uint64)
    f.add_hashed(ins1, ins2)
    probe1 = ins1 + np.uint64(2**63)  # disjoint key space
    assert not f.contains_hashed(probe1, ins2).any()
    # buffer + main both populated across many small batches
    g = _f(n=200_000)
    for s in range(0, 100_000, 1_373):
        g.add_hashed(ins1[s : s + 1_373], ins2[s : s + 1_373])
    assert g.n_added == f.n_added
    assert g.contains_hashed(ins1, ins2).all()
    assert not g.contains_hashed(probe1, ins2).any()


def test_exact_set_scalar_api_and_serde():
    f = _f()
    assert f.add("hello") is True
    assert f.add("hello") is False
    assert f.contains("hello") and not f.contains("other")
    import pickle

    g = pickle.loads(pickle.dumps(f))
    assert g.contains("hello") and g.n_added == 1


def test_exact_set_merge_associative():
    from streammd_ray.sketches.bloom import ExactSetFilter

    rng = np.random.default_rng(11)
    parts = []
    for i in range(3):
        f = _f()
        f.add_hashed(
            rng.integers(0, 2**62, 500).astype(np.uint64),
            rng.integers(0, 2**62, 500).astype(np.uint64),
        )
        parts.append(pickle_roundtrip(f))
    import pickle as pk

    a = pk.loads(pk.dumps(parts[0])).merge(parts[1]).merge(parts[2])
    b = pk.loads(pk.dumps(parts[2])).merge(parts[0]).merge(parts[1])
    assert a.n_added == b.n_added
    assert np.array_equal(a._main, b._main)


def pickle_roundtrip(x):
    import pickle

    return pickle.loads(pickle.dumps(x))


def test_exact_layout_marks_identically_to_bloom(ray_session, tmp_path):
    """mark_duplicates with bloom_layout='exact' must mark the same rows as
    the probabilistic layouts at test scale (where p=1e-9 means the Bloom
    answer is effectively exact too)."""
    import pyarrow as pa
    import ray.data as rd

    from streammd_ray.pipelines.mark_duplicates import mark_duplicates

    rng = np.random.default_rng(5)
    n = 4_000
    texts = [f"text-{int(i)}" for i in rng.integers(0, 2_500, n)]
    df = pd.DataFrame(
        {
            "conv_id": [f"c{i % 37}" for i in range(n)],
            "turn_idx": np.arange(n, dtype=np.int32) % 108,
            "role": ["user"] * n,
            "text": texts,
            "tool": [None] * n,
            "ts": pd.to_datetime(["2025-06-01"] * n),
        }
    )
    t = pa.Table.from_pandas(df, preserve_index=False)
    res_exact = mark_duplicates(
        rd.from_arrow(t), p=1e-9, num_shards=4, materialize=True,
        bloom_layout="exact",
    )
    res_split = mark_duplicates(
        rd.from_arrow(t), p=1e-9, num_shards=4, materialize=True,
        bloom_layout="split",
    )
    a = res_exact.marked.to_pandas().sort_values(["conv_id", "turn_idx"])
    b = res_split.marked.to_pandas().sort_values(["conv_id", "turn_idx"])
    assert a["is_duplicate"].tolist() == b["is_duplicate"].tolist()
    assert int(a["is_duplicate"].sum()) == n - 2_500 or int(
        a["is_duplicate"].sum()
    ) == n - len(set(texts))
    # capacity report: fpr 0, fill vs the 16-bytes/key budget
    rep = res_exact.check_capacity(allow_overcapacity=True)
    assert rep["max_marginal_fpr"] == 0.0
