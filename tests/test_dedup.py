"""Dedup pipelines: bloom-marked output vs generator ground truth and vs the
exact-dedup oracle — the engine's analog of the reference's golden-file
conformance (SURVEY.md §5 layers 3-4; acceptance criteria §7.4)."""

from types import SimpleNamespace

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd
from ray.data._internal.logical.operators.all_to_all_operator import Sort

from streammd_ray.pipelines import CapacityExceeded, run_flagship
from streammd_ray.sources import generate_transcripts
from streammd_ray.stages import dedup_exact_first


@pytest.fixture(scope="module")
def fixture_table(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("transcripts"))
    paths, truth = generate_transcripts(
        out, n_turns=20_000, seed=17, dup_frac=0.3, null_frac=0.03, return_truth=True
    )
    return out, truth.to_pandas()


def _labels(df: pd.DataFrame) -> pd.Series:
    return df.sort_values(["conv_id", "turn_idx"]).set_index(["conv_id", "turn_idx"])[
        "is_duplicate"
    ]


def test_bloom_mark_counts_match_truth(flagship_marked, fixture_table):
    """Arrival order varies, but the *set* sizes are deterministic: exactly
    one survivor per distinct key ⇒ dup count == truth dup count (p tiny)."""
    path, truth = fixture_table
    _, got = flagship_marked(rd.read_parquet(path), p=1e-9, num_shards=4)
    assert len(got) == len(truth)
    assert got["is_duplicate"].sum() == truth["is_duplicate"].sum()
    # null texts are never marked
    assert not got.loc[got["text"].isna(), "is_duplicate"].any()
    # per-key invariant: every distinct text keeps exactly one non-dup row
    nn = got[got["text"].notna()]
    survivors = nn[~nn["is_duplicate"]].groupby("text").size()
    assert (survivors == 1).all()
    assert set(nn["text"]) == set(survivors.index)


def test_bloom_metrics(flagship_marked, fixture_table):
    path, truth = fixture_table
    res, marked = flagship_marked(rd.read_parquet(path), p=1e-9, num_shards=4)
    m = res.metrics()
    assert m["TURNS"] == len(truth)
    assert m["TURNS_NULL_TEXT"] == int(truth["text"].isna().sum())
    assert m["TURNS_MARKED_DUPLICATE"] == int(truth["is_duplicate"].sum())
    # exact in the part files; the ridden HLL's estimate within its bound
    true_convs = truth["conv_id"].nunique()
    assert marked["conv_id"].nunique() == true_convs
    hll = res.sketches["convs_hll"]
    assert abs(m["CONVERSATIONS"] - true_convs) / true_convs < 4 * hll.relative_error
    denom = m["TURNS"] - m["TURNS_NULL_TEXT"]
    assert m["TURN_DUPLICATE_FRACTION"] == round(m["TURNS_MARKED_DUPLICATE"] / denom, 4)


def test_exact_first_matches_truth_rowwise(ray_session, fixture_table):
    """dedup_exact_first is fully deterministic: row-level labels equal the
    generator's first-seen-wins ground truth."""
    path, truth = fixture_table
    out = dedup_exact_first(rd.read_parquet(path)).to_pandas()
    got, want = _labels(out), _labels(truth)
    assert got.equals(want)


def test_exact_first_keeps_input_schema(ray_session, fixture_table):
    """The output is the input's columns with their Arrow types (int32
    turn_idx, timestamp[us] ts) plus is_duplicate, and no pandas schema
    metadata: the partitions never go through pandas."""
    path, _ = fixture_table
    ds = rd.read_parquet(path)
    schema = ds.schema().base_schema
    assert schema.field("turn_idx").type == pa.int32()
    assert schema.field("ts").type == pa.timestamp("us")
    blocks = [
        b
        for b in dedup_exact_first(ds).iter_batches(
            batch_format="pyarrow", batch_size=None
        )
        if b.num_rows
    ]
    want = schema.append(pa.field("is_duplicate", pa.bool_()))
    assert blocks
    for b in blocks:
        assert b.schema.equals(want, check_metadata=True), b.schema


def test_exact_first_default_partitions_grow_with_input(ray_session, monkeypatch):
    """Without num_partitions, the count comes from the input's in-memory
    size estimate, read from the plan without executing it."""
    from streammd_ray import context

    monkeypatch.setattr(context, "TARGET_PARTITION_BYTES", 1 << 16)

    def reducers(n_rows):
        t = pa.table(
            {
                "conv_id": [f"c{i}" for i in range(n_rows)],
                "turn_idx": pa.array(np.zeros(n_rows), pa.int32()),
                "text": ["x" * 100] * n_rows,
            }
        )
        op = dedup_exact_first(rd.from_arrow(t))._logical_plan.dag
        while not isinstance(op, Sort):
            (op,) = op.input_dependencies
        return len(op._sort_key.boundaries) + 1, t.nbytes

    n_small, _ = reducers(100)
    n_large, bytes_large = reducers(40_000)
    assert n_small == context.auto_num_partitions()  # the CPU-based floor
    assert n_large == bytes_large // (1 << 16) + 1 > n_small


def test_remove_duplicates(ray_session, fixture_table, tmp_path):
    path, truth = fixture_table
    out = str(tmp_path / "out")
    res = run_flagship(
        rd.read_parquet(path),
        p=1e-9,
        num_shards=4,
        output_dir=out,
        remove_duplicates=True,
    )
    kept = pq.ParquetDataset(out).read().to_pandas()
    n_nonnull_distinct = truth.loc[truth["text"].notna(), "text"].nunique()
    n_null = int(truth["text"].isna().sum())
    assert len(kept) == n_nonnull_distinct + n_null
    assert not kept["is_duplicate"].any()


def test_strip_previous_semantics(flagship_marked):
    """Pre-marked non-duplicates: kept marked by default, cleared with
    strip_previous (reference src/markdups.cxx:126-130 behaviour)."""
    import pyarrow as pa

    rows = pd.DataFrame(
        {
            "conv_id": ["c1"] * 4,
            "turn_idx": np.arange(4, dtype=np.int32),
            "role": ["user"] * 4,
            "text": ["a", "b", "a", "c"],
            "tool": [None] * 4,
            "ts": pd.to_datetime(["2025-01-01"] * 4),
            # rows 1 ('b') and 3 ('c') carry stale marks; row 2 is a real dup
            "is_duplicate": [False, True, False, True],
        }
    )
    ds = rd.from_arrow(pa.Table.from_pandas(rows, preserve_index=False))
    # default: stale marks survive, real dup added
    _, marked = flagship_marked(ds, p=1e-9, num_shards=2)
    got = marked.sort_values("turn_idx")["is_duplicate"].tolist()
    assert got == [False, True, True, True]
    # strip_previous: only the real dup stays marked
    ds2 = rd.from_arrow(pa.Table.from_pandas(rows, preserve_index=False))
    _, marked2 = flagship_marked(ds2, p=1e-9, num_shards=2, strip_previous=True)
    got2 = marked2.sort_values("turn_idx")["is_duplicate"].tolist()
    assert got2 == [False, False, True, False]


def test_scope_conversation(flagship_marked):
    """Per-conversation key (text, conv_id): same text in two conversations
    is NOT a dup; within one conversation it is."""
    import pyarrow as pa

    rows = pd.DataFrame(
        {
            "conv_id": ["c1", "c1", "c2", "c2"],
            "turn_idx": np.array([0, 1, 0, 1], dtype=np.int32),
            "role": ["user"] * 4,
            "text": ["same", "same", "same", "other"],
            "tool": [None] * 4,
            "ts": pd.to_datetime(["2025-01-01"] * 4),
        }
    )
    ds = rd.from_arrow(pa.Table.from_pandas(rows, preserve_index=False))
    _, marked = flagship_marked(
        ds, key_cols=("text", "conv_id"), p=1e-9, num_shards=2
    )
    got = marked.sort_values(["conv_id", "turn_idx"])
    assert got["is_duplicate"].tolist() == [False, True, False, False]


def test_scope_conversation_keeps_custom_key_cols(flagship_marked):
    """With key_cols=('tool', 'conv_id'), two turns of one conversation
    calling the same tool are duplicates whatever their text; the same tool
    in another conversation is not."""
    import pyarrow as pa

    rows = pd.DataFrame(
        {
            "conv_id": ["c1", "c1", "c2"],
            "turn_idx": np.array([0, 1, 0], dtype=np.int32),
            "role": ["tool"] * 3,
            "text": ["first", "second", "third"],
            "tool": ["tool-1"] * 3,
            "ts": pd.to_datetime(["2025-01-01"] * 3),
        }
    )
    ds = rd.from_arrow(pa.Table.from_pandas(rows, preserve_index=False))
    res, marked = flagship_marked(
        ds, key_cols=("tool", "conv_id"), p=1e-9, num_shards=2
    )
    got = marked.sort_values(["conv_id", "turn_idx"])
    assert res.config["key_cols"] == ("tool", "conv_id")
    assert got["is_duplicate"].tolist() == [False, True, False]


def test_capacity_guard(ray_session):
    import pyarrow as pa

    n = 5000
    rows = pd.DataFrame(
        {
            "conv_id": ["c"] * n,
            "turn_idx": np.arange(n, dtype=np.int32),
            "role": ["user"] * n,
            "text": [f"t{i}" for i in range(n)],
            "tool": [None] * n,
            "ts": pd.to_datetime(["2025-01-01"] * n),
        }
    )
    ds = rd.from_arrow(pa.Table.from_pandas(rows, preserve_index=False))
    # 4 KiB over 2 shards: 2^14 bits each, capacity ~1.1k keys at p=1e-3,
    # against ~2.5k keys per shard
    res = run_flagship(ds, p=1e-3, mem="4KiB", num_shards=2)
    with pytest.raises(CapacityExceeded):
        res.check_capacity()
    report = res.check_capacity(allow_overcapacity=True)
    assert report["overcapacity_shards"] == 2
    assert report["max_marginal_fpr"] > 1e-3


def test_shard_count_estimates(ray_session, fixture_table):
    # routing is h1 % P, so the shards own disjoint keys and the global
    # distinct estimate is the sum of the per-shard estimates
    path, truth = fixture_table
    res = run_flagship(rd.read_parquet(path), p=1e-6, mem="1MiB", num_shards=4)
    est = sum(s["count_estimate"] for s in res.shard_stats)
    true_distinct = truth.loc[truth["text"].notna(), "text"].nunique()
    assert abs(est - true_distinct) / true_distinct < 0.02



class _CountingShard:
    """Stand-in for a shard actor handle: ``add.remote`` runs a local
    ``_BloomHost.add`` and returns its reply as an object ref, as the actor
    call would, and records each call's key count."""

    def __init__(self, shard):
        self.shard = shard
        self.calls = []
        self.add = SimpleNamespace(remote=self._add)

    def _add(self, h1, h2, batch_key, attempt):
        self.calls.append(len(h1))
        return ray.put(self.shard.add(h1, h2, batch_key, attempt))


def test_shard_calls_stay_under_the_inline_limit(ray_session):
    """A shard's slice goes in ceil(n / MAX_KEYS_PER_CALL) near-equal calls
    (each uint64 array <= 96,000 B, under Ray's 100 KiB inline limit), with
    the marks of one call; a replayed batch hits the cache chunk by chunk."""
    from streammd_ray.hashing import hash_pair_batch
    from streammd_ray.stages.dedup import (
        KEY_H1,
        KEY_H2,
        MARK_COL,
        MAX_KEYS_PER_CALL,
        BloomMarkStage,
        _BloomHost,
        shard_geometry,
    )

    # keys 20,000..29,999 repeat keys of the first two chunks
    texts = pa.array([f"turn {j % 20_000}" for j in range(30_000)])
    h1, h2 = hash_pair_batch(texts)
    batch = pa.table(
        {
            "text": texts,
            KEY_H1: pa.array(h1.view(np.int64)),
            KEY_H2: pa.array(h2.view(np.int64)),
        }
    )
    m, k = shard_geometry("1MiB", 1, "classic")
    shard = _CountingShard(_BloomHost(1e-9, m=m, k=k))
    marks = BloomMarkStage([shard])(batch)[MARK_COL]
    assert shard.calls == [10_000] * 3
    assert max(shard.calls) <= MAX_KEYS_PER_CALL and MAX_KEYS_PER_CALL * 8 <= 96_000

    one_call = _BloomHost(1e-9, m=m, k=k).add(h1, h2)
    want = ~np.unpackbits(one_call, count=len(h1)).view(bool)
    assert marks.to_pylist() == want.tolist()
    assert int(want.sum()) == 10_000

    # a retried task rebuilds its stage, so its batch gets the original's
    # ordinal: every chunk replays from the cache, none inserts again
    again = BloomMarkStage([shard])(batch)[MARK_COL]
    assert again.equals(marks)
    assert shard.calls == [10_000] * 6
    assert shard.shard.keys_seen == 30_000
