"""Regression tests for the round-1 ADVICE findings."""

import numpy as np
import pytest


def _add(sh, h1, h2, batch_key=None):
    """``_BloomHost.add`` with its packed reply unpacked to was_new, as the
    mark stage reads it."""
    return np.unpackbits(sh.add(h1, h2, batch_key), count=len(h1)).view(bool)


def test_shard_distinct_identical_batches_both_insert():
    """Two genuinely distinct batches with byte-identical content (e.g. a
    byte-copied input file) must BOTH insert — only a true task retry (same
    batch_key) replays the cached verdict."""
    from streammd_ray.stages.dedup import _BloomHost

    sh = _BloomHost(1e-6, m=2**18, k=10)
    h1 = np.array([11, 22, 33, 11], dtype=np.uint64)
    h2 = np.array([5, 6, 7, 5], dtype=np.uint64)

    first = _add(sh, h1, h2, b"task-A:0")
    assert first.tolist() == [True, True, True, False]
    # identical content, different physical batch -> all previously seen
    second = _add(sh, h1, h2, b"task-B:0")
    assert second.tolist() == [False, False, False, False]
    assert sh.dups == 1 + 4
    assert sh.keys_seen == 8

    # true retry: same batch_key replays the original verdict, counters
    # unchanged
    replay = _add(sh, h1, h2, b"task-A:0")
    assert replay.tolist() == first.tolist()
    assert sh.dups == 5
    assert sh.keys_seen == 8


def test_shard_load_drops_replay_cache():
    """A batch_key replayed after ``load`` must insert into the loaded
    filter, not return the verdict cached against the replaced one."""
    from streammd_ray.stages.dedup import _BloomHost

    sh = _BloomHost(1e-6, m=2**18, k=10)
    empty = _BloomHost(1e-6, m=2**18, k=10).state()
    h1 = np.array([11, 22], dtype=np.uint64)
    h2 = np.array([5, 6], dtype=np.uint64)
    assert _add(sh, h1, h2, b"task-A:0").tolist() == [True, True]
    sh.load(empty)
    assert _add(sh, h1, h2, b"task-A:0").tolist() == [True, True]
    assert sh.keys_seen == 2
    assert sh.bf.contains_hashed(h1, h2).all()


def test_shard_replay_cache_evicts_oldest_first(monkeypatch):
    """The replay cache keeps ``_CACHE_MAX`` packed replies and evicts in
    LRU order: a replay refreshes its entry, the coldest entry goes first,
    and a replay of a cached batch returns its original verdicts with
    counters unchanged."""
    from streammd_ray.stages.dedup import _BloomHost

    sh = _BloomHost(1e-6, m=2**18, k=10)
    rng = np.random.default_rng(3)
    batches = [rng.integers(1, 2**63, (2, 64), dtype=np.uint64) for _ in range(4)]
    monkeypatch.setattr(sh, "_CACHE_MAX", 3)
    first = [_add(sh, h1, h2, b"b%d" % i) for i, (h1, h2) in enumerate(batches[:3])]
    assert list(sh._cache) == [b"b0", b"b1", b"b2"]
    # the cache holds the packed replies: 64 verdicts in 8 bytes
    assert all(v.nbytes == 8 for v in sh._cache.values())
    # a replay within the cap returns the original verdicts, inserts nothing
    assert _add(sh, *batches[0], b"b0").tolist() == first[0].tolist()
    assert (sh.keys_seen, sh.dups) == (3 * 64, 0)
    _add(sh, *batches[3], b"b3")  # over the cap: evicts b1, the coldest
    assert list(sh._cache) == [b"b2", b"b0", b"b3"]
    # the evicted batch is no longer a replay: it inserts again, all seen
    assert not _add(sh, *batches[1], b"b1").any()
    assert list(sh._cache) == [b"b0", b"b3", b"b1"]


def test_host_counts_a_retry_of_an_evicted_batch(monkeypatch):
    """A retry's call (attempt > 0) counts a replay miss only when its batch
    key was evicted from the replay cache: a key never sent is a batch the
    failed attempt died before, exact on its first insert, even after other
    entries were evicted. A miss counts once per call in the host's
    ``replay_misses`` and once in each partition its keys touched. Each
    call counts in ``calls``/``keys``/``add_s``."""
    from streammd_ray.stages.dedup import _BloomHost

    sh = _BloomHost(1e-6, m=2**18, k=10, num_parts=2)
    monkeypatch.setattr(sh, "_CACHE_MAX", 1)  # 2 entries: 1 per partition
    rng = np.random.default_rng(4)
    a, b, c, d = (rng.integers(1, 2**63, (2, 32), dtype=np.uint64) for _ in range(4))
    sh.add(*a, b"a", 0)
    sh.add(*b, b"b", 0)
    sh.add(*c, b"c", 0)  # evicts a
    assert list(sh._cache) == [b"b", b"c"]
    sh.add(*d, b"d", 1)  # never sent before: a first insert, no miss
    stats = sh.stats()
    assert stats["replay_misses"] == 0
    assert [p["replay_misses"] for p in stats["partitions"]] == [0, 0]
    again = sh.add(*a, b"a", 1)  # a's verdicts were evicted: inserted again
    assert not np.unpackbits(again, count=32).any()
    stats = sh.stats()
    assert stats["replay_misses"] == 1  # one call, keys of both partitions
    assert [p["replay_misses"] for p in stats["partitions"]] == [1, 1]
    assert (stats["calls"], stats["keys"]) == (5, 5 * 32) and stats["add_s"] > 0


def test_mark_stage_batch_key_distinguishes_ordinals():
    from streammd_ray.stages.dedup import BloomMarkStage

    stage = BloomMarkStage([])
    h = np.array([1, 2, 3], dtype=np.uint64)
    k1 = stage._batch_key(h)
    k2 = stage._batch_key(h)  # same content, next ordinal in the same task
    assert k1 != k2


def test_tdigest_nan_values_keep_weight_alignment():
    from streammd_ray.sketches.tdigest import TDigest

    td = TDigest()
    # NaN at position 0: its weight must be dropped WITH it, so the value
    # 100.0 keeps weight 1000 (the round-1 bug paired 100.0 with weight 1)
    td.insert_batch(
        np.array([np.nan, 100.0, 0.0]), weights=np.array([1.0, 1000.0, 1.0])
    )
    assert abs(td.quantile(0.5) - 100.0) < 0.5
    assert td.total == pytest.approx(1001.0)


def test_tdigest_weight_length_mismatch_raises():
    from streammd_ray.sketches.tdigest import TDigest

    td = TDigest()
    with pytest.raises(ValueError, match="length"):
        td.insert_batch(np.array([1.0, 2.0]), weights=np.array([1.0]))


def test_checkpoint_resume_restores_counters(ray_session, tmp_path):
    """Resumed runs must report true keys_seen/dups, not zeros."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from streammd_ray.state.checkpoint import run_flagship_checkpointed

    files = []
    for i in range(4):
        t = pa.table(
            {
                "conv_id": [f"c{i}"] * 4,
                "turn_idx": list(range(4)),
                "role": ["user"] * 4,
                "text": [f"t{i}-{j}" for j in range(2)] + ["dup", "dup"],
                "ts": pa.array([0, 1, 2, 3], pa.timestamp("us")),
                "tool": [None] * 4,
            }
        )
        path = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(t, path)
        files.append(path)

    ckpt = str(tmp_path / "ckpt")
    out = str(tmp_path / "out")
    m1, _ = run_flagship_checkpointed(
        files[:2],
        ckpt_dir=ckpt + "-a",
        output_dir=out + "-a",
        wave_size=1,
        mem="1MiB",
        num_shards=2,
    )
    assert m1["metrics"]["TURNS"] == 8

    # two-phase run against ONE ckpt dir: first wave only (simulate by
    # running all; then resume and confirm counters survive the reload)
    m2, _ = run_flagship_checkpointed(
        files, ckpt_dir=ckpt, output_dir=out, wave_size=2, mem="1MiB", num_shards=2
    )
    # the manifest holds the partitions' running counters, which a resume
    # loads into the hosts beside the last snapshot
    counters = m2["partitions"]
    assert len(counters) == 2
    assert sum(c["keys_seen"] for c in counters) == 16
    assert sum(c["dups"] for c in counters) == m2["metrics"]["TURNS_MARKED_DUPLICATE"]


# ---------------------------------------------------------------------------
# round-2 ADVICE findings
# ---------------------------------------------------------------------------


def test_mark_stage_retry_resets_ordinal(monkeypatch):
    """A same-process task retry (same task id, bumped attempt number) must
    restart its ordinal at 0 so its batch_keys replay the shard cache; the
    round-2 bug left the ordinal counter running, producing fresh keys that
    re-inserted every key and self-marked the retried rows."""
    import streammd_ray.stages.dedup as dd
    from streammd_ray.stages.dedup import BloomMarkStage

    stage = BloomMarkStage([])
    h = np.array([1, 2, 3], dtype=np.uint64)

    ident = {"v": ("task-X", 0)}
    monkeypatch.setattr("streammd_ray._runtime.task_identity", lambda: ident["v"])
    k_a0_b0 = stage._batch_key(h)
    k_a0_b1 = stage._batch_key(h)
    assert k_a0_b0 != k_a0_b1

    # retry: same task id, attempt 1 — keys must MATCH attempt 0's
    ident["v"] = ("task-X", 1)
    assert stage._batch_key(h) == k_a0_b0
    assert stage._batch_key(h) == k_a0_b1

    # a different task never collides
    ident["v"] = ("task-Y", 0)
    assert stage._batch_key(h) != k_a0_b0


def test_sketch_tail_retry_overwrites_parts(monkeypatch, tmp_path):
    """A same-process retry of a sink task must not leave the first
    attempt's part files beside its own (silent row duplication)."""
    import pickle

    import pyarrow as pa

    from streammd_ray.pipelines.flagship import SketchTail

    tail = SketchTail(pickle.dumps({}), output_dir=str(tmp_path))
    batch = pa.table({"text": ["a", "b"], "is_duplicate": [False, True]})

    ident = {"v": ("t" * 20, 0)}
    monkeypatch.setattr(
        "streammd_ray._runtime.task_identity", lambda: ident["v"]
    )
    tail(batch)
    tail(batch)  # attempt 0 writes ordinals 0 and 1
    names0 = sorted(p.name for p in tmp_path.glob("*.parquet"))
    assert len(names0) == 2

    ident["v"] = ("t" * 20, 1)  # same-process retry, writes only ONE batch
    tail(batch)
    names1 = sorted(p.name for p in tmp_path.glob("*.parquet"))
    # stale attempt-0 parts were removed; only the retry's ordinal-0 remains
    assert names1 == [names0[0]]


def test_sketch_tail_retry_sweeps_stale_tmp_part(monkeypatch, tmp_path):
    """An attempt that dies between writing a part's ``.tmp`` and renaming
    it leaves the ``.tmp`` behind; the retry must delete it too, or the wave
    commits it and a parquet read counts its rows as data."""
    import pickle

    import pyarrow as pa
    import pyarrow.parquet as pq

    from streammd_ray.pipelines.flagship import SketchTail

    tail = SketchTail(pickle.dumps({}), output_dir=str(tmp_path))
    batch = pa.table({"text": ["a", "b"], "is_duplicate": [False, True]})

    ident = {"v": ("t" * 20, 0)}
    monkeypatch.setattr("streammd_ray._runtime.task_identity", lambda: ident["v"])
    tail(batch)  # attempt 0 commits ordinal 0, then dies writing ordinal 1
    pq.write_table(batch, str(tmp_path / f"part-{'t' * 16}-00001.parquet.tmp"))

    ident["v"] = ("t" * 20, 1)
    tail(batch)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"part-{'t' * 16}-00000.parquet"
    ]
    assert pq.ParquetDataset(str(tmp_path)).read().num_rows == 2


def test_quantiles_int64_exact_above_2_53(ray_session):
    """int64 columns must not round-trip through float64: distinct values
    above 2^53 (collapsing under float) stay exact."""
    import pyarrow as pa
    import ray.data as rd

    from streammd_ray.stages.quantiles import exact_quantile_select

    base = 2**60
    # 1001 consecutive int64 values — ALL collapse to the same float64
    v = np.arange(base, base + 1001, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"x": v})).repartition(4)
    got = exact_quantile_select(ds, "x", (0.5,))
    assert got == [base + 500]  # exact int, not a float-rounded neighbor


def test_key_spec_passthrough_mismatch_raises(ray_session):
    """An already-keyed dataset is refused: the engine dedups only on keys
    it derived itself, never on stored __key_h1/__key_h2 columns."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from streammd_ray.stages.dedup import add_key_columns

    t = pa.table({"text": ["a", "b", "c", "a"], "other": ["x", "y", "z", "x"]})
    hashed = add_key_columns(rd.from_arrow(t), ("text",)).materialize()
    assert hashed.count() == 4

    for key_cols in (("text",), ("other",)):
        with pytest.raises(Exception, match="reserved columns __key_h1/__key_h2"):
            add_key_columns(hashed, key_cols).materialize()

