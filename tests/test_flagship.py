"""Fused flagship pipeline: counters/metrics vs ground truth, sketch
estimates within bounds, single-pass write + sketch consistency."""

import glob

import pyarrow as pa
import pytest
import ray
import ray.data as rd

from streammd_ray.pipelines import run_flagship
from streammd_ray.sources import generate_transcripts
from streammd_ray.state.shards import host_count, partition_stats


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("flagdata"))
    paths, truth = generate_transcripts(
        out, n_turns=15_000, seed=31, dup_frac=0.3, return_truth=True
    )
    return out, truth.to_pandas()


def test_flagship_counters_and_sketches(ray_session, data):
    path, truth = data
    out = run_flagship(rd.read_parquet(path), p=1e-9, num_shards=4)
    assert out.counters["turns"] == len(truth)
    assert out.counters["nulls"] == int(truth["text"].isna().sum())
    assert out.counters["dups"] == int(truth["is_duplicate"].sum())
    true_convs = truth["conv_id"].nunique()
    hll = out.sketches["convs_hll"]
    assert abs(hll.estimate() - true_convs) / true_convs < 4 * hll.relative_error
    # length quantiles within rank bounds
    lens = truth["text"].str.len().fillna(0).to_numpy()
    for q in (0.5, 0.9):
        for name in ("len_tdigest", "len_kll"):
            est = out.sketches[name].quantile(q)
            # two-sided rank interval: lengths are heavily tied, so the
            # one-sided rank jumps at tied values
            r_lo, r_hi = (lens < est).mean(), (lens <= est).mean()
            assert r_lo - 0.03 <= q <= r_hi + 0.03, (name, q, r_lo, r_hi)
    m = out.metrics()
    assert m["TURNS"] == len(truth)
    assert m["TURNS_MARKED_DUPLICATE"] == int(truth["is_duplicate"].sum())
    assert out.config["key_cols"] == ("text",) and "scope" not in out.config


def test_key_cols_is_the_one_key_spec(tmp_path):
    """Neither pass takes a ``scope`` keyword: a per-conversation key is
    ``key_cols=("text", "conv_id")``."""
    from streammd_ray.state.checkpoint import run_flagship_checkpointed

    with pytest.raises(TypeError, match="scope"):
        run_flagship(None, scope="conversation")
    with pytest.raises(TypeError, match="scope"):
        run_flagship_checkpointed(
            [], ckpt_dir=str(tmp_path), output_dir=str(tmp_path), scope="global"
        )


def test_flagship_with_output_dir(ray_session, data, tmp_path):
    path, truth = data
    outdir = str(tmp_path / "marked")
    out = run_flagship(
        rd.read_parquet(path), p=1e-9, num_shards=4, output_dir=outdir
    )
    files = glob.glob(outdir + "/*.parquet")
    assert files
    written = rd.read_parquet(outdir).to_pandas()
    assert len(written) == len(truth)
    # the written marks agree with the counters from the same pass
    assert int(written["is_duplicate"].sum()) == out.counters["dups"]


def _shard_states() -> dict:
    return {
        aid: a["State"]
        for aid, a in ray._private.state.actors().items()
        if a["ActorClassName"] == "_BloomHost"
    }


def test_raising_pass_kills_its_shards(settled_new_shards):
    """A pass that raises (here: an input carrying the reserved key column)
    kills the shards it spawned, even those still starting."""
    ds = rd.from_arrow(pa.table({"text": ["a", "b"], "__key_h1": [1, 2]}))
    with pytest.raises(Exception, match="reserved columns"):
        run_flagship(ds, mem="64KiB", num_shards=2)
    spawned = settled_new_shards()
    assert len(spawned) == host_count(2)
    assert set(spawned.values()) == {"DEAD"}


def test_caller_shards_survive_and_take_a_second_pass(ray_session, data):
    """Shards a caller passes stay alive and report their post-pass stats;
    reloaded with an empty filter, they give a second pass identical
    counters (perfbench's reuse of one shard set across jobs)."""
    from streammd_ray.stages.dedup import make_shard_actors

    path, truth = data
    shards = make_shard_actors(2, p=1e-9, mem="1MiB", layout="split")
    try:
        empty = ray.get(shards[0].state.remote())
        first = run_flagship(rd.read_parquet(path), p=1e-9, shards=shards)
        states = _shard_states()
        assert {states[s._actor_id.hex()] for s in shards} == {"ALIVE"}
        hosts = ray.get([s.stats.remote() for s in shards])
        assert first.hosts == [
            {k: v for k, v in h.items() if k != "partitions"} for h in hosts
        ]
        assert first.shard_stats == partition_stats(hosts)
        assert len(first.shard_stats) == first.config["num_shards"] == 2
        assert sum(s["keys_seen"] for s in first.shard_stats) == int(
            truth["text"].notna().sum()
        )
        assert first.counters["dups"] == int(truth["is_duplicate"].sum())

        ray.get([s.load.remote(empty) for s in shards])
        second = run_flagship(rd.read_parquet(path), p=1e-9, shards=shards)
        assert second.counters == first.counters
        assert second.shard_stats == first.shard_stats
    finally:
        for s in shards:
            ray.kill(s)
