"""Bloom partitions are not processes: P partitions fix the filter, H host
actors hold them (``state/shards.py``). H follows the cluster's CPUs and
changes nothing a pass computes."""

import numpy as np
import pytest
import ray
import ray.data as rd

import streammd_ray.context as context
from streammd_ray.pipelines import run_flagship
from streammd_ray.sketches import BloomFilter, PartitionedBloomFilter
from streammd_ray.state.shards import (
    _BloomHost,
    host_count,
    make_shard_actors,
    shard_geometry,
)


@pytest.mark.parametrize(
    "parts, cpus, hosts",
    [(8, 1, 1), (8, 3, 2), (8, 4, 4), (8, 64, 8), (5, 4, 1), (6, 4, 3), (1, 4, 1)],
)
def test_host_count_is_the_largest_divisor_within_the_cpus(
    monkeypatch, parts, cpus, hosts
):
    monkeypatch.setattr(context, "cluster_cpus", lambda: cpus)
    assert host_count(parts) == hosts


def test_one_cpu_view_starts_one_host(settled_new_shards, monkeypatch):
    """``make_shard_actors(8)`` on a 1-CPU cluster starts one process
    holding all 8 partitions."""
    monkeypatch.setattr(context, "cluster_cpus", lambda: 1)
    hosts = make_shard_actors(8, mem="1MiB")
    try:
        assert len(hosts) == 1
        (stats,) = ray.get([h.stats.remote() for h in hosts])
        assert stats["parts"] == list(range(8)) and len(stats["partitions"]) == 8
    finally:
        for h in hosts:
            ray.kill(h)
    spawned = settled_new_shards()
    assert len(spawned) == 1 and set(spawned.values()) == {"DEAD"}


def test_misrouted_key_is_refused():
    """A host refuses a key of a partition it does not hold, before it
    inserts anything."""
    m, k = shard_geometry("64KiB", 2)
    host = _BloomHost(1e-6, m=m, k=k, num_parts=2, parts=[0])
    even = np.array([2, 4], dtype=np.uint64)
    host.add(even, even + np.uint64(1))
    with pytest.raises(ValueError, match="key of partition 1 sent to a filter"):
        host.add(np.array([6, 7], dtype=np.uint64), np.array([1, 1], dtype=np.uint64))
    part = host.stats()["partitions"][0]
    assert (part["keys_seen"], part["n_added"]) == (2, 2)
    with pytest.raises(ValueError, match="partition 1 is not one of"):
        host.bf.partition(1)


def test_partitioned_filter_roundtrips_and_merges():
    """The host layout decodes as a ``BloomFilter``, keeps its partitions'
    counts and bits, and merges partition by partition."""
    rng = np.random.default_rng(5)
    h1, h2 = (rng.integers(1, 2**63, 4_000, dtype=np.uint64) for _ in range(2))
    a = PartitionedBloomFilter(1e-6, m=2**16, k=10, num_parts=4, parts=[1, 3])
    sel = (h1 % np.uint64(4)) % np.uint64(2) == 1
    assert a.add_hashed(h1[sel], h2[sel]).all()
    back = BloomFilter.from_bytes(a.to_bytes())
    assert type(back) is PartitionedBloomFilter and back.parts == (1, 3)
    assert back.n_added == a.n_added == int(sel.sum())
    assert np.array_equal(back._bits, a._bits) and back.m == 2 * 2**16
    assert back.contains_hashed(h1[sel], h2[sel]).all()
    empty = a.empty()
    assert empty.merge(back).count_bits_set() == a.count_bits_set()
    with pytest.raises(ValueError, match="incompatible"):
        empty.merge(PartitionedBloomFilter(1e-6, m=2**16, k=10, num_parts=4))


def _filter_bits(hosts) -> dict:
    """Partition id → its filter's bit array, decoded from the hosts."""
    out = {}
    for states in ray.get([h.partition_states.remote() for h in hosts]):
        out.update({j: BloomFilter.from_bytes(b)._bits for j, b in states.items()})
    return out


@pytest.mark.parametrize("layout", ["classic", "split"])
def test_one_host_sets_the_bits_of_one_host_per_partition(
    ray_session, tmp_path, monkeypatch, layout
):
    """One pass over the same input through 1 host and through P = 4 hosts:
    the same filter bits per partition (compared as arrays), the same
    per-partition stats, counters and metrics."""
    from streammd_ray.sources import generate_transcripts

    paths = generate_transcripts(
        str(tmp_path / "gen"), n_turns=8_000, seed=37, dup_frac=0.3, n_files=4
    )
    runs = {}
    for cpus in (1, 4):
        monkeypatch.setattr(context, "cluster_cpus", lambda: cpus)
        hosts = make_shard_actors(4, p=1e-9, mem="1MiB", layout=layout)
        try:
            res = run_flagship(rd.read_parquet(paths), p=1e-9, shards=hosts)
            runs[cpus] = (len(hosts), res, _filter_bits(hosts))
        finally:
            for h in hosts:
                ray.kill(h)
    (n1, one, bits1), (n4, four, bits4) = runs[1], runs[4]
    assert (n1, n4) == (1, 4)
    assert [h["parts"] for h in one.hosts] == [[0, 1, 2, 3]]
    assert sorted(bits1) == sorted(bits4) == [0, 1, 2, 3]
    for j in range(4):
        assert np.array_equal(bits1[j], bits4[j])
    assert one.shard_stats == four.shard_stats
    assert one.counters == four.counters
    assert one.metrics() == four.metrics()
    assert one.config == four.config and one.config["num_shards"] == 4
    assert sum(h["keys"] for h in one.hosts) == sum(h["keys"] for h in four.hosts)
    assert sum(h["keys"] for h in one.hosts) == sum(
        s["keys_seen"] for s in one.shard_stats
    )
