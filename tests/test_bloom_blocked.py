"""Cache-line-blocked Bloom filter (sketches/bloom.py BlockedBloomFilter).

The blocked layout (Putze et al. 2007) is an opt-in alternative probe
geometry for the SAME dedup semantics — every behavioral test here mirrors
the classic filter's contract in tests/test_bloom.py, plus the blocked-
specific FPR model (Poisson mixture over block loads) and the layout-mixing
guard. No Ray needed: the filter is plain numpy.
"""

import numpy as np
import pytest

from streammd_ray.sketches import BlockedBloomFilter, BloomFilter
from streammd_ray.sketches.bloom import BLOCK_BITS


def _rand_hashes(n, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2**64, n, dtype=np.uint64),
        rng.integers(0, 2**64, n, dtype=np.uint64),
    )


def test_geometry_whole_cache_lines():
    bf = BlockedBloomFilter(1e-6, n=100_000)
    assert bf.m % BLOCK_BITS == 0
    assert bf.n_blocks == bf.m // BLOCK_BITS
    assert bf._bits.nbytes * 8 == bf.m
    # probe indices stay within one block per key — (n, k) key-major layout
    h1, h2 = _rand_hashes(1000, 1)
    idx = bf._indices(h1, h2)
    assert idx.shape == (1000, bf.k)
    assert (idx // BLOCK_BITS == (idx // BLOCK_BITS)[:, :1]).all(), (
        "all k probes of a key must land in its h1-selected block"
    )
    assert idx.max() < bf.m


def test_fnr_zero_and_first_occurrence_semantics():
    bf = BlockedBloomFilter(1e-6, m=8 * 2**20, k=10)
    h1, h2 = _rand_hashes(50_000, 2)
    assert bf.add_hashed(h1, h2).all()
    assert not bf.add_hashed(h1, h2).any()
    # within-batch repeats: only the first occurrence is new
    r = bf.add_hashed(
        np.concatenate([h1[:64], h1[:64]]), np.concatenate([h2[:64], h2[:64]])
    )
    assert not r.any()  # all were inserted already above
    bf2 = BlockedBloomFilter(1e-6, m=8 * 2**20, k=10)
    r2 = bf2.add_hashed(
        np.concatenate([h1[:64], h1[:64]]), np.concatenate([h2[:64], h2[:64]])
    )
    assert r2[:64].all() and not r2[64:].any()


def test_scalar_api_parity():
    bf = BlockedBloomFilter(1e-6, n=10_000)
    assert bf.add("hello")
    assert not bf.add("hello")
    assert bf.contains("hello")
    assert not bf.contains("definitely-not-inserted")
    assert bf.add_batch(["a", "b", "a", None]).tolist() == [True, True, False, False]


def test_fpr_matches_poisson_mixture_model():
    """Measured FPR must track the blocked model (Poisson mixture over block
    loads), which is itself worse than the classic formula at equal m — the
    documented cost of the cache-line layout."""
    bf = BlockedBloomFilter(1e-6, m=8 * 2**20, k=10)
    n_keys = 200_000
    bf.add_hashed(*_rand_hashes(n_keys, 3))
    q1, q2 = _rand_hashes(2_000_000, 4)
    measured = bf.contains_hashed(q1, q2).mean()
    predicted = bf.marginal_fpr(n_keys)
    classic = BloomFilter(1e-6, m=8 * 2**20, k=10).marginal_fpr(n_keys)
    assert predicted > classic  # blocked model honestly reports the penalty
    # 2M probes at ~1.3e-6 → a few hits; allow generous sampling slack but
    # catch any structured-collision floor (the linear-probe bug measured
    # 2.9e-4 here, >200x the model)
    assert measured <= max(10 * predicted, 1e-5)


def test_fpr_unaffected_by_shard_routing_bias():
    """Keys arriving at a Bloom shard share h1 mod P (the router's key) — the
    block selector must not reuse those bits or every key concentrates into
    1/P of the blocks (measured pre-fix: ~1e-3 FPR vs the ~e-7 model at the
    bench's fill). Simulates one shard of P=16: all h1 ≡ 5 (mod 16)."""
    rng = np.random.default_rng(13)
    n = 200_000
    h1 = rng.integers(0, 2**60, n, dtype=np.uint64) * np.uint64(16) + np.uint64(5)
    h2 = rng.integers(0, 2**64, n, dtype=np.uint64)
    bf = BlockedBloomFilter(1e-6, m=8 * 2**20, k=10)
    bf.add_hashed(h1, h2)
    # block occupancy must be spread over ~all blocks, not n_blocks/16
    blocks = np.unique(bf._indices(h1, h2)[:, 0] // BLOCK_BITS)
    assert len(blocks) > bf.n_blocks * 0.9
    q1 = rng.integers(0, 2**60, 2_000_000, dtype=np.uint64) * np.uint64(16) + np.uint64(5)
    q2 = rng.integers(0, 2**64, 2_000_000, dtype=np.uint64)
    measured = bf.contains_hashed(q1, q2).mean()
    assert measured <= max(10 * bf.marginal_fpr(n), 1e-5)


def test_count_estimate_tolerance():
    bf = BlockedBloomFilter(1e-6, m=8 * 2**20, k=10)
    n = 150_000
    bf.add_hashed(*_rand_hashes(n, 5))
    est = bf.count_estimate()
    # Swamidass–Baldi on the blocked layout: slight bias from in-block
    # collisions; 2% tolerance at this fill
    assert abs(est - n) / n < 0.02


def test_merge_or_semantics_and_layout_guard():
    a = BlockedBloomFilter(1e-6, m=2**20, k=8)
    b = BlockedBloomFilter(1e-6, m=2**20, k=8)
    h1a, h2a = _rand_hashes(5_000, 6)
    h1b, h2b = _rand_hashes(5_000, 7)
    a.add_hashed(h1a, h2a)
    b.add_hashed(h1b, h2b)
    union = BlockedBloomFilter.from_bytes(a.to_bytes()).merge(b)
    assert union.contains_hashed(h1b, h2b).all()
    assert union.contains_hashed(h1a, h2a).all()
    # classic and blocked filters of identical (m, k, seeds) must refuse to
    # merge — the bit layouts are incompatible
    from streammd_ray.sketches import SketchError

    with pytest.raises(SketchError):
        BloomFilter(1e-6, m=2**20, k=8).merge(a)


def test_serde_roundtrip_preserves_layout():
    bf = BlockedBloomFilter(1e-6, m=2**20, k=8)
    bf.add_hashed(*_rand_hashes(1_000, 8))
    back = BlockedBloomFilter.from_bytes(bf.to_bytes())
    assert isinstance(back, BlockedBloomFilter)
    assert back.kind == "bloom_blocked"
    assert np.array_equal(back._bits, bf._bits)
    assert np.array_equal(back._probe_mul, bf._probe_mul)
    h1, h2 = _rand_hashes(100, 9)
    assert np.array_equal(back._indices(h1, h2), bf._indices(h1, h2))


def test_probe_constants_deterministic():
    a = BlockedBloomFilter(1e-6, m=2**20, k=10)
    b = BlockedBloomFilter(1e-6, m=2**20, k=10)
    assert np.array_equal(a._probe_mul, b._probe_mul)
    h1, h2 = _rand_hashes(100, 10)
    assert np.array_equal(a._indices(h1, h2), b._indices(h1, h2))


def test_mark_duplicates_blocked_agrees_with_classic(ray_session, tmp_path):
    """mark_duplicates(bloom_blocked=True) end-to-end on generated data:
    identical metrics to the classic layout (at p=1e-9 neither layout can
    plausibly produce a false positive on 12k keys)."""
    from streammd_ray.pipelines import compute_metrics, mark_duplicates
    from streammd_ray.sources import generate_transcripts
    import ray.data as rd

    out = str(tmp_path / "gen")
    paths, truth = generate_transcripts(
        out, n_turns=12_000, seed=31, dup_frac=0.3, n_files=4, return_truth=True
    )
    truth = truth.to_pandas()
    metrics = {}
    for blocked in (False, True):
        res = mark_duplicates(
            rd.read_parquet(paths),
            p=1e-9,
            num_shards=4,
            materialize=True,
            bloom_blocked=blocked,
        )
        metrics[blocked] = compute_metrics(res.marked)
        res.release()
    assert metrics[True] == metrics[False]
    assert metrics[True]["TURNS_MARKED_DUPLICATE"] == int(
        truth["is_duplicate"].sum()
    )


def test_checkpoint_resume_guards_blocked_flag(ray_session, tmp_path):
    """A checkpointed run with bloom_layout="blocked" spawns blocked shards
    and records the layout in its config fingerprint; resuming with the
    default layout must refuse (the shard snapshots are layout-specific bit
    arrays)."""
    import glob
    import os
    import pickle

    from streammd_ray.sources import generate_transcripts
    from streammd_ray.state import run_flagship_checkpointed

    out = str(tmp_path / "gen")
    paths, _ = generate_transcripts(
        out, n_turns=2_000, seed=32, dup_frac=0.2, n_files=2, return_truth=True
    )
    ckpt = str(tmp_path / "ckpt")
    manifest, _ = run_flagship_checkpointed(
        paths,
        ckpt_dir=ckpt,
        output_dir=str(tmp_path / "out"),
        wave_size=1,
        p=1e-9,
        mem="1MiB",
        num_shards=2,
        bloom_layout="blocked",
    )
    assert manifest["config"]["bloom_layout"] == "blocked"
    snapshots = glob.glob(os.path.join(ckpt, "shards", "wave-*", "shard-*.bloom"))
    assert snapshots
    for path in snapshots:
        with open(path, "rb") as f:
            assert pickle.loads(f.read()).kind == "bloom_blocked"
    with pytest.raises(ValueError, match="mismatch"):
        run_flagship_checkpointed(
            paths,
            ckpt_dir=ckpt,
            output_dir=str(tmp_path / "out2"),
            wave_size=1,
            p=1e-9,
            mem="1MiB",
            num_shards=2,
        )


def test_shard_actor_blocked_construction():
    """_BloomShard(blocked=True) builds the blocked layout and reports the
    blocked marginal FPR through stats() — the make_shard_actors plumbing."""
    from streammd_ray.stages.dedup import _BloomShard

    sh = _BloomShard(1e-6, 0, m=2**20, k=10, blocked=True)
    assert isinstance(sh.bf, BlockedBloomFilter)
    h1, h2 = _rand_hashes(2_000, 11)
    new = sh.add(h1, h2)
    assert new.all()
    assert not sh.add(h1, h2, batch_key=None).any()
    st = sh.stats()
    assert st["keys_seen"] == 4_000 and st["dups"] == 2_000
    # state round-trip keeps the blocked layout
    sh2 = _BloomShard(1e-6, 0, m=2**20, k=10, blocked=True)
    sh2.load(sh.state(), keys_seen=st["keys_seen"], dups=st["dups"])
    assert isinstance(sh2.bf, BlockedBloomFilter)
    assert not sh2.add(h1, h2).any()
