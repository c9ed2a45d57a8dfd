"""Split-block Bloom filter (sketches/bloom.py SplitBlockBloomFilter) and
the native C probe kernels (sketches/_native.py).

The split layout (Putze et al. 2007 §4 bit patterns; the Parquet/Impala
split-block family) is the engine's fastest probe geometry: one bit per
64-bit lane of a 512-bit block, structural k=8. Tests mirror the classic
contract (tests/test_bloom.py), plus:

- the probe-CONSTANT independence regression: deriving lane constants as
  small odd multiples of one golden constant correlated the top bits and
  measured 2.9e-3 FPR where the mixture model said 1e-8;
- numpy/native parity for both layouts: the numpy insert and the C kernel
  compute the same probe indices and give the same one-at-a-time verdicts
  and bits, also on overfilled filters, where keys find all their bits set
  by earlier keys of their own batch.
"""

import numpy as np
import pytest

from streammd_ray.sketches import BloomFilter, SketchError, SplitBlockBloomFilter
from streammd_ray.sketches import _native
from streammd_ray.sketches.bloom import BLOCK_BITS
from streammd_ray.state.shards import shard_geometry


def _shard_add(sh, h1, h2):
    """``_BloomHost.add`` with its packed reply unpacked to was_new."""
    return np.unpackbits(sh.add(h1, h2), count=len(h1)).view(bool)


def _rand_hashes(n, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2**64, n, dtype=np.uint64),
        rng.integers(0, 2**64, n, dtype=np.uint64),
    )


def test_geometry_one_bit_per_lane():
    bf = SplitBlockBloomFilter(1e-6, n=100_000)
    assert bf.k == 8  # structural
    assert bf.m % BLOCK_BITS == 0
    assert bf.n_blocks == bf.m // BLOCK_BITS
    h1, h2 = _rand_hashes(1000, 1)
    idx = bf._indices(h1, h2)
    assert idx.shape == (1000, 8)
    blocks = idx // BLOCK_BITS
    assert (blocks == blocks[:, :1]).all(), "all 8 bits in the h1 block"
    # lane j's bit lives in word j of its block
    lanes = (idx % BLOCK_BITS) // 64
    assert (lanes == np.arange(8, dtype=np.uint64)).all()
    assert idx.max() < bf.m


def test_structural_k_guard():
    with pytest.raises(ValueError, match="structural k=8"):
        SplitBlockBloomFilter(1e-6, m=2**20, k=10)
    # the engine's memory-budget sizing gives the split layout its k=8
    assert shard_geometry("1MiB", 1, "split") == (8 * 2**20, 8)


def test_fnr_zero_and_first_occurrence_semantics():
    bf = SplitBlockBloomFilter(1e-6, m=8 * 2**20)
    h1, h2 = _rand_hashes(50_000, 2)
    assert bf.add_hashed(h1, h2).all()
    assert not bf.add_hashed(h1, h2).any()
    bf2 = SplitBlockBloomFilter(1e-6, m=8 * 2**20)
    r2 = bf2.add_hashed(
        np.concatenate([h1[:64], h1[:64]]), np.concatenate([h2[:64], h2[:64]])
    )
    assert r2[:64].all() and not r2[64:].any()


def test_scalar_api_parity():
    bf = SplitBlockBloomFilter(1e-6, n=10_000)
    assert bf.add("hello")
    assert not bf.add("hello")
    assert bf.contains("hello")
    assert not bf.contains("definitely-not-inserted")
    assert bf.add_batch(["a", "b", "a", None]).tolist() == [
        True, True, False, False,
    ]


def test_fpr_matches_mixture_model_and_constants_are_independent():
    """λ≈6 geometry (the engine's default-capacity loading): the mixture
    model says ~6e-8 here; the correlated-constants bug measured 2.9e-3.
    500k fresh probes ⇒ expected ~0.03 hits when correct, ~1450 when
    correlated — assert the gap's midpoint catches any regression."""
    bf = SplitBlockBloomFilter(1e-6, m=2**24)  # 2 MiB → 32768 blocks
    n_keys = 6 * bf.n_blocks
    bf.add_hashed(*_rand_hashes(n_keys, 3))
    q1, q2 = _rand_hashes(500_000, 4)
    hits = int(bf.contains_hashed(q1, q2).sum())
    assert bf.marginal_fpr(n_keys) < 1e-6
    assert hits <= 10, f"split FPR floor: {hits}/500k fresh probes hit"


def test_fpr_unaffected_by_shard_routing_bias():
    """All h1 ≡ 5 (mod 16), as one shard of P=16 sees them — the fmix64
    block selector must still spread keys over ~all blocks."""
    rng = np.random.default_rng(13)
    n = 200_000
    h1 = rng.integers(0, 2**60, n, dtype=np.uint64) * np.uint64(16) + np.uint64(5)
    h2 = rng.integers(0, 2**64, n, dtype=np.uint64)
    bf = SplitBlockBloomFilter(1e-6, m=8 * 2**20)
    bf.add_hashed(h1, h2)
    blocks = np.unique(bf._indices(h1, h2)[:, 0] // BLOCK_BITS)
    assert len(blocks) > bf.n_blocks * 0.9
    q1 = rng.integers(0, 2**60, 500_000, dtype=np.uint64) * np.uint64(16) + np.uint64(5)
    q2 = rng.integers(0, 2**64, 500_000, dtype=np.uint64)
    hits = int(bf.contains_hashed(q1, q2).sum())
    assert hits <= 10


def test_count_estimate_tolerance():
    bf = SplitBlockBloomFilter(1e-6, m=8 * 2**20)
    n = 150_000
    bf.add_hashed(*_rand_hashes(n, 5))
    assert abs(bf.count_estimate() - n) / n < 0.02


def test_merge_or_semantics_and_layout_guard():
    a = SplitBlockBloomFilter(1e-6, m=2**20)
    b = SplitBlockBloomFilter(1e-6, m=2**20)
    h1a, h2a = _rand_hashes(5_000, 6)
    h1b, h2b = _rand_hashes(5_000, 7)
    a.add_hashed(h1a, h2a)
    b.add_hashed(h1b, h2b)
    union = SplitBlockBloomFilter.from_bytes(a.to_bytes()).merge(b)
    assert union.contains_hashed(h1a, h2a).all()
    assert union.contains_hashed(h1b, h2b).all()
    # the two layouts must refuse to merge at identical (m, k)
    with pytest.raises(SketchError):
        BloomFilter(1e-6, m=2**20, k=8).merge(a)


def test_serde_roundtrip_preserves_layout():
    bf = SplitBlockBloomFilter(1e-6, m=2**20)
    bf.add_hashed(*_rand_hashes(1_000, 8))
    back = SplitBlockBloomFilter.from_bytes(bf.to_bytes())
    assert isinstance(back, SplitBlockBloomFilter)
    assert back.kind == "bloom_split"
    assert np.array_equal(back._bits, bf._bits)
    assert np.array_equal(back._probe_mul, bf._probe_mul)
    h1, h2 = _rand_hashes(100, 9)
    assert np.array_equal(back._indices(h1, h2), bf._indices(h1, h2))


@pytest.mark.parametrize("layout", ["classic", "split"])
def test_marginal_fpr_takes_n_items(layout):
    """Every layout answers marginal_fpr(n_items) for a load other than its
    own."""
    cls = {"classic": BloomFilter, "split": SplitBlockBloomFilter}[layout]
    f = cls(1e-6, 10_000)
    assert f.marginal_fpr(n_items=0) == 0.0
    assert f.marginal_fpr(n_items=10**6) > 1e-3
    assert f.marginal_fpr() == 0.0  # nothing inserted yet


# --- native kernel parity ---------------------------------------------------


#: layout → (filter, fresh keys per chunk)
SPARSE = {
    "classic": (lambda: BloomFilter(1e-6, m=2**23, k=10), [40_000]),
    "classic_nonpow2": (lambda: BloomFilter(1e-6, m=2**23 - 64, k=10), [40_000]),
    "split": (lambda: SplitBlockBloomFilter(1e-6, m=2**23), [40_000]),
    # 3 * 2**21 bits → 12288 blocks: exercises the modulus (non-pow2)
    # block-select path in both the numpy and C kernels
    "split_nonpow2": (lambda: SplitBlockBloomFilter(1e-6, m=3 * 2**21), [40_000]),
}
#: a few hundred keys per chunk in 2^12 bits or 8 blocks (and non-pow2
#: sizes): keys find all their bits set by earlier keys of their own batch
OVERFILLED = {
    "classic_full": (lambda: BloomFilter(1e-6, m=2**12, k=10), [200, 300, 500]),
    "classic_full_nonpow2": (
        lambda: BloomFilter(1e-6, m=2**12 - 96, k=10), [200, 300, 500],
    ),
    "split_full": (
        lambda: SplitBlockBloomFilter(1e-6, m=8 * BLOCK_BITS), [200, 300, 500],
    ),
    "split_full_nonpow2": (
        lambda: SplitBlockBloomFilter(1e-6, m=6 * BLOCK_BITS), [150, 250, 400],
    ),
}
LAYOUTS = {**SPARSE, **OVERFILLED}


@pytest.mark.skipif(
    _native.get_kernels() is None, reason="no C toolchain on this host"
)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_native_matches_numpy(layout, monkeypatch):
    """The C kernel and the numpy insert give identical was_new, n_added
    and bits, chunk after chunk of fresh keys and repeats (a quarter of
    each chunk repeats keys of it or of earlier chunks). On the overfilled
    filters some key must find all its bits set by other, earlier keys of
    its own batch, the case a batch rule would answer differently."""
    make, sizes = LAYOUTS[layout]
    rng = np.random.default_rng(21)
    chunks, fresh = [], []
    for i, n in enumerate(sizes):
        h1, h2 = _rand_hashes(n, 20 + i)
        fresh.append((h1, h2))
        old1 = np.concatenate([f[0] for f in fresh])
        old2 = np.concatenate([f[1] for f in fresh])
        rep = rng.integers(0, len(old1), n // 4)
        chunks.append((np.concatenate([h1, old1[rep]]), np.concatenate([h2, old2[rep]])))

    nat_f = make()
    nat, masked = [], 0
    for H1, H2 in chunks:
        before = nat_f.contains_hashed(H1, H2)
        wn = nat_f.add_hashed(H1, H2)
        nat.append((wn, nat_f.n_added, nat_f._bits.copy()))
        first = np.zeros(len(H1), dtype=bool)
        first[np.unique(H1, return_index=True)[1]] = True
        masked += int((first & ~before & ~wn).sum())
    assert masked > 0 if layout in OVERFILLED else masked == 0

    monkeypatch.setattr(_native, "get_kernels", lambda: None)
    np_f = make()
    for (H1, H2), (wn, n_added, bits) in zip(chunks, nat):
        assert np.array_equal(np_f.add_hashed(H1, H2), wn)
        assert np_f.n_added == n_added
        assert np.array_equal(np_f._bits, bits)
    # and a second add agrees too (everything already present)
    monkeypatch.undo()
    for h1, h2 in fresh:
        assert not nat_f.add_hashed(h1, h2).any()


def test_native_unavailable_falls_back(monkeypatch):
    monkeypatch.setattr(_native, "get_kernels", lambda: None)
    bf = SplitBlockBloomFilter(1e-6, m=2**20)
    h1, h2 = _rand_hashes(5_000, 22)
    assert bf.add_hashed(h1, h2).all()
    assert not bf.add_hashed(h1, h2).any()


# --- engine plumbing --------------------------------------------------------


def test_shard_actor_split_construction():
    """_BloomHost(layout='split') builds the split layout from the (m, k)
    of shard_geometry (structural k=8; any other k is refused); a layout is
    named "classic" or "split" and nothing else."""
    from streammd_ray.stages.dedup import _BloomHost, resolve_layout

    m, k = shard_geometry("128KiB", 1, "split")
    sh = _BloomHost(1e-6, m=m, k=k, layout="split")
    assert isinstance(sh.bf.partition(0), SplitBlockBloomFilter)
    assert (sh.bf.m, sh.bf.k) == (2**20, 8)
    h1, h2 = _rand_hashes(2_000, 11)
    assert _shard_add(sh, h1, h2).all()
    assert not _shard_add(sh, h1, h2).any()
    with pytest.raises(ValueError, match="structural k=8"):
        _BloomHost(1e-6, m=2**20, k=10, layout="split")
    assert resolve_layout() is resolve_layout("classic") is BloomFilter
    assert resolve_layout("split") is SplitBlockBloomFilter
    for name in ("sbbf", None):
        with pytest.raises(ValueError, match="unknown bloom layout"):
            resolve_layout(name)


def test_shard_state_roundtrip_preserves_split_layout():
    """_BloomHost.state()/load(): the snapshot restores the split layout
    and its populated bits (the wave-checkpoint resume path)."""
    from streammd_ray.stages.dedup import _BloomHost

    sh = _BloomHost(1e-6, m=2**20, k=8, layout="split")
    h1, h2 = _rand_hashes(3_000, 40)
    assert _shard_add(sh, h1, h2).all()
    st = sh.stats()["partitions"]
    sh2 = _BloomHost(1e-6, m=2**20, k=8, layout="split")
    sh2.load(sh.state(), st)
    assert sh2.stats()["partitions"][0]["keys_seen"] == 3_000
    assert isinstance(sh2.bf.partition(0), SplitBlockBloomFilter)
    assert not _shard_add(sh2, h1, h2).any()


def test_run_flagship_split_agrees_with_classic(flagship_marked, tmp_path):
    """run_flagship(bloom_layout='split') end-to-end: identical metrics
    to the classic layout (at p=1e-9 and 12k keys neither layout can
    plausibly produce a false positive)."""
    import ray.data as rd

    from streammd_ray.sources import generate_transcripts

    out = str(tmp_path / "gen")
    paths, truth = generate_transcripts(
        out, n_turns=12_000, seed=33, dup_frac=0.3, n_files=4, return_truth=True
    )
    truth = truth.to_pandas()
    metrics = {}
    for layout in ("classic", "split"):
        res, marked = flagship_marked(
            rd.read_parquet(paths), p=1e-9, num_shards=4, bloom_layout=layout
        )
        metrics[layout] = {
            **res.metrics(),
            "CONVERSATIONS": marked["conv_id"].nunique(),
        }
    assert metrics["split"] == metrics["classic"]
    assert metrics["split"]["TURNS_MARKED_DUPLICATE"] == int(
        truth["is_duplicate"].sum()
    )


def test_checkpoint_resume_guards_layout(ray_session, tmp_path):
    """The checkpointed runner spawns its shards with bloom_layout and the
    manifest pins it; resuming with a different layout refuses (shard
    snapshots are layout-specific bit arrays)."""
    import glob
    import os

    from streammd_ray.sketches.base import Sketch
    from streammd_ray.sources import generate_transcripts
    from streammd_ray.state import run_flagship_checkpointed
    from streammd_ray.state.checkpoint import decompress

    out = str(tmp_path / "gen")
    paths, _ = generate_transcripts(
        out, n_turns=2_000, seed=34, dup_frac=0.2, n_files=2, return_truth=True
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
        bloom_layout="split",
    )
    assert manifest["config"]["bloom_layout"] == "split"
    snapshots = glob.glob(os.path.join(ckpt, "shards", "wave-*", "shard-*.bloom"))
    assert snapshots
    for path in snapshots:
        with open(path, "rb") as f:
            assert Sketch.from_bytes(decompress(f.read())).kind == "bloom_split"
    with pytest.raises(ValueError, match="mismatch"):
        run_flagship_checkpointed(
            paths,
            ckpt_dir=ckpt,
            output_dir=str(tmp_path / "out2"),
            wave_size=1,
            p=1e-9,
            mem="1MiB",
            num_shards=2,
            bloom_layout="classic",
        )


def test_checkpoint_resume_default_layout_is_classic(ray_session, tmp_path):
    """The classic layout has one name: a checkpoint written with
    bloom_layout="classic" resumes under the default layout, returns the
    same metrics and spawns no shard (every wave is already done)."""
    import ray

    from streammd_ray.sources import generate_transcripts
    from streammd_ray.state import run_flagship_checkpointed

    paths = generate_transcripts(
        str(tmp_path / "gen"), n_turns=2_000, seed=35, dup_frac=0.2, n_files=2
    )
    run = dict(
        ckpt_dir=str(tmp_path / "ckpt"),
        output_dir=str(tmp_path / "out"),
        wave_size=1,
        p=1e-9,
        mem="1MiB",
        num_shards=2,
    )

    def shard_actors() -> set:
        return {
            aid
            for aid, a in ray._private.state.actors().items()
            if a["ActorClassName"] == "_BloomHost"
        }

    first, _ = run_flagship_checkpointed(paths, bloom_layout="classic", **run)
    before = shard_actors()
    again, _ = run_flagship_checkpointed(paths, **run)
    assert again["metrics"] == first["metrics"]
    assert shard_actors() == before
