"""Bloom filter conformance — re-pins the reference's unit expectations
(/root/reference/tests/test_bloomfilter.cxx, studied for expected values only)
plus the merge semantics the reference never needed."""

import numpy as np
import pytest

from streammd_ray.sketches import (
    BloomFilter,
    SplitBlockBloomFilter,
    _native,
    capacity,
    m_k_min,
    parse_memspec,
)
from streammd_ray.state.shards import shard_geometry


# --- sizing math pinned to the reference's unit tests (test_bloomfilter.cxx:10-28)


def test_capacity_pinned():
    assert capacity(0.001, 8_000_000, 10) == 556420


@pytest.mark.parametrize(
    "p,n,want",
    [
        (1e-6, 1_000_000, (28755176, 20)),
        (1e-7, 10_000_000, (335477044, 24)),
        (1e-8, 100_000_000, (3834023351, 27)),
        (1e-6, 1_000_000_000, (28755175133, 20)),
    ],
)
def test_m_k_min_pinned(p, n, want):
    assert m_k_min(p, n) == want


# --- memspec construction (test_bloomfilter.cxx:30-55)


def test_memspec_parse():
    assert parse_memspec("4GiB") == 4 * 2**30
    assert parse_memspec("4GB") == 4 * 10**9
    assert parse_memspec("512MiB") == 512 * 2**20
    assert parse_memspec("8388608") == 8388608
    with pytest.raises(ValueError):
        parse_memspec("4XB")


def test_shard_geometry_from_mem_spec():
    """The engine's one memory-budget sizing rule: m = 8·bytes rounded down
    to a power of two, fixed k=10 (the split layout's k=8 is pinned in
    test_bloom_split.py)."""
    assert shard_geometry("4GiB", 1) == (8 * 4 * 2**30, 10) == (2**35, 10)
    assert shard_geometry("4GB", 1) == (2**34, 10)  # 3.2e10 bits, rounded down
    m, k = shard_geometry("4GB", 1)
    assert BloomFilter(1e-6, m=m, k=k)._pow2


# --- add/contains semantics (test_bloomfilter.cxx:57-81)


def test_add_contains_scalar():
    bf = BloomFilter(1e-6, 1_000_000)
    assert not bf.contains("hello")
    assert bf.add("hello") is True  # new
    assert bf.contains("hello")
    assert bf.add("hello") is False  # already present → duplicate signal
    assert bf.n_added == 1


def test_add_batch_semantics():
    bf = BloomFilter(1e-6, 1_000_000)
    was_new = bf.add_batch(["a", "b", "a", "c", "b"])
    # first occurrence of each distinct key is new; in-batch repeats are not
    assert was_new.tolist() == [True, True, False, True, False]
    # across batches: previously-seen keys are not new
    was_new2 = bf.add_batch(["c", "d"])
    assert was_new2.tolist() == [False, True]
    assert bf.n_added == 4
    assert bf.contains_batch(["a", "b", "c", "d", "zzz"]).tolist()[:4] == [True] * 4


def test_add_batch_nulls_never_inserted():
    import pyarrow as pa

    bf = BloomFilter(1e-6, 10_000)
    was_new = bf.add_batch(pa.array(["x", None, "x", None]))
    # nulls: counted by callers, never inserted (streammd unmapped analog)
    assert was_new.tolist() == [True, False, False, False]
    assert bf.n_added == 1


# --- statistical properties (test_bloomfilter.cxx:83-148)


def test_count_estimate_within_0p1pct():
    n = 1_000_000
    bf = BloomFilter(1e-6, n)
    keys = np.arange(n).astype(str)
    bf.add_batch(keys)
    est = bf.count_estimate()
    assert abs(est - n) / n < 0.001


def test_fnr_zero():
    n = 200_000
    bf = BloomFilter(1e-4, n)
    keys = np.arange(n).astype(str)
    bf.add_batch(keys)
    assert bf.contains_batch(keys).all()  # no false negatives, ever


@pytest.mark.parametrize("p", [1e-2, 1e-3, 1e-4])
def test_fpr_at_capacity(p):
    n = 200_000
    bf = BloomFilter(p, n)
    bf.add_batch(np.arange(n).astype(str))
    misses = np.arange(n, 2 * n).astype(str)
    fp = int(bf.contains_batch(misses).sum())
    measured = fp / n
    assert measured <= 2 * p  # reference asserts FPR in [0, 2p] at capacity


def test_marginal_fpr_monotone():
    bf = BloomFilter(1e-3, 1000)
    assert bf.marginal_fpr(0) == 0.0
    assert bf.marginal_fpr(1000) <= 2e-3
    assert bf.marginal_fpr(5000) > bf.marginal_fpr(1000)


# --- merge (new vs reference; SURVEY.md §2.4 "(absent) merge")


def test_merge_or_semantics():
    a = BloomFilter(1e-4, 100_000)
    b = BloomFilter(1e-4, 100_000)
    a.add_batch(["x", "y"])
    b.add_batch(["y", "z"])
    a.merge(b)
    assert a.contains("x") and a.contains("y") and a.contains("z")


def test_merge_incompatible_rejected():
    from streammd_ray.sketches import SketchError

    a = BloomFilter(1e-4, 100_000)
    b = BloomFilter(1e-4, 200_000)
    with pytest.raises(SketchError):
        a.merge(b)


def test_merge_associative_bitwise():
    parts = []
    for i in range(4):
        bf = BloomFilter(1e-4, 100_000)
        bf.add_batch([f"k{i}-{j}" for j in range(1000)])
        parts.append(bf.to_bytes())

    def fold(order):
        sk = [BloomFilter.from_bytes(parts[i]) for i in order]
        acc = sk[0]
        for s in sk[1:]:
            acc.merge(s)
        return acc._bits.copy()

    base = fold([0, 1, 2, 3])
    for order in ([3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]):
        assert np.array_equal(base, fold(order))  # OR is exactly associative


def test_serde_roundtrip():
    bf = BloomFilter(1e-4, 10_000)
    bf.add_batch(["a", "b"])
    bf2 = BloomFilter.from_bytes(bf.to_bytes())
    assert bf2.contains("a") and bf2.contains("b") and not bf2.contains("c")
    assert bf2.n_added == 2


@pytest.mark.skipif(_native.get_kernels() is None, reason="no C toolchain on this host")
@pytest.mark.parametrize("cls", [BloomFilter, SplitBlockBloomFilter])
def test_native_popcount_matches_lut(cls, monkeypatch):
    """``count_bits_set``: the native ``popcount_words`` and the numpy LUT
    fallback count the same bits, on a filled filter, a full one and a
    read-only decode."""
    bf = cls(1e-6, m=2**23, k=cls.LANES if cls is SplitBlockBloomFilter else 10)
    bf.add_batch([f"key {i}" for i in range(50_000)])
    full = cls(1e-6, m=2**12, k=8)
    full._bits[:] = np.uint64(2**64 - 1)
    decoded = cls.from_bytes(bf.to_bytes())
    decoded._bits.flags.writeable = False
    native = [f.count_bits_set() for f in (bf, full, decoded)]
    monkeypatch.setattr(_native, "get_kernels", lambda: None)
    assert native == [f.count_bits_set() for f in (bf, full, decoded)]
    assert native[1] == 2**12 and native[0] == native[2] > 0
