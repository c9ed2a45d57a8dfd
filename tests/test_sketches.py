"""HLL / CMS / t-digest / KLL: published-error-bound compliance + merge
associativity under permuted partition orders (north_rule), with deterministic
seeds — the pytest analog of the reference's hand-rolled statistical tests
(/root/reference/tests/test_bloomfilter.cxx:83-148). Also: HLL, count-min and
both Bloom layouts refuse an insert into read-only state, and a sketch comes
back from the object store owned and writable."""

import numpy as np
import pytest

from streammd_ray.sketches import (
    KLL,
    BloomFilter,
    CountMinSketch,
    HyperLogLog,
    SplitBlockBloomFilter,
    TDigest,
)

RNG = np.random.default_rng(42)


# ---------------- HyperLogLog ----------------


@pytest.mark.parametrize("true_n", [1_000, 100_000, 1_000_000])
def test_hll_error_bound(true_n):
    hll = HyperLogLog(precision=14)
    hll.insert_batch(np.arange(true_n).astype(str))
    est = hll.estimate()
    # 1.04/sqrt(16384) = 0.81% std error; allow 4 sigma
    assert abs(est - true_n) / true_n < 4 * hll.relative_error


def test_hll_duplicates_dont_count():
    hll = HyperLogLog()
    for _ in range(5):
        hll.insert_batch(np.arange(1000).astype(str))
    assert abs(hll.estimate() - 1000) / 1000 < 0.05


def test_hll_cms_skip_nulls():
    import pyarrow as pa

    arr = pa.array(["x", None, "y", None])
    h = HyperLogLog()
    h.insert_batch(arr)
    assert round(h.estimate()) == 2
    c = CountMinSketch(eps=1e-3, delta=1e-3, track_heavy=4)
    c.insert_batch(arr)
    assert c.total == 2 and dict(c.top_k()) == {"x": 1, "y": 1}


def test_hll_merge_exact_associative():
    parts = []
    for i in range(5):
        h = HyperLogLog()
        h.insert_batch(np.arange(i * 20_000, (i + 1) * 20_000).astype(str))
        parts.append(h)

    def fold(order):
        acc = HyperLogLog()
        for i in order:
            acc.merge(parts[i])
        return acc

    base = fold(range(5))
    assert abs(base.estimate() - 100_000) / 100_000 < 4 * base.relative_error
    for order in ([4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
        other = fold(order)
        assert np.array_equal(base.regs, other.regs)  # max is exactly associative
        assert base.estimate() == other.estimate()


# ---------------- Count-min ----------------


def _zipf_stream(n, n_keys=1000, a=1.3, seed=7):
    rng = np.random.default_rng(seed)
    z = rng.zipf(a, size=n)
    z = np.clip(z, 1, n_keys)
    return np.char.add("key-", z.astype(str))


def test_cms_overestimate_only_and_bound():
    stream = _zipf_stream(200_000)
    cms = CountMinSketch(eps=1e-4, delta=1e-3)
    cms.insert_batch(stream)
    keys, true_counts = np.unique(stream, return_counts=True)
    est = cms.query_batch(keys)
    assert (est >= true_counts).all()  # CMS never underestimates
    # ε·N additive bound (holds w.p. 1−δ per key; check the 99.9th pct)
    overshoot = est - true_counts
    bound = cms.eps * cms.total
    assert np.quantile(overshoot, 0.999) <= bound


def test_cms_heavy_hitters():
    stream = _zipf_stream(100_000)
    cms = CountMinSketch(eps=1e-4, delta=1e-3, track_heavy=10)
    for chunk in np.array_split(stream, 10):
        cms.insert_batch(chunk)
    top = dict(cms.top_k(5))
    keys, true_counts = np.unique(stream, return_counts=True)
    true_top5 = set(keys[np.argsort(-true_counts)][:5])
    assert set(top) == true_top5


def test_cms_merge_exact_associative():
    chunks = np.array_split(_zipf_stream(100_000), 4)
    parts = []
    for c in chunks:
        s = CountMinSketch(eps=1e-3, delta=1e-3, track_heavy=8)
        s.insert_batch(c)
        parts.append(s.to_bytes())

    def fold(order):
        sk = [CountMinSketch.from_bytes(parts[i]) for i in order]
        acc = sk[0]
        for s in sk[1:]:
            acc.merge(s)
        return acc

    base = fold([0, 1, 2, 3])
    for order in ([3, 1, 0, 2], [2, 3, 0, 1]):
        other = fold(order)
        assert np.array_equal(base.counts, other.counts)  # + is associative
        assert base.total == other.total
        assert base.top_k(5) == other.top_k(5)


# ---------------- t-digest ----------------


@pytest.mark.parametrize(
    "dist",
    ["uniform", "normal", "lognormal"],
)
def test_tdigest_quantile_accuracy(dist):
    rng = np.random.default_rng(11)
    n = 200_000
    data = {
        "uniform": rng.uniform(0, 1, n),
        "normal": rng.normal(0, 1, n),
        "lognormal": rng.lognormal(0, 1, n),
    }[dist]
    td = TDigest(delta=200)
    for chunk in np.array_split(data, 7):
        td.insert_batch(chunk)
    for q in (0.01, 0.1, 0.5, 0.9, 0.99):
        true = np.quantile(data, q)
        est = td.quantile(q)
        # rank-space error: |cdf(est) - q| small (t-digest's native guarantee)
        r = (data <= est).mean()
        assert abs(r - q) < 0.01, (q, true, est, r)


def test_tdigest_extremes_exact():
    td = TDigest()
    data = np.arange(1000, dtype=float)
    td.insert_batch(data)
    assert td.quantile(0.0) == 0.0
    assert td.quantile(1.0) == 999.0


def test_tdigest_merge_within_bound_any_order():
    rng = np.random.default_rng(5)
    data = rng.normal(0, 1, 120_000)
    chunks = np.array_split(data, 6)
    parts = []
    for c in chunks:
        t = TDigest(delta=200)
        t.insert_batch(c)
        parts.append(t.to_bytes())

    def fold(order):
        sk = [TDigest.from_bytes(parts[i]) for i in order]
        acc = sk[0]
        for s in sk[1:]:
            acc.merge(s)
        return acc

    for order in ([0, 1, 2, 3, 4, 5], [5, 2, 0, 4, 1, 3], [3, 4, 5, 0, 1, 2]):
        td = fold(order)
        for q in (0.05, 0.5, 0.95):
            est = td.quantile(q)
            r = (data <= est).mean()
            assert abs(r - q) < 0.015, (order, q, r)


def test_tdigest_merge_all_compresses_once(monkeypatch):
    """Merging buffers the other digest's centroids: a fold of 8 decoded
    partials compresses once, on read, stays within the merge accuracy
    bound, and serializes no more centroids than one compress leaves."""
    from streammd_ray.sketches.base import merge_all

    rng = np.random.default_rng(8)
    data = rng.lognormal(0, 1, 80_000)
    parts = []
    for chunk in np.array_split(data, 8):
        t = TDigest(delta=200)
        t.insert_batch(chunk)
        parts.append(t.to_bytes())
    decoded = [TDigest.from_bytes(p) for p in parts]
    n_centroids = sum(t.means.size for t in decoded)
    # one compress of every partial's centroids, the reference count
    once = TDigest(delta=200)
    once.insert_batch(
        np.concatenate([t.means for t in decoded]),
        np.concatenate([t.weights for t in decoded]),
    )
    once._compress()

    calls = []
    real = TDigest._compress

    def counting(self):
        calls.append(self)
        real(self)

    monkeypatch.setattr(TDigest, "_compress", counting)
    td = merge_all(decoded)
    back = TDigest.from_bytes(td.to_bytes())
    assert len(calls) == 1
    assert back.means.size <= once.means.size < n_centroids
    for q in (0.05, 0.5, 0.95):
        r = (data <= td.quantile(q)).mean()
        assert abs(r - q) < 0.015, (q, r)
    assert back.total == td.total == data.size


# ---------------- KLL ----------------


def test_kll_rank_error_bound():
    rng = np.random.default_rng(3)
    data = rng.exponential(1.0, 300_000)
    kll = KLL(k=200)
    for chunk in np.array_split(data, 9):
        kll.insert_batch(chunk)
    assert kll.n == data.size
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        est = kll.quantile(q)
        r = (data <= est).mean()
        assert abs(r - q) <= 3 * kll.rank_error, (q, r)


def test_kll_extremes_exact():
    kll = KLL()
    kll.insert_batch(np.arange(10_000, dtype=float))
    assert kll.quantile(0.0) == 0.0
    assert kll.quantile(1.0) == 9999.0


def test_kll_merge_within_bound_any_order():
    rng = np.random.default_rng(9)
    data = rng.normal(10, 3, 160_000)
    chunks = np.array_split(data, 8)
    parts = []
    for i, c in enumerate(chunks):
        s = KLL(k=200, seed=100 + i)
        s.insert_batch(c)
        parts.append(s.to_bytes())

    def fold(order):
        sk = [KLL.from_bytes(parts[i]) for i in order]
        acc = sk[0]
        for s in sk[1:]:
            acc.merge(s)
        return acc

    for order in (list(range(8)), [7, 3, 5, 1, 0, 6, 2, 4]):
        kll = fold(order)
        assert kll.n == data.size
        for q in (0.1, 0.5, 0.9):
            est = kll.quantile(q)
            r = (data <= est).mean()
            assert abs(r - q) <= 4 * kll.rank_error, (order, q, r)


# ---------------- serde for all ----------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: HyperLogLog(),
        lambda: CountMinSketch(eps=1e-3, delta=1e-3),
        lambda: TDigest(),
        lambda: KLL(),
    ],
)
def test_serde_roundtrip(make):
    s = make()
    vals = np.arange(1000)
    s.insert_batch(vals.astype(str) if s.kind in ("hll", "cms") else vals)
    data = s.to_bytes()
    s2 = type(s).from_bytes(data)
    assert s2._compat_key() == s._compat_key()


def test_kll_rank_method():
    kll = KLL(k=200)
    kll.insert_batch(np.arange(10_000, dtype=float))
    assert abs(kll.rank(2_500.0) - 0.25) < 3 * kll.rank_error
    assert kll.rank(-1.0) == 0.0
    assert kll.rank(10_001.0) == 1.0


def test_tdigest_cdf():
    td = TDigest()
    td.insert_batch(np.arange(10_000, dtype=float))
    assert abs(td.cdf(5_000.0) - 0.5) < 0.01
    assert td.cdf(-1.0) == 0.0
    assert td.cdf(10_001.0) == 1.0


# ---------------- read-only state ----------------


_STATES = {
    "hll": (lambda: HyperLogLog(precision=10), lambda s: s.regs),
    "cms": (lambda: CountMinSketch(eps=1e-2, delta=1e-2), lambda s: s.counts),
    "bloom": (lambda: BloomFilter(1e-6, m=1 << 16, k=10), lambda s: s._bits),
    "bloom_split": (lambda: SplitBlockBloomFilter(1e-6, m=1 << 16), lambda s: s._bits),
}


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
@pytest.mark.parametrize("kind", sorted(_STATES))
def test_insert_refuses_read_only_state(ray_session, monkeypatch, kind, native):
    """A sketch read back from the object store is its decoded state layout
    (``Sketch.__reduce__``): owned, writable and state-identical. Inserting
    into read-only state must raise and leave it as it was, and the stored
    copy must stay as put. (``ufunc.at`` and the native Bloom kernels
    ignore the read-only flag.) HLL and CMS update their state in numpy
    either way: the ids switch only the hasher (C kernel or numpy twin)."""
    import ray

    from streammd_ray.sketches import _native

    if native and _native.get_kernels() is None:
        pytest.skip("no C toolchain on this host")
    if not native:
        monkeypatch.setattr(_native, "get_kernels", lambda: None)
    make, state_of = _STATES[kind]
    sk = make()
    sk.insert_batch([f"k{i}" for i in range(100)])
    ref = ray.put(sk)
    view = ray.get(ref)
    assert state_of(view).flags.writeable
    assert _state_equal(view, sk)
    state_of(view).flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        view.insert_batch([f"new{i}" for i in range(1000)])
    if kind.startswith("bloom"):
        h = np.arange(1, 1001, dtype=np.uint64)
        with pytest.raises(ValueError, match="read-only"):
            view.add_hashed(h, h)
        with pytest.raises(ValueError, match="read-only"):
            view.add("new-scalar")
    assert np.array_equal(state_of(view), state_of(sk))
    assert np.array_equal(state_of(ray.get(ref)), state_of(sk))


def test_native_kernels_refuse_read_only_bits():
    """The ctypes signatures require WRITEABLE output arrays, so a direct
    kernel call cannot write through a read-only bitset either."""
    import ctypes

    from streammd_ray.sketches import _native

    nat = _native.get_kernels()
    if nat is None:
        pytest.skip("no C toolchain on this host")
    bits = np.zeros(1024, dtype=np.uint64)
    bits.flags.writeable = False
    h = np.arange(1, 9, dtype=np.uint64)
    seen = np.zeros(8, dtype=np.uint8)
    with pytest.raises(ctypes.ArgumentError):
        nat.classic_tas(bits, np.uint64(1024 * 64), 1, 10, h, h, np.int64(8), seen)
    mul = np.ones(8, dtype=np.uint64)
    with pytest.raises(ctypes.ArgumentError):
        nat.split_tas(bits, np.uint64(128), 1, mul, h, h, np.int64(8), seen)
    assert not bits.any()


# ---------------- state layout ----------------


def _state_equal(a, b) -> bool:
    """Every attribute equal, arrays by value (KLL levels element-wise)."""
    da, db = vars(a), vars(b)
    if da.keys() != db.keys():
        return False
    for key, va in da.items():
        vb = db[key]
        if key == "levels":
            if len(va) != len(vb) or not all(map(np.array_equal, va, vb)):
                return False
        elif isinstance(va, np.ndarray):
            if not (np.array_equal(va, vb) and va.dtype == vb.dtype):
                return False
        elif va != vb and not (va != va and vb != vb):  # NaN == NaN here
            return False
    return True


def _filled_kll():
    kll = KLL(k=20)
    kll.insert_batch(RNG.random(5_000))
    assert len(kll.levels) >= 3
    return kll


def _filled_tdigest():
    td = TDigest(buffer_size=100_000)
    td.insert_batch(RNG.normal(size=2_000))
    assert td._buf  # the buffer is not flushed yet
    return td


def _filled(cls, keys):
    def make():
        sk = cls()
        sk.insert_batch(keys)
        return sk

    return make


_LAYOUT_CASES = {
    "hll": _filled(HyperLogLog, np.arange(20_000).astype(str)),
    "cms-str": _filled(
        lambda: CountMinSketch(eps=1e-2, delta=1e-2, track_heavy=4),
        np.array(["a", "b", "a", "c"] * 50),
    ),
    "cms-int": _filled(
        lambda: CountMinSketch(eps=1e-2, delta=1e-2, track_heavy=4),
        np.array([1, 2, 1, 3] * 50),
    ),
    "tdigest": _filled_tdigest,
    "kll": _filled_kll,
    "bloom": _filled(lambda: BloomFilter(1e-6, n=5_000), [f"k{i}" for i in range(2_000)]),
    "bloom_split-pow2": _filled(
        lambda: SplitBlockBloomFilter(1e-6, m=1 << 16), [f"k{i}" for i in range(2_000)]
    ),
    "bloom_split-nonpow2": _filled(
        lambda: SplitBlockBloomFilter(1e-6, m=512 * 97), [f"k{i}" for i in range(2_000)]
    ),
}


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_layout_roundtrip_is_state_identical(case):
    from streammd_ray.sketches import Sketch

    sk = _LAYOUT_CASES[case]()
    data = sk.to_bytes()
    back = Sketch.from_bytes(data)
    assert type(back) is type(sk)
    assert _state_equal(back, sk)
    assert back.estimate() == sk.estimate()
    assert back.to_bytes() == data
    if case.startswith("cms"):
        assert {type(k) for k in back.heavy} == {
            str if case == "cms-str" else int
        }
    if case == "kll":  # the coin counter came along: the next compaction matches
        more = RNG.random(3_000)
        sk.insert_batch(more)
        back.insert_batch(more)
        assert _state_equal(back, sk)


@pytest.mark.parametrize("case", ["hll", "cms-str", "tdigest", "kll", "bloom", "bloom_split-pow2"])
def test_layout_decoded_from_object_store_is_writable(ray_session, case):
    """A state that came back from ``ray.get`` is a read-only buffer; the
    decoded sketch owns its arrays, so it takes inserts and merges."""
    import ray

    from streammd_ray.sketches import Sketch

    sk = _LAYOUT_CASES[case]()
    back = Sketch.from_bytes(ray.get(ray.put(sk.to_bytes())))
    vals = RNG.random(500) if back.FLOAT_VALUES else [f"new{i}" for i in range(500)]
    back.insert_batch(vals)
    back.merge(_LAYOUT_CASES[case]())


def test_layout_rejects_bad_input():
    import pickle
    import struct

    from streammd_ray.sketches import Sketch, SketchError
    from streammd_ray.sketches.base import MAGIC

    data = HyperLogLog(precision=8).to_bytes()
    for cut in (3, 10, len(data) - 1):
        with pytest.raises(SketchError, match="truncated"):
            Sketch.from_bytes(data[:cut])
    with pytest.raises(SketchError, match="version"):
        Sketch.from_bytes(MAGIC + struct.pack("<H", 99) + data[6:])
    kind = data.index(b"hll")
    with pytest.raises(SketchError, match="unknown sketch kind"):
        Sketch.from_bytes(data[:kind] + b"xyz" + data[kind + 3 :])
    with pytest.raises(SketchError, match="magic"):
        Sketch.from_bytes(pickle.dumps(HyperLogLog(precision=8)))
    with pytest.raises(SketchError, match="expected KLL"):
        KLL.from_bytes(data)


def _cms_arrays(data: bytes) -> dict:
    from streammd_ray.sketches.base import _decode

    return _decode(data)[2]


#: a count-min state as written before the sparse form existed (dense
#: ``counts``; eps=0.5, delta=0.2 → 2 x 6 cells; "a", "b", "a", "c")
_DENSE_CMS_STATE = (
    b'SMSK\x01\x00\x03cms\x94\x00\x00\x00{"init": {"eps": 0.5, "delta": 0.2, '
    b'"track_heavy": 2, "seed": 43}, "hasher": "murmur3_x64_128", "total": 4, '
    b'"heavy": [["a", 2], ["b", 1], ["c", 1]]}'
    b'\x01\x00\x06counts\x03<i8\x02'
    b'\x02\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00\x00\x00\x00\x00'
    b'\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00'
    b'\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00'
    b'\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00'
    b'\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00'
    b'\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00'
    b'\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00'
)


def test_cms_state_is_sparse_when_smaller():
    """A few keys in a wide table travel as their non-zero cells and decode
    to the same matrix; a near-full table still travels dense."""
    from streammd_ray.sketches import Sketch

    for case in ("cms-str", "cms-int"):
        sk = _LAYOUT_CASES[case]()
        arrays = _cms_arrays(sk.to_bytes())
        assert set(arrays) == {"nz_idx", "nz_val"}
        assert arrays["nz_idx"].size == np.count_nonzero(sk.counts)
    full = CountMinSketch(eps=1e-2, delta=1e-2)
    full.insert_batch(np.arange(5_000).astype(str))
    assert np.count_nonzero(full.counts) > full.counts.size // 2
    data = full.to_bytes()
    assert set(_cms_arrays(data)) == {"counts"}
    assert np.array_equal(Sketch.from_bytes(data).counts, full.counts)


def test_cms_dense_state_of_earlier_layout_decodes():
    from streammd_ray.sketches import Sketch

    cms = Sketch.from_bytes(_DENSE_CMS_STATE)
    assert isinstance(cms, CountMinSketch)
    assert cms.counts.tolist() == [[0, 1, 2, 0, 0, 1], [0, 0, 0, 3, 0, 1]]
    assert cms.total == 4 and cms.heavy == {"a": 2, "b": 1, "c": 1}
    assert cms.query("a") == 2


@pytest.mark.parametrize(
    "idx, val, match",
    [
        ([0, 3, 12], [1, 1, 1], "strictly increasing"),  # 12 = 2 x 6 cells
        ([-1, 3], [1, 1], "strictly increasing"),
        ([3, 1], [1, 1], "strictly increasing"),
        ([1, 1], [1, 1], "strictly increasing"),
        ([1, 3], [1], "nz_val"),
        (np.array([1, 3], np.int32), [1, 1], "nz_idx"),
        ([1, 3], np.array([1.0, 1.0]), "nz_val"),
    ],
    ids=["out-of-range", "negative", "unsorted", "repeated", "lengths", "idx-dtype", "val-dtype"],
)
def test_cms_corrupt_sparse_state_refused(idx, val, match):
    from streammd_ray.sketches import Sketch, SketchError
    from streammd_ray.sketches.base import _decode, _encode

    kind, params, _ = _decode(_DENSE_CMS_STATE)
    arrays = {
        "nz_idx": np.asarray(idx, getattr(idx, "dtype", np.int64)),
        "nz_val": np.asarray(val, getattr(val, "dtype", np.int64)),
    }
    with pytest.raises(SketchError, match=match):
        Sketch.from_bytes(_encode(kind, params, arrays))


def test_cms_sparse_and_dense_states_merge_as_dense():
    from streammd_ray.sketches import Sketch

    def filled(keys):
        sk = CountMinSketch(eps=1e-2, delta=1e-2, track_heavy=4)
        sk.insert_batch(keys)
        return sk

    few = np.array(["a", "b", "a", "c"] * 50)
    many = np.arange(5_000).astype(str)
    sparse, dense = filled(few).to_bytes(), filled(many).to_bytes()
    assert set(_cms_arrays(sparse)) == {"nz_idx", "nz_val"}
    assert set(_cms_arrays(dense)) == {"counts"}
    want = filled(few).merge(filled(many))
    for a, b in ((sparse, dense), (dense, sparse)):
        got = Sketch.from_bytes(a).merge(Sketch.from_bytes(b))
        assert _state_equal(got, want)


def test_layout_refuses_unencodable_heavy_key():
    from streammd_ray.sketches import SketchError

    cms = CountMinSketch(eps=1e-2, delta=1e-2, track_heavy=4)
    cms.heavy[("a", "tuple")] = 1
    with pytest.raises(SketchError, match="tuple"):
        cms.to_bytes()
