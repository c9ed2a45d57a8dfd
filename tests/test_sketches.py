"""HLL / CMS / t-digest / KLL: published-error-bound compliance + merge
associativity under permuted partition orders (north_rule), with deterministic
seeds — the pytest analog of the reference's hand-rolled statistical tests
(/root/reference/tests/test_bloomfilter.cxx:83-148)."""

import numpy as np
import pytest

from streammd_ray.sketches import KLL, CountMinSketch, HyperLogLog, TDigest

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
