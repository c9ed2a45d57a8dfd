"""Distributed exact quantile selection vs brute force / DuckDB rank rule."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from streammd_ray.stages.quantiles import exact_quantile_select

QS = (0.5, 0.9, 0.99)


def _duck_disc(v: np.ndarray, q: float) -> float:
    """DuckDB quantile_disc rank rule on clean (non-NaN) data."""
    s = np.sort(v)
    rank = max(0, int(np.ceil(q * len(s))) - 1)
    return float(s[rank])


@pytest.mark.parametrize(
    "name,gen",
    [
        ("uniform", lambda rng: rng.uniform(-1e3, 1e3, 100_000)),
        ("lognormal_skew", lambda rng: rng.lognormal(0, 4, 100_000)),
        ("small_ints", lambda rng: rng.integers(0, 50, 100_000).astype(np.float64)),
        (
            "heavy_constant",
            lambda rng: np.concatenate(
                [np.full(80_000, 7.5), rng.uniform(0, 1, 20_000)]
            ),
        ),
        ("negative", lambda rng: -rng.exponential(10, 50_000)),
    ],
)
def test_exact_quantiles_match_rank_rule(ray_session, name, gen):
    rng = np.random.default_rng(11)
    v = gen(rng)
    ds = rd.from_arrow(pa.table({"x": v})).repartition(8)
    got = exact_quantile_select(ds, "x", QS)
    want = [_duck_disc(v, q) for q in QS]
    assert got == pytest.approx(want, abs=0), (name, got, want)


def test_quantiles_nan_and_all_null_blocks(ray_session):
    """NaNs count as NULL, whole input blocks hold only nulls, and 8
    distinct values over 16 sorted blocks leave at least 7 of them empty:
    the rank lookup must skip zero-row blocks and reach both end ranks."""
    v = np.random.default_rng(3).integers(0, 8, 1_000).astype(np.float64)
    col = pa.chunked_array(
        [v, pa.nulls(3_000, pa.float64()), np.full(50, np.nan)], pa.float64()
    )
    ds = rd.from_arrow(pa.table({"x": col})).repartition(16)
    qs = (0.0, 0.5, 1.0)
    assert exact_quantile_select(ds, "x", qs) == [_duck_disc(v, q) for q in qs]


def test_quantiles_all_equal(ray_session):
    ds = rd.from_arrow(pa.table({"x": np.full(10_000, 3.25)}))
    assert exact_quantile_select(ds, "x", (0.1, 0.99)) == [3.25, 3.25]


def test_quantiles_nulls_skipped(ray_session):
    v = pa.array([1.0, None, 2.0, None, 3.0, 4.0, 5.0])
    ds = rd.from_arrow(pa.table({"x": v}))
    # 5 non-null values; q=0.5 → rank ceil(2.5)-1=2 → value 3.0
    assert exact_quantile_select(ds, "x", (0.5,)) == [3.0]


def test_quantiles_timestamp_column(ray_session):
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 10**12, 20_000)
    ds = rd.from_arrow(pa.table({"x": pa.array(raw, pa.timestamp("us"))}))
    got = exact_quantile_select(ds, "x", (0.5,))
    assert got == [_duck_disc(raw.astype(np.float64), 0.5)]


def test_quantiles_empty_column_raises(ray_session):
    ds = rd.from_arrow(pa.table({"x": pa.array([None, None], pa.float64())}))
    with pytest.raises(ValueError, match="no non-null"):
        exact_quantile_select(ds, "x", (0.5,))
