"""Driver-contract self-check: every queries() entry runs, and every
oracle_sql() entry value-matches its Ray result at sf0.001 — a local replica
of the driver's DuckDB comparison (order-insensitive, columns sorted by
name)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def _duck():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con


def _to_df(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].where(df[c].notna(), None)
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
        if str(df[c].dtype) in ("float32",):
            df[c] = df[c].astype("float64")
        if str(df[c].dtype).startswith("int") or str(df[c].dtype).startswith("uint"):
            df[c] = df[c].astype("int64")
        if df[c].dtype == bool:
            df[c] = df[c].astype(bool)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


@pytest.fixture(scope="module")
def catalog():
    return entrymod.queries(), entrymod.oracle_sql()


def _alive_shards() -> set:
    import ray

    return {
        aid
        for aid, a in ray._private.state.actors().items()
        if a["ActorClassName"] == "_BloomShard" and a["State"] == "ALIVE"
    }


def test_entry_smoke(ray_session):
    import time

    before = _alive_shards()
    res = entrymod.entry()
    df = _to_df(res)
    assert len(df) >= 0
    assert "is_duplicate" in df.columns
    assert set(df.columns) >= {"conv_id", "turn_idx", "role", "text", "tool", "ts"}
    # entry() kills the shards it spawned; ray.kill is asynchronous, so poll
    deadline = time.monotonic() + 30
    while _alive_shards() - before and time.monotonic() < deadline:
        time.sleep(0.2)
    assert not _alive_shards() - before


def test_every_oracle_has_query(catalog):
    queries, oracles = catalog
    assert set(oracles) <= set(queries)


ORACLE_NAMES = sorted(
    __import__("streammd_ray.pipelines.queries", fromlist=["ORACLES"]).ORACLES
)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_query_matches_oracle(ray_session, catalog, name):
    queries, oracles = catalog
    got = _norm(_to_df(queries[name](SF)))
    want = _norm(_duck().execute(oracles[name]).fetchdf())
    assert list(got.columns) == list(want.columns), (
        f"{name}: columns {list(got.columns)} vs {list(want.columns)}"
    )
    assert len(got) == len(want), f"{name}: {len(got)} vs {len(want)} rows"
    pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-9)


NO_ORACLE = sorted(
    set(__import__("streammd_ray.pipelines.queries", fromlist=["QUERIES"]).QUERIES)
    - set(ORACLE_NAMES)
)


@pytest.mark.parametrize("name", NO_ORACLE)
def test_no_oracle_queries_run(ray_session, catalog, name):
    queries, _ = catalog
    df = _to_df(queries[name](SF))
    assert df is not None and len(df) >= 0
