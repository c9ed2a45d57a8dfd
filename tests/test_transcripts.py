"""Transcripts source: Ray derivation ≡ SQL derivation (the oracle identity),
plus generator invariants (FIXTURES.md F1)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from streammd_ray.sources import (
    TRANSCRIPTS_SCHEMA,
    derive_transcripts,
    generate_transcripts,
    transcripts_sql,
)

SF = "/root/testdata/sf0.001"


def _oracle_df(sf_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf_dir}/events.parquet')"
    )
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    return con.execute(transcripts_sql()).fetchdf()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return (
        df.sort_values(["conv_id", "turn_idx"], kind="stable")
        .reset_index(drop=True)[["conv_id", "turn_idx", "role", "text", "tool", "ts"]]
    )


def test_ray_matches_sql_oracle(ray_session):
    got = _norm(derive_transcripts(SF).to_pandas())
    want = _norm(_oracle_df(SF))
    assert len(got) == len(want) == 1000
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_schema_matches_input_hint(ray_session):
    ds = derive_transcripts(SF)
    schema = ds.schema()
    assert schema.names == [f.name for f in TRANSCRIPTS_SCHEMA]
    got_schema = dict(zip(schema.names, schema.types))
    for f in TRANSCRIPTS_SCHEMA:
        assert str(got_schema[f.name]) == str(f.type), f.name


def test_turn_ordering_invariant(ray_session):
    df = _norm(derive_transcripts(SF).to_pandas())
    for _, g in df.groupby("conv_id"):
        ti = g["turn_idx"].to_numpy()
        assert (ti == np.arange(len(ti))).all()  # contiguous, unique, 0-based
        ts = g["ts"].to_numpy()
        assert (np.diff(ts).astype("int64") >= 0).all()  # monotone ts


# --- synthetic generator ---


def test_generator_deterministic(tmp_path):
    p1, t1 = generate_transcripts(
        str(tmp_path / "a"), n_turns=5000, seed=7, return_truth=True
    )
    p2, t2 = generate_transcripts(
        str(tmp_path / "b"), n_turns=5000, seed=7, return_truth=True
    )
    assert t1.equals(t2)
    assert len(p1) == len(p2) == 8


def test_generator_truth_labels(tmp_path):
    _, truth = generate_transcripts(
        str(tmp_path / "g"), n_turns=8000, seed=3, dup_frac=0.3, return_truth=True
    )
    df = truth.to_pandas()
    nonnull = df[df["text"].notna()]
    # first occurrence of every text is not a duplicate; repeats all are
    firsts = nonnull.groupby("text", sort=False).head(1)
    assert not firsts["is_duplicate"].any()
    repeats = nonnull[nonnull.duplicated("text", keep="first")]
    assert repeats["is_duplicate"].all()
    # planted fraction is in the requested ballpark
    frac = df["is_duplicate"].sum() / len(nonnull)
    assert 0.2 < frac < 0.45
    # null texts are never labeled duplicate
    assert not df.loc[df["text"].isna(), "is_duplicate"].any()


def test_generator_schema_and_skew(tmp_path):
    import pyarrow.parquet as pq

    paths = generate_transcripts(str(tmp_path / "s"), n_turns=6000, seed=1)
    t = pq.read_table(str(tmp_path / "s"))
    assert t.schema.equals(TRANSCRIPTS_SCHEMA)
    sizes = t.to_pandas().groupby("conv_id").size()
    assert sizes.max() >= 50 * sizes.median()  # giant conversation present


def test_duplicates_straddle_files(tmp_path):
    import pyarrow.parquet as pq

    paths, truth = generate_transcripts(
        str(tmp_path / "x"), n_turns=8000, seed=11, dup_frac=0.3, return_truth=True
    )
    per_file_texts = []
    for p in paths:
        col = pq.read_table(p, columns=["text"])["text"].to_pylist()
        per_file_texts.append({t for t in col if t is not None})
    cross = set()
    for i in range(len(per_file_texts)):
        for j in range(i + 1, len(per_file_texts)):
            cross |= per_file_texts[i] & per_file_texts[j]
    assert len(cross) > 10  # duplicate keys span file boundaries
