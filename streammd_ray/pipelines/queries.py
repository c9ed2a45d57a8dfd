"""Query catalog: the engine's operators, each as a ``fn(sf_dir) -> Dataset |
DataFrame | Table`` with (where exactly reproducible) a DuckDB oracle SQL
built from the same single-source-of-truth rules.

Rows: the derived transcripts table (plain and sorted), the dedup family
(exact first-occurrence, per-conversation scope, removal, and the sharded
Bloom path's metrics), and for each of HLL, count-min, t-digest and KLL its
sketch estimate, its ``*_accuracy`` row and its exact twin.

Column names are kept identical between the Ray result and the SQL (the
driver hash-compares after sorting columns by name). Sketch-estimate
queries deliberately have NO oracle (the driver records a rows-only check);
each has an exact twin that IS oracle-checked, and an accuracy row that
gates the estimate on its published bound.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.transcripts import (
    TRANSCRIPTS_SCHEMA,
    derive_transcripts,
    transcripts_sql,
)
from ..stages.dedup import dedup_exact_first
from ..stages.quantiles import exact_quantile_select

T_CTE = f"WITH transcripts AS (\n{transcripts_sql()}\n)"

_CACHE_ROOT = "/tmp/streammd_cache"
_DERIVE_VERSION = "v3"  # bump when the derivation rules/layout change


def _transcripts_cache_dir(sf_dir: str) -> str:
    import hashlib
    import os

    tag = hashlib.md5(f"{sf_dir}:{_DERIVE_VERSION}".encode()).hexdigest()[:16]
    return os.path.join(_CACHE_ROOT, f"transcripts-{tag}")


def transcripts_ds(sf_dir: str, *, columns: list[str] | None = None):
    """The derived transcripts table, materialized once per sf_dir to a
    parquet cache under /tmp (tmp dir + atomic rename, never a half-written
    cache) — the derivation is deterministic, so every query over
    transcripts then starts from a column-prunable parquet read instead of
    re-running the derivation's shuffle.

    The read is a plain ``read_parquet``, not the engine's one read
    (``sources.parquet_files``): the cache is written from
    ``TRANSCRIPTS_SCHEMA`` tables, which carry no pandas schema metadata to
    strip, and Ray's read with no map on top keeps its in-memory size
    estimate (``infer_metadata().size_bytes``) for ``dedup_exact_first``'s
    partition count, which the engine read does not make."""
    import os
    import shutil

    import ray.data as rd

    cache = _transcripts_cache_dir(sf_dir)
    marker = os.path.join(cache, "_DONE")
    if not os.path.exists(marker):
        tmp = cache + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        derive_transcripts(sf_dir).write_parquet(tmp)
        open(os.path.join(tmp, "_DONE"), "w").write("ok")
        shutil.rmtree(cache, ignore_errors=True)
        os.replace(tmp, cache)
    if columns is None:
        columns = [f.name for f in TRANSCRIPTS_SCHEMA]
    return rd.read_parquet(cache, columns=columns)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _one_row(d: dict) -> pa.Table:
    return pa.table({k: [v] for k, v in d.items()})


# ---------------------------------------------------------------------------
# transcripts + dedup family
# ---------------------------------------------------------------------------


def q_transcripts(sf_dir: str):
    return derive_transcripts(sf_dir)


def sql_transcripts() -> str:
    return f"{T_CTE} SELECT * FROM transcripts"


def q_transcripts_sorted(sf_dir: str):
    """ORDER-VERIFIED query: sort the transcripts by (conv_id, turn_idx) in
    Ray, then stamp each row with its PHYSICAL position in the sorted
    stream. Hash-matching against the oracle's row_number() proves the
    engine's sort actually produced the stable output ordering the
    input_hint requires — not just the right row set. (The driver-side
    enumerate is verification plumbing at validation scale; the production
    path is write_transcripts(sort=True), which writes range-partitioned
    part files in block order.)"""
    ds = transcripts_ds(sf_dir, columns=["conv_id", "turn_idx", "role"])
    df = ds.sort(["conv_id", "turn_idx"]).to_pandas()  # preserves block order
    df = df.reset_index(drop=True)
    df.insert(0, "out_pos", np.arange(len(df), dtype=np.int64))
    return df


def sql_transcripts_sorted() -> str:
    return f"""{T_CTE}
SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS out_pos,
       conv_id, turn_idx, role
FROM transcripts"""


def q_dedup_exact_first(sf_dir: str):
    out = dedup_exact_first(transcripts_ds(sf_dir))
    return out.select_columns(["conv_id", "turn_idx", "is_duplicate"])


def sql_dedup_exact_first() -> str:
    return f"""{T_CTE}
SELECT conv_id, turn_idx,
  CASE WHEN text IS NULL THEN FALSE
       ELSE row_number() OVER (PARTITION BY text ORDER BY conv_id, turn_idx) > 1
  END AS is_duplicate
FROM transcripts"""


def q_dedup_per_conversation(sf_dir: str):
    out = dedup_exact_first(
        transcripts_ds(sf_dir), key_cols=("text", "conv_id")
    )
    return out.select_columns(["conv_id", "turn_idx", "is_duplicate"])


def sql_dedup_per_conversation() -> str:
    return f"""{T_CTE}
SELECT conv_id, turn_idx,
  CASE WHEN text IS NULL THEN FALSE
       ELSE row_number() OVER (PARTITION BY conv_id, text ORDER BY conv_id, turn_idx) > 1
  END AS is_duplicate
FROM transcripts"""


def q_dedup_remove(sf_dir: str):
    out = dedup_exact_first(transcripts_ds(sf_dir))
    kept = out.map_batches(
        lambda t: t.filter(pc.invert(t["is_duplicate"].combine_chunks())),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return kept.select_columns(["conv_id", "turn_idx", "role", "text"])


def sql_dedup_remove() -> str:
    return f"""{T_CTE}
SELECT conv_id, turn_idx, role, text FROM (
  SELECT *,
    CASE WHEN text IS NULL THEN FALSE
         ELSE row_number() OVER (PARTITION BY text ORDER BY conv_id, turn_idx) > 1
    END AS dup
  FROM transcripts
) WHERE NOT dup"""


def q_dedup_bloom_metrics(sf_dir: str):
    """The flagship's metrics through the REAL sharded-Bloom path — once per
    probe layout (classic and split), so BOTH layouts carry a
    driver-recorded oracle row.

    A 1 MiB budget over 4 shards gives each a 2^21-bit filter; the
    validation inputs hold at most ~5,000 distinct texts (~1,250 per shard),
    so the expected false-positive count stays below 1e-8 (classic, k=10:
    ~3e-19; split, k=8: ~9e-10) — the aggregate counters then equal the
    exact-dedup counts and the query is oracle-checkable despite the
    probabilistic engine underneath."""
    import pandas as pd

    from .flagship import run_flagship

    # exact CONVERSATIONS: conv_id is untouched by marking, so its distinct
    # count over the input is the marked table's
    conversations = (
        transcripts_ds(sf_dir, columns=["conv_id"]).groupby("conv_id").count().count()
    )
    rows = []
    for layout in ("classic", "split"):
        res = run_flagship(
            transcripts_ds(sf_dir),
            p=1e-9,
            mem="1MiB",
            num_shards=4,
            bloom_layout=layout,
        )
        m = res.metrics()
        rows.append(
            {
                "bloom_layout": layout,
                "turns": int(m["TURNS"]),
                "turns_null_text": int(m["TURNS_NULL_TEXT"]),
                "turns_marked_duplicate": int(m["TURNS_MARKED_DUPLICATE"]),
                "conversations": int(conversations),
                "turn_duplicate_fraction": float(m["TURN_DUPLICATE_FRACTION"]),
            }
        )
    return pd.DataFrame(rows)


def sql_dedup_bloom_metrics() -> str:
    return f"""{T_CTE},
m AS (
  SELECT
    count(*) AS turns,
    count(*) FILTER (WHERE text IS NULL) AS turns_null_text,
    count(text) - count(DISTINCT text) AS turns_marked_duplicate,
    count(DISTINCT conv_id) AS conversations,
    round((count(text) - count(DISTINCT text)) / CAST(count(text) AS DOUBLE), 4)
      AS turn_duplicate_fraction
  FROM transcripts
)
SELECT 'classic' AS bloom_layout, * FROM m
UNION ALL
SELECT 'split' AS bloom_layout, * FROM m"""


# ---------------------------------------------------------------------------
# cardinality / heavy hitters / quantiles: exact twins + sketch versions
# ---------------------------------------------------------------------------


def q_distinct_conversations_exact(sf_dir: str):
    from ray.data.aggregate import Count

    ds = transcripts_ds(sf_dir, columns=["conv_id"])
    # distinct via groupby-count (one hash shuffle of the key column);
    # ds.unique() in this Ray version trips on arrow-string blocks
    n = ds.groupby("conv_id").aggregate(Count(alias_name="n")).count()
    return _one_row({"n_conversations": int(n)})


def sql_distinct_conversations_exact() -> str:
    return f"{T_CTE} SELECT count(DISTINCT conv_id) AS n_conversations FROM transcripts"


def q_hll_distinct_conversations(sf_dir: str):
    from ..sketches.hll import HyperLogLog
    from ..stages.sketch_agg import sketch_column

    ds = transcripts_ds(sf_dir, columns=["conv_id"])
    hll = sketch_column(ds, "conv_id", HyperLogLog())
    return _one_row(
        {"estimate": float(hll.estimate()), "relative_error": hll.relative_error}
    )


def q_heavy_tools_exact(sf_dir: str):
    """Top-5 tools by exact count. Pre-aggregates per batch (value_counts →
    one tiny (tool, n_part) table per block) so the groupby shuffles ~tools ×
    blocks rows instead of every transcript row — the classic partial/combine
    split for a low-cardinality key. (Round-2 shuffled all 16 M rows and was
    2.3× slower than round 1; VERDICT r2 "What's wrong" #6.)"""
    from ray.data.aggregate import Sum

    ds = transcripts_ds(sf_dir, columns=["tool"])

    def partial(t: pa.Table) -> pa.Table:
        vc = t["tool"].combine_chunks().drop_null().value_counts()
        return pa.table({"tool": vc.field("values"), "n_part": vc.field("counts")})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("tool")
        .aggregate(Sum("n_part", alias_name="n"))
    )
    return agg.sort(["n", "tool"], descending=[True, False]).limit(5)


def sql_heavy_tools_exact() -> str:
    return f"""{T_CTE}
SELECT tool, count(*) AS n FROM transcripts WHERE tool IS NOT NULL
GROUP BY tool ORDER BY n DESC, tool LIMIT 5"""


def q_cms_heavy_tools(sf_dir: str):
    from ..sketches.cms import CountMinSketch
    from ..stages.sketch_agg import sketch_column

    ds = transcripts_ds(sf_dir, columns=["tool"])
    cms = sketch_column(
        ds, "tool", CountMinSketch(eps=1e-4, delta=1e-3, track_heavy=8)
    )
    top = cms.top_k(5)
    return pa.table(
        {
            "tool": [t for t, _ in top],
            "est_n": [int(n) for _, n in top],
        }
    )


def q_turn_length_quantiles_exact(sf_dir: str):
    ds = transcripts_ds(sf_dir, columns=["text"])
    ds = ds.map_batches(
        lambda t: pa.table({"len": pc.utf8_length(t["text"])}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    p50, p90, p99 = exact_quantile_select(ds, "len", (0.5, 0.9, 0.99))
    return _one_row({"p50": int(p50), "p90": int(p90), "p99": int(p99)})


def sql_turn_length_quantiles_exact() -> str:
    return f"""{T_CTE}
SELECT quantile_disc(length(text), 0.5) AS p50,
       quantile_disc(length(text), 0.9) AS p90,
       quantile_disc(length(text), 0.99) AS p99
FROM transcripts WHERE text IS NOT NULL"""


def q_tdigest_turn_length_quantiles(sf_dir: str):
    from ..sketches.tdigest import TDigest
    from ..stages.sketch_agg import sketch_column

    ds = transcripts_ds(sf_dir, columns=["text"])
    ds = ds.map_batches(
        lambda t: pa.table(
            {"len": pc.cast(pc.utf8_length(t["text"]), pa.float64())}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    td = sketch_column(ds, "len", TDigest())
    return _one_row(
        {
            "p50": float(td.quantile(0.5)),
            "p90": float(td.quantile(0.9)),
            "p99": float(td.quantile(0.99)),
        }
    )


def _latency_ds(sf_dir: str):
    """Inter-turn latency (microseconds) per conversation — partition-
    vectorized (one cython groupby-diff per hash partition, not a Python
    call per conversation; stages/windows.py)."""
    from ..stages.windows import partitioned_group_apply, per_key_diff_partition

    ds = transcripts_ds(sf_dir, columns=["conv_id", "turn_idx", "ts"])
    out = partitioned_group_apply(
        ds, "conv_id", per_key_diff_partition(), num_partitions=32
    )
    # kll_accuracy reads this column three times (sketch, rank check, exact
    # quantiles): pin it once instead of re-running the windowed derivation
    # per read.
    return out.materialize()


def q_latency_quantiles_exact(sf_dir: str):
    dt = _latency_ds(sf_dir)
    p50, p90, p99 = exact_quantile_select(dt, "dt_us", (0.5, 0.9, 0.99))
    return _one_row({"p50": int(p50), "p90": int(p90), "p99": int(p99)})


def sql_latency_quantiles_exact() -> str:
    return f"""{T_CTE},
d AS (
  SELECT epoch_us(ts) - lag(epoch_us(ts)) OVER (PARTITION BY conv_id ORDER BY turn_idx)
         AS dt_us
  FROM transcripts
)
SELECT quantile_disc(dt_us, 0.5) AS p50,
       quantile_disc(dt_us, 0.9) AS p90,
       quantile_disc(dt_us, 0.99) AS p99
FROM d WHERE dt_us IS NOT NULL"""


def q_kll_latency_quantiles(sf_dir: str):
    from ..sketches.kll import KLL
    from ..stages.sketch_agg import sketch_column

    dt = _latency_ds(sf_dir)
    kll = sketch_column(dt, "dt_us", KLL(k=200))
    return _one_row(
        {
            "p50": float(kll.quantile(0.5)),
            "p90": float(kll.quantile(0.9)),
            "p99": float(kll.quantile(0.99)),
            "n": int(kll.n),
        }
    )


# ---------------------------------------------------------------------------
# driver-checkable accuracy for the approximate operators (VERDICT r2 #5)
#
# Shape: each *_accuracy query returns (a) exact quantities BOTH engines
# compute independently — genuinely cross-checked by DuckDB — and (b)
# booleans asserting the approximate estimate sits within its published
# bound, with the tolerance encoded on the Ray side and the SQL returning
# literal TRUE. A sketch drifting out of bound flips the boolean and fails
# the driver's hash compare, so sketch accuracy is now part of the
# correctness gate instead of living only in pytest.
# ---------------------------------------------------------------------------


def _rank_of(ds, col: str, values) -> tuple[np.ndarray, int]:
    """Distributed normalized ranks: for each v in values, the fraction of
    non-null rows with x <= v. One map_batches partial per block + a tiny
    global aggregate; the driver holds len(values)+1 numbers."""
    from ray.data.aggregate import Sum

    vals = np.asarray(values, dtype=np.float64)

    def partial(t: pa.Table) -> pa.Table:
        x = t[col].combine_chunks().drop_null().to_numpy(zero_copy_only=False)
        x = x.astype(np.float64)
        counts = (x[:, None] <= vals[None, :]).sum(axis=0)
        cols = {f"c{i}": [int(c)] for i, c in enumerate(counts)}
        cols["n"] = [len(x)]
        return pa.table(cols)

    aggs = [Sum(f"c{i}", alias_name=f"c{i}") for i in range(len(vals))]
    aggs.append(Sum("n", alias_name="n"))
    res = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).aggregate(
        *aggs
    )
    n = int(res["n"])
    ranks = np.array([res[f"c{i}"] for i in range(len(vals))], dtype=np.float64)
    return ranks / max(n, 1), n


def q_hll_accuracy(sf_dir: str):
    """HLL estimate vs exact distinct count, gated at 4σ (σ = 1.04/√m)."""
    from ray.data.aggregate import Count

    from ..sketches.hll import HyperLogLog
    from ..stages.sketch_agg import sketch_column

    ds = transcripts_ds(sf_dir, columns=["conv_id"])
    hll = sketch_column(ds, "conv_id", HyperLogLog())
    n_exact = ds.groupby("conv_id").aggregate(Count(alias_name="n")).count()
    rel = abs(float(hll.estimate()) - n_exact) / max(n_exact, 1)
    return _one_row(
        {"n_exact": int(n_exact), "within_bound": bool(rel <= 4 * hll.relative_error)}
    )


def sql_hll_accuracy() -> str:
    return f"""{T_CTE}
SELECT count(DISTINCT conv_id) AS n_exact, true AS within_bound FROM transcripts"""


def q_cms_accuracy(sf_dir: str):
    """CMS point counts vs exact for the top-5 tools: CMS never undercounts
    (deterministic), and overcounts by at most eps·N w.p. 1−delta."""
    from ..sketches.cms import CountMinSketch
    from ..stages.sketch_agg import sketch_column

    exact = q_heavy_tools_exact(sf_dir).to_pandas()
    ds = transcripts_ds(sf_dir, columns=["tool"])
    cms = sketch_column(ds, "tool", CountMinSketch(eps=1e-4, delta=1e-3, track_heavy=8))
    est = np.array([cms.query(t) for t in exact["tool"]], dtype=np.int64)
    n = exact["n"].to_numpy()
    bound = cms.eps * cms.total
    return pd.DataFrame(
        {
            "tool": exact["tool"],
            "n": n,
            "no_undercount": est >= n,
            "within_eps": (est - n) <= bound,
        }
    )


def sql_cms_accuracy() -> str:
    return f"""{T_CTE}
SELECT tool, count(*) AS n, true AS no_undercount, true AS within_eps
FROM transcripts WHERE tool IS NOT NULL
GROUP BY tool ORDER BY count(*) DESC, tool LIMIT 5"""


def q_tdigest_accuracy(sf_dir: str):
    """t-digest quantile estimates checked in RANK space (its native
    guarantee): the true rank of each estimated quantile must sit within
    0.03 of the requested q. Exact quantiles ride along, cross-checked."""
    from ..sketches.tdigest import TDigest
    from ..stages.sketch_agg import sketch_column

    qs = (0.5, 0.9, 0.99)
    ds = transcripts_ds(sf_dir, columns=["text"])
    lens = ds.map_batches(
        lambda t: pa.table({"len": pc.cast(pc.utf8_length(t["text"]), pa.float64())}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    td = sketch_column(lens, "len", TDigest())
    est = [float(td.quantile(q)) for q in qs]
    ranks, _ = _rank_of(lens, "len", est)
    v_exact = exact_quantile_select(lens, "len", qs)
    return pa.table(
        {
            "q": pa.array(list(qs), pa.float64()),
            "v_exact": pa.array([int(v) for v in v_exact], pa.int64()),
            "rank_ok": pa.array(
                [bool(abs(r - q) <= 0.03) for r, q in zip(ranks, qs)]
            ),
        }
    )


def sql_tdigest_accuracy() -> str:
    # quantile_disc requires a constant q — one SELECT per quantile
    return f"""{T_CTE},
l AS (SELECT length(text) AS len FROM transcripts WHERE text IS NOT NULL)
SELECT 0.5 AS q, CAST(quantile_disc(len, 0.5) AS BIGINT) AS v_exact, true AS rank_ok FROM l
UNION ALL
SELECT 0.9, CAST(quantile_disc(len, 0.9) AS BIGINT), true FROM l
UNION ALL
SELECT 0.99, CAST(quantile_disc(len, 0.99) AS BIGINT), true FROM l
ORDER BY q"""


def q_kll_accuracy(sf_dir: str):
    """KLL quantile estimates checked in rank space against the sketch's own
    ε ≈ 1.7/k bound (×4 for the merged multi-stream case)."""
    from ..sketches.kll import KLL
    from ..stages.sketch_agg import sketch_column

    qs = (0.5, 0.9, 0.99)
    dt = _latency_ds(sf_dir)
    kll = sketch_column(dt, "dt_us", KLL(k=200))
    est = [float(kll.quantile(q)) for q in qs]
    ranks, _ = _rank_of(dt, "dt_us", est)
    v_exact = exact_quantile_select(dt, "dt_us", qs)
    eps = 4 * kll.rank_error
    return pa.table(
        {
            "q": pa.array(list(qs), pa.float64()),
            "v_exact": pa.array([int(v) for v in v_exact], pa.int64()),
            "rank_ok": pa.array([bool(abs(r - q) <= eps) for r, q in zip(ranks, qs)]),
        }
    )


def sql_kll_accuracy() -> str:
    return f"""{T_CTE},
d AS (
  SELECT epoch_us(ts) - lag(epoch_us(ts)) OVER (PARTITION BY conv_id ORDER BY turn_idx)
         AS dt_us
  FROM transcripts
),
dd AS (SELECT dt_us FROM d WHERE dt_us IS NOT NULL)
SELECT 0.5 AS q, CAST(quantile_disc(dt_us, 0.5) AS BIGINT) AS v_exact, true AS rank_ok FROM dd
UNION ALL
SELECT 0.9, CAST(quantile_disc(dt_us, 0.9) AS BIGINT), true FROM dd
UNION ALL
SELECT 0.99, CAST(quantile_disc(dt_us, 0.99) AS BIGINT), true FROM dd
ORDER BY q"""


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

QUERIES = {
    "transcripts": q_transcripts,
    "transcripts_sorted": q_transcripts_sorted,
    "dedup_exact_first": q_dedup_exact_first,
    "dedup_per_conversation": q_dedup_per_conversation,
    "dedup_remove": q_dedup_remove,
    "dedup_bloom_metrics": q_dedup_bloom_metrics,
    "distinct_conversations_exact": q_distinct_conversations_exact,
    "heavy_tools_exact": q_heavy_tools_exact,
    "turn_length_quantiles_exact": q_turn_length_quantiles_exact,
    "latency_quantiles_exact": q_latency_quantiles_exact,
    "hll_accuracy": q_hll_accuracy,
    "cms_accuracy": q_cms_accuracy,
    "tdigest_accuracy": q_tdigest_accuracy,
    "kll_accuracy": q_kll_accuracy,
    # --- no oracle: sketch estimates (each has an exact twin above) ---
    "hll_distinct_conversations": q_hll_distinct_conversations,
    "cms_heavy_tools": q_cms_heavy_tools,
    "tdigest_turn_length_quantiles": q_tdigest_turn_length_quantiles,
    "kll_latency_quantiles": q_kll_latency_quantiles,
}

ORACLES = {
    "transcripts": sql_transcripts(),
    "transcripts_sorted": sql_transcripts_sorted(),
    "dedup_exact_first": sql_dedup_exact_first(),
    "dedup_per_conversation": sql_dedup_per_conversation(),
    "dedup_remove": sql_dedup_remove(),
    "dedup_bloom_metrics": sql_dedup_bloom_metrics(),
    "distinct_conversations_exact": sql_distinct_conversations_exact(),
    "heavy_tools_exact": sql_heavy_tools_exact(),
    "turn_length_quantiles_exact": sql_turn_length_quantiles_exact(),
    "latency_quantiles_exact": sql_latency_quantiles_exact(),
    "hll_accuracy": sql_hll_accuracy(),
    "cms_accuracy": sql_cms_accuracy(),
    "tdigest_accuracy": sql_tdigest_accuracy(),
    "kll_accuracy": sql_kll_accuracy(),
}
