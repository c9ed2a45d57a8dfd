"""Transcripts source — the engine's primary input table.

Shape fixed by BASELINE.json ``input_hint``:
``(conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp[us])`` with ``turn_idx`` contiguous/unique within ``conv_id`` and
``ts`` monotone within a conversation.

Two providers:

- :func:`derive_transcripts` — a *deterministic, SQL-expressible* derivation
  from the driver-supplied ``events`` + ``documents`` tables
  (/root/testdata/sf*/). The identical logic is emitted as ANSI SQL by
  :func:`transcripts_sql`, so every downstream pipeline can be value-checked
  against a DuckDB oracle (the driver's correctness gate). Duplicate texts
  arise naturally: events map onto the much smaller documents table, so each
  document text recurs ~20× across conversations — the planted-duplicate
  analog of the reference's test corpus construction
  (/root/reference/tests/manual/README.md).

- :func:`generate_transcripts` — a seeded synthetic generator for bench /
  property tests at arbitrary scale (zipf-skewed conversation sizes, planted
  exact duplicates with ground-truth labels, null texts, cross-file duplicate
  straddling). No external data.

Derivation rules (single source of truth — keep Ray and SQL in lockstep):

  rn       = row_number per user_id ordered by (ts, event_id), 0-based
  conv_id  = 'conv-' || lpad(user_id, 4, '0') || '-' || lpad(rn / 20, 5, '0')
  turn_idx = rn % 20
  role     = {click: user, view: assistant, signup: system,
              purchase: user, error: tool}[event_type]
  text     = NULL if event_type = 'error'
             else documents.text where doc_id = event_id % (count of documents)
  tool     = 'tool-' || (event_id % 7)  if event_type in (purchase, error)
             else NULL
  ts       = events.ts
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

TRANSCRIPTS_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

TURNS_PER_CONV = 20
N_TOOLS = 7

_ROLE_MAP = {
    "click": "user",
    "view": "assistant",
    "signup": "system",
    "purchase": "user",
    "error": "tool",
}


def transcripts_sql() -> str:
    """The canonical derivation as an ANSI-SQL CTE body (DuckDB-compatible),
    producing the transcripts relation from views ``events``/``documents``.
    Wrap with 'WITH transcripts AS (...)' or select from it directly."""
    case_role = " ".join(
        f"WHEN '{k}' THEN '{v}'" for k, v in _ROLE_MAP.items()
    )
    return f"""
SELECT
  'conv-' || lpad(CAST(n.user_id AS VARCHAR), 4, '0') || '-'
          || lpad(CAST(CAST(floor(n.rn / {TURNS_PER_CONV}) AS BIGINT) AS VARCHAR), 5, '0') AS conv_id,
  CAST(n.rn % {TURNS_PER_CONV} AS INTEGER) AS turn_idx,
  CASE n.event_type {case_role} END AS role,
  CASE WHEN n.event_type = 'error' THEN NULL ELSE d.text END AS text,
  CASE WHEN n.event_type IN ('purchase', 'error')
       THEN 'tool-' || CAST(n.event_id % {N_TOOLS} AS VARCHAR)
       ELSE NULL END AS tool,
  n.ts AS ts
FROM (
  SELECT e.*, row_number() OVER (PARTITION BY e.user_id ORDER BY e.ts, e.event_id) - 1 AS rn
  FROM events e
) n
JOIN documents d ON d.doc_id = n.event_id % (SELECT count(*) FROM documents)
""".strip()


def _doc_lookup(sf_dir: str) -> tuple[np.ndarray, int]:
    """documents.text as a doc_id-indexed numpy object array (the broadcast
    small side of the join — shipped once via ray.put, not per batch)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    doc_id = t["doc_id"].to_numpy()
    n = len(doc_id)
    texts = np.empty(n, dtype=object)
    texts[doc_id] = np.asarray(t["text"].to_pylist(), dtype=object)
    return texts, n


def read_parquet_clean(paths, **kwargs):
    """read_parquet + strip schema metadata. Parquet written by pandas
    carries a ``pandas`` schema-metadata entry that makes pyarrow Schemas
    unhashable — Ray Data then logs "Failed to hash the schemas (for
    deduplication)" on every block unification and falls back to the slow
    unify path. Stripping at the read (a fused, zero-copy map) keeps every
    downstream schema clean.

    This stays on Ray's reader, not the engine's one read
    (``sources.parquet_files``): it reads single source tables, which Ray's
    reader splits into blocks for the derivation's shuffle, where the
    engine read keeps a file whole within one task."""
    import ray.data as rd

    return rd.read_parquet(paths, **kwargs).map_batches(
        lambda t: t.replace_schema_metadata(None),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def derive_transcripts(sf_dir: str):
    """events + documents → transcripts as a ray.data.Dataset.

    Plan: read events (pruned columns) → partitioned_group_apply on user_id
    to assign the per-user row_number (one shuffle, keyed on user_id;
    per-user groups are small and numerous so skew is benign) → map_batches
    broadcast-join of document texts (documents is the small side: ray.put
    once, read per actor, never re-shipped per batch).
    """
    import ray

    texts, ndocs = _doc_lookup(sf_dir)
    texts_ref = ray.put(texts)

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def per_partition(t: pa.Table) -> pd.DataFrame:
        """All users of a hash partition in ONE vectorized pass (sort +
        cython groupby-cumcount) — no per-user Python; this stage was the
        dominant cost of the derivation as a per-group map_groups."""
        df = t.to_pandas().sort_values(
            ["user_id", "ts", "event_id"], kind="stable"
        )
        rn = df.groupby("user_id", sort=False).cumcount().to_numpy(np.int64)
        uid = df["user_id"].to_numpy()
        conv = np.char.add(
            np.char.add("conv-", np.char.zfill(uid.astype(str), 4)),
            np.char.add("-", np.char.zfill((rn // TURNS_PER_CONV).astype(str), 5)),
        )
        return pd.DataFrame(
            {
                "conv_id": conv,
                "turn_idx": (rn % TURNS_PER_CONV).astype(np.int32),
                "role": df["event_type"].map(_ROLE_MAP).to_numpy(),
                "event_id": df["event_id"].to_numpy(),
                "event_type": df["event_type"].to_numpy(),
                "ts": df["ts"].to_numpy(),
            }
        )

    from ..stages.windows import partitioned_group_apply

    ds = partitioned_group_apply(ds, "user_id", per_partition)

    # Task-based attach (plain function closing over the broadcast ref):
    # fuses with the upstream stage — no actor pool to spawn per derivation,
    # no extra object-store hop. Ray Data deserializes the function in each
    # task, so the text array is ray.get'd once per TASK (cached in the
    # closure's holder, zero-copy from the object store), not per batch.
    holder: dict = {}

    def attach_text(batch: pd.DataFrame) -> pa.Table:
        texts = holder.get("texts")
        if texts is None:
            texts = holder["texts"] = ray.get(texts_ref)
        eid = batch["event_id"].to_numpy()
        text = texts[eid % ndocs].copy()
        is_err = (batch["event_type"] == "error").to_numpy()
        text[is_err] = None
        tool = np.where(
            np.isin(batch["event_type"].to_numpy(), ["purchase", "error"]),
            np.char.add("tool-", (eid % N_TOOLS).astype(str)),
            None,
        )
        return pa.Table.from_arrays(
            [
                pa.array(batch["conv_id"].to_numpy(), pa.string()),
                pa.array(batch["turn_idx"].to_numpy(), pa.int32()),
                pa.array(batch["role"].to_numpy(), pa.string()),
                pa.array(text, pa.string()),
                pa.array(tool, pa.string()),
                pa.array(batch["ts"].to_numpy().astype("datetime64[us]")),
            ],
            schema=TRANSCRIPTS_SCHEMA,
        )

    return ds.map_batches(attach_text, batch_format="pandas")


# ---------------------------------------------------------------------------
# Synthetic generator (bench / property tests) — FIXTURES.md F1
# ---------------------------------------------------------------------------

_WORDS = np.array(
    "the quick brown fox jumps over lazy dog agent tool call model context "
    "turn reply question answer code data table query result error retry "
    "plan step think write read file search merge sort index batch stream".split()
)


def generate_transcripts(
    out_dir: str,
    *,
    n_turns: int = 100_000,
    seed: int = 42,
    dup_frac: float = 0.25,
    null_frac: float = 0.02,
    n_files: int = 8,
    mean_turns_per_conv: int = 16,
    text_words: int = 40,
    return_truth: bool = False,
):
    """Write a deterministic synthetic transcripts table (FIXTURES.md F1).

    - conversation sizes ~ zipf-skewed (plus one giant conversation);
    - ``dup_frac`` of non-null turns carry text byte-identical to an earlier
      turn in stable (conv_id, turn_idx) order (first occurrence = original);
    - ``null_frac`` turns have NULL text (counted-not-inserted analog);
    - rows are written in conv-major order across ``n_files`` files, so
    duplicate pairs routinely straddle file boundaries (key-routing test).

    Returns the output file paths; with ``return_truth`` also returns the
    ground-truth ``is_duplicate`` labels (first-seen-wins on text bytes).
    """
    import os

    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    # conversation sizes: zipf-ish, capped; one giant conversation for skew
    sizes = []
    total = 0
    giant = min(n_turns // 10, 50_000)
    if giant > 0:
        sizes.append(giant)
        total += giant
    while total < n_turns:
        s = min(int(rng.zipf(1.5)) * mean_turns_per_conv // 4 + 1, 400)
        sizes.append(s)
        total += s
    sizes[-1] -= total - n_turns
    if sizes[-1] <= 0:
        sizes.pop()
    sizes = np.array(sizes)
    n = int(sizes.sum())
    n_convs = len(sizes)

    conv_ids = np.char.add(
        "conv-", np.char.zfill(np.arange(n_convs).astype(str), 7)
    )
    conv_col = np.repeat(conv_ids, sizes)
    turn_idx = np.concatenate([np.arange(s, dtype=np.int32) for s in sizes])

    roles = rng.choice(
        np.array(["user", "assistant", "system", "tool"]),
        size=n,
        p=[0.45, 0.45, 0.02, 0.08],
    )
    # tools: zipf-skewed over ~50 names, only on tool turns
    tool_ids = np.clip(rng.zipf(1.4, size=n), 1, 50)
    tool_col = np.where(
        roles == "tool", np.char.add("tool-", tool_ids.astype(str)), None
    )

    # unique text pool, then plant duplicates by copying earlier rows
    def make_texts(k):
        words = rng.choice(_WORDS, size=(k, text_words))
        return np.array(
            [" ".join(w) + f" #{i}" for i, w in enumerate(words)], dtype=object
        )

    texts = make_texts(n)
    is_dup = np.zeros(n, dtype=bool)
    n_dup = int(n * dup_frac)
    if n_dup:
        dup_pos = rng.choice(np.arange(1, n), size=n_dup, replace=False)
        src_pos = (rng.random(n_dup) * dup_pos).astype(np.int64)  # earlier row
        texts[dup_pos] = texts[src_pos]
        is_dup[dup_pos] = True
        # a source that itself became a dup target chains; recompute truth below
    nulls = rng.random(n) < null_frac
    texts[nulls] = None

    # ground truth first-seen-wins on the final text bytes, in row order
    # (row order here IS stable (conv_id, turn_idx) order by construction);
    # only computed when requested — it's a Python pass over every row
    if return_truth:
        seen: dict = {}
        truth = np.zeros(n, dtype=bool)
        for i, t in enumerate(texts):
            if t is None:
                continue
            if t in seen:
                truth[i] = True
            else:
                seen[t] = i

    base = np.datetime64("2025-01-01T00:00:00", "us")
    gaps = rng.exponential(30_000_000, size=n).astype("timedelta64[us]")
    # ts monotone within conversation: cumulative within each conv
    ts = np.empty(n, dtype="datetime64[us]")
    start = 0
    for s in sizes:
        ts[start : start + s] = base + np.cumsum(gaps[start : start + s])
        start += s

    table = pa.table(
        {
            "conv_id": pa.array(conv_col.astype(object), pa.string()),
            "turn_idx": pa.array(turn_idx, pa.int32()),
            "role": pa.array(roles.astype(object), pa.string()),
            "text": pa.array(list(texts), pa.string()),
            "tool": pa.array(list(tool_col), pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    bounds = np.linspace(0, n, n_files + 1).astype(int)
    for i in range(n_files):
        p = os.path.join(out_dir, f"part-{i:05d}.parquet")
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]), p)
        paths.append(p)
    if return_truth:
        return paths, table.append_column("is_duplicate", pa.array(truth))
    return paths
