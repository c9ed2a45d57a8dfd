"""DuckDB oracle over the generated parquet, and the per-run correctness gate.

Every timed job is checked against facts computed here; a job that raises
or fails any check counts as failed. Tolerances are the sketches' own
stated bounds, at the factors the repository's sketch tests use for merged
states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import duckdb
import numpy as np

#: quantiles at which t-digest and KLL are checked in rank space
QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
#: t-digest has no closed-form bound; tests/test_sketches.py holds merged
#: digests to 0.015 normalized rank error
TDIGEST_RANK_TOL = 0.015
#: KLL: merged states within 4x the sketch's rank_error (tests/test_sketches.py)
KLL_RANK_FACTOR = 4
#: HLL: within 4 sigma of the exact distinct count
HLL_SIGMAS = 4
#: order-insensitive hash of the exact-dedup output rows
_ROW_HASH = (
    "sum(hash(conv_id::VARCHAR, turn_idx::INTEGER, is_duplicate::BOOLEAN)::HUGEINT)"
)


@dataclass
class Facts:
    turns: int
    nulls: int
    dups: int
    convs: int
    tools: dict[str, int]
    len_values: np.ndarray  # sorted distinct lengths (null text counts as 0)
    len_counts: np.ndarray
    exact_rows_hash: int | None = None  # set for the exact-dedup workload


def _files(files: list[str]) -> str:
    return "[" + ", ".join(f"'{f}'" for f in files) + "]"


def text_facts(files: list[str], *, with_row_hash: bool = False) -> Facts:
    """Exact facts of a full-payload transcripts table."""
    src = f"read_parquet({_files(files)})"
    con = duckdb.connect()
    try:
        turns, nulls, dups, convs = con.execute(
            f"SELECT count(*), count(*) - count(text), "
            f"count(text) - count(DISTINCT text), count(DISTINCT conv_id) FROM {src}"
        ).fetchone()
        facts = Facts(
            turns, nulls, dups, convs, *_tools_and_lengths(con, src, "length(text)")
        )
        if with_row_hash:
            facts.exact_rows_hash = int(
                con.execute(
                    f"SELECT {_ROW_HASH} FROM (SELECT conv_id, turn_idx, "
                    "text IS NOT NULL AND row_number() OVER (PARTITION BY text "
                    f"ORDER BY conv_id, turn_idx) > 1 AS is_duplicate FROM {src})"
                ).fetchone()[0]
            )
        return facts
    finally:
        con.close()


def _tools_and_lengths(con, src: str, length_expr: str):
    tools = dict(
        con.execute(
            f"SELECT tool, count(*) FROM {src} WHERE tool IS NOT NULL GROUP BY tool"
        ).fetchall()
    )
    rows = con.execute(
        f"SELECT coalesce({length_expr}, 0) AS l, count(*) FROM {src} "
        "GROUP BY l ORDER BY l"
    ).fetchall()
    return (
        tools,
        np.array([r[0] for r in rows], dtype=np.float64),
        np.array([r[1] for r in rows], dtype=np.int64),
    )


def fp_allowance(p: float, keys: int) -> int:
    """Upper allowance on Bloom false positives: Poisson mean p*keys plus
    four standard deviations, plus one."""
    mu = p * keys
    return math.ceil(mu + 4 * math.sqrt(mu)) + 1


def rank_error(facts: Facts, x: float, q: float) -> float:
    """Distance from q to the exact normalized rank interval of value x."""
    n = facts.len_counts.sum()
    cum = np.concatenate([[0], np.cumsum(facts.len_counts)])
    lt = cum[np.searchsorted(facts.len_values, x, side="left")] / n
    le = cum[np.searchsorted(facts.len_values, x, side="right")] / n
    return 0.0 if lt <= q <= le else min(abs(q - lt), abs(q - le))


def cms_overcount(facts: Facts, cms) -> np.ndarray:
    """Estimate minus true count for every tool in the table."""
    names = sorted(facts.tools)
    if not names:
        return np.zeros(0, dtype=np.int64)
    true = np.array([facts.tools[n] for n in names], dtype=np.int64)
    return cms.query_batch(names) - true


def sketch_errors(facts: Facts, sketches: dict) -> dict[str, float]:
    """Observed error of each merged sketch against the oracle."""
    hll = sketches["convs_hll"]
    cms = sketches["tools_cms"]
    return {
        "hll": abs(hll.estimate() - facts.convs) / facts.convs,
        "cms": float(np.abs(cms_overcount(facts, cms)).max(initial=0))
        / max(cms.total, 1),
        "tdigest": max(
            rank_error(facts, sketches["len_tdigest"].quantile(q), q) for q in QUANTILES
        ),
        "kll": max(
            rank_error(facts, sketches["len_kll"].quantile(q), q) for q in QUANTILES
        ),
    }


def check_flagship(
    facts: Facts, counters: dict, sketches: dict, *, p: float
) -> tuple[list[str], dict[str, float]]:
    """Failures of one fused mark+sketch result, and the sketch errors."""
    fails = []
    if counters["turns"] != facts.turns:
        fails.append(f"turns {counters['turns']} != {facts.turns}")
    if counters["nulls"] != facts.nulls:
        fails.append(f"nulls {counters['nulls']} != {facts.nulls}")
    dups = counters["dups"]
    if dups < facts.dups:
        fails.append(f"dups {dups} < exact {facts.dups}: false negatives")
    allowance = fp_allowance(p, facts.turns - facts.nulls)
    if dups > facts.dups + allowance:
        fails.append(f"dups {dups} > exact {facts.dups} + FP allowance {allowance}")
    errs = sketch_errors(facts, sketches)
    hll_bound = HLL_SIGMAS * sketches["convs_hll"].relative_error
    if errs["hll"] > hll_bound:
        fails.append(f"HLL relative error {errs['hll']:.4f} > {hll_bound:.4f}")
    if (cms_overcount(facts, sketches["tools_cms"]) < 0).any():
        fails.append("CMS undercounts a tool")
    elif errs["cms"] > sketches["tools_cms"].eps:
        fails.append(f"CMS overcount {errs['cms']:.2e} N > eps N")
    if errs["tdigest"] > TDIGEST_RANK_TOL:
        fails.append(f"t-digest rank error {errs['tdigest']:.4f} > {TDIGEST_RANK_TOL}")
    kll_bound = KLL_RANK_FACTOR * sketches["len_kll"].rank_error
    if errs["kll"] > kll_bound:
        fails.append(f"KLL rank error {errs['kll']:.4f} > {kll_bound:.4f}")
    return fails, errs


def rows_hash(table) -> int:
    """Order-insensitive hash of (conv_id, turn_idx, is_duplicate) rows,
    computed the same way as ``Facts.exact_rows_hash``."""
    con = duckdb.connect()
    try:
        con.register("out", table)
        return int(
            con.execute(f"SELECT {_ROW_HASH} FROM out").fetchone()[0]
        )
    finally:
        con.close()


def check_exact(facts: Facts, table) -> list[str]:
    """The exact dedup output must match the row_number() oracle row for row."""
    fails = []
    if table.num_rows != facts.turns:
        fails.append(f"rows {table.num_rows} != {facts.turns}")
    if rows_hash(table) != facts.exact_rows_hash:
        fails.append("(conv_id, turn_idx, is_duplicate) rows differ from the oracle")
    return fails
