"""Scale-safe EXACT quantiles: distributed k-th selection by iterative
histogram refinement.

Round 1's ``exact_quantile_disc`` shuffled a (value, count) histogram of
every distinct value to driver pandas — fine for discrete columns, O(n) on
the driver for continuous ones (VERDICT.md "What's wrong" #3). This module
computes DuckDB-``quantile_disc``-exact answers with the driver holding only
a fixed 65536-bucket histogram per pass:

1. one pass for (count, min, max) per-batch partials;
2. per iteration, one pass histogramming each unresolved target's current
   [lo, hi] value range into ``n_buckets``; the bucket containing the target
   rank becomes the next range (ranges shrink ×65536 per pass — 2 passes
   cover 10^9 distinct values of skew);
3. a final pass that, for the narrowed range, counts values strictly below
   ``lo`` and collects the (value, count) pairs INSIDE the range (bounded by
   ``max_collect``, loud error otherwise — the documented cardinality
   guard). Rank bookkeeping uses only exact value comparisons from this last
   pass, so float bucket-boundary rounding can never shift the answer.

All passes are ``map_batches`` partial aggregations over a column-pruned
stream — no shuffle, no driver materialization of data.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pyarrow as pa


def _column_values(t: pa.Table, col: str) -> np.ndarray:
    """Column → ndarray with nulls/NaNs dropped.

    Integer and timestamp columns stay int64 end-to-end: casting them through
    float64 would collapse distinct values above 2^53 and silently break the
    exactness contract (ADVICE.md round 2). Bucket *boundaries* may still be
    computed in float (approximation there only widens a range), but every
    value comparison and the final np.unique run on the native int64 values.
    """
    a = t[col]
    if isinstance(a, pa.ChunkedArray):
        a = a.combine_chunks()
    if pa.types.is_timestamp(a.type) or pa.types.is_integer(a.type):
        return a.drop_null().cast(pa.int64()).to_numpy(zero_copy_only=False)
    v = a.drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
    return v[~np.isnan(v)]


def _one_state_row(state) -> pa.Table:
    return pa.table({"state": pa.array([pickle.dumps(state)], pa.binary())})


def _fold(ds, col: str, fn):
    """Run a per-batch partial ``fn(values) -> state`` and return the list of
    states (one per block)."""

    def partial(t: pa.Table) -> pa.Table:
        return _one_state_row(fn(_column_values(t, col)))

    rows = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).take_all()
    return [pickle.loads(r["state"]) for r in rows]


def exact_quantile_select(
    ds,
    col: str,
    qs: tuple[float, ...],
    *,
    n_buckets: int = 65536,
    max_collect: int = 2_000_000,
    max_iters: int = 6,
) -> list[float]:
    """Exact ``quantile_disc`` values (DuckDB rank rule: the value at sorted
    position ceil(q·n)−1, 0-indexed, nulls/NaNs excluded)."""
    # project to the one column, then materialize: the refinement makes 3-5
    # passes over the stream, and a LAZY ds re-executes its whole upstream
    # chain (read + transforms) on every pass. The projected column is 8
    # bytes/row — at 10^12 rows that is ~8 TB spread across a cluster's
    # object store (spillable), strictly cheaper than re-scanning the source
    # table per pass.
    ds = ds.select_columns([col]).materialize()

    # pass 0: global count / min / max (.item() keeps int64 columns exact —
    # Python ints, never a lossy float64 round-trip)
    parts = _fold(
        ds,
        col,
        lambda v: (len(v), v.min().item(), v.max().item()) if len(v) else (0, 0, 0),
    )
    n = sum(p[0] for p in parts)
    if n == 0:
        raise ValueError(f"exact_quantile_select: no non-null values in {col!r}")
    lo0 = min(p[1] for p in parts if p[0])
    hi0 = max(p[2] for p in parts if p[0])
    is_int = isinstance(lo0, int)

    targets = []
    for q in qs:
        rank = max(0, int(math.ceil(q * n)) - 1)
        targets.append({"rank": rank, "lo": lo0, "hi": hi0, "done": lo0 == hi0})

    # iterative range refinement
    for _ in range(max_iters):
        open_ts = [t for t in targets if not t["done"]]
        if not open_ts:
            break
        ranges = [(t["lo"], t["hi"]) for t in open_ts]

        def hist(v, ranges=ranges):
            out = []
            for lo, hi in ranges:
                sel = v[(v >= lo) & (v <= hi)]
                below = int((v < lo).sum())
                if len(sel):
                    # bucket ASSIGNMENT may be approximate (float); it is the
                    # same monotone function on every block, and the final
                    # pass re-ranks with exact comparisons, so float error
                    # here only widens the next range
                    b = np.clip(
                        (
                            (sel.astype(np.float64) - float(lo))
                            / (float(hi) - float(lo))
                            * n_buckets
                        ).astype(np.int64),
                        0,
                        n_buckets - 1,
                    )
                    counts = np.bincount(b, minlength=n_buckets)
                else:
                    counts = np.zeros(n_buckets, dtype=np.int64)
                out.append((below, counts))
            return out

        parts = _fold(ds, col, hist)
        for i, t in enumerate(open_ts):
            below = sum(p[i][0] for p in parts)
            counts = np.sum([p[i][1] for p in parts], axis=0)
            rank_in = t["rank"] - below
            cum = np.cumsum(counts)
            b = int(np.searchsorted(cum, rank_in + 1, side="left"))
            width = (float(t["hi"]) - float(t["lo"])) / n_buckets
            new_lo = float(t["lo"]) + b * width
            new_hi = float(t["lo"]) + (b + 1) * width if b + 1 < n_buckets else t["hi"]
            # snap outward (ulps + relative margin) so float rounding in the
            # bucket arithmetic can never push the target value outside the
            # range; the final pass recomputes ranks with exact comparisons,
            # so an over-wide range costs only collect size, never accuracy
            margin = width * 1e-6
            new_lo = np.nextafter(new_lo - margin, -np.inf)
            new_hi = np.nextafter(new_hi + margin, np.inf)
            if is_int:
                # integer path: snap outward to whole values with one extra
                # unit of slack (float→int flooring near 2^63 is inexact);
                # the max/min against the previous EXACT int bounds keeps the
                # range inside the data's true [min, max]
                new_lo = int(math.floor(new_lo)) - 1
                new_hi = int(math.ceil(new_hi)) + 1
            in_bucket = int(counts[b])
            t["lo"], t["hi"] = max(t["lo"], new_lo), min(t["hi"], new_hi)
            if in_bucket <= max(1024, max_collect // max(1, len(qs))) or (
                t["hi"] - t["lo"] <= 1
                if is_int
                else np.nextafter(t["lo"], np.inf) >= t["hi"]
            ):
                t["done"] = True

    # final pass: exact below-counts + in-range (value, count) pairs, using
    # only value comparisons (immune to bucket-boundary float rounding)
    ranges = [(t["lo"], t["hi"]) for t in targets]

    def collect(v, ranges=ranges):
        out = []
        for lo, hi in ranges:
            below = int((v < lo).sum())
            sel = v[(v >= lo) & (v <= hi)]
            vals, cnts = np.unique(sel, return_counts=True)
            out.append((below, vals, cnts))
        return out

    parts = _fold(ds, col, collect)
    results = []
    for i, t in enumerate(targets):
        below = sum(p[i][0] for p in parts)
        all_vals = np.concatenate([p[i][1] for p in parts])
        all_cnts = np.concatenate([p[i][2] for p in parts])
        if len(all_vals) > max_collect:
            raise RuntimeError(
                f"exact_quantile_select: range for q-target rank {t['rank']} "
                f"still holds {len(all_vals)} distinct values after "
                f"{max_iters} refinement passes (cardinality guard "
                f"max_collect={max_collect}); raise max_iters/max_collect or "
                "use the t-digest/KLL sketch twin"
            )
        order = np.argsort(all_vals, kind="stable")
        vals, cnts = all_vals[order], all_cnts[order]
        # merge duplicate values across blocks
        uniq_mask = np.empty(len(vals), dtype=bool)
        if len(vals):
            uniq_mask[0] = True
            uniq_mask[1:] = vals[1:] != vals[:-1]
            grp = np.cumsum(uniq_mask) - 1
            merged = np.zeros(int(grp[-1]) + 1, dtype=np.int64)
            np.add.at(merged, grp, cnts)
            uvals = vals[uniq_mask]
        else:
            merged, uvals = np.zeros(0, np.int64), vals
        rank_in = t["rank"] - below
        cum = np.cumsum(merged)
        j = int(np.searchsorted(cum, rank_in + 1, side="left"))
        if j >= len(uvals):
            raise RuntimeError(
                "exact_quantile_select: rank fell outside the refined range "
                "(internal invariant violation)"
            )
        # .item(): Python int for int64 columns (exact above 2^53), float
        # otherwise — int == float still compares equal for in-range values
        results.append(uvals[j].item())
    return results
