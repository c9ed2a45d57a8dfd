"""mark_duplicates — the flagship pipeline: streammd's semantics, Ray-Data
shape (SURVEY.md §3.4).

    read → add_key_columns (stateless map_batches, Arrow zero-copy)
         → BloomMarkStage (stateful; P shard actors own the partitioned filter)
         → [strip handling] → marked Dataset (+ metrics, capacity guard)

``pipelines.flagship.run_flagship`` consumes the marked Dataset in its one
fused pass; its first-seen sink is the one ``remove_duplicates`` path.

Differences from the reference, by design (documented, SURVEY.md §4.2):
 - FLAG|=1024 in-place becomes an appended ``is_duplicate: bool`` column;
 - first-seen-wins is arrival-order within the Ray stream: exactly one row
   per distinct key survives, deterministic in *count*, nondeterministic in
   *identity* — use stages.dedup.dedup_exact_first when identity must be
   reproducible;
 - the overcapacity check (reference src/streammd.cxx:142-160) runs per shard
   and on the aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.dedup import (
    KEY_H1,
    KEY_H2,
    MARK_COL,
    PREV_MARK_COL,
    add_key_columns,
    make_mark_fn,
)
from ..state.shards import make_shard_actors


class CapacityExceeded(RuntimeError):
    """Raised when items added exceed filter capacity and overcapacity is not
    allowed (mirrors the reference's hard error, src/streammd.cxx:147-160)."""


@dataclass
class MarkResult:
    marked: Any  # the marked Dataset incl. is_duplicate
    shards: list  # the shard actor handles (live until released)
    config: dict = field(default_factory=dict)

    def shard_stats(self) -> list[dict]:
        import ray

        return ray.get([s.stats.remote() for s in self.shards])

    def release(self) -> None:
        """Kill the shard actors (frees their filter memory). Call when the
        marked dataset and all stats/estimates have been consumed."""
        import ray

        for s in self.shards:
            ray.kill(s)
        self.shards = []

    def check_capacity(self, allow_overcapacity: bool = False) -> dict:
        """Post-run capacity / marginal-FPR report; raises unless allowed."""
        stats = self.shard_stats()
        report = {
            "shards": stats,
            "n_added": sum(s["n_added"] for s in stats),
            "capacity": sum(s["capacity"] for s in stats),
            "max_marginal_fpr": max(s["marginal_fpr"] for s in stats),
            "target_p": self.config.get("p"),
        }
        over = [s for s in stats if s["n_added"] > s["capacity"]]
        report["overcapacity_shards"] = len(over)
        if over and not allow_overcapacity:
            raise CapacityExceeded(
                f"{len(over)}/{len(stats)} Bloom shards over capacity "
                f"(max marginal FPR {report['max_marginal_fpr']:.3g} > target "
                f"{self.config.get('p')}); pass allow_overcapacity=True to proceed"
            )
        return report


def mark_duplicates(
    ds,
    *,
    key_cols: tuple[str, ...] = ("text",),
    scope: str = "global",
    p: float = 1e-6,
    mem: str | None = None,
    total_capacity: int | None = None,
    num_shards: int = 8,
    batch_size: int | None = None,
    strip_previous: bool = False,
    shards: list | None = None,
    materialize: bool = False,
    bloom_layout: str | None = None,
) -> MarkResult:
    """Mark duplicate turns with a partitioned Bloom filter.

    scope='global' dedups on the content key alone (cross-conversation);
    scope='conversation' appends conv_id to the key columns — the analog of
    the reference's per-template grouping (each conversation dedups its own
    turns). ``shards`` lets a resumable driver pass pre-loaded actors; their
    layout was fixed at spawn, so ``bloom_layout`` is then ignored.

    CONSUME-ONCE CONTRACT: the marking stage mutates shard-actor state, so
    the marked dataset must execute exactly once — Ray re-executes a lazy
    Dataset on every consumption, and a second pass would re-insert every
    key and mark everything duplicate. Either (a) consume ``result.marked``
    with a single ``write_parquet`` / ``iter_batches`` / aggregation (as
    ``run_flagship`` does), or (b) pass ``materialize=True`` to pin the
    marked blocks (bounded by input size — right for wave/validation scale)
    and consume freely afterwards.
    """
    if scope == "conversation":
        if "conv_id" not in key_cols:
            key_cols = (*key_cols, "conv_id")
    elif scope != "global":
        raise ValueError(f"unknown scope: {scope}")

    import ray

    if shards is None:
        shards = make_shard_actors(
            num_shards,
            p=p,
            total_capacity=total_capacity,
            mem=mem,
            # probe layout: classic (None) / split (sketches/bloom.py) —
            # same dedup semantics, different kernel shape
            layout=bloom_layout,
        )
    else:
        # pre-loaded shards (wave/checkpoint driver): the reuse is
        # intentional, so lift any seal from the previous wave's consumption
        ray.get([s.unseal.remote() for s in shards])

    keyed = add_key_columns(ds, key_cols)
    # The mark stage itself is stateless (all state lives in the shard
    # actors), so it runs as a plain function closing over the shard
    # handles: Ray fuses read → derive → mark → finish into ONE task chain
    # with no actor pool to spawn or budget CPUs for.
    marked = keyed.map_batches(
        make_mark_fn(shards),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )

    def finish(t: pa.Table) -> pa.Table:
        new = t[MARK_COL].combine_chunks()
        if PREV_MARK_COL in t.column_names:
            prev = t[PREV_MARK_COL].combine_chunks()
            if not strip_previous:
                # default: previously-marked rows stay marked
                new = pc.or_kleene(pc.fill_null(prev, False), new)
            # strip_previous: prior marks cleared unless re-marked now
            t = t.drop_columns([PREV_MARK_COL])
        i = t.schema.get_field_index(MARK_COL)
        return t.set_column(i, MARK_COL, new).drop_columns([KEY_H1, KEY_H2])

    marked = marked.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    if materialize:
        marked = marked.materialize()
        # the plan has now executed exactly once; seal the shards so any
        # accidental second execution of a lazy alias fails loudly instead of
        # silently re-inserting every key (consume-once contract, enforced)
        ray.get([s.seal.remote() for s in shards])

    return MarkResult(
        marked=marked,
        shards=shards,
        config={
            "key_cols": key_cols,
            "scope": scope,
            "p": p,
            "mem": mem,
            "total_capacity": total_capacity,
            "num_shards": len(shards),
            "strip_previous": strip_previous,
        },
    )


def metrics_json(turns: int, nulls: int, dups: int, conversations: int) -> dict:
    """The reference's five-field metrics JSON (src/markdups.cxx:202-234;
    field mapping in FIXTURES.md F4)."""
    denom = turns - nulls
    return {
        "TURNS": turns,
        "TURNS_NULL_TEXT": nulls,
        "TURNS_MARKED_DUPLICATE": dups,
        "CONVERSATIONS": conversations,
        "TURN_DUPLICATE_FRACTION": round(dups / denom, 4) if denom else 0.0,
    }


def compute_metrics(marked) -> dict:
    """:func:`metrics_json` of a marked dataset, CONVERSATIONS exact.

    One aggregation pass for the counters and a distinct count of conv_id
    (a groupby — fine at validation scale; the flagship's ridden HLL is the
    large-scale path).

    ``marked`` must be a MATERIALIZED (or written-and-reread) marked dataset
    — this function consumes it twice, and a lazy bloom-marking plan must
    never execute twice (see mark_duplicates' consume-once contract).
    """
    from ray.data.aggregate import Count

    from ..stages.sketch_agg import global_counts

    agg = global_counts(
        marked,
        {
            "turns": lambda t: len(t),
            "nulls": lambda t: int(
                pc.sum(pc.cast(pc.is_null(t["text"]), "int64")).as_py() or 0
            ),
            "dups": lambda t: int(
                pc.sum(pc.cast(t[MARK_COL], "int64")).as_py() or 0
            ),
        },
    )
    n_convs = (
        marked.select_columns(["conv_id"])
        .groupby("conv_id")
        .aggregate(Count(alias_name="n"))
        .count()
    )
    return metrics_json(
        int(agg["turns"]), int(agg["nulls"]), int(agg["dups"]), n_convs
    )
