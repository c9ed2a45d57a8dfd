"""mark_duplicates — the flagship pipeline: streammd's semantics, Ray-Data
shape (SURVEY.md §3.4).

    read → add_key_columns (stateless map_batches, Arrow zero-copy)
         → BloomMarkStage (stateful; P shard actors own the partitioned filter)
         → [strip/remove handling] → marked Dataset (+ metrics, capacity guard)

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

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import SEED_A, SEED_B
from ..sketches.base import merge_all
from ..sketches.bloom import BloomFilter
from ..stages.dedup import (
    KEY_H1,
    KEY_H2,
    BloomMarkStage,
    add_key_columns,
    make_shard_actors,
)


class CapacityExceeded(RuntimeError):
    """Raised when items added exceed filter capacity and overcapacity is not
    allowed (mirrors the reference's hard error, src/streammd.cxx:147-160)."""


@dataclass
class MarkResult:
    dataset: Any  # the output Dataset (filtered if remove_duplicates)
    marked: Any  # the marked Dataset incl. is_duplicate (pre-filter)
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

    def merged_filter(self) -> BloomFilter:
        """OR of all shard states — for global estimates ONLY, never marking."""
        import ray

        states = ray.get([s.state.remote() for s in self.shards])
        return merge_all([BloomFilter.from_bytes(b) for b in states])

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
    mark_concurrency: int = 8,
    mark_mode: str = "tasks",
    batch_size: int | None = None,
    remove_duplicates: bool = False,
    strip_previous: bool = False,
    mark_col: str = "is_duplicate",
    seeds: tuple[int, int] = (SEED_A, SEED_B),
    shards: list | None = None,
    materialize: bool = False,
    bloom_blocked: bool = False,
    bloom_layout: str | None = None,
) -> MarkResult:
    """Mark duplicate turns with a partitioned Bloom filter.

    scope='global' dedups on the content key alone (cross-conversation);
    scope='conversation' prepends conv_id to the key — the analog of the
    reference's per-template grouping (each conversation dedups its own
    turns). ``shards`` lets a resumable driver pass pre-loaded actors; their
    layout was fixed at spawn, so ``bloom_layout`` is then ignored.

    CONSUME-ONCE CONTRACT: the marking stage mutates shard-actor state, so
    the marked dataset must execute exactly once — Ray re-executes a lazy
    Dataset on every consumption, and a second pass would re-insert every
    key and mark everything duplicate. Either (a) consume ``result.marked``
    / ``result.dataset`` with a single ``write_parquet`` / ``iter_batches``
    / aggregation, or (b) pass ``materialize=True`` to pin the marked blocks
    (bounded by input size — right for wave/validation scale) and consume
    freely afterwards.
    """
    if scope == "conversation":
        key_cols = ("text", "conv_id") if "conv_id" not in key_cols else key_cols
    elif scope != "global":
        raise ValueError(f"unknown scope: {scope}")

    had_mark = mark_col in ds.schema().names
    if had_mark:
        ds = ds.map_batches(
            lambda t: t.rename_columns(
                [c if c != mark_col else "__prev_mark" for c in t.column_names]
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    import ray

    if shards is None:
        shards = make_shard_actors(
            num_shards,
            p=p,
            total_capacity=total_capacity,
            mem=mem,
            seeds=seeds,
            # probe layout: classic / blocked / split (sketches/bloom.py) —
            # same dedup semantics, different kernel shape; layout string
            # wins, bloom_blocked kept for pre-layout callers
            blocked=bloom_blocked,
            layout=bloom_layout,
        )
    else:
        # pre-loaded shards (wave/checkpoint driver): the reuse is
        # intentional, so lift any seal from the previous wave's consumption
        ray.get([s.unseal.remote() for s in shards])

    keyed = add_key_columns(ds, key_cols, seeds=seeds)
    # The mark stage itself is stateless (all state lives in the shard
    # actors). Default mark_mode='tasks' runs it as a plain function closing
    # over the shard handles: Ray fuses read → derive → mark → finish into
    # ONE task chain with no actor pool to spawn or budget CPUs for.
    # mark_mode='actors' keeps the explicit pool (mark_concurrency as int or
    # (min, max) tuple) for callers that want pinned, long-lived mark workers.
    if mark_mode == "tasks":
        from ..stages.dedup import make_mark_fn

        marked = keyed.map_batches(
            make_mark_fn(shards, mark_col=mark_col),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=batch_size,
        )
    else:
        concurrency = (
            mark_concurrency
            if isinstance(mark_concurrency, tuple)
            else (1, mark_concurrency)
        )
        marked = keyed.map_batches(
            BloomMarkStage,
            fn_constructor_kwargs={"shards": shards, "mark_col": mark_col},
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=batch_size,
            concurrency=concurrency,
        )

    def finish(t: pa.Table) -> pa.Table:
        new = t[mark_col].combine_chunks()
        if had_mark:
            prev = t["__prev_mark"].combine_chunks()
            if not strip_previous:
                # default: previously-marked rows stay marked
                new = pc.or_kleene(pc.fill_null(prev, False), new)
            # strip_previous: prior marks cleared unless re-marked now
            t = t.drop_columns(["__prev_mark"])
        i = t.schema.get_field_index(mark_col)
        return t.set_column(i, mark_col, new).drop_columns([KEY_H1, KEY_H2])

    marked = marked.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    if materialize:
        marked = marked.materialize()
        # the plan has now executed exactly once; seal the shards so any
        # accidental second execution of a lazy alias fails loudly instead of
        # silently re-inserting every key (consume-once contract, enforced)
        ray.get([s.seal.remote() for s in shards])

    out = marked
    if remove_duplicates:
        out = marked.map_batches(
            lambda t: t.filter(pc.invert(t[mark_col].combine_chunks())),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    return MarkResult(
        dataset=out,
        marked=marked,
        shards=shards,
        config={
            "key_cols": key_cols,
            "scope": scope,
            "p": p,
            "mem": mem,
            "total_capacity": total_capacity,
            "num_shards": len(shards),
            "seeds": seeds,
            "remove_duplicates": remove_duplicates,
            "strip_previous": strip_previous,
        },
    )


def compute_metrics(
    marked,
    *,
    mark_col: str = "is_duplicate",
    content_col: str = "text",
    conv_col: str = "conv_id",
    exact_conversations: bool = True,
) -> dict:
    """The six-field metrics JSON, generalized from the reference's
    (src/markdups.cxx:202-234; field mapping in FIXTURES.md F4).

    One aggregation pass for the counters; CONVERSATIONS is exact (a distinct
    shuffle — fine at validation scale) or an HLL estimate (the 10^12-turn
    path) when ``exact_conversations=False``.

    ``marked`` must be a MATERIALIZED (or written-and-reread) marked dataset
    — this function consumes it twice, and a lazy bloom-marking plan must
    never execute twice (see mark_duplicates' consume-once contract).
    """
    from ..stages.sketch_agg import global_counts

    agg = global_counts(
        marked,
        {
            "turns": lambda t: len(t),
            "nulls": lambda t: int(
                pc.sum(pc.cast(pc.is_null(t[content_col]), "int64")).as_py() or 0
            ),
            "dups": lambda t: int(
                pc.sum(pc.cast(t[mark_col], "int64")).as_py() or 0
            ),
        },
    )
    turns, nulls, dups = int(agg["turns"]), int(agg["nulls"]), int(agg["dups"])

    if exact_conversations:
        from ray.data.aggregate import Count

        n_convs = (
            marked.select_columns([conv_col])
            .groupby(conv_col)
            .aggregate(Count(alias_name="n"))
            .count()
        )
    else:
        from ..sketches.hll import HyperLogLog
        from ..stages.sketch_agg import sketch_column

        n_convs = round(sketch_column(marked, conv_col, HyperLogLog()).estimate())

    denom = turns - nulls
    frac = round(dups / denom, 4) if denom else 0.0
    return {
        "TURNS": turns,
        "TURNS_NULL_TEXT": nulls,
        "TURNS_MARKED_DUPLICATE": dups,
        "CONVERSATIONS": n_convs,
        "TURN_DUPLICATE_FRACTION": frac,
    }
