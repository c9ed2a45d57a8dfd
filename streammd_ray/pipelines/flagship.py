"""The fused flagship pipeline — the engine's one Bloom pass: ONE streaming
pass that bloom-marks duplicates AND accumulates the four estimate sketches
AND the run counters (streammd's semantics, Ray-Data shape, SURVEY.md §3.4).

    read → add_key_columns → BloomMarkStage (Bloom host actors) → finish
         → SketchTail (per-block sketch partials + counters [+ part file])
         → driver tree-merge

The CLI, the checkpointed runner, the catalog's Bloom row and ``perfbench``
call :func:`run_flagship`; ``output_dir=...`` persists the marked table in
the same pass. No marked Dataset leaves the pass: its one plan is consumed
once, by the partials' ``take_all``, so the hosts never see a second run.

Differences from the reference, by design (documented, SURVEY.md §4.2):
 - FLAG|=1024 in-place becomes an appended ``is_duplicate: bool`` column;
 - first-seen-wins is arrival-order within the Ray stream: exactly one row
   per distinct key survives, deterministic in *count*, nondeterministic in
   *identity* — use stages.dedup.dedup_exact_first when identity must be
   reproducible;
 - the overcapacity check (reference src/streammd.cxx:142-160) runs per partition
   and on the aggregate.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

from .._runtime import TaskBatches
from ..sketches import KLL, CountMinSketch, HyperLogLog, TDigest
from ..sketches.base import Sketch
from ..stages.dedup import (
    KEY_H1,
    KEY_H2,
    MARK_COL,
    PREV_MARK_COL,
    BloomMarkStage,
    add_key_columns,
)
from ..stages.sketch_agg import (
    gather_partials,
    partials_table,
    sketch_partials,
    tree_merge,
)
from ..state.checkpoint import DISK_COMPRESSION
from ..state.shards import make_shard_actors, partition_stats


class CapacityExceeded(RuntimeError):
    """Raised when items added exceed filter capacity and overcapacity is not
    allowed (mirrors the reference's hard error, src/streammd.cxx:147-160)."""


class ReplayMissed(RuntimeError):
    """Raised when a retried task's Bloom call carried a batch key that its
    host's replay cache had evicted: the call's keys went in a second time
    and marked their own rows as duplicates, so the pass's marks and
    counters cannot be trusted."""


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


#: the ``__counts`` partial: (turns, dups, nulls) of one block
_COUNTS = struct.Struct("<3q")


def default_sketch_specs() -> dict[str, tuple[str, Sketch]]:
    """The north_star's five-sketch set (Bloom lives in the host actors):
    HLL distinct conv_id, CMS heavy tools, t-digest + KLL on turn length."""
    return {
        "convs_hll": ("conv_id", HyperLogLog()),
        "tools_cms": ("tool", CountMinSketch(eps=1e-3, delta=1e-3, track_heavy=16)),
        "len_tdigest": ("__len", TDigest()),
        "len_kll": ("__len", KLL()),
    }


class SketchTail:
    """Per-batch tail stage: derive turn length (``__len``), insert the batch
    into fresh sketch partials (``stages.sketch_agg.sketch_partials``), emit
    one (sketch, state) row per sketch plus a ``__counts`` row (turns, dups,
    nulls as three little-endian int64, ``_COUNTS``). Partials are
    small (compressed t-digest, count-min as its non-zero cells: ~25 KB for
    a 12,500-row block, under Ray's 100 KiB inline-object limit) and
    tree-merge in O(log n_batches).

    ``output_dir`` turns the tail into a streaming SINK as well: each block
    is written to its own parquet part file (tmp + atomic rename, named by
    task id and batch ordinal, ``_runtime.TaskBatches``, so a task retry
    rewrites its own files; zstd level 1, ``state.checkpoint.DISK_COMPRESSION``)
    BEFORE sketching — mark + sketch + persist in ONE pass
    with no whole-table materialization, the 100-TB-shaped write path."""

    def __init__(self, specs_bytes: bytes, *, output_dir: str | None = None):
        self.protos = pickle.loads(specs_bytes)
        self.output_dir = output_dir
        self._batches = TaskBatches()

    def _write_part(self, batch: pa.Table) -> None:
        import glob
        import os

        import pyarrow.parquet as pq

        full_tid, attempt, ordinal = self._batches.next()
        tid = full_tid[:16]
        os.makedirs(self.output_dir, exist_ok=True)
        if attempt > 0 and ordinal == 0:
            # a retry's first batch: delete every file an earlier attempt
            # left, its ``.tmp`` too, or those rows land BESIDE the retry's
            for stale in glob.glob(os.path.join(self.output_dir, f"part-{tid}-*")):
                try:
                    os.remove(stale)
                except OSError:
                    pass
        path = os.path.join(self.output_dir, f"part-{tid}-{ordinal:05d}.parquet")
        tmp = path + ".tmp"
        pq.write_table(batch, tmp, **DISK_COMPRESSION)
        os.replace(tmp, path)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.output_dir is not None:
            self._write_part(batch)
        # turn length in characters; null text counts as length 0
        lens = pc.cast(pc.fill_null(pc.utf8_length(batch["text"]), 0), pa.float64())
        states = sketch_partials(batch.append_column("__len", lens), self.protos)
        n_dups = int(pc.sum(pc.cast(batch[MARK_COL], "int64")).as_py() or 0)
        n_null = batch["text"].null_count
        states["__counts"] = _COUNTS.pack(len(batch), n_dups, n_null)
        return partials_table(states)


class _FirstSeenSinkTail(SketchTail):
    """``remove_duplicates``: the part files get only the first-seen rows,
    while the counters and sketches still see every turn."""

    def _write_part(self, batch: pa.Table) -> None:
        super()._write_part(
            batch.filter(pc.invert(batch[MARK_COL].combine_chunks()))
        )


@dataclass
class FlagshipResult:
    counters: dict
    sketches: dict[str, Sketch]
    #: one stats dict per Bloom partition, in partition order, read once
    #: after the pass
    shard_stats: list[dict]
    config: dict
    #: one dict per host process: the ``parts`` it holds, and the ``add``
    #: ``calls`` it answered, the ``keys`` they carried and the seconds
    #: spent inside ``add`` (``add_s``), counted since its last load
    hosts: list[dict]

    def metrics(self) -> dict:
        """The reference's metrics JSON, CONVERSATIONS via the ridden HLL."""
        return metrics_json(
            self.counters["turns"],
            self.counters["nulls"],
            self.counters["dups"],
            round(self.sketches["convs_hll"].estimate()),
        )

    def check_capacity(self, allow_overcapacity: bool = False) -> dict:
        """Capacity / marginal-FPR report of the pass; raises
        :class:`CapacityExceeded` unless allowed."""
        stats = self.shard_stats
        report = {
            "shards": stats,
            "n_added": sum(s["n_added"] for s in stats),
            "capacity": sum(s["capacity"] for s in stats),
            "max_marginal_fpr": max(s["marginal_fpr"] for s in stats),
            "target_p": self.config["p"],
        }
        over = [s for s in stats if s["n_added"] > s["capacity"]]
        report["overcapacity_shards"] = len(over)
        if over and not allow_overcapacity:
            raise CapacityExceeded(
                f"{len(over)}/{len(stats)} Bloom shards over capacity "
                f"(max marginal FPR {report['max_marginal_fpr']:.3g} > target "
                f"{self.config['p']}); pass allow_overcapacity=True to proceed"
            )
        return report


def run_flagship(
    ds,
    *,
    p: float = 1e-6,
    mem: str = "256MiB",
    num_shards: int = 8,
    batch_size: int | None = None,
    output_dir: str | None = None,
    remove_duplicates: bool = False,
    shards: list | None = None,
    key_cols: tuple[str, ...] = ("text",),
    strip_previous: bool = False,
    bloom_layout: str = "classic",
) -> FlagshipResult:
    """One streaming pass: mark + sketches + counters (+ optional parquet
    persistence of the marked table, done INSIDE the same pass: the tail
    writes each block to its own part file before sketching — no
    materialization of the marked table at any scale). With
    ``remove_duplicates=True`` the part files hold only first-seen rows;
    counters and sketches still count every turn.

    ``key_cols`` is the dedup key: the default ``("text",)`` dedups across
    conversations; ``("text", "conv_id")`` dedups within each conversation,
    the analog of the reference's per-template grouping (the CLI's
    ``--single``). An input that already carries
    ``is_duplicate`` keeps its marks (OR-ed with the new ones) unless
    ``strip_previous``, which clears those not re-marked now.

    Shards: the Bloom filter is ``num_shards`` (P) partitions held by host
    actors (``state.shards``): with ``shards=None`` the pass spawns them
    (``make_shard_actors``: the ``mem`` budget split over the P partitions
    by ``state.shards.shard_geometry``, probed in the ``"classic"`` or
    ``"split"`` ``bloom_layout``, held by as many host processes as the
    largest divisor of P not above the cluster's CPUs) and kills them when
    it returns or raises. Hosts a caller passes (the wave runner,
    perfbench) keep their state and stay alive; their partitions and
    layout were fixed at spawn, so ``num_shards`` and ``bloom_layout`` are
    then ignored. Either way ``shard_stats`` holds one stats dict per
    partition and ``hosts`` each host's call counters after the pass. A
    retried task whose Bloom verdicts a host could no longer replay raises
    :class:`ReplayMissed` (each host's ``replay_misses`` counts its missed
    calls, each partition's in ``shard_stats`` the missed calls that
    touched it).

    The pass fuses with its read into one task chain per read task when
    the read makes no more blocks than tasks. The engine read
    (``sources.parquet_files``, as the CLI and the checkpointed runner
    read) does: ``min(files, cluster CPUs)`` tasks, one block per task
    below Ray's target block size. A default ``read_parquet`` of fewer
    files than Ray's read parallelism splits each file through an unfused
    ``SplitBlocks`` stage, and every split then runs its own chain: its own
    task, Bloom RPCs, part file and partial rows."""
    import os
    import sys
    import time

    import ray

    owned = shards is None
    if owned:
        shards = make_shard_actors(num_shards, p=p, mem=mem, layout=bloom_layout)
    specs = default_sketch_specs()
    packed = pickle.dumps(specs)
    tail_cls = _FirstSeenSinkTail if remove_duplicates else SketchTail
    trace = bool(os.environ.get("STREAMMD_TRACE"))
    t0 = time.monotonic()

    def mark_phase(name: str) -> None:
        nonlocal t0
        if trace:
            now = time.monotonic()
            print(f"[trace] flagship {name}: {now - t0:.2f}s", file=sys.stderr)
            t0 = now

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

    # killed on every exit: map workers keep the mark stage's host
    # handles alive, so spawned actors would outlive a pass that raised
    try:
        # every stage is a function or a callable instance (stateless tasks;
        # all Bloom state lives in the host actors), so Ray fuses derive →
        # mark → finish → tail into ONE task chain per block: no actor pool
        # to spawn, no extra object-store hop for the marked blocks.
        # batch_size=None on the tail → one partial per BLOCK, so the
        # driver-side merge stays O(blocks), not O(rows/batch)
        partials = (
            add_key_columns(ds, key_cols)
            .map_batches(
                BloomMarkStage(shards),
                batch_format="pyarrow",
                zero_copy_batch=True,
                batch_size=batch_size,
            )
            .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
            .map_batches(
                tail_cls(packed, output_dir=output_dir),
                batch_format="pyarrow",
                zero_copy_batch=True,
                batch_size=None,
            )
        )
        by_name = gather_partials(partials)
        mark_phase("plan+execute+take_all")
        if trace:
            # per-operator wall/cpu breakdown of the fused pass — the scaling
            # diagnosis tool (which stage stops scaling with cores)
            try:
                print(partials.stats(), file=sys.stderr)
            except Exception:
                pass
        stats_refs = [h.stats.remote() for h in shards]
        # a pass over no rows emits no partials: zero counters, and its
        # sketches are the empty prototypes
        counts = [_COUNTS.unpack(s) for s in by_name.pop("__counts", [])]
        counters = {
            "turns": sum(c[0] for c in counts),
            "dups": sum(c[1] for c in counts),
            "nulls": sum(c[2] for c in counts),
        }
        sketches = {
            n: tree_merge(by_name[n]) if n in by_name else proto
            for n, (_, proto) in specs.items()
        }
        mark_phase("tree_merge")
        hosts = ray.get(stats_refs)
        mark_phase("shard_stats")
        shard_stats = partition_stats(hosts)
        hosts = [{k: v for k, v in h.items() if k != "partitions"} for h in hosts]
        missed = sum(h["replay_misses"] for h in hosts)
        if missed:
            raise ReplayMissed(
                f"{missed} Bloom calls of retried tasks missed their host's "
                "replay cache; their rows were marked against themselves"
            )
    finally:
        if owned:
            for s in shards:
                ray.kill(s)
    return FlagshipResult(
        counters=counters,
        sketches=sketches,
        shard_stats=shard_stats,
        hosts=hosts,
        config={
            "key_cols": key_cols,
            "p": p,
            "mem": mem,
            "num_shards": len(shard_stats),
            "strip_previous": strip_previous,
        },
    )
