"""The fused flagship pipeline — the BASELINE.json metric pipeline as a
reusable library function: ONE streaming pass that bloom-marks duplicates
AND accumulates the four estimate sketches AND the run counters.

    read → add_key_columns → BloomMarkStage (shard actors)
         → SketchTail (per-batch sketch partials + counters)
         → driver tree-merge

``perfbench`` and the checkpointed runner call this; a production job
passes ``output_dir=...`` to also persist the marked table in the same pass.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

from ..sketches import KLL, CountMinSketch, HyperLogLog, TDigest
from ..sketches.base import Sketch
from ..stages.dedup import MARK_COL
from ..stages.sketch_agg import (
    gather_partials,
    partials_table,
    sketch_partials,
    tree_merge,
)
from ..state.checkpoint import DISK_COMPRESSION
from .mark_duplicates import MarkResult, mark_duplicates, metrics_json

#: the ``__counts`` partial: (turns, dups, nulls) of one block
_COUNTS = struct.Struct("<3q")


def default_sketch_specs() -> dict[str, tuple[str, Sketch]]:
    """The north_star's five-sketch set (Bloom lives in the shard actors):
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
    small (compressed t-digest, modest CMS) and tree-merge in
    O(log n_batches).

    ``output_dir`` turns the tail into a streaming SINK as well: each block
    is written to its own parquet part file (tmp + atomic rename, name
    derived from the Ray task id so a task retry overwrites its own file
    idempotently; zstd level 1, ``state.checkpoint.DISK_COMPRESSION``)
    BEFORE sketching — mark + sketch + persist in ONE pass
    with no whole-table materialization, the 100-TB-shaped write path."""

    def __init__(self, specs_bytes: bytes, *, output_dir: str | None = None):
        self.protos = pickle.loads(specs_bytes)
        self.output_dir = output_dir
        self._ordinals: dict = {}

    def _write_part(self, batch: pa.Table) -> None:
        import glob
        import os

        import pyarrow.parquet as pq

        from .._runtime import task_identity

        full_tid, attempt = task_identity()
        tid = full_tid[:16]
        os.makedirs(self.output_dir, exist_ok=True)
        rec = self._ordinals.get(tid)
        if rec is None or rec[0] != attempt:
            # this task id (re-)enters at ordinal 0: a retry in a still-alive
            # worker keeps the per-worker map, so reset the ordinal AND delete
            # any stale part files the earlier attempt left behind — otherwise
            # the retry's parts land BESIDE the originals and duplicate rows
            rec = [attempt, 0]
            if attempt > 0:
                for stale in glob.glob(
                    os.path.join(self.output_dir, f"part-{tid}-*.parquet")
                ):
                    try:
                        os.remove(stale)
                    except OSError:
                        pass
        ordinal = rec[1]
        self._ordinals[tid] = [attempt, ordinal + 1]
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


class _ConsumedDataset:
    """Guard standing in for a lazy marked Dataset that has already been
    consumed (consume-once contract): any attribute access raises."""

    def __init__(self, why: str):
        object.__setattr__(self, "_why", why)

    def __getattr__(self, name):
        raise RuntimeError(object.__getattribute__(self, "_why"))


@dataclass
class FlagshipResult:
    counters: dict
    sketches: dict[str, Sketch]
    mark: MarkResult

    def metrics(self) -> dict:
        """The reference's metrics JSON, CONVERSATIONS via the ridden HLL."""
        return metrics_json(
            self.counters["turns"],
            self.counters["nulls"],
            self.counters["dups"],
            round(self.sketches["convs_hll"].estimate()),
        )


def run_flagship(
    ds,
    *,
    p: float = 1e-6,
    mem: str | None = "256MiB",
    num_shards: int = 8,
    batch_size: int | None = None,
    output_dir: str | None = None,
    remove_duplicates: bool = False,
    seal: bool = True,
    **mark_kwargs: Any,
) -> FlagshipResult:
    """One streaming pass: mark + sketches + counters (+ optional parquet
    persistence of the marked table, done INSIDE the same pass: the tail
    writes each block to its own part file before sketching — no
    materialization of the marked table at any scale, and the consume-once
    contract holds because there is still exactly one execution). With
    ``remove_duplicates=True`` the part files hold only first-seen rows;
    counters and sketches still count every turn.

    The pass fuses into one task chain per read block only when the read
    makes at most one block per file
    (``read_parquet(files, override_num_blocks=len(files))``, as the
    checkpointed runner and perfbench read). A default read of fewer files
    than Ray's read parallelism splits each file through an unfused
    ``SplitBlocks`` stage, and every split then runs its own chain: its own
    task, shard RPCs, part file and partial rows."""
    res = mark_duplicates(
        ds,
        p=p,
        mem=mem,
        num_shards=num_shards,
        batch_size=batch_size,
        **mark_kwargs,
    )
    packed = pickle.dumps(default_sketch_specs())
    # tail as a plain FUNCTION (stateless tasks): Ray fuses it with the
    # preceding task-based 'finish' stage into one operator, so the marked
    # blocks never make an extra object-store hop through a separate actor
    # pool (measured ~20% of the fused pass at 32 CPUs)
    tail_cls = _FirstSeenSinkTail if remove_duplicates else SketchTail
    tail = tail_cls(packed, output_dir=output_dir)
    # batch_size=None → one partial per BLOCK: with 64 fat input blocks that
    # is 64 partials (~170 KB each) to tree-merge on the driver instead of
    # hundreds — the driver-side merge stays O(blocks), not O(rows/batch)
    partials = res.marked.map_batches(
        tail,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )
    import os as _os
    import sys as _sys
    import time as _time

    _trace = bool(_os.environ.get("STREAMMD_TRACE"))
    _t0 = _time.monotonic()

    def _mark_phase(name: str) -> None:
        nonlocal _t0
        if _trace:
            now = _time.monotonic()
            print(f"[trace] flagship {name}: {now - _t0:.2f}s", file=_sys.stderr)
            _t0 = now

    by_name = gather_partials(partials)
    _mark_phase("plan+execute+take_all")
    if _trace:
        # per-operator wall/cpu breakdown of the fused pass — the scaling
        # diagnosis tool (which stage stops scaling with cores)
        try:
            print(partials.stats(), file=_sys.stderr)
        except Exception:
            pass
    counts = [_COUNTS.unpack(s) for s in by_name.pop("__counts")]
    counters = {
        "turns": sum(c[0] for c in counts),
        "dups": sum(c[1] for c in counts),
        "nulls": sum(c[2] for c in counts),
    }
    sketches = {n: tree_merge(sts) for n, sts in by_name.items()}
    _mark_phase("tree_merge")
    # the lazy marked plan was consumed exactly once by the partials pass
    # above (which also persisted the part files when output_dir was set);
    # seal the shard actors and replace the lazy handles with guards so any
    # later consumption fails loudly instead of re-executing the marking
    # pass against populated shards
    import ray

    if seal:
        ray.get([s.seal.remote() for s in res.shards])
        _mark_phase("seal")
    # seal=False: the caller owns long-lived shards spanning several fused
    # passes (the checkpointed wave runner) and seals after the LAST wave
    guard = _ConsumedDataset(
        "run_flagship already consumed the marked dataset in its single "
        "fused pass; read the written part files (output_dir=...) if you "
        "need the marked table afterwards"
    )
    res.marked = guard
    return FlagshipResult(counters=counters, sketches=sketches, mark=res)
