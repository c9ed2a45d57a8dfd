"""Sketch partials: the one per-batch inserter and the tree merge.

:func:`sketch_partials` takes an empty copy of each sketch prototype,
inserts one Arrow batch and serializes the result — one (sketch, state) row
per sketch. It is the only inserter in the engine: the flagship's
``SketchTail`` and the scan of :func:`run_sketches` / :func:`sketch_column`
(the catalog's estimate rows) both call it, so the oracle rows check the
flagship's own insert code. :func:`tree_merge` folds the partials in Ray
tasks fanning in ``MERGE_FANIN`` at a time: per-block state is a few KB–MB,
nothing materializes the dataset, and the reduction is O(log P) deep
whatever the partition count or order (merge associativity, north_rule).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sketches.base import Sketch, merge_all

MERGE_FANIN = 32


def _column(batch: pa.Table, col: str):
    arr = batch[col]
    return arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr


def sketch_partials(
    batch: pa.Table, protos: dict[str, tuple[str, Sketch]]
) -> dict[str, bytes]:
    """Insert one batch into an empty copy of every prototype; ``protos``
    maps output name → (column, sketch prototype), the result maps output
    name → serialized partial.

    Each column is pre-aggregated once for every sketch that allows it,
    from what the sketch class declares: a ``MULTIPLICITY_INSENSITIVE``
    sketch (HLL) takes the distinct values, a ``WEIGHTED`` one the distinct
    values with their counts (CMS; the t-digest, whose merge form is
    weighted insertion), and the rest the raw column. ``FLOAT_VALUES``
    sketches (t-digest, KLL) see the column as float64, so their distinct
    values come from ``np.unique``. The per-batch inputs are low-cardinality
    (tool ~51 distinct, turn length ~66, conv_id ~30k per 2M-row block), so
    the distinct pass costs far less than the inserts it saves. Nulls are
    skipped: the sketches drop null values and NaN floats with their counts.
    """
    distinct: dict = {}

    def values(col: str, as_float: bool):
        if as_float:
            return np.asarray(
                _column(batch, col).to_numpy(zero_copy_only=False), dtype=np.float64
            )
        return _column(batch, col)

    def distinct_counts(col: str, as_float: bool):
        key = (col, as_float)
        if key not in distinct:
            if as_float:
                distinct[key] = np.unique(values(col, True), return_counts=True)
            else:
                vc = pc.value_counts(batch[col])
                distinct[key] = (
                    vc.field("values"),
                    vc.field("counts").to_numpy().astype(np.int64),
                )
        return distinct[key]

    states = {}
    for name, (col, proto) in protos.items():
        # a fresh, writable copy: a prototype that travelled with a task
        # closure holds read-only views of the object store
        sk = proto.empty()
        if sk.MULTIPLICITY_INSENSITIVE:
            sk.insert_batch(distinct_counts(col, sk.FLOAT_VALUES)[0])
        elif sk.WEIGHTED:
            sk.insert_batch(*distinct_counts(col, sk.FLOAT_VALUES))
        else:
            sk.insert_batch(values(col, sk.FLOAT_VALUES))
        states[name] = sk.to_bytes()
    return states


def partials_table(states: dict[str, bytes]) -> pa.Table:
    """The (sketch, state) rows a scan task emits."""
    return pa.table(
        {
            "sketch": pa.array(list(states), pa.string()),
            "state": pa.array(list(states.values()), pa.binary()),
        }
    )


def gather_partials(partials) -> dict[str, list[bytes]]:
    """Collect a partials dataset on the driver, grouped by sketch name. The
    table is tiny (one row per sketch per batch): O(blocks), not O(rows)."""
    by_name: dict[str, list[bytes]] = {}
    for row in partials.take_all():
        by_name.setdefault(row["sketch"], []).append(row["state"])
    return by_name


def tree_merge(states: list[bytes], *, fanin: int = MERGE_FANIN) -> Sketch:
    """Associative tree reduction of serialized sketch states via Ray tasks.

    Small lists fold on the driver; larger lists reduce in rounds of
    ``fanin`` so no single process deserializes every partial.
    """
    import ray

    if not states:
        raise ValueError("tree_merge of no states")
    if len(states) <= fanin:
        return merge_all([Sketch.from_bytes(s) for s in states])

    @ray.remote(num_cpus=1)
    def _fold(chunk: list[bytes]) -> bytes:
        return merge_all([Sketch.from_bytes(s) for s in chunk]).to_bytes()

    while len(states) > fanin:
        futures = [
            _fold.remote(states[i : i + fanin]) for i in range(0, len(states), fanin)
        ]
        states = ray.get(futures)
    return merge_all([Sketch.from_bytes(s) for s in states])


def run_sketches(ds, specs: dict[str, tuple[str, Sketch]]) -> dict[str, Sketch]:
    """One scan, many sketches: ``specs`` maps output name → (column, sketch
    prototype). Each batch runs :func:`sketch_partials` in a plain function
    (stateless tasks that fuse with the upstream stages, as the flagship's
    mark and tail stages do) — the five-sketch single pass of SURVEY.md §7.1
    step 3 — and the driver tree-merges the partials."""

    def scan(batch: pa.Table) -> pa.Table:
        return partials_table(sketch_partials(batch, specs))

    partials = ds.map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)
    return {n: tree_merge(sts) for n, sts in gather_partials(partials).items()}


def sketch_column(ds, col: str, proto: Sketch) -> Sketch:
    return run_sketches(ds, {"s": (col, proto)})["s"]

