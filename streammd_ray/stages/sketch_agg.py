"""Sketch aggregation stages — every sketch usable two ways:

1. **Scan path** (:func:`run_sketches` / :func:`sketch_column`): one fused
   ``map_batches`` task pass emits one serialized partial per batch and
   sketch; a tree reduction (:func:`tree_merge`, Ray tasks fanning in
   ``MERGE_FANIN`` at a time) folds the partials. This is the 10^12-turn
   path — per-block state is a few KB–MB, nothing materializes the dataset,
   and the reduction is O(log P) depth regardless of partition count/order
   (merge associativity, north_rule).

2. **UDAF path** (:class:`HllAgg` etc., subclasses of Ray's
   ``AggregateFnV2``): drop-in for ``ds.aggregate(...)`` and
   ``ds.groupby(k).aggregate(...)`` — e.g. per-role distinct-text counts.
   Ray performs the same block-partial + combine tree internally.
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa

from ..sketches.base import Sketch, merge_all
from ..sketches.bloom import BloomFilter
from ..sketches.cms import CountMinSketch
from ..sketches.hll import HyperLogLog
from ..sketches.kll import KLL
from ..sketches.tdigest import TDigest

MERGE_FANIN = 32


def _column(batch: pa.Table, col: str):
    arr = batch[col]
    return arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr


def _insert_column(sk: Sketch, values) -> None:
    """Insert one Arrow column; the quantile sketches take it as float64."""
    if isinstance(sk, (TDigest, KLL)):
        values = np.asarray(values.to_numpy(zero_copy_only=False), dtype=np.float64)
    sk.insert_batch(values)


def tree_merge(states: list[bytes], *, fanin: int = MERGE_FANIN) -> Sketch:
    """Associative tree reduction of serialized sketch states via Ray tasks.

    Small lists fold on the driver; larger lists reduce in rounds of
    ``fanin`` so no single process deserializes every partial.
    """
    import ray

    if not states:
        raise ValueError("tree_merge of no states")
    if len(states) <= fanin:
        return merge_all([pickle.loads(s) for s in states])

    @ray.remote(num_cpus=1)
    def _fold(chunk: list[bytes]) -> bytes:
        return merge_all([pickle.loads(s) for s in chunk]).to_bytes()

    while len(states) > fanin:
        futures = [
            _fold.remote(states[i : i + fanin]) for i in range(0, len(states), fanin)
        ]
        states = ray.get(futures)
    return merge_all([pickle.loads(s) for s in states])


def run_sketches(ds, specs: dict[str, tuple[str, Sketch]]) -> dict[str, Sketch]:
    """One scan, many sketches: ``specs`` maps output name → (column, sketch
    prototype). Each batch inserts into a fresh clone of every prototype and
    emits one (sketch, state) row per sketch — the five-sketch single-pass
    of SURVEY.md §7.1 step 3 — and the driver tree-merges the partials.

    The scan is a plain function (stateless tasks that fuse with the
    upstream stages, the ``make_mark_fn`` pattern). The partials table is
    tiny (one row per sketch per batch) — materializing it on the driver is
    O(blocks), not O(rows).
    """

    # the prototypes travel as pickled bytes: unpickling them per batch gives
    # fresh, writable clones (arrays deserialized with the closure itself
    # are read-only views of the object store)
    packed = pickle.dumps(specs)

    def scan(batch: pa.Table) -> pa.Table:
        names, states = [], []
        for name, (col, sk) in pickle.loads(packed).items():
            _insert_column(sk, _column(batch, col))
            names.append(name)
            states.append(sk.to_bytes())
        return pa.table(
            {
                "sketch": pa.array(names, pa.string()),
                "state": pa.array(states, pa.binary()),
            }
        )

    partials = ds.map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)
    by_name: dict[str, list[bytes]] = {name: [] for name in specs}
    for batch in partials.iter_batches(batch_format="pyarrow", batch_size=4096):
        names = batch["sketch"].to_pylist()
        states = batch["state"].to_pylist()
        for n, s in zip(names, states):
            by_name[n].append(s)
    return {n: tree_merge(sts) for n, sts in by_name.items() if sts}


def sketch_column(ds, col: str, proto: Sketch) -> Sketch:
    return run_sketches(ds, {"s": (col, proto)})["s"]


def global_counts(ds, exprs: dict) -> dict:
    """Global scalar aggregation without an all-to-all: each batch emits ONE
    partial row (vectorized numpy on the Arrow batch), the driver folds the
    ~#blocks partials. Ray's global ``Dataset.aggregate`` routes even simple
    Count/Sum through the shuffle machinery — 2-3x the cost of the whole
    pipeline at bench scale.

    ``exprs`` maps name → fn(pa.Table) -> int/float (a partial; partials sum).
    """
    import pyarrow as pa

    names = list(exprs)

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({n: [exprs[n](t)] for n in names})

    rows = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    return {n: sum(r[n] for r in rows) for n in names}


# ---------------------------------------------------------------------------
# AggregateFnV2 adapters (UDAFs for ds.aggregate / groupby().aggregate)
# ---------------------------------------------------------------------------

try:
    from ray.data.aggregate import AggregateFnV2
    from ray.data.block import BlockAccessor

    class SketchAgg(AggregateFnV2):
        """Base adapter: accumulator = serialized sketch bytes."""

        _proto: Sketch

        def __init__(self, on: str, proto: Sketch, alias_name: str | None = None):
            self._proto_bytes = proto.to_bytes()
            self._finalize_mode = "estimate"
            super().__init__(
                alias_name or f"{proto.kind}({on})",
                zero_factory=lambda: None,
                on=on,
                ignore_nulls=True,
            )

        def _new(self) -> Sketch:
            return pickle.loads(self._proto_bytes)

        def aggregate_block(self, block) -> bytes:
            t = BlockAccessor.for_block(block).to_arrow()
            sk = self._new()
            _insert_column(sk, _column(t, self._target_col_name))
            return sk.to_bytes()

        def combine(self, acc, new):
            if acc is None:
                return new
            if new is None:
                return acc
            a = pickle.loads(acc)
            return a.merge(pickle.loads(new)).to_bytes()

        def finalize(self, acc):
            if acc is None:
                return None
            sk = pickle.loads(acc)
            if self._finalize_mode == "bytes":
                return acc
            est = sk.estimate()
            if isinstance(sk, HyperLogLog):
                return float(est)
            return est

    class HllAgg(SketchAgg):
        def __init__(self, on: str, precision: int = 14, alias_name=None):
            super().__init__(on, HyperLogLog(precision), alias_name)

    class CmsAgg(SketchAgg):
        def __init__(self, on: str, eps=1e-4, delta=1e-3, track_heavy=16, alias_name=None):
            super().__init__(
                on,
                CountMinSketch(eps=eps, delta=delta, track_heavy=track_heavy),
                alias_name,
            )

        def finalize(self, acc):
            if acc is None:
                return None
            return pickle.loads(acc).top_k()

    class TDigestAgg(SketchAgg):
        def __init__(self, on: str, delta=200.0, quantiles=(0.5, 0.9, 0.99), alias_name=None):
            self._qs = quantiles
            super().__init__(on, TDigest(delta), alias_name)

        def finalize(self, acc):
            if acc is None:
                return None
            sk = pickle.loads(acc)
            return [float(sk.quantile(q)) for q in self._qs]

    class KllAgg(SketchAgg):
        def __init__(self, on: str, k=200, quantiles=(0.5, 0.9, 0.99), alias_name=None):
            self._qs = quantiles
            super().__init__(on, KLL(k), alias_name)

        def finalize(self, acc):
            if acc is None:
                return None
            sk = pickle.loads(acc)
            return [float(sk.quantile(q)) for q in self._qs]

    class BloomCountAgg(SketchAgg):
        """Approximate distinct count via Bloom fill (Swamidass–Baldi)."""

        def __init__(self, on: str, p=1e-4, capacity=1_000_000, alias_name=None):
            super().__init__(on, BloomFilter(p, capacity), alias_name)

except ImportError:  # pragma: no cover - AggregateFnV2 is in ray 2.49
    SketchAgg = None  # type: ignore
