"""Count–min sketch — frequency / heavy-hitter estimation (Cormode &
Muthukrishnan 2005).

Role in the engine: heavy-hitter tool / role frequencies over 10^12 turns
without a per-key groupby shuffle. Point estimate f̂(x) = min over d rows;
guarantee f̂(x) ≤ f(x) + ε·N with probability ≥ 1−δ, where ε = e/width and
δ = e^-depth. Merge = elementwise addition of the count matrices —
exactly associative/commutative.

Heavy hitters: the sketch itself cannot enumerate keys, so a small candidate
map of the current top-K (by CMS estimate) rides along with the counts —
classic "CMS + heap" pattern; candidate maps union on merge and re-truncate,
so heavy hitters survive arbitrary partition orders as long as K is
comfortably larger than the true number of heavy keys per partition.

State layout: the count matrix travels dense (``counts``) or, when that is
smaller, as its non-zero cells (``nz_idx``: sorted flat C-order indices,
``nz_val``: their counts, both int64). A per-block partial touches
``depth`` cells per distinct key: the flagship's tool count-min of one
12,500-row block encodes in 6.0 KB, not 153 KB, which keeps the partials
under Ray's 100 KiB inline-object limit. Both forms decode to the same
dense matrix.
"""

from __future__ import annotations

import math

import numpy as np

from ..hashing import HASHER_ID, SEED, hash_pair_batch, valid_mask
from .base import Sketch, SketchError, require_writeable, state_array


class CountMinSketch(Sketch):
    kind = "cms"
    WEIGHTED = True

    def __init__(
        self,
        *,
        eps: float = 1e-4,
        delta: float = 1e-4,
        track_heavy: int = 0,
        seed: int = SEED,
    ):
        """eps/delta sizing: width = ceil(e/eps), depth = ceil(ln(1/delta))."""
        self.eps = float(eps)
        self.delta = float(delta)
        self.width = math.ceil(math.e / eps)
        self.depth = math.ceil(math.log(1.0 / delta))
        self.seed = int(seed)
        self.hasher = HASHER_ID
        self.counts = np.zeros((self.depth, self.width), dtype=np.int64)
        self.total = 0
        self.track_heavy = int(track_heavy)
        self.heavy: dict = {}  # key -> CMS estimate at last update

    def _indices(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        j = np.arange(self.depth, dtype=np.uint64)[:, None]
        return ((h1[None, :] + j * h2[None, :]) % np.uint64(self.width)).astype(
            np.int64
        )

    def insert_batch(self, values, counts=None) -> None:
        """Add each value (optionally with per-value integer counts).
        Null values are skipped — they are not a frequency key."""
        require_writeable(self.counts, self.kind)
        h1, h2 = hash_pair_batch(values, self.seed)
        if counts is None:
            w = np.ones(len(h1), dtype=np.int64)
        else:
            w = np.ascontiguousarray(counts, dtype=np.int64)
        valid = valid_mask(values)
        if valid is not None:
            h1, h2, w = h1[valid], h2[valid], w[valid]
        if len(h1) == 0:
            return
        idx = self._indices(h1, h2)
        for j in range(self.depth):
            np.add.at(self.counts[j], idx[j], w)
        self.total += int(w.sum())
        if self.track_heavy:
            vals = values.to_pylist() if hasattr(values, "to_pylist") else list(values)
            if valid is not None:
                vals = [v for v, ok in zip(vals, valid) if ok]
            self._update_heavy(vals, idx)

    def _update_heavy(self, vals: list, idx: np.ndarray) -> None:
        est = self.counts[np.arange(self.depth)[:, None], idx].min(axis=0)
        for v, e in zip(vals, est):
            if v is None:
                continue
            cur = self.heavy.get(v)
            if cur is None or e > cur:
                self.heavy[v] = int(e)
        self._truncate_heavy()

    def _truncate_heavy(self) -> None:
        if len(self.heavy) > 4 * self.track_heavy:
            top = sorted(self.heavy.items(), key=lambda kv: (-kv[1], kv[0]))
            self.heavy = dict(top[: 2 * self.track_heavy])

    def query(self, value) -> int:
        h1, h2 = hash_pair_batch([value], self.seed)
        idx = self._indices(h1, h2)
        return int(self.counts[np.arange(self.depth), idx[:, 0]].min())

    def query_batch(self, values) -> np.ndarray:
        h1, h2 = hash_pair_batch(values, self.seed)
        idx = self._indices(h1, h2)
        return self.counts[np.arange(self.depth)[:, None], idx].min(axis=0)

    def top_k(self, k: int | None = None) -> list[tuple[str, int]]:
        """Current heavy-hitter candidates re-scored against the full counts."""
        keys = list(self.heavy)
        if not keys:
            return []
        est = self.query_batch(keys)
        ranked = sorted(zip(keys, est.tolist()), key=lambda kv: (-kv[1], kv[0]))
        return ranked[: k or self.track_heavy or len(ranked)]

    def estimate(self) -> dict:
        return {"total": self.total, "top": self.top_k()}

    def _compat_key(self) -> tuple:
        return (self.kind, self.width, self.depth, self.seed, self.hasher)

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        self.check_compatible(other)
        self.counts += other.counts
        self.total += other.total
        if self.track_heavy or other.track_heavy:
            self.track_heavy = max(self.track_heavy, other.track_heavy)
            union = sorted(set(self.heavy) | set(other.heavy))
            est = self.query_batch(union) if union else []
            self.heavy = {k: int(e) for k, e in zip(union, est)}
            self._truncate_heavy()
        return self

    # --- layout ---------------------------------------------------------------

    def _init_kwargs(self) -> dict:
        return {
            "eps": self.eps,
            "delta": self.delta,
            "track_heavy": self.track_heavy,
            "seed": self.seed,
        }

    def _state(self):
        heavy = []
        for key, est in self.heavy.items():
            if isinstance(key, np.generic):
                key = key.item()  # a key taken from a numpy column
            if type(key) not in (str, int, float):
                raise SketchError(
                    f"count-min heavy key {key!r} is a {type(key).__name__}; "
                    "the state layout keeps str, int and float keys"
                )
            heavy.append([key, est])
        scalars = {"hasher": self.hasher, "total": self.total, "heavy": heavy}
        nz_idx = np.flatnonzero(self.counts)
        # sparse costs 16 B per non-zero cell, dense 8 B per cell
        if 2 * nz_idx.size < self.counts.size:
            return scalars, {"nz_idx": nz_idx, "nz_val": self.counts.ravel()[nz_idx]}
        return scalars, {"counts": self.counts}

    def _set_state(self, scalars, arrays) -> None:
        self.hasher = scalars["hasher"]
        self.total = int(scalars["total"])
        self.heavy = {key: int(est) for key, est in scalars["heavy"]}
        shape = (self.depth, self.width)
        if "counts" in arrays:
            self.counts = state_array(arrays, "counts", np.int64, shape)
            return
        idx = state_array(arrays, "nz_idx", np.int64)
        val = state_array(arrays, "nz_val", np.int64, idx.shape)
        if idx.ndim != 1 or (
            idx.size
            and (idx[0] < 0 or idx[-1] >= self.counts.size or (np.diff(idx) <= 0).any())
        ):
            raise SketchError(
                "count-min nz_idx must be strictly increasing flat indices "
                f"in [0, {self.counts.size})"
            )
        self.counts.ravel()[idx] = val
