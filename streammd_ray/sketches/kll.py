"""KLL — rank/quantile sketch (Karnin, Lang & Liberty, "Optimal Quantile
Approximation in Streams", FOCS 2016).

Role in the engine: inter-turn latency quantiles — the second quantile sketch
(alongside t-digest) per the north_star. Levels of compactors: level h holds
items each representing 2^h input items; when a level overflows its capacity
k·c^(H-h) it is sorted and every other item (random even/odd offset) is
promoted to level h+1. Normalized rank error ε ≈ 1.7/k single-stream and the
same asymptotics under merge; merge = concatenate levels + re-compact, valid
in any order (property-tested under partition permutations).

Randomness: the even/odd offset comes from a counter-seeded PRNG so a given
sketch instance is deterministic for a given insert order; merge associativity
is asserted within the rank-error bound, not bit-exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Sketch, SketchError, state_array

_C = 2.0 / 3.0  # level capacity decay


class KLL(Sketch):
    kind = "kll"
    FLOAT_VALUES = True

    def __init__(self, k: int = 200, *, seed: int = 1234):
        self.k = int(k)
        self.seed = int(seed)
        self._rng_counter = 0
        self.levels: list[np.ndarray] = [np.zeros(0, dtype=np.float64)]
        self.n = 0
        self.min = math.inf
        self.max = -math.inf

    @property
    def rank_error(self) -> float:
        """Approximate normalized rank error bound (ε ≈ 1.7/k at 99%)."""
        return 1.7 / self.k

    def _capacity(self, level: int) -> int:
        height = len(self.levels)
        cap = int(math.ceil(self.k * (_C ** (height - 1 - level))))
        return max(cap, 8)

    def _coin(self) -> int:
        self._rng_counter += 1
        rng = np.random.default_rng(self.seed + self._rng_counter)
        return int(rng.integers(0, 2))

    def insert_batch(self, values) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return
        self.n += v.size
        self.min = min(self.min, float(v.min()))
        self.max = max(self.max, float(v.max()))
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compact_if_needed()

    def _compact_if_needed(self) -> None:
        h = 0
        while h < len(self.levels):
            cap = self._capacity(h)
            if self.levels[h].size > cap:
                arr = np.sort(self.levels[h], kind="stable")
                off = self._coin()
                promoted = arr[off::2]
                self.levels[h] = np.zeros(0, dtype=np.float64)
                if h + 1 == len(self.levels):
                    self.levels.append(np.zeros(0, dtype=np.float64))
                self.levels[h + 1] = np.concatenate([self.levels[h + 1], promoted])
            h += 1

    # --- queries --------------------------------------------------------------

    def _weighted_items(self) -> tuple[np.ndarray, np.ndarray]:
        items, weights = [], []
        for h, arr in enumerate(self.levels):
            if arr.size:
                items.append(arr)
                weights.append(np.full(arr.size, 2.0**h))
        if not items:
            return np.zeros(0), np.zeros(0)
        it = np.concatenate(items)
        w = np.concatenate(weights)
        order = np.argsort(it, kind="stable")
        return it[order], w[order]

    def quantile(self, q) -> float | np.ndarray:
        scalar = np.isscalar(q)
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        it, w = self._weighted_items()
        if it.size == 0:
            out = np.full_like(qs, math.nan)
            return float(out[0]) if scalar else out
        cum = np.cumsum(w)
        targets = np.clip(qs, 0, 1) * cum[-1]
        pos = np.searchsorted(cum, targets, side="left")
        pos = np.clip(pos, 0, it.size - 1)
        out = it[pos]
        out[qs <= 0.0] = self.min
        out[qs >= 1.0] = self.max
        return float(out[0]) if scalar else out

    def rank(self, x: float) -> float:
        """Normalized rank of x (fraction of items <= x)."""
        it, w = self._weighted_items()
        if it.size == 0:
            return math.nan
        cum = np.cumsum(w)
        pos = np.searchsorted(it, x, side="right")
        return float((cum[pos - 1] if pos > 0 else 0.0) / cum[-1])

    def estimate(self) -> dict:
        return {q: self.quantile(q) for q in (0.5, 0.9, 0.99)}

    # --- merge ----------------------------------------------------------------

    def _compat_key(self) -> tuple:
        return (self.kind, self.k)

    def merge(self, other: "KLL") -> "KLL":
        self.check_compatible(other)
        while len(self.levels) < len(other.levels):
            self.levels.append(np.zeros(0, dtype=np.float64))
        for h, arr in enumerate(other.levels):
            if arr.size:
                self.levels[h] = np.concatenate([self.levels[h], arr])
        self.n += other.n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._rng_counter += other._rng_counter  # decorrelate future coins
        self._compact_if_needed()
        return self

    # --- layout ---------------------------------------------------------------

    def _init_kwargs(self) -> dict:
        return {"k": self.k, "seed": self.seed}

    def _state(self):
        # the coin counter travels too, so the next compaction of a decoded
        # sketch draws the same offsets as the original would
        scalars = {
            "n": self.n,
            "min": self.min,
            "max": self.max,
            "rng_counter": self._rng_counter,
        }
        sizes = np.array([a.size for a in self.levels], dtype=np.int64)
        return scalars, {"sizes": sizes, "items": np.concatenate(self.levels)}

    def _set_state(self, scalars, arrays) -> None:
        self.n = int(scalars["n"])
        self.min, self.max = float(scalars["min"]), float(scalars["max"])
        self._rng_counter = int(scalars["rng_counter"])
        sizes = state_array(arrays, "sizes", np.int64)
        items = state_array(arrays, "items", np.float64, (int(sizes.sum()),))
        if sizes.size == 0 or (sizes < 0).any():
            raise SketchError(f"bad KLL level sizes {sizes.tolist()}")
        self.levels = np.split(items, np.cumsum(sizes)[:-1])
