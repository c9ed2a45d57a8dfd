"""t-digest — quantile sketch (Dunning & Ertl, "Computing Extremely Accurate
Quantiles Using t-Digests", 2019). Merging-digest variant.

Role in the engine: turn-length and latency quantiles over 10^12 turns.
Centroids are kept sorted by mean; a centroid at quantile position q may hold
at most the weight allowed by the k1 scale function
k(q) = (δ/2π)·asin(2q−1), which concentrates resolution at the tails.
Merge = append the other digest's centroids to the insert buffer, as
weighted points — associative within the published accuracy envelope
(estimates from different merge orders agree to within the digest's quantile
error, property-tested).

Implementation is numpy-vectorized: inserted values and merged centroids are
buffered and folded into the centroid set with one sort + one greedy linear
pass, when the buffer reaches ``buffer_size`` or on read (``quantile``,
``cdf``, ``to_bytes``). Centroids are only ever held compressed, so a fold of
n partials compresses once, not once per merge.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Sketch, state_array


class TDigest(Sketch):
    kind = "tdigest"
    WEIGHTED = True
    FLOAT_VALUES = True

    def __init__(self, delta: float = 200.0, buffer_size: int = 65536):
        self.delta = float(delta)
        self.buffer_size = int(buffer_size)
        self.means = np.zeros(0, dtype=np.float64)
        self.weights = np.zeros(0, dtype=np.float64)
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buf: list[np.ndarray] = []
        self._buf_len = 0

    # --- scale function (k1) --------------------------------------------------

    def _q_limit(self, q0: float) -> float:
        """The quantile a centroid starting at ``q0`` may grow to: the q at
        which the k1 scale reaches k(q0) + 1. Scalar ``math``: the greedy
        pass calls this once per output centroid."""
        k0 = (self.delta / (2.0 * math.pi)) * math.asin(2.0 * min(max(q0, 0.0), 1.0) - 1.0)
        arg = (2.0 * math.pi / self.delta) * (k0 + 1.0)
        arg = min(max(arg, -math.pi / 2), math.pi / 2)
        return 0.5 * (math.sin(arg) + 1.0)

    # --- inserts --------------------------------------------------------------

    def insert_batch(self, values, weights=None) -> None:
        v = np.asarray(values, dtype=np.float64)
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if len(w) != len(v):
                raise ValueError(
                    f"weights length {len(w)} != values length {len(v)}"
                )
            keep = ~np.isnan(v)
            v, w = v[keep], w[keep]
        else:
            v = v[~np.isnan(v)]
            w = None
        if v.size == 0:
            return
        pairs = np.stack([v, w if w is not None else np.ones_like(v)])
        self._buf.append(pairs)
        self._buf_len += v.size
        self.min = min(self.min, float(v.min()))
        self.max = max(self.max, float(v.max()))
        if self._buf_len >= self.buffer_size:
            self._compress()

    def _compress(self) -> None:
        if not self._buf:
            return
        means = np.concatenate([self.means, *(p[0] for p in self._buf)])
        weights = np.concatenate([self.weights, *(p[1] for p in self._buf)])
        self._buf, self._buf_len = [], 0
        order = np.argsort(means, kind="stable")
        means, weights = means[order], weights[order]
        total = float(weights.sum())
        # greedy linear pass: grow current centroid while the k-size bound
        # allows, over Python floats (numpy scalars cost ~10x per step)
        m, w = means.tolist(), weights.tolist()
        out_m, out_w = [], []
        cur_m, cur_w = m[0], w[0]
        w_so_far = 0.0
        qlim = self._q_limit(0.0)
        for i in range(1, len(m)):
            proposed = cur_w + w[i]
            if (w_so_far + proposed) / total <= qlim:
                cur_m += (m[i] - cur_m) * (w[i] / proposed)
                cur_w = proposed
            else:
                out_m.append(cur_m)
                out_w.append(cur_w)
                w_so_far += cur_w
                qlim = self._q_limit(w_so_far / total)
                cur_m, cur_w = m[i], w[i]
        out_m.append(cur_m)
        out_w.append(cur_w)
        self.means = np.asarray(out_m)
        self.weights = np.asarray(out_w)
        self.total = total

    # --- queries --------------------------------------------------------------

    def quantile(self, q) -> float | np.ndarray:
        """Estimate the q-quantile(s), q in [0,1]."""
        self._compress()
        scalar = np.isscalar(q)
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        if self.means.size == 0:
            out = np.full_like(qs, math.nan)
            return float(out[0]) if scalar else out
        w = self.weights
        cum = np.cumsum(w) - 0.5 * w  # centroid midpoints in cumulative weight
        targets = qs * self.total
        out = np.interp(targets, cum, self.means, left=self.min, right=self.max)
        out = np.clip(out, self.min, self.max)
        return float(out[0]) if scalar else out

    def cdf(self, x: float) -> float:
        self._compress()
        if self.means.size == 0:
            return math.nan
        if x <= self.min:
            return 0.0
        if x >= self.max:
            return 1.0
        cum = np.cumsum(self.weights) - 0.5 * self.weights
        return float(np.interp(x, self.means, cum) / self.total)

    def estimate(self) -> dict:
        return {q: self.quantile(q) for q in (0.5, 0.9, 0.99)}

    # --- layout ---------------------------------------------------------------

    def _init_kwargs(self) -> dict:
        return {"delta": self.delta, "buffer_size": self.buffer_size}

    def _state(self):
        # flush the buffer first: a serialized partial is ~delta centroids
        # (a few KB), not the raw insert buffer (up to buffer_size floats) —
        # partials travel through the object store and driver merges
        self._compress()
        scalars = {"total": self.total, "min": self.min, "max": self.max}
        return scalars, {"means": self.means, "weights": self.weights}

    def _set_state(self, scalars, arrays) -> None:
        self.total = float(scalars["total"])
        self.min, self.max = float(scalars["min"]), float(scalars["max"])
        self.means = state_array(arrays, "means", np.float64)
        self.weights = state_array(arrays, "weights", np.float64, self.means.shape)

    # --- merge ----------------------------------------------------------------

    def _compat_key(self) -> tuple:
        return (self.kind, self.delta)

    def merge(self, other: "TDigest") -> "TDigest":
        self.check_compatible(other)
        parts = other._buf
        if other.means.size:
            parts = [np.stack([other.means, other.weights]), *parts]
        if not parts:
            return self
        self._buf.extend(parts)
        self._buf_len += sum(p.shape[1] for p in parts)
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        if self._buf_len >= self.buffer_size:
            self._compress()
        return self
