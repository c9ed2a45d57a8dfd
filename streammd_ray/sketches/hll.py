"""HyperLogLog — distinct-count sketch (Flajolet et al. 2007, with the
small-range linear-counting correction from the original paper and the
standard 64-bit-hash variant that removes the large-range correction).

Role in the engine: distinct conv_id / tool cardinality at 10^12-turn scale
where ``ds.unique`` (an all-to-all shuffle) is unaffordable. Relative standard
error ≈ 1.04/√m; with precision p=14 (m=16384 registers, 16 KiB) that is
~0.81%. Merge = elementwise register max — exactly associative/commutative,
so the merged estimate is bit-identical regardless of partition order.
"""

from __future__ import annotations

import math

import numpy as np

from ..hashing import HASHER_ID, SEED, hash64_batch, valid_mask
from .base import Sketch, require_writeable, state_array


class HyperLogLog(Sketch):
    kind = "hll"

    #: register state is a max over hashes — inserting each distinct value
    #: once yields the identical sketch, so batch stages may pre-aggregate
    #: (feed value_counts values without the counts)
    MULTIPLICITY_INSENSITIVE = True

    def __init__(self, precision: int = 14, *, seed: int = SEED):
        if not (4 <= precision <= 18):
            raise ValueError("precision must be in [4, 18]")
        self.p = precision
        self.m = 1 << precision
        self.seed = seed
        self.hasher = HASHER_ID
        self.regs = np.zeros(self.m, dtype=np.uint8)
        if self.m >= 128:
            self.alpha = 0.7213 / (1.0 + 1.079 / self.m)
        elif self.m == 64:
            self.alpha = 0.709
        elif self.m == 32:
            self.alpha = 0.697
        else:
            self.alpha = 0.673

    @property
    def relative_error(self) -> float:
        return 1.04 / math.sqrt(self.m)

    def insert_hashed(self, h: np.ndarray) -> None:
        require_writeable(self.regs, self.kind)
        h = np.ascontiguousarray(h, dtype=np.uint64)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        w = h & np.uint64((1 << (64 - self.p)) - 1)
        # rho = leading-zero count within (64-p) bits + 1 = (64-p) - bitlength(w) + 1.
        # bitlength via frexp exponent: exact because w < 2^53 for p >= 11;
        # for smaller p split high/low 32 bits.
        if 64 - self.p <= 52:
            exp = np.frexp(w.astype(np.float64))[1]  # bitlength of w (0 for w==0)
        else:
            hi = (w >> np.uint64(32)).astype(np.float64)
            lo = (w & np.uint64(0xFFFFFFFF)).astype(np.float64)
            ehi = np.frexp(hi)[1]
            elo = np.frexp(lo)[1]
            exp = np.where(hi > 0, ehi + 32, elo)
        rho = ((64 - self.p) - exp + 1).astype(np.uint8)
        np.maximum.at(self.regs, idx, rho)

    def insert_batch(self, values) -> None:
        """Nulls do not count toward the cardinality."""
        h = hash64_batch(values, self.seed)
        valid = valid_mask(values)
        self.insert_hashed(h if valid is None else h[valid])

    def estimate(self) -> float:
        inv = np.ldexp(1.0, -self.regs.astype(np.int64))  # 2^-reg
        raw = self.alpha * self.m * self.m / inv.sum()
        if raw <= 2.5 * self.m:
            zeros = int((self.regs == 0).sum())
            if zeros > 0:
                return self.m * math.log(self.m / zeros)
        return float(raw)

    def _compat_key(self) -> tuple:
        return (self.kind, self.p, self.seed, self.hasher)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        self.check_compatible(other)
        np.maximum(self.regs, other.regs, out=self.regs)
        return self

    # --- layout ---------------------------------------------------------------

    def _init_kwargs(self) -> dict:
        return {"precision": self.p, "seed": self.seed}

    def _state(self):
        return {"hasher": self.hasher}, {"regs": self.regs}

    def _set_state(self, scalars, arrays) -> None:
        self.hasher = scalars["hasher"]
        self.regs = state_array(arrays, "regs", np.uint8, (self.m,))
