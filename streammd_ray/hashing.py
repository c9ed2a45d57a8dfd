"""Hashing primitives for the sketch engine.

``hash64_batch`` hashes a whole Arrow / numpy column of strings to uint64 in
one call, on polars' ``Series.hash`` (xxhash-family, seeded, vectorized in
native code). ``hash_pair_batch`` gives the two seeded streams (h1, h2) from
which the k Bloom probe indices are derived by Kirsch–Mitzenmacher double
hashing — the scheme the reference engine uses with XXH3-64 seeds 43/9967
(see /root/reference/src/bloomfilter.cxx:104-120). All sketch state is
tagged with the hasher name + seeds so merges across partitions are only
permitted between sketches built with the identical hash configuration.

polars is imported by the functions that hash, not at module import, so the
sketch classes (and a Bloom shard process, which receives pre-hashed keys)
load without it.
"""

from __future__ import annotations

import sys
from importlib.metadata import version

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF

# Default seed pair for Kirsch–Mitzenmacher double hashing (the reference uses
# two fixed seeds for the same purpose: /root/reference/src/bloomfilter.h:39-40).
SEED_A = 43
SEED_B = 9967


def _to_polars_series(values):
    import polars as pl
    import pyarrow as pa

    if isinstance(values, pl.Series):
        return values
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        return pl.from_arrow(values)  # zero-copy for string/binary arrays
    return pl.Series(values=values)


def hash64_batch(values, seed: int = SEED_A) -> np.ndarray:
    """Vectorized 64-bit hash of a column of strings/bytes → uint64 ndarray.

    Nulls hash to 0 — callers must mask nulls out *before* interpreting the
    result (a null dedup key is never inserted; it is only counted, mirroring
    the reference's unmapped handling at /root/reference/src/markdups.cxx:110-112).
    """
    s = _to_polars_series(values)
    hashed = s.hash(seed=seed & MASK64)
    out = hashed.to_numpy().astype(np.uint64, copy=False).copy()
    if s.null_count():
        out[s.is_null().to_numpy()] = 0
    return out


def valid_mask(values) -> np.ndarray | None:
    """Boolean 'is not null' mask for a column, or None when nothing is null."""
    import pyarrow as pa

    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        if values.null_count == 0:
            return None
        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        return np.asarray(values.is_valid())
    pl = sys.modules.get("polars")  # a polars Series implies polars is loaded
    if pl is not None and isinstance(values, pl.Series):
        if values.null_count() == 0:
            return None
        return (~values.is_null()).to_numpy()
    arr = np.asarray([v is not None for v in values])
    return None if arr.all() else arr


def hash_pair_batch(values, seed_a: int = SEED_A, seed_b: int = SEED_B):
    """Two independent 64-bit hash streams (h1, h2) for double hashing."""
    h1 = hash64_batch(values, seed_a)
    h2 = hash64_batch(values, seed_b)
    # Kirsch–Mitzenmacher needs h2 odd-ish / nonzero so probes don't collapse.
    h2 = np.where(h2 == 0, np.uint64(0x9E3779B97F4A7C15), h2)
    return h1, h2


#: tags every sketch and checkpoint manifest; read from the installed
#: distribution's metadata, the same string as polars' ``__version__``
HASHER_ID = f"polars-xxh:{version('polars')}"
