"""Hashing primitives for the sketch engine.

Every key is hashed by one seeded MurmurHash3_x64_128 pass (Appleby,
public domain), whose two 64-bit halves are the pair (h1, h2).
``hash_pair_batch`` returns both and ``hash64_batch`` returns h1. The k
Bloom probe indices come from the pair by Kirsch–Mitzenmacher double
hashing ("Less Hashing, Same Performance", ESA 2006), the scheme of the
reference's src/bloomfilter.cxx:104-120; taking both halves of one
128-bit hash is the usual way to feed it (Guava's ``MURMUR128_MITZ_64``
Bloom strategy does the same). Sketch state and checkpoint manifests carry
``HASHER_ID`` and the seed, so only sketches built with the identical hash
configuration merge.

What is hashed: the bytes of each string/binary value (so ``"a"`` and
``b"a"`` agree), and the 8-byte little-endian value of each integer (so an
int32 and an int64 column agree). Nulls give h1 = 0, the null-key mark
that exact dedup and the Bloom mark stage read; h2 is never 0.

Two implementations of the one function: the C kernel in
``sketches/_native.py`` reads the Arrow buffers in place, and a numpy twin
here runs wherever ``get_kernels()`` is None (no compiler, or
``STREAMMD_NO_NATIVE`` set). The tests hold them equal.

pyarrow is imported by the functions that hash, not at module import, so
the sketch classes (and a Bloom shard process, which receives pre-hashed
keys) load without it.
"""

from __future__ import annotations

import numpy as np

#: the seed of every engine hash (MurmurHash3 takes a 32-bit seed)
SEED = 43

#: names the hash function; a sketch or checkpoint tagged otherwise is refused
HASHER_ID = "murmur3_x64_128"

#: stands in for h2 == 0 and is the h2 of a null
GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _hashable(arr):
    """``arr`` as an array the hasher reads: string/binary (int32 or int64
    offsets), a 64-bit integer array, or the null type."""
    import pyarrow as pa

    t = arr.type
    if (
        pa.types.is_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_string(t)
        or pa.types.is_large_binary(t)
        or pa.types.is_null(t)
    ):
        return arr
    if pa.types.is_unsigned_integer(t):
        return arr.cast(pa.uint64())
    if pa.types.is_integer(t):
        return arr.cast(pa.int64())
    raise TypeError(f"cannot hash a column of type {t}")


def _arrow_chunks(values) -> list:
    import pyarrow as pa

    if isinstance(values, pa.ChunkedArray):
        chunks = values.chunks
    elif isinstance(values, pa.Array):
        chunks = [values]
    else:
        chunks = [pa.array(values)]
    return [_hashable(c) for c in chunks]


def _offset_bytes(t) -> int:
    """Bytes per offset of a string/binary type: 4, or 8 for the large
    types; 0 for the fixed-width and null types."""
    import pyarrow as pa

    if pa.types.is_null(t) or pa.types.is_primitive(t):
        return 0
    return 8 if pa.types.is_large_string(t) or pa.types.is_large_binary(t) else 4


def _murmur3_native(lib, arr, seed: int, h1: np.ndarray, h2: np.ndarray) -> None:
    """Hash one array into ``h1``/``h2`` with the C kernel, in place."""
    import pyarrow as pa

    bufs = arr.buffers()
    args = (bufs[0].address if bufs[0] is not None else None, arr.offset, len(arr))
    width = _offset_bytes(arr.type)
    if pa.types.is_null(arr.type):
        h1[:] = 0
        h2[:] = GOLDEN
    elif width:
        offsets = bufs[1].address + arr.offset * width
        # an array of only empty values may have no data buffer; the kernel
        # then reads no byte, so any valid address does
        data = bufs[2].address if bufs[2] is not None else offsets
        kernel = lib.murmur3_str64 if width == 8 else lib.murmur3_str32
        kernel(data, offsets, *args, seed, h1, h2)
    else:
        lib.murmur3_fixed(bufs[1].address + arr.offset * 8, 8, *args, seed, h1, h2)


_M = np.uint64
_C1, _C2 = _M(0x87C37B91114253D5), _M(0x4CF5AD432745937F)


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << _M(r)) | (x >> _M(64 - r))


def _fmix(x: np.ndarray) -> np.ndarray:
    x ^= x >> _M(33)
    x *= _M(0xFF51AFD7ED558CCD)
    x ^= x >> _M(33)
    x *= _M(0xC4CEB9FE1A85EC53)
    x ^= x >> _M(33)
    return x


def _bytes16(data: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The 16 bytes at each ``pos``, one row per position."""
    return data[pos[:, None] + np.arange(16)]


def _words(b16: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two little-endian 64-bit words of each 16-byte row."""
    k = b16.view("<u8")
    return k[:, 0].copy(), k[:, 1].copy()


def _murmur3_numpy(arr, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The numpy twin of the C kernel: the same MurmurHash3_x64_128, one
    16-byte block of every long-enough value per step."""
    import pyarrow as pa

    n = len(arr)
    bufs = arr.buffers()
    width = _offset_bytes(arr.type)
    if pa.types.is_null(arr.type):
        data, starts, lens = np.zeros(0, np.uint8), np.zeros(n, np.int64), np.zeros(n, np.int64)
    elif width:
        off = np.frombuffer(bufs[1], np.int64 if width == 8 else np.int32)
        off = off[arr.offset : arr.offset + n + 1].astype(np.int64)
        starts, lens = off[:-1], np.diff(off)
        data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None else np.zeros(0, np.uint8)
    else:
        data = np.frombuffer(bufs[1], np.uint8)[arr.offset * 8 : (arr.offset + n) * 8]
        starts, lens = np.arange(n, dtype=np.int64) * 8, np.full(n, 8, np.int64)
    # 16 zero bytes past the end: a tail read never leaves the buffer
    data = np.concatenate([data, np.zeros(16, np.uint8)])
    h1 = np.full(n, seed, np.uint64)
    h2 = np.full(n, seed, np.uint64)
    nblocks = lens // 16
    for b in range(int(nblocks.max(initial=0))):
        live = np.flatnonzero(nblocks > b)
        k1, k2 = _words(_bytes16(data, starts[live] + 16 * b))
        a1, a2 = h1[live], h2[live]
        k1 *= _C1
        a1 ^= _rotl(k1, 31) * _C2
        a1 = (_rotl(a1, 27) + a2) * _M(5) + _M(0x52DCE729)
        k2 *= _C2
        a2 ^= _rotl(k2, 33) * _C1
        a2 = (_rotl(a2, 31) + a1) * _M(5) + _M(0x38495AB5)
        h1[live], h2[live] = a1, a2
    # the tail: up to 15 bytes, zero past the value's end; a zero word
    # leaves h unchanged, as the reference's switch skips it
    tail = _bytes16(data, starts + 16 * nblocks)
    tail[np.arange(16) >= (lens % 16)[:, None]] = 0
    k1, k2 = _words(tail)
    k2 *= _C2
    h2 ^= _rotl(k2, 33) * _C1
    k1 *= _C1
    h1 ^= _rotl(k1, 31) * _C2
    ln = lens.astype(np.uint64)
    h1 ^= ln
    h2 ^= ln
    h1 += h2
    h2 += h1
    h1, h2 = _fmix(h1), _fmix(h2)
    h1 += h2
    h2 += h1
    h2[h2 == 0] = GOLDEN
    if arr.null_count:
        null = ~np.asarray(arr.is_valid(), dtype=bool)
        h1[null] = 0
        h2[null] = GOLDEN
    return h1, h2


def _hash_pair(values, seed: int, lib) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) of every value, by the C kernel ``lib`` or, when it is
    None, by the numpy twin."""
    if not 0 <= seed < 1 << 32:
        raise ValueError(f"seed must be a 32-bit unsigned int, got {seed}")
    chunks = _arrow_chunks(values)
    n = sum(len(c) for c in chunks)
    h1 = np.empty(n, np.uint64)
    h2 = np.empty(n, np.uint64)
    pos = 0
    for c in chunks:
        end = pos + len(c)
        if lib is not None:
            _murmur3_native(lib, c, seed, h1[pos:end], h2[pos:end])
        else:
            h1[pos:end], h2[pos:end] = _murmur3_numpy(c, seed)
        pos = end
    return h1, h2


def hash_pair_batch(values, seed: int = SEED) -> tuple[np.ndarray, np.ndarray]:
    """The two halves (h1, h2) of one 128-bit hash per value, as uint64
    arrays, for double hashing. ``values`` is an Arrow Array or
    ChunkedArray, a numpy array or a list. Nulls give h1 = 0 — callers mask
    them out before using the result (a null dedup key is never inserted,
    only counted, as the reference counts unmapped reads in its
    src/markdups.cxx:110-112)."""
    from .sketches import _native

    return _hash_pair(values, seed, _native.get_kernels())


def hash64_batch(values, seed: int = SEED) -> np.ndarray:
    """h1 of :func:`hash_pair_batch`: one 64-bit hash per value, 0 for null."""
    return hash_pair_batch(values, seed)[0]


def valid_mask(values) -> np.ndarray | None:
    """Boolean 'is not null' mask for a column, or None when nothing is null."""
    import pyarrow as pa

    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        if values.null_count == 0:
            return None
        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        return np.asarray(values.is_valid())
    arr = np.asarray([v is not None for v in values])
    return None if arr.all() else arr
