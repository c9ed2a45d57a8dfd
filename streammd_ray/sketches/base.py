"""Sketch ABC — the engine's UDAF plugin point.

The reference engine has exactly one sketch (a Bloom filter,
/root/reference/src/bloomfilter.h:13-55) used single-process. This rebuild
generalizes its accumulator lifecycle (init → insert-per-record →
query/summarize) into five mergeable sketches; ``merge`` is the addition the
reference never needed (it is single-process) and must be associative and
commutative so per-partition states can be tree-reduced in any order
(north_rule: merge associativity regardless of partition order).

Every sketch:

- inserts whole columns at a time (``insert_batch``) — numpy/Arrow vectorized,
  never a Python loop per row in the hot path;
- serializes to bytes (``to_bytes`` / ``from_bytes``) so states travel through
  the Ray object store and checkpoint files; a pickle of a sketch carries
  the same bytes (``__reduce__``);
- refuses to merge with an incompatible sibling (different sizing parameters
  or hash configuration) — mirroring that ORing two differently-sized Bloom
  bitsets is meaningless.

State layout (``to_bytes``; numpy + stdlib, no ``pickle``, no class paths),
all integers little-endian::

    magic      4 bytes  b"SMSK"
    version    u16      LAYOUT_VERSION
    kind       u8 length + ASCII      (selects the class on decode)
    params     u32 length + UTF-8 JSON
               {"init": constructor kwargs, ...scalar state}
    n_arrays   u16
    per array  u8 length + name, u8 length + dtype str ("<u8"),
               u8 ndim, ndim x u64 shape, then the raw C-order bytes

Each class names its arrays; a class may offer more than one form and
decode them all. Count-min writes either its dense ``counts`` matrix or,
when smaller, only the non-zero cells as ``nz_idx`` / ``nz_val``
(``cms.py``); a dense state written before the sparse form existed still
decodes.

``Sketch.from_bytes`` reads the kind, builds the class from the ``init``
kwargs and hands it the scalar state and the arrays. Decoded arrays are
owned copies, so a state read from a read-only buffer (a Ray object-store
value) takes inserts and merges; a sketch returned by ``ray.get`` is one
such decode. The layout is uncompressed: it is what travels between
processes; ``state/checkpoint.py`` compresses it where it reaches disk.
"""

from __future__ import annotations

import abc
import json
import struct
from typing import Any

import numpy as np

MAGIC = b"SMSK"
LAYOUT_VERSION = 1
_HEAD = struct.Struct("<4sH")
_U8, _U16, _U32, _U64 = (struct.Struct(f) for f in ("<B", "<H", "<I", "<Q"))

#: kind → class, filled by ``Sketch.__init_subclass__``; importing this
#: module imports the package, so every sketch class is registered
_KINDS: dict[str, type] = {}


class SketchError(ValueError):
    pass


class _Reader:
    """Bounds-checked cursor over a state buffer: a short read is a
    ``SketchError``, never a partial array."""

    def __init__(self, data):
        self.buf = memoryview(data).cast("B")
        self.pos = 0

    def take(self, n: int) -> memoryview:
        end = self.pos + n
        if end > len(self.buf):
            raise SketchError("truncated sketch state")
        out = self.buf[self.pos : end]
        self.pos = end
        return out

    def unpack(self, st: struct.Struct) -> int:
        return st.unpack(self.take(st.size))[0]

    def text(self, st: struct.Struct) -> str:
        return str(self.take(self.unpack(st)), "utf-8")


def _encode(kind: str, params: dict, arrays: dict[str, np.ndarray]) -> bytes:
    def text(st: struct.Struct, s: str) -> bytes:
        b = s.encode("utf-8")
        return st.pack(len(b)) + b

    parts = [
        _HEAD.pack(MAGIC, LAYOUT_VERSION),
        text(_U8, kind),
        text(_U32, json.dumps(params)),
        _U16.pack(len(arrays)),
    ]
    for name, a in arrays.items():
        a = np.ascontiguousarray(a)
        parts += [
            text(_U8, name),
            text(_U8, a.dtype.str),
            _U8.pack(a.ndim),
            *(_U64.pack(d) for d in a.shape),
            memoryview(a).cast("B"),
        ]
    return b"".join(parts)


def _decode(data) -> tuple[str, dict, dict[str, np.ndarray]]:
    r = _Reader(data)
    magic, version = _HEAD.unpack(r.take(_HEAD.size))
    if magic != MAGIC:
        raise SketchError("not a sketch state (bad magic)")
    if version != LAYOUT_VERSION:
        raise SketchError(f"unknown sketch layout version {version}")
    kind = r.text(_U8)
    try:
        params = json.loads(r.text(_U32))
    except (UnicodeDecodeError, ValueError) as e:
        raise SketchError(f"bad sketch parameter block: {e}") from None
    arrays = {}
    for _ in range(r.unpack(_U16)):
        name = r.text(_U8)
        try:
            dtype = np.dtype(r.text(_U8))
        except TypeError as e:
            raise SketchError(f"bad dtype for array {name!r}: {e}") from None
        if dtype.kind not in "biuf":
            raise SketchError(f"array {name!r} has non-numeric dtype {dtype}")
        shape = tuple(r.unpack(_U64) for _ in range(r.unpack(_U8)))
        count = int(np.prod(shape, dtype=np.int64))
        raw = r.take(count * dtype.itemsize)
        arrays[name] = np.frombuffer(raw, dtype, count).reshape(shape).copy()
    if r.pos != len(r.buf):
        raise SketchError("trailing bytes after sketch state")
    return kind, params, arrays


def state_array(arrays: dict, name: str, dtype, shape=None) -> np.ndarray:
    """A decoded array, checked against the dtype (and shape, when the
    sketch's parameters fix it) that the class holds there."""
    a = arrays.get(name)
    if a is None or a.dtype != np.dtype(dtype) or (
        shape is not None and a.shape != tuple(shape)
    ):
        got = None if a is None else (a.dtype.str, a.shape)
        raise SketchError(
            f"sketch state array {name!r}: want {np.dtype(dtype).str} "
            f"{shape}, got {got}"
        )
    return a


class Sketch(abc.ABC):
    """Mergeable accumulator over a stream of values."""

    #: subclasses set a short stable name used in serialization headers
    kind: str = "sketch"

    # What ``insert_batch`` accepts; the per-batch inserter
    # (``stages.sketch_agg.sketch_partials``) pre-aggregates a column by it.
    #: the state ignores multiplicity: each distinct value once suffices
    MULTIPLICITY_INSENSITIVE: bool = False
    #: ``insert_batch(values, counts)`` takes a count/weight per value
    WEIGHTED: bool = False
    #: values are taken as float64 (the quantile sketches)
    FLOAT_VALUES: bool = False

    @abc.abstractmethod
    def insert_batch(self, values) -> None:
        """Insert a column of values (numpy array / pyarrow Array / list)."""

    @abc.abstractmethod
    def merge(self, other: "Sketch") -> "Sketch":
        """Fold ``other`` into ``self`` (in place) and return ``self``.

        Must be associative + commutative w.r.t. the resulting estimates
        (within the sketch's published error bound).
        """

    @abc.abstractmethod
    def estimate(self) -> Any:
        """The sketch's summary answer (cardinality, counts, quantile fn...)."""

    # --- compatibility / serde -------------------------------------------------

    def _compat_key(self) -> tuple:
        """Parameters that must match for a merge to be legal."""
        return (self.kind,)

    def check_compatible(self, other: "Sketch") -> None:
        if self._compat_key() != other._compat_key():
            raise SketchError(
                f"cannot merge incompatible sketches: "
                f"{self._compat_key()} vs {other._compat_key()}"
            )

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        _KINDS[cls.kind] = cls

    @abc.abstractmethod
    def _init_kwargs(self) -> dict:
        """Constructor kwargs (JSON-able) that rebuild this sketch's sizing
        and hash configuration, empty."""

    @abc.abstractmethod
    def _state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """What inserts and merges changed: (JSON-able scalars, arrays)."""

    @abc.abstractmethod
    def _set_state(self, scalars: dict, arrays: dict[str, np.ndarray]) -> None:
        """Restore ``_state`` into a sketch built from ``_init_kwargs``."""

    def empty(self) -> "Sketch":
        """A fresh sketch with this one's parameters and its own writable
        state (the per-batch clone of a prototype)."""
        return type(self)(**self._init_kwargs())

    def to_bytes(self) -> bytes:
        scalars, arrays = self._state()
        return _encode(self.kind, {"init": self._init_kwargs(), **scalars}, arrays)

    def __reduce__(self):
        # pickle the layout, not the attributes: a count-min prototype's
        # zero table then travels as its (empty) sparse form
        return (Sketch.from_bytes, (self.to_bytes(),))

    @classmethod
    def from_bytes(cls, data) -> "Sketch":
        kind, params, arrays = _decode(data)
        sub = _KINDS.get(kind)
        if sub is None:
            raise SketchError(f"unknown sketch kind {kind!r}")
        if not issubclass(sub, cls):
            raise SketchError(f"expected {cls.__name__}, got {sub.__name__}")
        try:
            obj = sub(**params.pop("init"))
            obj._set_state(params, arrays)
        except SketchError:
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise SketchError(f"bad {kind} state: {e!r}") from None
        return obj


def require_writeable(state, kind: str) -> None:
    """Refuse an in-place insert into read-only state. ``ufunc.at`` (numpy
    1.26) ignores the read-only flag, so without this check an insert into
    state that shares a read-only buffer would write into that buffer."""
    if not state.flags.writeable:
        raise ValueError(
            f"{kind} state is read-only (a zero-copy view of a shared "
            "buffer); insert into a copy, not the shared state"
        )


def merge_all(states: list) -> "Sketch":
    """Left fold of ``merge`` over a list of sketches (driver-side tail of a
    tree reduction; see streammd_ray.stages.sketch_agg.tree_merge for the
    distributed version)."""
    if not states:
        raise SketchError("merge_all of empty list")
    acc = states[0]
    for s in states[1:]:
        acc.merge(s)
    return acc
