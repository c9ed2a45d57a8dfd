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
  the Ray object store and checkpoint files;
- refuses to merge with an incompatible sibling (different sizing parameters
  or hash configuration) — mirroring that ORing two differently-sized Bloom
  bitsets is meaningless.
"""

from __future__ import annotations

import abc
import pickle
from typing import Any


class SketchError(ValueError):
    pass


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

    def to_bytes(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Sketch":
        obj = pickle.loads(data)
        if not isinstance(obj, cls):
            raise SketchError(f"expected {cls.__name__}, got {type(obj).__name__}")
        return obj


def require_writeable(state, kind: str) -> None:
    """Refuse an in-place insert into read-only state. ``ufunc.at`` (numpy
    1.26) ignores the read-only flag, so without this check an insert into
    a zero-copy view (a sketch returned by ``ray.get`` or captured in a
    task closure) would write into the shared object-store copy."""
    if not state.flags.writeable:
        raise ValueError(
            f"{kind} state is read-only (a zero-copy view, e.g. of a Ray "
            "object-store value); insert into a copy, not the stored sketch"
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
