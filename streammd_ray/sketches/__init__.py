"""Mergeable sketch library — the five UDAF accumulators (Bloom, HLL,
count-min, t-digest, KLL) generalizing the reference engine's single Bloom
filter (/root/reference/src/bloomfilter.h) into partition-parallel,
tree-mergeable form."""

from .base import Sketch, SketchError, merge_all
from .bloom import (
    BloomFilter,
    PartitionedBloomFilter,
    SplitBlockBloomFilter,
    capacity,
    m_k_min,
    parse_memspec,
)
from .cms import CountMinSketch
from .hll import HyperLogLog
from .kll import KLL
from .tdigest import TDigest

__all__ = [
    "Sketch",
    "SketchError",
    "merge_all",
    "BloomFilter",
    "PartitionedBloomFilter",
    "SplitBlockBloomFilter",
    "capacity",
    "m_k_min",
    "parse_memspec",
    "CountMinSketch",
    "HyperLogLog",
    "KLL",
    "TDigest",
]
