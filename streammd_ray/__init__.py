"""streammd_ray — a from-scratch Ray-Data-native distributed sketch /
approximate-aggregation engine.

Semantics grounded in the reference engine delocalizer/streammd
(/root/reference, studied for behaviour only): single-pass Bloom-filter
duplicate marking, generalized here into five mergeable UDAF sketches (Bloom,
HyperLogLog, count-min, t-digest, KLL) over Parquet tables of conversation /
agent transcripts, executed as ray.data.Dataset pipelines of map_batches over
zero-copy Arrow batches, with the Bloom state in shard actors.

Importing the package loads nothing heavy: ``sketches`` and ``state.shards``
need only numpy (and pyarrow once a column is hashed, by the engine's own
MurmurHash3 kernel), so a Bloom shard process starts without Ray Data.
"""

__version__ = "0.1.0"
