from .dedup import (
    BloomMarkStage,
    add_key_columns,
    canonical_key,
    dedup_exact_first,
    make_shard_actors,
)
from .sketch_agg import (
    run_sketches,
    sketch_column,
    tree_merge,
)

__all__ = [
    "BloomMarkStage",
    "add_key_columns",
    "canonical_key",
    "dedup_exact_first",
    "make_shard_actors",
    "run_sketches",
    "sketch_column",
    "tree_merge",
]
