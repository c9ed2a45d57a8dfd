from ..compat import apply_ray_patches as _apply_ray_patches
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

# the Ray 2.49 containments: every engine module that plans a Ray Data
# pipeline imports this package, and the patches act at plan time
_apply_ray_patches()
