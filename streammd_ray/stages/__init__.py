from ..compat import apply_ray_patches as _apply_ray_patches
from .dedup import (
    BloomMarkStage,
    ConversationValidationError,
    add_key_columns,
    canonical_key,
    dedup_exact_first,
    make_shard_actors,
    validate_conversations,
)
from .sketch_agg import (
    BloomCountAgg,
    CmsAgg,
    HllAgg,
    KllAgg,
    SketchAgg,
    TDigestAgg,
    run_sketches,
    sketch_column,
    tree_merge,
)

__all__ = [
    "BloomMarkStage",
    "ConversationValidationError",
    "validate_conversations",
    "add_key_columns",
    "canonical_key",
    "dedup_exact_first",
    "make_shard_actors",
    "run_sketches",
    "sketch_column",
    "tree_merge",
    "SketchAgg",
    "HllAgg",
    "CmsAgg",
    "TDigestAgg",
    "KllAgg",
    "BloomCountAgg",
]

# the Ray 2.49 containments: every engine module that plans a Ray Data
# pipeline imports this package, and the patches act at plan time
_apply_ray_patches()
