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
