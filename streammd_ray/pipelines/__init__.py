from .flagship import (
    CapacityExceeded,
    FlagshipResult,
    SketchTail,
    default_sketch_specs,
    run_flagship,
)

__all__ = [
    "CapacityExceeded",
    "FlagshipResult",
    "SketchTail",
    "default_sketch_specs",
    "run_flagship",
]
