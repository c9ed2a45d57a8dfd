from .flagship import (
    CapacityExceeded,
    FlagshipResult,
    ReplayMissed,
    SketchTail,
    default_sketch_specs,
    run_flagship,
)

__all__ = [
    "CapacityExceeded",
    "FlagshipResult",
    "ReplayMissed",
    "SketchTail",
    "default_sketch_specs",
    "run_flagship",
]
