from .checkpoint import run_flagship_checkpointed

__all__ = ["run_flagship_checkpointed"]
