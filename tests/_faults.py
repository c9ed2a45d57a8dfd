"""Fault-injecting stand-ins for the flagship's mark and tail stages.

``tests/test_failures.py`` registers this module with
``ray.cloudpickle.register_pickle_by_value`` (Ray workers cannot import
``tests/``) and monkeypatches a stand-in made by :func:`inject` over the
engine's name in ``streammd_ray.pipelines.flagship``. Each fault fires once:
the first task to delete the flag file fires it, and a retry or resume
finds no flag. The engine itself has no fault hook.
"""

import importlib
import os


def inject(base: type, fault):
    """A subclass of the engine stage ``base`` whose ``__call__`` is
    ``fault(stage, batch, call)``, ``call`` being ``base.__call__``.

    A stand-in pickles as its base's name, its fault and its state, and the
    worker rebuilds it on the class the worker imports: in the driver that
    name is patched over, so cloudpickle would otherwise ship ``base``
    itself by value, globals and all."""

    class Faulty(base):
        def __call__(self, batch):
            return fault(self, batch, super().__call__)

        def __reduce__(self):
            return _rebuild, (base.__module__, base.__qualname__, fault, self.__dict__)

    return Faulty


def _rebuild(module: str, name: str, fault, state: dict):
    base = getattr(importlib.import_module(module), name)
    stage = object.__new__(inject(base, fault))
    stage.__dict__.update(state)
    return stage


def _take(flag: str) -> bool:
    """True for exactly one caller across processes: the one whose delete
    of ``flag`` succeeded."""
    try:
        os.remove(flag)
    except FileNotFoundError:
        return False
    return True


def _in_files(batch, conv_prefix: str) -> bool:
    return batch["conv_id"][0].as_py().startswith(conv_prefix)


def exit_after(flag: str):
    """Exit the worker process once, after the stage ran on its block (for
    the tail: after the block's shard RPCs and part file), so Ray retries
    the whole fused task."""

    def fault(stage, batch, call):
        out = call(batch)
        if _take(flag):
            os._exit(1)
        return out

    return fault


def raise_before(flag: str, conv_prefix: str):
    """Raise once, in the first block whose conv_ids start with
    ``conv_prefix``, before the stage runs on it."""

    def fault(stage, batch, call):
        if _in_files(batch, conv_prefix) and _take(flag):
            raise RuntimeError("injected stage failure")
        return call(batch)

    return fault


def kill_shard_after(flag: str, conv_prefix: str):
    """For the mark stage: kill shard 0 once, right after the RPCs of the
    first block whose conv_ids start with ``conv_prefix``."""

    def fault(stage, batch, call):
        import ray

        out = call(batch)
        if _in_files(batch, conv_prefix) and _take(flag):
            ray.kill(stage.shards[0])
        return out

    return fault
