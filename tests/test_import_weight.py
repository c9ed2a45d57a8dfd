"""Import weight: a Bloom host process imports ``streammd_ray.state.shards``
and must not pay for Ray Data, pandas, polars or pyarrow (59-66 ms of
import alone; the checkpoint codec imports it on first use, in the driver).
No engine process loads polars at all: the key hasher is the engine's own
kernel. Each check runs in a fresh interpreter, since this test session has
long since imported everything."""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEAVY = ("ray.data", "pandas", "polars", "pyarrow.compute")
#: what each light module must not load; the sketches and the shard
#: module, which every shard process imports, skip pyarrow too
FORBIDDEN = {
    "streammd_ray": HEAVY,
    "streammd_ray.sketches": (*HEAVY, "pyarrow"),
    "streammd_ray.state.shards": (*HEAVY, "pyarrow"),
    # Ray Data comes in with the engine read, on a pass's first read: a
    # driver that imports the package before ray.init keeps Ray's import
    # order (and the idle session's memory baseline)
    "streammd_ray.sources": ("ray.data", "polars"),
}


def _run(code: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.mark.parametrize("module", list(FORBIDDEN))
def test_light_modules_skip_heavy_imports(module):
    loaded = _run(
        f"import sys, {module}; "
        f"print(','.join(m for m in {FORBIDDEN[module]!r} if m in sys.modules))"
    )
    assert loaded == "", f"import {module} loaded {loaded}"


def test_no_engine_module_or_hash_loads_polars():
    """Every ``streammd_ray`` module (``cli`` and ``pipelines`` included)
    imports, a column hashes and two count-min states merge (the Ray driver's
    tree-merge step, which re-scores heavy hitters by hashing) without
    polars in ``sys.modules``."""
    loaded = _run(
        "import importlib, pkgutil, sys\n"
        "import streammd_ray\n"
        "mods = [m.name for m in pkgutil.walk_packages(\n"
        "    streammd_ray.__path__, 'streammd_ray.')]\n"
        "assert {'streammd_ray.cli', 'streammd_ray.pipelines'} <= set(mods)\n"
        "for m in mods:\n"
        "    importlib.import_module(m)\n"
        "import pyarrow as pa\n"
        "from streammd_ray.hashing import hash_pair_batch\n"
        "from streammd_ray.sketches import CountMinSketch, Sketch, merge_all\n"
        "h1, h2 = hash_pair_batch(pa.array(['a', None, 'b']))\n"
        "assert h1[1] == 0 and h1[0] != h1[2]\n"
        "parts = []\n"
        "for vals in (['x', 'y', 'x'], ['x', 'z']):\n"
        "    c = CountMinSketch(eps=1e-2, delta=1e-2, track_heavy=4)\n"
        "    c.insert_batch(pa.array(vals))\n"
        "    parts.append(Sketch.from_bytes(c.to_bytes()))\n"
        "assert merge_all(parts).query('x') >= 3\n"
        "print('polars' in sys.modules)"
    )
    assert loaded == "False"
