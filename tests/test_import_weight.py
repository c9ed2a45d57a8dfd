"""Import weight: a Bloom shard process imports ``streammd_ray.state.shards``
and must not pay for Ray Data, pandas, polars or pyarrow (59-66 ms of
import alone; the checkpoint codec imports it on first use, in the driver).
Each check runs in a fresh interpreter, since this test session has long
since imported everything."""

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
