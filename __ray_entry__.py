"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor in streammd_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: derive the transcripts
    table from events+documents, mark duplicate turns in one
    ``run_flagship`` pass through the sharded partitioned Bloom filter, and
    return the marked table it wrote (conv_id, turn_idx, role, text, tool,
    ts, is_duplicate) as a materialized Dataset read back from its part
    files. The pass kills the shard actors it spawned before it returns."""
    import shutil
    import tempfile

    import ray.data as rd

    from streammd_ray.pipelines.flagship import run_flagship
    from streammd_ray.sources.transcripts import derive_transcripts

    out = tempfile.mkdtemp(prefix="streammd-entry-")
    try:
        ds = derive_transcripts("/root/testdata/sf0.001")
        run_flagship(ds, p=1e-9, mem="1MiB", num_shards=4, output_dir=out)
        return rd.read_parquet(out).materialize()
    finally:
        shutil.rmtree(out, ignore_errors=True)


def queries() -> dict[str, Callable[[str], Any]]:
    """The engine's catalog: the derived transcripts table (plain and
    sorted), the dedup family, and for each of HLL, count-min, t-digest and
    KLL its estimate, its accuracy row and its exact twin."""
    from streammd_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB oracles for every exactly-reproducible query. The four sketch
    estimates have none (the driver's rows-only check); each has an
    oracle-checked exact twin and an oracle-checked ``*_accuracy`` row that
    gates the estimate on its published bound."""
    from streammd_ray.pipelines.queries import ORACLES

    return dict(ORACLES)
