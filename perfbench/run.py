"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload text-mark-sketch --seed 1 --seconds 18 --trace 0

Run from the root of a checkout of the repository. The last line of
standard output is the result JSON: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``). Inputs, run
records and span files stay under the checkout (``.bench_cache``,
``.bench_out``, ``.bench_tmp``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if importlib.util.find_spec("streammd_ray") is None:
        print(f"perfbench: no streammd_ray package under {ROOT}", file=sys.stderr)
        return 2
    from perfbench import harness

    # Ray gets nproc CPUs; pin this process, and so every process Ray starts
    # under it, to that many cores. Unpinned, the processes spread over every
    # core of the VM, which then loses CPU to its neighbours in bursts.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: harness.nproc()])
    # Everything temporary (Ray's session dir, the engine's native-kernel
    # cache) goes under the checkout; Ray workers import from it.
    tmp = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )

    result, record = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    harness.report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
