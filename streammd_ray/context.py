"""Cluster-context-derived sizing knobs: partition counts come from the
cluster's CPU count at call time, optionally scaled up by a caller-supplied
byte estimate, so the same pipeline code fans out proportionally wherever it
runs (a fixed count of 8 would leave a 256-node cluster 8 reducers).
"""

from __future__ import annotations

# ~256 MiB of shuffled input per join partition keeps a reducer's working
# set comfortably inside a worker heap while amortizing per-partition task
# overhead — the same order as Ray Data's default target block size.
TARGET_PARTITION_BYTES = 256 << 20


def cluster_cpus(default: int = 8) -> int:
    """Total CPUs Ray knows about; ``default`` when Ray isn't initialised
    (e.g. unit tests of pure helpers)."""
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", default)) or default
    except Exception:
        pass
    return default


def auto_num_partitions(
    *,
    per_cpu: float = 0.5,
    floor: int = 8,
    cap: int = 4096,
    bytes_hint: int | None = None,
) -> int:
    """Shuffle/join partition count sized to the cluster.

    ``per_cpu`` partitions per cluster CPU (default 0.5, chosen when exact
    dedup ran as a Ray 2.49 hash join whose aggregator actors reserved CPU
    beside the map tasks feeding them; measured at 32 CPUs: 8p=3.4s,
    16p=3.7s, 32p=5.1s for dedup_exact_first over 16M turns). Raised to
    ``bytes_hint / TARGET_PARTITION_BYTES`` when the caller can estimate
    the shuffled bytes (partitions must also bound reducer memory),
    clamped to [floor, cap]. The floor keeps small test runs parallel enough
    to exercise the multi-partition code paths; the cap bounds scheduler
    pressure on very large clusters.
    """
    n = int(cluster_cpus() * per_cpu)
    if bytes_hint is not None:
        n = max(n, int(bytes_hint // TARGET_PARTITION_BYTES) + 1)
    return max(floor, min(cap, n))

