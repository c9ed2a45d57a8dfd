"""Cluster-context-derived sizing: partition counts come from the cluster's
CPU count at call time, optionally scaled up by a caller-supplied byte
estimate, so the same pipeline code fans out proportionally wherever it runs
(a fixed count of 8 would leave a 256-node cluster 8 reducers).
"""

from __future__ import annotations

# ~256 MiB of shuffled input per join partition keeps a reducer's working
# set comfortably inside a worker heap while amortizing per-partition task
# overhead — the same order as Ray Data's default target block size.
TARGET_PARTITION_BYTES = 256 << 20
# partitions per cluster CPU, chosen when exact dedup ran as a Ray 2.49 hash
# join whose aggregator actors reserved CPU beside the map tasks feeding
# them; measured at 32 CPUs: 8p=3.4s, 16p=3.7s, 32p=5.1s for
# dedup_exact_first over 16M turns
PARTITIONS_PER_CPU = 0.5
# the floor keeps small test runs parallel enough to exercise the
# multi-partition code paths; the cap bounds scheduler pressure on very
# large clusters
MIN_PARTITIONS = 8
MAX_PARTITIONS = 4096
# the CPU count assumed when Ray isn't initialised (unit tests of pure
# helpers)
DEFAULT_CPUS = 8


def cluster_cpus() -> int:
    """Total CPUs Ray knows about; ``DEFAULT_CPUS`` when Ray isn't
    initialised."""
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", DEFAULT_CPUS)) or DEFAULT_CPUS
    except Exception:
        pass
    return DEFAULT_CPUS


def auto_num_partitions(*, bytes_hint: int | None = None) -> int:
    """Shuffle/join partition count sized to the cluster:
    ``PARTITIONS_PER_CPU`` per cluster CPU, raised to ``bytes_hint /
    TARGET_PARTITION_BYTES`` when the caller can estimate the shuffled bytes
    (partitions must also bound reducer memory), clamped to
    [``MIN_PARTITIONS``, ``MAX_PARTITIONS``].
    """
    n = int(cluster_cpus() * PARTITIONS_PER_CPU)
    if bytes_hint is not None:
        n = max(n, int(bytes_hint // TARGET_PARTITION_BYTES) + 1)
    return max(MIN_PARTITIONS, min(MAX_PARTITIONS, n))
