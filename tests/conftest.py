import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    # No CPU claim: Ray counts the host's own. No test needs more than one
    # logical CPU: the shard actors take num_cpus=0, and the tests that need
    # several blocks make them with repartition(n) or several input files,
    # not with the CPU-scaled default read parallelism. The whole suite
    # passes at num_cpus=1 and at num_cpus=4.
    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture
def flagship_marked(ray_session, tmp_path):
    """``run(ds, **kwargs)``: one ``run_flagship`` pass into a fresh
    part-file directory; returns the result and the marked rows read back
    from the part files as pandas. The filters are sized by capacity
    (``mem=None``) unless the call gives ``mem``."""
    import itertools

    import pyarrow.parquet as pq

    from streammd_ray.pipelines import run_flagship

    runs = itertools.count()

    def run(ds, **kwargs):
        out = str(tmp_path / f"marked-{next(runs)}")
        res = run_flagship(ds, output_dir=out, **{"mem": None, **kwargs})
        return res, pq.ParquetDataset(out).read().to_pandas()

    return run
