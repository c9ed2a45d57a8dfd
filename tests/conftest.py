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
