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
    from the part files as pandas. The shards split a 1 MiB budget
    (``shard_geometry``) unless the call gives ``mem``: a 2^18-bit filter or
    more per shard at up to 8 shards, far beyond the tests' few thousand
    keys per shard."""
    import itertools

    import pyarrow.parquet as pq

    from streammd_ray.pipelines import run_flagship

    runs = itertools.count()

    def run(ds, **kwargs):
        out = str(tmp_path / f"marked-{next(runs)}")
        res = run_flagship(ds, output_dir=out, **{"mem": "1MiB", **kwargs})
        return res, pq.ParquetDataset(out).read().to_pandas()

    return run


@pytest.fixture
def settled_new_shards(ray_session):
    """``settle()``: the state of every ``_BloomHost`` actor created since
    the fixture was set up, polled until each is DEAD or 30 s pass.
    ``ray.kill`` lands asynchronously, and a shard still starting is not
    ALIVE yet, so a poll "until none is ALIVE" can pass at once while
    shards leak: only "every new shard is DEAD" shows that none did."""
    import time

    import ray

    def states() -> dict:
        return {
            aid: a["State"]
            for aid, a in ray._private.state.actors().items()
            if a["ActorClassName"] == "_BloomHost"
        }

    before = set(states())

    def settle() -> dict:
        deadline = time.monotonic() + 30
        while True:
            new = {a: s for a, s in states().items() if a not in before}
            if set(new.values()) == {"DEAD"} or time.monotonic() > deadline:
                return new
            time.sleep(0.2)

    return settle
