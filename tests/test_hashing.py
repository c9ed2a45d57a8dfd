"""Hashing primitives: bulk-hash determinism, seeds and nulls."""

import numpy as np
import pyarrow as pa

from streammd_ray.hashing import hash64_batch, hash_pair_batch


def test_hash64_batch_deterministic_and_distinct():
    vals = ["a", "b", "a", "c", ""]
    h = hash64_batch(vals, seed=43)
    h2 = hash64_batch(pa.array(vals), seed=43)
    assert np.array_equal(h, h2)  # list vs arrow input agree
    assert h[0] == h[2]
    assert len({h[0], h[1], h[3], h[4]}) == 4


def test_hash64_batch_seed_independence():
    vals = [f"k{i}" for i in range(1000)]
    a = hash64_batch(vals, seed=43)
    b = hash64_batch(vals, seed=9967)
    assert not np.array_equal(a, b)


def test_hash_pair_nonzero_h2():
    h1, h2 = hash_pair_batch(["x", "y", "z"])
    assert (h2 != 0).all()


def test_hasher_id_is_polars_version():
    """HASHER_ID is pinned in sketches and checkpoint manifests: it must stay
    the string the polars-module form produced, or old checkpoints stop
    resuming."""
    import polars

    from streammd_ray.hashing import HASHER_ID

    assert HASHER_ID == f"polars-xxh:{polars.__version__}"


def test_null_hashes_to_zero():
    h = hash64_batch(pa.array(["a", None, "b"]), seed=1)
    assert h[1] == 0
