"""Hashing primitives: MurmurHash3_x64_128 known answers, the C kernel
equal to its numpy twin on every input form, determinism, seeds and nulls."""

import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from streammd_ray import hashing
from streammd_ray.hashing import GOLDEN, hash64_batch, hash_pair_batch
from streammd_ray.sketches import _native

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def test_hasher_id_names_the_function():
    """HASHER_ID is pinned in sketches and checkpoint manifests; it names
    the hash function alone, so no installed package version moves it."""
    assert hashing.HASHER_ID == "murmur3_x64_128"


def test_null_hashes_to_zero():
    h = hash64_batch(pa.array(["a", None, "b"]), seed=1)
    assert h[1] == 0


# ---------------- known answers of MurmurHash3_x64_128 ----------------


def _digest(h1, h2) -> int:
    """The 128-bit value as the reference writes it: h1 then h2, each
    little-endian, read as one little-endian integer."""
    return (int(h2) << 64) | int(h1)


def test_known_answers():
    """Published vectors of MurmurHash3_x64_128, through the active path
    (the C kernel, or the twin under STREAMMD_NO_NATIVE)."""
    fox = b"The quick brown fox jumps over the lazy dog"
    h1, h2 = hash_pair_batch(pa.array([fox]), seed=0)
    # digest bytes 6c1b07bc7bbc4be3 47939ac4a93c437a
    assert (int(h1[0]), int(h2[0])) == (0xE34BBC7BBC071B6C, 0x7A433CA9C49A9347)
    # the Python ``mmh3`` package's documented examples
    h1, h2 = hash_pair_batch(["foo"], seed=0)
    assert (h1.view(np.int64)[0], h2.view(np.int64)[0]) == (
        -2129773440516405919,
        9128664383759220103,
    )
    h1, h2 = hash_pair_batch(["foo"], seed=42)
    assert _digest(h1[0], h2[0]) == 215966891540331383248189432718888555506
    # "" with seed 0 is (0, 0) in the published function; h2 = 0 is
    # replaced so that double hashing never collapses to one probe
    h1, h2 = hash_pair_batch([""], seed=0)
    assert (int(h1[0]), h2[0]) == (0, GOLDEN)


def test_smhasher_verification_value():
    """SMHasher's verification: hash the keys {}, {0}, {0,1}, ...,
    {0..254} with seed 256 - len, hash the 4096 concatenated digest bytes
    with seed 0; the low 32 bits of h1 are 0x6384BA69 for
    MurmurHash3_x64_128. It covers every tail length and 15 block counts."""
    key = bytes(range(256))
    digests = bytearray()
    for i in range(256):
        h1, h2 = hash_pair_batch(pa.array([key[:i]], pa.binary()), seed=256 - i)
        digests += int(h1[0]).to_bytes(8, "little") + int(h2[0]).to_bytes(8, "little")
    h1, _ = hash_pair_batch(pa.array([bytes(digests)], pa.binary()), seed=0)
    assert int(h1[0]) & 0xFFFFFFFF == 0x6384BA69


# ---------------- the C kernel equals the numpy twin ----------------

_STRINGS = (
    ["", None]
    + ["x" * n for n in range(41)]  # crosses the 16-byte block twice
    + ["".join(chr(0x41 + (i * 7 + n) % 26) for i in range(n)) for n in range(41)]
    + ["héllo wörld", "日本語のテキスト", "emoji 🙂🙃 mixed", None, "\x00nul\x00"]
)


def _inputs():
    arr = pa.array(_STRINGS)
    return {
        "list": _STRINGS,
        "string": arr,
        "sliced": arr.slice(3, 50),
        "chunked": pa.chunked_array([arr.slice(0, 10), arr.slice(10, 5), arr.slice(15)]),
        "large_string": arr.cast(pa.large_string()),
        "sliced_large": arr.cast(pa.large_string()).slice(7, 33),
        "binary": pa.array([None if s is None else s.encode() for s in _STRINGS], pa.binary()),
        "large_binary": pa.array(
            [None if s is None else s.encode() for s in _STRINGS], pa.large_binary()
        ),
        "all_empty": pa.array(["", "", ""]),
        "all_null": pa.array([None, None], pa.string()),
        "null_type": pa.array([None, None]),
        "empty": pa.array([], pa.string()),
        "int64": pa.array([0, 1, -1, 2**62, -(2**63), None, 7], pa.int64()),
        "sliced_int64": pa.array([5, None, 0, -3, 9, 11], pa.int64()).slice(1, 4),
        "uint64": pa.array([0, 2**64 - 1, 3, None], pa.uint64()),
        "int32": pa.array([0, 1, -1, None, 2**31 - 1], pa.int32()),
        "numpy_int": np.arange(-20, 20, dtype=np.int64),
    }


_INPUTS = _inputs()


@pytest.mark.skipif(_native.get_kernels() is None, reason="no C toolchain on this host")
@pytest.mark.parametrize("seed", [0, 43, 2**32 - 1])
@pytest.mark.parametrize("name", sorted(_INPUTS))
def test_native_matches_numpy_twin(name, seed):
    values = _INPUTS[name]
    nat = hashing._hash_pair(values, seed, _native.get_kernels())
    twin = hashing._hash_pair(values, seed, None)
    assert np.array_equal(nat[0], twin[0]) and np.array_equal(nat[1], twin[1])


@pytest.mark.parametrize("native", [True, False], ids=["native", "twin"])
def test_hash_is_by_value(native):
    """One value, one hash, whatever holds it: a slice or chunk hashes like
    the same rows of the whole array, string and binary agree, and an
    integer hashes by its 64-bit value at any width."""
    lib = _native.get_kernels() if native else None
    if native and lib is None:
        pytest.skip("no C toolchain on this host")

    def pair(values):
        h1, h2 = hashing._hash_pair(values, 43, lib)
        return np.stack([h1, h2])

    whole = pair(_INPUTS["string"])
    assert np.array_equal(pair(_INPUTS["sliced"]), whole[:, 3:53])
    for name in ("list", "chunked", "large_string", "binary", "large_binary"):
        assert np.array_equal(pair(_INPUTS[name]), whole), name
    ints = [0, 1, -1, None, 2**31 - 1]
    assert np.array_equal(pair(pa.array(ints, pa.int32())), pair(pa.array(ints, pa.int64())))
    assert np.array_equal(pair(np.arange(5, dtype=np.uint8)), pair(np.arange(5)))
    # every null gives the null mark, in every form
    for name in ("string", "large_binary", "all_null", "null_type", "int64"):
        h1, h2 = pair(_INPUTS[name])
        null = ~np.asarray(pa.array(_INPUTS[name]).is_valid())
        assert (h1[null] == 0).all() and (h2[null] == GOLDEN).all(), name
        assert (h1[~null] != 0).all() and (h2 != 0).all(), name


def test_bad_seed_and_type_refused():
    with pytest.raises(ValueError, match="seed"):
        hash_pair_batch(["a"], seed=2**32)
    with pytest.raises(TypeError, match="cannot hash"):
        hash_pair_batch(pa.array([1.5, 2.5]))


def test_numpy_twin_meets_oracle_bounds():
    """The fallback meets the same bounds: this module, the Bloom
    conformance tests (the split layout's first-occurrence and scalar tests
    and a host's routing among them) and the HLL / count-min accuracy
    tests, run again in a fresh interpreter with ``STREAMMD_NO_NATIVE=1``
    (hashes from the twin, Bloom inserts from the numpy rule)."""
    if os.environ.get("STREAMMD_NO_NATIVE"):
        pytest.skip("already running without the native kernels")
    sketches = "tests/test_sketches.py::"
    targets = [
        "tests/test_hashing.py",
        "tests/test_bloom.py",
        *(
            sketches + name
            for name in (
                "test_hll_error_bound",
                "test_hll_duplicates_dont_count",
                "test_hll_cms_skip_nulls",
                "test_hll_merge_exact_associative",
                "test_cms_overestimate_only_and_bound",
                "test_cms_heavy_hitters",
                "test_cms_merge_exact_associative",
            )
        ),
        "tests/test_bloom_split.py::test_fpr_matches_mixture_model_and_constants_are_independent",
        "tests/test_bloom_split.py::test_count_estimate_tolerance",
        "tests/test_bloom_split.py::test_fnr_zero_and_first_occurrence_semantics",
        "tests/test_bloom_split.py::test_scalar_api_parity",
        "tests/test_bloom_hosts.py::test_misrouted_key_is_refused",
    ]
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *targets],
        cwd=REPO,
        env={**os.environ, "STREAMMD_NO_NATIVE": "1"},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-2000:]
    assert " passed" in out.stdout and "failed" not in out.stdout
