"""Pin the QUERIES catalog contract.

The correctness driver records rows for only the FIRST 50 entries of
``QUERIES``, so every oracle-backed query must sit within the first 50
slots, and every oracle key must name a registered query.
"""

from streammd_ray.pipelines.queries import ORACLES, QUERIES

DRIVER_CAP = 50


def test_every_oracle_query_within_driver_cap():
    checked = set(list(QUERIES)[:DRIVER_CAP])
    displaced = [k for k in ORACLES if k not in checked]
    assert not displaced, (
        f"oracle-backed queries pushed past the driver's {DRIVER_CAP}-entry "
        f"cap (no CORRECTNESS row will be recorded for them): {displaced}"
    )


def test_oracle_keys_subset_of_queries():
    missing = [k for k in ORACLES if k not in QUERIES]
    assert not missing, f"oracle without a registered query: {missing}"


def test_catalog_names_unique_and_callable():
    assert len(QUERIES) == len(set(QUERIES))
    for name, fn in QUERIES.items():
        assert callable(fn), name
