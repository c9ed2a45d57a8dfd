"""Tiny-size self-test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Runs each workload end to end, in-process, on an input shrunk to 2,000
turns, and checks the correctness gate against a deliberately wrong oracle.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import oracle  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)

#: per-layer metrics each workload must report as non-zero (the layers it
#: exercises, less the ones that are 0 by construction at this size)
EXERCISED = {
    "text-mark-sketch": ("sources.read_s", "hashing.busy_s", "bloom.busy_s",
                         "dedup.rpc_s", "tail.busy_s", "merge.busy_s",
                         "sketch.kll.insert_s", "ray_data.map.wall_s"),
    "exact-dedup-shuffle": ("sources.read_s", "hashing.busy_s",
                            "ray_data.shuffle.wall_s"),
    "checkpointed-persist": ("hashing.busy_s", "bloom.busy_s", "tail.busy_s",
                             "state.snapshot_s", "state.snapshot_bytes",
                             "state.output_bytes", "state.waves"),
}


#: input size of the self-test (the benchmark's own is harness.TEXT_TURNS)
TINY_TURNS = 2_000


@pytest.fixture
def tiny(monkeypatch):
    """The harness on a tiny input; Ray workers import from the checkout."""
    from perfbench import harness

    monkeypatch.setattr(harness, "TEXT_TURNS", TINY_TURNS)
    monkeypatch.setenv("PYTHONPATH", ROOT)
    return harness


def _run(harness, capsys, workload: str, trace: int) -> tuple[dict, str]:
    """One run through the harness, with run.py's report and result line."""
    result, record = harness.run(workload, 3, 1.0, bool(trace), ROOT)
    harness.report(record)
    print(json.dumps(result))
    stdout = capsys.readouterr().out
    assert json.loads(stdout.strip().splitlines()[-1]) == result
    return result, stdout


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(tiny, capsys, workload, trace):
    result, stdout = _run(tiny, capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        # the human-readable report names it with its unit too
        assert any(
            line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
            for line in stdout.splitlines()
        ), m["name"]
    if trace:
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        for name, got in result["metrics"].items():
            assert got["value"] > 0, name


def _facts():
    return oracle.Facts(
        turns=10, nulls=1, dups=3, convs=4, tools={"tool-1": 2},
        len_values=np.array([0.0, 5.0]), len_counts=np.array([1, 9]),
    )


class _Stub:
    """A merged sketch that reports given values."""

    relative_error = 0.01
    rank_error = 0.0085
    eps = 1e-3
    total = 2

    def __init__(self, value):
        self.value = value

    def estimate(self):
        return self.value

    def quantile(self, q):
        # the exact quantiles of _facts()'s lengths: one 0, nine 5s
        return 0.0 if q <= 0.1 else 5.0

    def query_batch(self, names):
        return np.array([self.value] * len(names))


def _sketches():
    return {"convs_hll": _Stub(4), "tools_cms": _Stub(2),
            "len_tdigest": _Stub(None), "len_kll": _Stub(None)}


def test_oracle_accepts_a_right_result():
    counters = {"turns": 10, "nulls": 1, "dups": 3}
    fails, _ = oracle.check_flagship(_facts(), counters, _sketches(), p=1e-6)
    assert fails == []


@pytest.mark.parametrize(
    "wrong",
    [
        {"dups": 2},            # fewer duplicates than exact: a false negative
        {"turns": 11},
        {"nulls": 0},
        {"convs": 5},           # HLL then reads 20% off
        {"tools": {"tool-1": 3}},  # CMS then undercounts
    ],
)
def test_wrong_oracle_value_fails_the_job(wrong):
    counters = {"turns": 10, "nulls": 1, "dups": 3}
    facts = _facts()
    if "dups" in wrong or "turns" in wrong or "nulls" in wrong:
        counters.update(wrong)
    else:
        facts = dataclasses.replace(facts, **wrong)
    fails, _ = oracle.check_flagship(facts, counters, _sketches(), p=1e-6)
    assert fails


def test_wrong_row_hash_fails_the_exact_job():
    import pyarrow as pa

    table = pa.table({"conv_id": ["a", "a"], "turn_idx": pa.array([0, 1], pa.int32()),
                      "is_duplicate": [False, True]})
    facts = dataclasses.replace(_facts(), turns=2, exact_rows_hash=oracle.rows_hash(table))
    assert oracle.check_exact(facts, table) == []
    facts.exact_rows_hash += 1
    assert oracle.check_exact(facts, table)


def test_wrong_oracle_value_is_a_failed_run(tiny, capsys, monkeypatch):
    """Through the whole harness: an oracle that expects one duplicate more
    than the table holds fails every job, and the run reports it."""
    real = oracle.text_facts

    def off_by_one(*args, **kwargs):
        facts = real(*args, **kwargs)
        facts.dups += 1
        return facts

    monkeypatch.setattr(oracle, "text_facts", off_by_one)
    result, stdout = _run(tiny, capsys, "text-mark-sketch", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    failed = [line for line in stdout.splitlines() if line.startswith("FAILED job")]
    assert len(failed) == result["attempted"]
    assert all("false negatives" in line for line in failed)


def test_wall_time_is_rescaled_by_the_reference_kernel():
    """A job on a core running the kernel at twice its nominal time took
    twice as long as it would at nominal speed; the bracketing samples'
    median is used, so one outlier does not move it."""
    from perfbench import harness, hostnoise

    slow = 2 * hostnoise.REF_NOMINAL_S
    job = {"wall_s": 1.0, "ref_before_s": [slow, slow, 9.0], "ref_after_s": [slow] * 3}
    assert harness._nominal_wall(job) == pytest.approx(0.5)
    assert hostnoise.ref_kernel_s() > 0
