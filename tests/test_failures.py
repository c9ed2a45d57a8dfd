"""Exactness under real failures: a worker process that dies mid-task, a
wave that raises after its shard RPCs, and a Bloom shard killed mid-pass.

The faults come from ``tests/_faults.py``: stand-ins for the mark and tail
stages, shipped to the workers by value and patched over the engine's
names. Each test compares the failed-then-recovered run with a clean one,
and bounds every run with ``SIGALRM`` so a hang fails instead of stalling.
"""

import contextlib
import glob
import json
import os
import signal

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

import _faults
import streammd_ray.pipelines.flagship as fmod
from streammd_ray.pipelines import run_flagship
from streammd_ray.state.checkpoint import run_flagship_checkpointed

#: seconds any one pass or runner call may take, a failed one included
BOUND = 120


@pytest.fixture(scope="module", autouse=True)
def faults_by_value():
    ray.cloudpickle.register_pickle_by_value(_faults)
    yield
    ray.cloudpickle.unregister_pickle_by_value(_faults)


@contextlib.contextmanager
def bounded(seconds: int = BOUND):
    """Fail the test (``pytest.fail``, which no ``except Exception`` and no
    ``pytest.raises(Exception)`` catches) if the block runs past
    ``seconds``."""

    def expire(signum, frame):
        pytest.fail(f"no result within {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _flag(tmp_path) -> str:
    flag = str(tmp_path / "fault.flag")
    open(flag, "w").close()
    return flag


def _write(path: str, i: int, texts: list[str]) -> str:
    n = len(texts)
    pq.write_table(
        pa.table(
            {
                "conv_id": pa.array([f"f{i}-c{j // 4}" for j in range(n)]),
                "turn_idx": pa.array(list(range(n)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "tool": pa.array([f"tool-{j % 7}" for j in range(n)], pa.string()),
            }
        ),
        path,
    )
    return path


def _read_parts(parts: list[str]) -> pd.DataFrame:
    df = pd.concat([pq.read_table(p).to_pandas() for p in parts])
    return df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# (a) a map worker dies once: Ray retries the task, nothing counts twice
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pass_files(tmp_path_factory):
    """4 files of 5,000 turns; texts repeat within and across files."""
    out = tmp_path_factory.mktemp("fail_pass")
    return [
        _write(
            str(out / f"in-{i}.parquet"),
            i,
            [f"text {(i * 3_001 + j * 7) % 12_000}" for j in range(5_000)],
        )
        for i in range(4)
    ]


def _pass(files: list[str], output_dir: str):
    ds = rd.read_parquet(files, override_num_blocks=len(files))
    with bounded():
        res = run_flagship(ds, mem="1MiB", num_shards=2, output_dir=output_dir)
    parts = sorted(glob.glob(os.path.join(output_dir, "*")))
    return res, parts, _read_parts(parts)


def test_worker_exit_in_tail_retries_exactly(
    ray_session, pass_files, tmp_path, monkeypatch
):
    clean, clean_parts, clean_rows = _pass(pass_files, str(tmp_path / "clean"))

    flag = _flag(tmp_path)
    monkeypatch.setattr(
        fmod, "SketchTail", _faults.inject(fmod.SketchTail, _faults.exit_after(flag))
    )
    res, parts, rows = _pass(pass_files, str(tmp_path / "crashed"))
    assert not os.path.exists(flag)  # one worker did exit

    assert res.counters == clean.counters
    assert res.shard_stats == clean.shard_stats
    assert len(parts) == len(clean_parts) == len(pass_files)
    assert all(p.endswith(".parquet") for p in parts)
    assert len(rows) == len(clean_rows) == 20_000
    assert int(rows["is_duplicate"].sum()) == int(clean_rows["is_duplicate"].sum())
    assert int(rows["is_duplicate"].sum()) == res.counters["dups"] > 0


# ---------------------------------------------------------------------------
# (b), (c) the wave runner: a failed wave, then a resume
# ---------------------------------------------------------------------------

WAVE = dict(wave_size=2, p=1e-9, mem="1MiB", num_shards=2)


@pytest.fixture(scope="module")
def wave_files(tmp_path_factory):
    """6 files, 3 waves of 2. A file repeats texts only from a file of an
    EARLIER wave, so which row is marked does not depend on scheduling:
    files 2-5 each repeat 100 texts of file i-2, 400 duplicates."""
    out = tmp_path_factory.mktemp("fail_waves")
    own = [[f"file {i} text {j}" for j in range(300)] for i in range(6)]
    return [
        _write(
            str(out / f"in-{i}.parquet"),
            i,
            own[i] + (own[i - 2][:100] if i >= 2 else []),
        )
        for i in range(6)
    ]


def _marked(manifest: dict) -> pd.DataFrame:
    parts = [
        os.path.join(w["output"], p)
        for w in manifest["waves"].values()
        for p in w["parts"]
    ]
    return _read_parts(parts)


@pytest.fixture(scope="module")
def uninterrupted(ray_session, wave_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("fail_ref")
    with bounded():
        manifest, _ = run_flagship_checkpointed(
            wave_files,
            ckpt_dir=str(out / "ckpt"),
            output_dir=str(out / "out"),
            **WAVE,
        )
    assert manifest["metrics"]["TURNS_MARKED_DUPLICATE"] == 400
    return manifest, _marked(manifest)


def _fail(wave_files, tmp_path, monkeypatch, name, fault, match) -> dict:
    """Run the waves with ``fault`` injected into ``fmod.<name>``; expect a
    raise with only wave 0 done. Returns the runner's arguments."""
    run = dict(
        ckpt_dir=str(tmp_path / "ckpt"), output_dir=str(tmp_path / "out"), **WAVE
    )
    monkeypatch.setattr(fmod, name, _faults.inject(getattr(fmod, name), fault))
    with bounded(), pytest.raises(Exception, match=match):
        run_flagship_checkpointed(wave_files, **run)
    monkeypatch.undo()
    with open(os.path.join(run["ckpt_dir"], "manifest.json")) as f:
        failed = json.load(f)
    assert {k for k, w in failed["waves"].items() if w["status"] == "done"} == {"0"}
    return run


def _assert_resume_identical(wave_files, run, uninterrupted):
    with bounded():
        manifest, _ = run_flagship_checkpointed(wave_files, **run)
    ref_manifest, ref_rows = uninterrupted
    assert manifest["metrics"] == ref_manifest["metrics"]
    pd.testing.assert_frame_equal(_marked(manifest), ref_rows)


def test_tail_raise_in_wave_resumes_identically(
    ray_session, wave_files, uninterrupted, tmp_path, monkeypatch
):
    flag = _flag(tmp_path)
    run = _fail(
        wave_files,
        tmp_path,
        monkeypatch,
        "SketchTail",
        _faults.raise_before(flag, "f2-"),
        "injected stage failure",
    )
    assert not os.path.exists(flag)
    _assert_resume_identical(wave_files, run, uninterrupted)


def test_killed_shard_fails_the_wave_then_resumes(
    settled_new_shards, wave_files, uninterrupted, tmp_path, monkeypatch
):
    flag = _flag(tmp_path)
    run = _fail(
        wave_files,
        tmp_path,
        monkeypatch,
        "BloomMarkStage",
        _faults.kill_shard_after(flag, "f2-"),
        "actor died",
    )
    assert not os.path.exists(flag)
    spawned = settled_new_shards()
    assert len(spawned) == WAVE["num_shards"]
    assert set(spawned.values()) == {"DEAD"}
    _assert_resume_identical(wave_files, run, uninterrupted)
