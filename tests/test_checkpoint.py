"""Checkpointed wave runner on generated transcripts with ground truth:
metrics and lineage, the per-wave capacity guard, and the CLI's
--checkpoint-dir path."""

import glob
import json
import os

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from streammd_ray import cli
from streammd_ray.pipelines.mark_duplicates import CapacityExceeded
from streammd_ray.sources import generate_transcripts
from streammd_ray.state import run_flagship_checkpointed


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ckptdata"))
    paths, truth = generate_transcripts(
        out, n_turns=12_000, seed=23, dup_frac=0.3, n_files=8, return_truth=True
    )
    return paths, truth.to_pandas()


def _assert_metrics_match_truth(m, truth):
    assert m["TURNS"] == len(truth)
    assert m["TURNS_NULL_TEXT"] == int(truth["text"].isna().sum())
    # cross-wave dups must be caught: total dup count matches ground truth
    assert m["TURNS_MARKED_DUPLICATE"] == int(truth["is_duplicate"].sum())
    # HLL conversations within its error bound
    true_convs = truth["conv_id"].nunique()
    assert abs(m["CONVERSATIONS"] - true_convs) / true_convs < 0.05


def test_full_run_and_metrics(ray_session, data, tmp_path):
    paths, truth = data
    manifest, _ = run_flagship_checkpointed(
        paths,
        ckpt_dir=str(tmp_path / "ckpt"),
        output_dir=str(tmp_path / "out"),
        wave_size=3,
        p=1e-9,
        mem="1MiB",
        num_shards=4,
    )
    _assert_metrics_match_truth(manifest["metrics"], truth)
    # wave outputs exist, one dir per wave (resumable layout)
    waves = sorted(glob.glob(str(tmp_path / "out" / "wave-*")))
    assert len(waves) == 3  # ceil(8/3)
    # lineage recorded, key spec and layout included
    config = manifest["config"]
    assert config["hasher"]
    assert config["num_shards"] == 4
    assert config["key_cols"] == ["text"] and config["scope"] == "global"
    assert config["bloom_layout"] is None and config["remove_duplicates"] is False
    for w in manifest["waves"].values():
        assert w["status"] == "done" and w["files"]


def test_capacity_guard_blocks_wave_commit(ray_session, data, tmp_path):
    """An over-capacity filter fails the wave before it commits instead of
    silently inflating dups through its FPR; allow_overcapacity proceeds."""
    paths, _ = data
    ckpt, out = str(tmp_path / "ckpt"), str(tmp_path / "out")
    tiny = dict(wave_size=1, p=1e-9, mem="64B", num_shards=1)
    with pytest.raises(CapacityExceeded):
        run_flagship_checkpointed(paths[:2], ckpt_dir=ckpt, output_dir=out, **tiny)
    manifest_path = os.path.join(ckpt, "manifest.json")
    if os.path.exists(manifest_path):
        manifest = json.load(open(manifest_path))
        assert not any(w["status"] == "done" for w in manifest["waves"].values())
    assert not os.path.exists(os.path.join(out, "wave-0"))

    manifest, _ = run_flagship_checkpointed(
        paths[:2],
        ckpt_dir=str(tmp_path / "ckpt2"),
        output_dir=str(tmp_path / "out2"),
        allow_overcapacity=True,
        **tiny,
    )
    assert sorted(manifest["waves"]) == ["0", "1"]


def test_cli_checkpoint_dir(ray_session, data, tmp_path, monkeypatch):
    """``cli.main --checkpoint-dir`` in-process: metrics JSON equals the
    generated truth, --remove-duplicates persists only first-seen rows, and
    --key-cols reaches the runner's config fingerprint."""
    import ray

    monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)  # keep the session
    paths, truth = data
    out, metrics_path = str(tmp_path / "out"), str(tmp_path / "metrics.json")
    argv = [
        "--input", os.path.dirname(paths[0]),
        "--output", out,
        "--checkpoint-dir", str(tmp_path / "ckpt"),
        "--wave-size", "3",
        "-p", "1e-9",
        "-m", "1MiB",
        "--num-shards", "4",
        "--metrics", metrics_path,
        "--remove-duplicates",
    ]  # fmt: skip
    assert cli.main(argv) == 0
    m = json.load(open(metrics_path))
    _assert_metrics_match_truth(m, truth)
    written = pq.ParquetDataset(out).read(columns=["is_duplicate"])
    assert written.num_rows == m["TURNS"] - m["TURNS_MARKED_DUPLICATE"]
    assert not pc.any(written["is_duplicate"]).as_py()
    with pytest.raises(ValueError, match="mismatch"):
        cli.main(argv + ["--key-cols", "text,tool"])


@pytest.mark.parametrize(
    "flags",
    [
        ["--sort-output"],
        ["--strip-previous"],
        ["--input-format", "jsonl"],
        ["--output-format", "csv"],
    ],
)
def test_cli_checkpoint_dir_rejects_unsupported_flags(tmp_path, capsys, flags):
    argv = [
        "--input", str(tmp_path),
        "--output", str(tmp_path / "out"),
        "--checkpoint-dir", str(tmp_path / "ckpt"),
        *flags,
    ]  # fmt: skip
    assert cli.main(argv) == 2
    assert flags[0] in capsys.readouterr().err
