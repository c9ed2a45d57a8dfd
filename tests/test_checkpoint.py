"""Checkpointed wave runner on generated transcripts with ground truth:
metrics and lineage, the per-wave capacity guard, and the CLI's
--checkpoint-dir path."""

import glob
import json
import os

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from streammd_ray import cli
from streammd_ray.pipelines import CapacityExceeded
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
    assert config["key_cols"] == ["text"] and "scope" not in config
    assert config["bloom_layout"] == "classic" and config["remove_duplicates"] is False
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
    # the manifest flags every wave whose filter overflowed
    for w in manifest["waves"].values():
        assert w["overcapacity_shards"] == 1
        assert w["max_marginal_fpr"] > tiny["p"]


@pytest.mark.parametrize("checkpoint", [False, True])
def test_cli_allow_overcapacity_warns(
    ray_session, data, tmp_path, capsys, checkpoint
):
    """Both CLI modes finish an over-capacity run under --allow-overcapacity
    and print the same WARNING line."""
    paths, _ = data
    ckpt = str(tmp_path / "ckpt")
    argv = [
        "--input", os.path.dirname(paths[0]),
        "--output", str(tmp_path / "out"),
        "-p", "1e-9",
        "-m", "64B",
        "--num-shards", "1",
        "--metrics", str(tmp_path / "metrics.json"),
        "--allow-overcapacity",
        *(["--checkpoint-dir", ckpt, "--wave-size", "4"] if checkpoint else []),
    ]  # fmt: skip
    assert cli.main(argv) == 0
    assert "WARNING: 1/1 Bloom shards over capacity" in capsys.readouterr().err


def test_cli_checkpoint_dir(ray_session, data, tmp_path):
    """``cli.main --checkpoint-dir`` in-process: metrics JSON equals the
    generated truth, --remove-duplicates persists only first-seen rows, and
    --key-cols reaches the runner's config fingerprint."""
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


@pytest.mark.parametrize(
    "found, old",
    [
        # hex-encoded pickled sketch states, no "format" key
        (1, {"waves": {"0": {"status": "done", "sketches": {"convs_hll": "80059500"}}}}),
        # each wave's sketch states; counters in a counters.json per snapshot
        (2, {"format": 2, "waves": {"0": {"status": "done", "sketches": {}}}}),
    ],
    ids=["format1", "format2"],
)
def test_resume_refuses_old_format_manifest(tmp_path, found, old):
    """A manifest of an earlier format is refused by name, not misread or
    restarted."""
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    old = {"run_id": "r", "config": {}, "input_files": [], "n_waves": 1, **old}
    (ckpt / "manifest.json").write_text(json.dumps(old))
    with pytest.raises(ValueError, match=f"format {found}; this engine reads format 3"):
        run_flagship_checkpointed(
            [], ckpt_dir=str(ckpt), output_dir=str(tmp_path / "out")
        )
    assert json.loads((ckpt / "manifest.json").read_text()) == old


def test_zero_files_give_zero_metrics_and_empty_sketches(tmp_path):
    """No input file, no wave: all-zero metrics and the four empty sketch
    prototypes, as ``run_flagship`` gives for zero rows."""
    from streammd_ray.pipelines.flagship import default_sketch_specs

    manifest, sketches = run_flagship_checkpointed(
        [], ckpt_dir=str(tmp_path / "ckpt"), output_dir=str(tmp_path / "out")
    )
    assert manifest["waves"] == {}
    assert manifest["metrics"] == {
        "TURNS": 0,
        "CONVERSATIONS": 0,
        "TURNS_NULL_TEXT": 0,
        "TURNS_MARKED_DUPLICATE": 0,
        "TURN_DUPLICATE_FRACTION": 0.0,
    }
    want = {n: sk.to_bytes() for n, (_, sk) in default_sketch_specs().items()}
    assert {n: sk.to_bytes() for n, sk in sketches.items()} == want


def test_manifest_holds_one_running_sketch_state(ray_session, tmp_path):
    """Twelve one-file waves: no wave entry carries sketch states; the
    manifest's one top-level state decodes to the returned sketches, and
    its partition counters sum to the run's turns and dups."""
    import base64

    from streammd_ray.sketches.base import Sketch
    from streammd_ray.state.checkpoint import decompress

    paths = generate_transcripts(
        str(tmp_path / "in"), n_turns=2_400, seed=5, dup_frac=0.3, n_files=12
    )
    manifest, sketches = run_flagship_checkpointed(
        paths,
        ckpt_dir=str(tmp_path / "ckpt"),
        output_dir=str(tmp_path / "out"),
        wave_size=1,
        p=1e-9,
        mem="1MiB",
        num_shards=2,
    )
    assert len(manifest["waves"]) == 12
    for w in manifest["waves"].values():
        assert "sketches" not in w
    stored = {
        n: Sketch.from_bytes(decompress(base64.b64decode(b))).to_bytes()
        for n, b in manifest["sketches"].items()
    }
    assert stored == {n: sk.to_bytes() for n, sk in sketches.items()}
    m = manifest["metrics"]
    parts = manifest["partitions"]
    assert len(parts) == 2
    assert sum(c["keys_seen"] for c in parts) == m["TURNS"] - m["TURNS_NULL_TEXT"]
    assert sum(c["dups"] for c in parts) == m["TURNS_MARKED_DUPLICATE"]


@pytest.mark.parametrize("layout", ["classic", "split"])
def test_snapshot_files_decode_to_live_shard_state(ray_session, tmp_path, layout):
    """Each compressed ``shard-{j}.bloom`` decodes to a filter whose bits
    equal live partition j's, whichever host holds it, and the snapshot
    holds nothing else; restoring from them and the partition counters
    reloads the hosts' filters and counters."""
    import ray

    from streammd_ray.sketches import BloomFilter
    from streammd_ray.state.checkpoint import (
        _restore_shards,
        _snapshot_shards,
        decompress,
    )
    from streammd_ray.state.shards import make_shard_actors, partition_stats

    shards = make_shard_actors(2, mem="64KiB", layout=layout)
    try:
        h = np.arange(1, 5_001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        n_hosts = np.uint64(len(shards))
        ray.get(
            [
                s.add.remote(h[h % n_hosts == i], h[h % n_hosts == i] >> np.uint64(7))
                for i, s in enumerate(shards)
            ]
        )
        stats = partition_stats(ray.get([s.stats.remote() for s in shards]))
        _snapshot_shards(shards, str(tmp_path), "wave-0")
        assert sorted(os.listdir(tmp_path / "shards" / "wave-0")) == [
            "shard-0.bloom",
            "shard-1.bloom",
        ]
        counters = [{"keys_seen": s["keys_seen"], "dups": s["dups"]} for s in stats]
        live = {}
        for b in ray.get([s.state.remote() for s in shards]):
            host_filter = BloomFilter.from_bytes(b)
            live.update(zip(host_filter.parts, host_filter.partitions))
        assert sorted(live) == [0, 1]
        for j, want in live.items():
            path = tmp_path / "shards" / "wave-0" / f"shard-{j}.bloom"
            raw = path.read_bytes()
            assert len(raw) < want._bits.nbytes  # compressed on disk
            got = BloomFilter.from_bytes(decompress(raw))
            assert type(got) is type(want) and got.n_added == want.n_added
            assert np.array_equal(got._bits, want._bits)
        fresh = make_shard_actors(2, mem="64KiB", layout=layout)
        try:
            _restore_shards(fresh, str(tmp_path), "wave-0", counters)
            reloaded = ray.get([s.state.remote() for s in fresh])
            assert reloaded == ray.get([s.state.remote() for s in shards])
            restored = partition_stats(ray.get([s.stats.remote() for s in fresh]))
            assert [(s["keys_seen"], s["dups"]) for s in restored] == [
                (s["keys_seen"], s["dups"]) for s in stats
            ]
        finally:
            for s in fresh:
                ray.kill(s)
    finally:
        for s in shards:
            ray.kill(s)
