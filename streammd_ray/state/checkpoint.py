"""Checkpoint / resume / lineage for the fused flagship pass (north_rule:
"resumable from checkpoint with per-partition lineage + metrics").

The reference engine is single-pass-or-nothing (SURVEY.md §4.1); this module
adds the piece a multi-node run needs. Model:

- The input file list is split into **waves** of ``wave_size`` files. Each
  wave runs as ONE fused ``run_flagship`` pass (mark + sketch partials +
  part-file writes) through the SAME long-lived Bloom shard actors (so
  cross-wave duplicates are still caught), writing its part files to
  ``output_dir/wave-{i}`` atomically (tmp dir + rename).
- After each wave the driver checks shard capacity (from the shard stats
  the pass read), commits the output,
  snapshots every shard's serialized filter and running counters
  (``shards/wave-{i}/``), and records the wave's counters, sketch states and
  lineage (files, config, engine + hasher versions) in ``manifest.json``
  (written atomically).
- On resume, completed waves are skipped; shard actors are spawned only if
  a wave is left to run, and re-loaded from
  the last completed wave's snapshot, so re-processing an unfinished wave
  re-inserts only keys that wave had added — Bloom re-insert is idempotent
  for membership (SURVEY.md §4.2 retry note), and its output directory is
  rewritten wholesale. Results are content-identical to one uninterrupted
  run.

This is the "partitioned parquet output + manifest of completed partitions"
layout the scale guidance calls for — a failed 100-TB run resumes at wave
granularity instead of restarting.

On disk (manifest ``"format": 2``), every byte is zstd level 1
(``DISK_COMPRESSION``):

- ``output_dir/wave-{i}/part-*.parquet`` — the marked table, zstd-compressed
  parquet pages;
- ``ckpt_dir/shards/wave-{i}/shard-{j}.bloom`` — one shard's filter in the
  sketch state layout (``sketches/base.py``), framed by :func:`compress`
  (u64 raw size, then one zstd frame); ``counters.json`` beside them;
- ``ckpt_dir/manifest.json`` — config, lineage and per-wave counters; each
  wave's sketch states are base64 of :func:`compress` of their layout.

A manifest of another format (format 1 held hex-encoded pickled sketches
and had no ``"format"`` key) is refused with a ``ValueError``: it is never
misread and never silently restarted. Nothing decodes a state with
``pickle``. The shard processes and the in-memory partials carry the layout
uncompressed; only this module compresses, so pyarrow stays out of a shard
process.
"""

from __future__ import annotations

import base64
import functools
import json
import os
import shutil
import struct
import uuid

#: the manifest's layout version; see the module docstring
FORMAT = 2

#: the compression of every byte a checkpointed job writes: shard
#: snapshots and manifest states (``pa.Codec(**DISK_COMPRESSION)``) and the
#: part files (``pq.write_table(..., **DISK_COMPRESSION)``)
DISK_COMPRESSION = {"compression": "zstd", "compression_level": 1}

_RAW_SIZE = struct.Struct("<Q")


@functools.cache
def _codec():
    # imported here: a shard process imports this package, not pyarrow
    import pyarrow as pa

    return pa.Codec(**DISK_COMPRESSION)


def compress(raw: bytes) -> bytes:
    """Frame ``raw`` for disk: its size (u64 LE), then one zstd frame."""
    return _RAW_SIZE.pack(len(raw)) + _codec().compress(raw, asbytes=True)


def decompress(data: bytes) -> bytes:
    """Inverse of :func:`compress`."""
    (size,) = _RAW_SIZE.unpack_from(data)
    body = memoryview(data)[_RAW_SIZE.size :]
    return _codec().decompress(body, decompressed_size=size, asbytes=True)


def _atomic_write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=2, default=str)
    os.replace(tmp, path)


def _load_manifest(ckpt_dir: str) -> dict | None:
    path = os.path.join(ckpt_dir, "manifest.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        manifest = json.load(f)
    found = manifest.get("format", 1)
    if found != FORMAT:
        raise ValueError(
            f"{path} is checkpoint format {found}; this engine reads format "
            f"{FORMAT} only — use a fresh ckpt_dir"
        )
    return manifest


def _snapshot_shards(shards, stats: list[dict], ckpt_dir: str, tag: str) -> None:
    """Persist every shard's filter + running counters under
    ``ckpt_dir/shards/<tag>/`` (tmp + atomic rename per file), so a resumed
    run's shard stats and capacity check report true keys_seen/dups.
    ``stats`` is each shard's ``stats()`` taken since its last insert (the
    pass's ``shard_stats``), so the counters cost no second round trip."""
    import ray

    state_dir = os.path.join(ckpt_dir, "shards", tag)
    os.makedirs(state_dir, exist_ok=True)
    states = ray.get([s.state.remote() for s in shards])
    for j, b in enumerate(states):
        tmp = os.path.join(state_dir, f"shard-{j}.bloom.tmp")
        with open(tmp, "wb") as f:
            f.write(compress(b))
        os.replace(tmp, os.path.join(state_dir, f"shard-{j}.bloom"))
    shard_counters = [{"keys_seen": s["keys_seen"], "dups": s["dups"]} for s in stats]
    _atomic_write_json(os.path.join(state_dir, "counters.json"), shard_counters)


def _restore_shards(shards, ckpt_dir: str, tag: str) -> None:
    import ray

    state_dir = os.path.join(ckpt_dir, "shards", tag)
    with open(os.path.join(state_dir, "counters.json")) as f:
        counters = json.load(f)
    futures = []
    for j, (s, c) in enumerate(zip(shards, counters)):
        with open(os.path.join(state_dir, f"shard-{j}.bloom"), "rb") as f:
            state = decompress(f.read())
        futures.append(s.load.remote(state, c["keys_seen"], c["dups"]))
    ray.get(futures)


def run_flagship_checkpointed(
    input_files: list[str],
    *,
    ckpt_dir: str,
    output_dir: str,
    wave_size: int = 8,
    p: float = 1e-6,
    mem: str = "256MiB",
    num_shards: int = 8,
    columns: list[str] | None = None,
    key_cols: tuple[str, ...] = ("text",),
    bloom_layout: str = "classic",
    remove_duplicates: bool = False,
    allow_overcapacity: bool = False,
):
    """Run (or resume) the fused flagship pass in checkpointed waves.

    ``run_flagship`` is one streaming mark+sketch+persist execution — a crash
    90% through a 100-TB run would restart it from zero. This runner runs
    the SAME fused single pass per wave (see the module docstring) and
    commits each wave atomically; a restart skips every committed wave,
    reloads the shard snapshot, discards the in-flight wave's tmp output and
    continues.

    ``key_cols``/``remove_duplicates`` mean what they mean for
    ``run_flagship``; with ``remove_duplicates`` the part files hold only
    first-seen rows while counters and sketches still count every turn.
    The shards are sized as ``run_flagship`` sizes them: ``mem`` split over
    ``num_shards``, probed in the ``"classic"`` (default) or ``"split"``
    ``bloom_layout``. ``key_cols``, ``remove_duplicates`` and
    ``bloom_layout``, like the sizing, are pinned in the manifest config: a
    resume with any of them changed raises ``ValueError`` instead of mixing
    geometries or key specs (so does a manifest whose config still holds
    the retired ``scope`` field).
    Each wave's capacity is checked before it commits; an over-capacity
    filter raises ``CapacityExceeded`` unless ``allow_overcapacity``, and
    each wave's manifest entry records its ``overcapacity_shards`` count and
    ``max_marginal_fpr`` (an entry written before these fields existed
    lacks them; such a checkpoint still resumes).

    A wave is one engine read (``sources.parquet_files``):
    ``min(wave files, cluster CPUs)`` fused tasks (read → mark → sketch
    tail → part file), each over a contiguous group of the wave's files.
    ``wave_size`` sets only the checkpoint granularity.

    Returns ``(manifest, merged_sketches)``. The marked table lands under
    ``output_dir/wave-{i}/`` — partitioned parquet, one dir per wave, one
    part file per read task below Ray's target block size.
    """
    import ray

    from .. import __version__
    from ..hashing import HASHER_ID
    from ..pipelines.flagship import metrics_json, run_flagship
    from ..sketches.base import Sketch, merge_all
    from ..sources.parquet_files import read_parquet_files
    from .shards import make_shard_actors

    input_files = sorted(input_files)
    waves = [
        input_files[i : i + wave_size]
        for i in range(0, len(input_files), wave_size)
    ]
    os.makedirs(ckpt_dir, exist_ok=True)
    os.makedirs(output_dir, exist_ok=True)

    config = {
        "p": p,
        "mem": mem,
        "num_shards": num_shards,
        "columns": columns,
        "key_cols": list(key_cols),
        "bloom_layout": bloom_layout,
        "remove_duplicates": remove_duplicates,
        "engine_version": __version__,
        "hasher": HASHER_ID,
    }
    manifest = _load_manifest(ckpt_dir)
    if manifest is not None:
        if manifest["config"] != config or manifest["input_files"] != input_files:
            raise ValueError(
                "checkpoint config/input mismatch — refusing to resume; "
                "use a fresh ckpt_dir"
            )
    else:
        manifest = {
            "format": FORMAT,
            "run_id": str(uuid.uuid4()),
            "config": config,
            "input_files": input_files,
            "n_waves": len(waves),
            "waves": {},
        }

    done = sorted(
        int(k) for k, v in manifest["waves"].items() if v["status"] == "done"
    )
    todo = [i for i in range(len(waves)) if i not in done]
    # spawned only when a wave is left to run; killed on every exit: map
    # workers keep the mark stage's shard handles alive, so the actors
    # would outlive a wave that raised
    shards = (
        make_shard_actors(num_shards, p=p, mem=mem, layout=bloom_layout)
        if todo
        else []
    )
    try:
        if todo and done:
            _restore_shards(shards, ckpt_dir, f"wave-{done[-1]}")

        for i in todo:
            files = waves[i]
            wave_out = os.path.join(output_dir, f"wave-{i}")
            tmp_out = wave_out + ".tmp"
            shutil.rmtree(tmp_out, ignore_errors=True)
            shutil.rmtree(wave_out, ignore_errors=True)

            res = run_flagship(
                read_parquet_files(files, columns),
                p=p,
                mem=mem,
                num_shards=num_shards,
                shards=shards,
                output_dir=tmp_out,
                key_cols=key_cols,
                remove_duplicates=remove_duplicates,
            )
            report = res.check_capacity(allow_overcapacity=allow_overcapacity)
            os.replace(tmp_out, wave_out)
            _snapshot_shards(shards, res.shard_stats, ckpt_dir, f"wave-{i}")
            manifest["waves"][str(i)] = {
                "status": "done",
                "files": files,
                "output": wave_out,
                "parts": sorted(os.listdir(wave_out)),
                "metrics": {k: int(v) for k, v in res.counters.items()},
                "overcapacity_shards": report["overcapacity_shards"],
                "max_marginal_fpr": report["max_marginal_fpr"],
                "sketches": {
                    n: base64.b64encode(compress(sk.to_bytes())).decode("ascii")
                    for n, sk in res.sketches.items()
                },
            }
            _atomic_write_json(os.path.join(ckpt_dir, "manifest.json"), manifest)
            # the previous snapshot goes only AFTER the manifest durably
            # records this wave as done, so a crash anywhere in this wave
            # still finds it on resume
            if i > 0:
                shutil.rmtree(
                    os.path.join(ckpt_dir, "shards", f"wave-{i - 1}"),
                    ignore_errors=True,
                )
    finally:
        for s in shards:
            ray.kill(s)

    # final metrics: sum counters, merge every sketch across waves (wave
    # order is arbitrary — merges are associative by construction)
    done_waves = manifest["waves"].values()
    sketch_names = sorted({n for w in done_waves for n in w["sketches"]})
    merged = {
        n: merge_all(
            [
                Sketch.from_bytes(decompress(base64.b64decode(w["sketches"][n])))
                for w in done_waves
                if n in w["sketches"]
            ]
        )
        for n in sketch_names
    }

    def total(counter: str) -> int:
        return sum(w["metrics"][counter] for w in done_waves)

    manifest["metrics"] = metrics_json(
        total("turns"),
        total("nulls"),
        total("dups"),
        round(merged["convs_hll"].estimate()),
    )
    _atomic_write_json(os.path.join(ckpt_dir, "manifest.json"), manifest)
    return manifest, merged
