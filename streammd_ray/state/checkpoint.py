"""Checkpoint / resume / lineage for the fused flagship pass (north_rule:
"resumable from checkpoint with per-partition lineage + metrics").

The reference engine is single-pass-or-nothing (SURVEY.md §4.1); this module
adds the piece a multi-node run needs. Model:

- The input file list is split into **waves** of ``wave_size`` files. Each
  wave runs as ONE fused ``run_flagship`` pass (mark + sketch partials +
  part-file writes) through the SAME long-lived Bloom shard actors (so
  cross-wave duplicates are still caught), writing its part files to
  ``output_dir/wave-{i}`` atomically (tmp dir + rename).
- After each wave the driver checks shard capacity, commits the output,
  snapshots every shard's serialized filter and running counters
  (``shards/wave-{i}/``), and records the wave's counters, sketch states and
  lineage (files, config, engine + hasher versions) in ``manifest.json``
  (written atomically).
- On resume, completed waves are skipped; shard actors are re-loaded from
  the last completed wave's snapshot, so re-processing an unfinished wave
  re-inserts only keys that wave had added — Bloom re-insert is idempotent
  for membership (SURVEY.md §4.2 retry note), and its output directory is
  rewritten wholesale. Results are content-identical to one uninterrupted
  run.

This is the "partitioned parquet output + manifest of completed partitions"
layout the scale guidance calls for — a failed 100-TB run resumes at wave
granularity instead of restarting.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid


def _atomic_write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=2, default=str)
    os.replace(tmp, path)


def _load_manifest(ckpt_dir: str) -> dict | None:
    path = os.path.join(ckpt_dir, "manifest.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return None


def _snapshot_shards(shards, ckpt_dir: str, tag: str) -> None:
    """Persist every shard's filter + running counters under
    ``ckpt_dir/shards/<tag>/`` (tmp + atomic rename per file), so a resumed
    run's shard stats and capacity check report true keys_seen/dups."""
    import ray

    state_dir = os.path.join(ckpt_dir, "shards", tag)
    os.makedirs(state_dir, exist_ok=True)
    states = ray.get([s.state.remote() for s in shards])
    for j, b in enumerate(states):
        tmp = os.path.join(state_dir, f"shard-{j}.bloom.tmp")
        with open(tmp, "wb") as f:
            f.write(b)
        os.replace(tmp, os.path.join(state_dir, f"shard-{j}.bloom"))
    shard_counters = [
        {"keys_seen": s["keys_seen"], "dups": s["dups"]}
        for s in ray.get([s.stats.remote() for s in shards])
    ]
    _atomic_write_json(os.path.join(state_dir, "counters.json"), shard_counters)


def _restore_shards(shards, ckpt_dir: str, tag: str) -> None:
    import ray

    state_dir = os.path.join(ckpt_dir, "shards", tag)
    with open(os.path.join(state_dir, "counters.json")) as f:
        counters = json.load(f)
    futures = []
    for j, (s, c) in enumerate(zip(shards, counters)):
        with open(os.path.join(state_dir, f"shard-{j}.bloom"), "rb") as f:
            futures.append(s.load.remote(f.read(), c["keys_seen"], c["dups"]))
    ray.get(futures)


def run_flagship_checkpointed(
    input_files: list[str],
    *,
    ckpt_dir: str,
    output_dir: str,
    wave_size: int = 8,
    p: float = 1e-6,
    mem: str | None = "256MiB",
    total_capacity: int | None = None,
    num_shards: int = 8,
    columns: list[str] | None = None,
    key_cols: tuple[str, ...] = ("text",),
    scope: str = "global",
    bloom_layout: str | None = None,
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

    ``key_cols``/``scope``/``remove_duplicates`` mean what they mean for
    ``mark_duplicates``; with ``remove_duplicates`` the part files hold only
    first-seen rows while counters and sketches still count every turn.
    ``bloom_layout`` selects the shards' probe geometry. All four, like the
    sizing, are pinned in the manifest config: a resume with any of them
    changed raises ``ValueError`` instead of mixing geometries or key specs.
    Each wave's capacity is checked before it commits; an over-capacity
    filter raises ``CapacityExceeded`` unless ``allow_overcapacity``.

    Returns ``(manifest, merged_sketches)``. The marked table lands under
    ``output_dir/wave-{i}/`` — partitioned parquet, one dir per wave.
    """
    import pickle

    import ray
    import ray.data as rd

    from .. import __version__
    from ..hashing import HASHER_ID
    from ..pipelines.flagship import run_flagship
    from ..sketches.base import merge_all
    from ..stages.dedup import make_shard_actors

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
        "total_capacity": total_capacity,
        "num_shards": num_shards,
        "columns": columns,
        "key_cols": list(key_cols),
        "scope": scope,
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
            "run_id": str(uuid.uuid4()),
            "config": config,
            "input_files": input_files,
            "n_waves": len(waves),
            "waves": {},
        }

    shards = make_shard_actors(
        num_shards, p=p, total_capacity=total_capacity, mem=mem, layout=bloom_layout
    )
    # kill on every exit: map workers keep the mark closure's shard handles
    # alive, so the actors would outlive a wave that raised
    try:
        done = sorted(
            int(k) for k, v in manifest["waves"].items() if v["status"] == "done"
        )
        if done:
            _restore_shards(shards, ckpt_dir, f"wave-{done[-1]}")

        for i, files in enumerate(waves):
            if manifest["waves"].get(str(i), {}).get("status") == "done":
                continue
            wave_out = os.path.join(output_dir, f"wave-{i}")
            tmp_out = wave_out + ".tmp"
            shutil.rmtree(tmp_out, ignore_errors=True)
            shutil.rmtree(wave_out, ignore_errors=True)

            ds = rd.read_parquet(files, columns=columns)
            res = run_flagship(
                ds,
                p=p,
                mem=mem,
                num_shards=num_shards,
                shards=shards,
                output_dir=tmp_out,
                seal=False,
                key_cols=key_cols,
                scope=scope,
                remove_duplicates=remove_duplicates,
            )
            res.mark.check_capacity(allow_overcapacity=allow_overcapacity)
            os.replace(tmp_out, wave_out)
            _snapshot_shards(shards, ckpt_dir, f"wave-{i}")
            manifest["waves"][str(i)] = {
                "status": "done",
                "files": files,
                "output": wave_out,
                "parts": sorted(os.listdir(wave_out)),
                "metrics": {k: int(v) for k, v in res.counters.items()},
                "sketches": {
                    n: sk.to_bytes().hex() for n, sk in res.sketches.items()
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
    turns = sum(w["metrics"]["turns"] for w in done_waves)
    nulls = sum(w["metrics"]["nulls"] for w in done_waves)
    dups = sum(w["metrics"]["dups"] for w in done_waves)
    sketch_names = sorted({n for w in done_waves for n in w["sketches"]})
    merged = {
        n: merge_all(
            [
                pickle.loads(bytes.fromhex(w["sketches"][n]))
                for w in done_waves
                if n in w["sketches"]
            ]
        )
        for n in sketch_names
    }
    denom = turns - nulls
    manifest["metrics"] = {
        "TURNS": turns,
        "TURNS_NULL_TEXT": nulls,
        "TURNS_MARKED_DUPLICATE": dups,
        "CONVERSATIONS": round(merged["convs_hll"].estimate())
        if "convs_hll" in merged
        else None,
        "TURN_DUPLICATE_FRACTION": round(dups / denom, 4) if denom else 0.0,
    }
    _atomic_write_json(os.path.join(ckpt_dir, "manifest.json"), manifest)
    return manifest, merged
