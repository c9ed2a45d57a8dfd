"""The workloads: what each job runs, how it is set up, and its gate.

Each workload drives the engine only through its public functions. Bloom
shard counts, Bloom budgets and shuffle partition counts are fixed here per
workload and never derived from the CPU count.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import data, oracle

#: every workload's input is derived from this seeded transcripts table
TEXT_TURNS = 100_000
TEXT_FILES = 8
#: configured Bloom false-positive target of every marking job
P = 1e-6
# Bloom budgets follow bench.py's sizing, 16 bytes per input turn (256 MiB
# for 16M turns): filters stay well below full and sized like the engine's
# own benchmark, not tens of times larger than the input.

TEXT_COLUMNS = ["conv_id", "text", "tool"]


@dataclass
class Inputs:
    files: list[str]
    facts: oracle.Facts
    input_bytes: int
    fingerprint: str


@dataclass
class JobResult:
    fails: list[str]
    written_bytes: int = 0
    sketch_errors: dict | None = None
    sketches: dict | None = None  # merged sketches of a marking job
    state: dict | None = None


class Workload:
    """Base: a closed-loop job over parquet files, one job in flight."""

    name = ""
    kind = ""
    num_shards = 0
    layout: str | None = None
    mem: str | None = None
    #: text files the workload reads (a prefix of the generated table)
    n_text_files = TEXT_FILES
    #: columns the job reads
    columns = TEXT_COLUMNS

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.shards: list = []

    def provenance(self) -> dict:
        return {
            "shards": self.num_shards,
            "bloom_layout": self.layout if self.num_shards else None,
            "bloom_mem": self.mem,
        }

    # -- inputs -------------------------------------------------------------
    def prepare(self, text_files: list[str]) -> Inputs:
        files = self.input_files(text_files)
        return Inputs(
            files, self.facts(files), data.total_bytes(files), data.fingerprint(files)
        )

    def input_files(self, text_files: list[str]) -> list[str]:
        return text_files[: self.n_text_files]

    def facts(self, files: list[str]) -> oracle.Facts:
        return oracle.text_facts(files)

    # -- setup --------------------------------------------------------------
    def spawn(self) -> list:
        import ray

        from streammd_ray.stages.dedup import make_shard_actors

        shards = make_shard_actors(
            self.num_shards, p=P, mem=self.mem, layout=self.layout
        )
        ray.get([s.stats.remote() for s in shards])
        return shards

    def setup(self) -> float:
        """Spawn the job's shard actors until they answer and keep them for
        the jobs; returns the spawn time."""
        import ray

        t0 = time.perf_counter()
        self.shards = self.spawn()
        spawn_s = time.perf_counter() - t0
        # fresh-filter bytes of this geometry, reloaded before every job
        self._empty = ray.put(ray.get(self.shards[0].state.remote()))
        return spawn_s

    def reset(self) -> None:
        """Return the kept shards to an empty, unsealed filter."""
        import ray

        if self.shards:
            ray.get([s.load.remote(self._empty) for s in self.shards])

    def release(self) -> None:
        import ray

        for s in self.shards:
            ray.kill(s)
        self.shards = []

    # -- the job ------------------------------------------------------------
    def job(self, files: list[str]):
        raise NotImplementedError

    def check(self, inputs: Inputs, out) -> JobResult:
        raise NotImplementedError


class TextMarkSketch(Workload):
    """``pipelines.flagship.run_flagship`` at full payload: mark + four
    sketches + counters in one fused streaming pass, through shards spawned
    in setup. Parquet text reads and key hashing dominate."""

    name = "text-mark-sketch"
    kind = "flagship"
    num_shards = 2
    layout = "split"
    mem = "2MiB"

    def job(self, files):
        import ray.data as rd

        from streammd_ray.pipelines.flagship import run_flagship

        ds = rd.read_parquet(
            files, columns=self.columns, override_num_blocks=len(files)
        )
        return run_flagship(
            ds,
            p=P,
            mem=self.mem,
            num_shards=self.num_shards,
            shards=self.shards,
            batch_size=None,
        )

    def check(self, inputs, out):
        fails, errs = oracle.check_flagship(
            inputs.facts, out.counters, out.sketches, p=P
        )
        return JobResult(fails, sketch_errors=errs, sketches=out.sketches)


class ExactDedupShuffle(Workload):
    """``stages.dedup.dedup_exact_first``: hash shuffle plus per-partition
    sort, with no Bloom filter and no sketches."""

    name = "exact-dedup-shuffle"
    kind = "exact"
    n_text_files = TEXT_FILES // 2
    num_partitions = 4

    def provenance(self):
        return {**super().provenance(), "partitions": self.num_partitions}

    def facts(self, files):
        return oracle.text_facts(files, with_row_hash=True)

    def setup(self):
        return 0.0  # no actors to spawn

    def job(self, files):
        import ray.data as rd

        from streammd_ray.stages.dedup import dedup_exact_first

        ds = rd.read_parquet(files, override_num_blocks=len(files))
        out = dedup_exact_first(ds, num_partitions=self.num_partitions)
        # the complete result on the driver: every output block (empty
        # reducer partitions arrive as zero-column blocks)
        parts = [
            b.select(["conv_id", "turn_idx", "is_duplicate"])
            for b in out.iter_batches(batch_format="pyarrow", batch_size=None)
            if b.num_rows
        ]
        self.last_dataset = out
        return pa.concat_tables(parts, promote_options="permissive")

    def check(self, inputs, out):
        return JobResult(oracle.check_exact(inputs.facts, out))


class CheckpointedPersist(Workload):
    """``state.checkpoint.run_flagship_checkpointed`` in waves: part files
    and one shard snapshot per wave beside the fused pass."""

    name = "checkpointed-persist"
    kind = "persist"
    n_text_files = TEXT_FILES // 2
    #: the runner spawns its shards in every job; one shard keeps that spawn
    #: to half of a job, so that an 18 s window holds six to eight jobs
    num_shards = 1
    #: every wave snapshots the whole filter, so its size sets the writes
    mem = "1MiB"
    #: the layout run_flagship_checkpointed's own shard actors get
    layout = "classic"
    wave_size = 2

    def provenance(self):
        return {**super().provenance(), "wave_size": self.wave_size}

    def setup(self):
        return 0.0  # the checkpointed runner spawns its own shards in every job

    def reset(self):
        shutil.rmtree(self._dirs()[0], ignore_errors=True)

    def _dirs(self) -> tuple[str, str, str]:
        base = os.path.join(self.work_dir, "persist")
        return base, os.path.join(base, "ckpt"), os.path.join(base, "out")

    def job(self, files):
        from streammd_ray.state.checkpoint import run_flagship_checkpointed

        _, ckpt, out = self._dirs()
        return run_flagship_checkpointed(
            files,
            ckpt_dir=ckpt,
            output_dir=out,
            wave_size=self.wave_size,
            p=P,
            mem=self.mem,
            num_shards=self.num_shards,
            columns=TEXT_COLUMNS,
        )

    def state_bytes(self, manifest) -> dict:
        """Bytes the job wrote: part files, one full shard snapshot per wave
        (the runner deletes the previous wave's snapshot after the next one
        commits) and the manifest at its final size."""
        _, ckpt, out = self._dirs()
        waves = len(manifest["waves"])
        snapshot = data.tree_bytes(os.path.join(ckpt, "shards"))
        return {
            "waves": waves,
            "output_bytes": data.tree_bytes(out),
            "snapshot_bytes": waves * snapshot,
            "manifest_bytes": os.path.getsize(os.path.join(ckpt, "manifest.json")),
        }

    def check(self, inputs, out):
        manifest, sketches = out
        m = manifest["metrics"]
        counters = {
            "turns": m["TURNS"],
            "nulls": m["TURNS_NULL_TEXT"],
            "dups": m["TURNS_MARKED_DUPLICATE"],
        }
        fails, errs = oracle.check_flagship(inputs.facts, counters, sketches, p=P)
        undone = [w for w, v in manifest["waves"].items() if v["status"] != "done"]
        n_waves = -(-len(inputs.files) // self.wave_size)
        if undone or len(manifest["waves"]) != n_waves:
            fails.append(f"waves not all done: {sorted(manifest['waves'])} {undone}")
        _, _, out_dir = self._dirs()
        written = pq.ParquetDataset(out_dir).read(columns=["is_duplicate"])
        if written.num_rows != inputs.facts.turns:
            fails.append(f"persisted rows {written.num_rows} != {inputs.facts.turns}")
        persisted_dups = int(pc.sum(written["is_duplicate"]).as_py() or 0)
        if persisted_dups != counters["dups"]:
            fails.append(f"persisted dups {persisted_dups} != {counters['dups']}")
        state = self.state_bytes(manifest)
        written_bytes = (
            state["output_bytes"] + state["snapshot_bytes"] + state["manifest_bytes"]
        )
        return JobResult(fails, written_bytes, errs, sketches, state)


WORKLOADS = {
    w.name: w
    for w in (TextMarkSketch, ExactDedupShuffle, CheckpointedPersist)
}
