"""Per-layer tracing: spans recorded by the benchmark around calls into each
engine module's public functions, on the workload's own blocks, in-process
and one call at a time.

That sequential pass doubles as the single-threaded baseline of the job.
The traced Ray job beside it supplies the Ray Data operator breakdown
(``Dataset.stats()``) and the wall time that the sequential layers are
subtracted from.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import re
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

#: metric prefix -> name of the sketch in the flagship's sketch specs
SKETCHES = {
    "hll": "convs_hll",
    "cms": "tools_cms",
    "tdigest": "len_tdigest",
    "kll": "len_kll",
}
#: Ray Data operators that move rows between blocks (all-to-all)
_SHUFFLE_OPS = ("Sort", "Repartition", "Aggregate", "Shuffle", "Join", "GroupBy")
#: spans whose work the job itself does, one after another on one core
#: (``dedup.spawn`` only where the job spawns its own shards)
_JOB_LAYERS = (
    "sources.read", "hashing", "dedup.spawn", "dedup.rpc", "tail", "merge",
    "state.snapshot",
)


class Tracer:
    """In-memory spans: name, start, end, parent and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def busy(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total time, and self time (each span's
        duration minus the time its child spans cover)."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - covered[s["id"]]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
_OP = re.compile(r"^Operator \d+ (?P<name>.+?): .* in (?P<wall>[\d.]+)s\s*$")
_TOTAL = re.compile(r"(?P<v>[\d.]+)(?P<unit>ns|us|ms|s)? total")


def parse_ray_stats(text: str) -> dict[str, float]:
    """Sum ``Dataset.stats()`` output into two operator groups: ``map``
    (read and fused map chains) and ``shuffle`` (all-to-all operators).
    Rows and bytes out are those of each operator's last sub-operator."""
    out = {
        f"ray_data.{g}.{m}": 0.0
        for g in ("map", "shuffle")
        for m in ("wall_s", "cpu_s", "rows_out", "bytes_out")
    }
    group, rows, nbytes = None, 0.0, 0.0

    def flush():
        if group is not None:
            out[f"ray_data.{group}.rows_out"] += rows
            out[f"ray_data.{group}.bytes_out"] += nbytes

    for line in text.splitlines():
        op = _OP.match(line)
        if op:
            flush()
            name = op["name"]
            group = "shuffle" if any(k in name for k in _SHUFFLE_OPS) else "map"
            rows = nbytes = 0.0
            out[f"ray_data.{group}.wall_s"] += float(op["wall"])
            continue
        if group is None:
            continue
        total = _TOTAL.search(line)
        if total is None:
            continue
        if "Remote cpu time" in line:
            out[f"ray_data.{group}.cpu_s"] += float(total["v"]) * _UNITS[total["unit"]]
        elif "Output num rows per block" in line:
            rows = float(total["v"])
        elif "Output size bytes per block" in line:
            nbytes = float(total["v"])
    flush()
    return out


@contextlib.contextmanager
def engine_trace():
    """Turn on the engine's own STREAMMD_TRACE output (per-phase timings and
    the fused pass's ``Dataset.stats()``) and capture it."""
    buf = io.StringIO()
    old = os.environ.get("STREAMMD_TRACE")
    os.environ["STREAMMD_TRACE"] = "1"
    try:
        with contextlib.redirect_stderr(buf):
            yield buf
    finally:
        if old is None:
            del os.environ["STREAMMD_TRACE"]
        else:
            os.environ["STREAMMD_TRACE"] = old


def _read(tracer: Tracer, path: str, columns, m: dict) -> pa.Table:
    with tracer.span("sources.read"):
        t = pq.read_table(path, columns=columns)
    m["sources.bytes_read"] += t.nbytes
    return t


def _keyed(tracer: Tracer, t: pa.Table, m: dict):
    """The block with its (h1, h2) key columns, as stages.dedup derives them."""
    from streammd_ray.hashing import hash_pair_batch
    from streammd_ray.stages.dedup import KEY_H1, KEY_H2, canonical_key

    with tracer.span("hashing"):
        key = canonical_key(t, ("text",))
        h1, h2 = hash_pair_batch(key)
        h1 = h1.copy()
        h1[np.asarray(pc.is_null(key))] = 0
    m["hashing.keys"] += len(h1)
    keyed = t.append_column(KEY_H1, pa.array(h1.view(np.int64))).append_column(
        KEY_H2, pa.array(h2.view(np.int64))
    )
    return keyed, h1, h2


def _insert_sketches(tracer: Tracer, t: pa.Table, protos: dict, partials: dict):
    """Each sketch's insert on one block, fed the way the flagship's
    SketchTail feeds it (pre-aggregated where the sketch allows)."""
    lens = pc.cast(pc.fill_null(pc.utf8_length(t["text"]), 0), pa.float64()).to_numpy(
        zero_copy_only=False
    )
    for short, spec_name in SKETCHES.items():
        col, proto = protos[spec_name]
        with tracer.span(f"sketch.{short}.insert"):
            sk = pickle.loads(pickle.dumps(proto))
            if short == "hll":
                sk.insert_batch(pc.value_counts(t[col]).field("values"))
            elif short == "cms":
                vc = pc.value_counts(t[col])
                sk.insert_batch(
                    vc.field("values"), vc.field("counts").to_numpy().astype(np.int64)
                )
            elif short == "tdigest":
                sk.insert_batch(*np.unique(lens, return_counts=True))
            else:
                sk.insert_batch(lens)
        partials[short].append(sk)


def flagship_pass(tracer: Tracer, wl, files: list[str], shards: list, scratch: str):
    """Sequential pass of the fused mark + sketch job over ``files``:
    read, hash, Bloom insert at shard geometry, shard RPC, sketch inserts,
    SketchTail, tree merge; plus per-wave shard snapshots for the
    checkpointed workload."""
    import ray

    from streammd_ray.pipelines.flagship import SketchTail, default_sketch_specs
    from streammd_ray.sketches.base import merge_all
    from streammd_ray.sketches.bloom import BloomFilter
    from streammd_ray.stages.dedup import KEY_H1, KEY_H2, BloomMarkStage
    from streammd_ray.stages.sketch_agg import tree_merge

    m = {k: 0.0 for k in ("sources.bytes_read", "hashing.keys", "bloom.keys")}
    m.update({"dedup.rpc_calls": 0, "tail.partials": 0, "tail.partial_bytes": 0})
    n = len(shards)
    filters = [BloomFilter.from_bytes(b) for b in ray.get([s.state.remote() for s in shards])]
    stage = BloomMarkStage(shards)
    protos = default_sketch_specs()
    persist = wl.kind == "persist"
    tail = SketchTail(
        pickle.dumps(protos), output_dir=os.path.join(scratch, "out") if persist else None
    )
    wave = wl.wave_size if persist else len(files)
    partials = {short: [] for short in SKETCHES}
    states: dict[str, list[bytes]] = {}
    with tracer.span("layers", workload=wl.name):
        for i, path in enumerate(files):
            with tracer.span("block", block=i):
                t = _read(tracer, path, wl.columns, m)
                keyed, h1, h2 = _keyed(tracer, t, m)
                live = h1 != 0
                h1l, h2l = h1[live], h2[live]
                route = h1l % np.uint64(n)
                slices = [route == s for s in range(n)]
                m["dedup.rpc_calls"] += sum(1 for sel in slices if sel.any())
                m["bloom.keys"] += len(h1l)
                with tracer.span("bloom"):
                    for f, sel in zip(filters, slices):
                        f.add_hashed(h1l[sel], h2l[sel])
                with tracer.span("dedup.rpc"):
                    marked = stage(keyed)
                _insert_sketches(tracer, t, protos, partials)
                marked = marked.drop_columns([KEY_H1, KEY_H2])
                with tracer.span("tail"):
                    part = tail(marked)
                m["tail.partials"] += part.num_rows
                for name, state in zip(part["sketch"].to_pylist(), part["state"].to_pylist()):
                    m["tail.partial_bytes"] += len(state)
                    if name != "__counts":
                        states.setdefault(name, []).append(state)
            if persist and ((i + 1) % wave == 0 or i + 1 == len(files)):
                with tracer.span("state.snapshot", wave=i // wave):
                    snap = os.path.join(scratch, "shards", f"wave-{i // wave}")
                    os.makedirs(snap, exist_ok=True)
                    for j, b in enumerate(ray.get([s.state.remote() for s in shards])):
                        with open(os.path.join(snap, f"shard-{j}.bloom"), "wb") as fh:
                            fh.write(b)
        with tracer.span("merge"):
            for sts in states.values():
                tree_merge(sts)
        for short in SKETCHES:
            with tracer.span(f"sketch.{short}.merge"):
                merge_all(partials[short])

    bits = sum(f.count_bits_set() for f in filters)
    bloom_busy = tracer.busy("bloom")
    rpc_s = tracer.busy("dedup.rpc")
    out = {
        "hashing.keys": m["hashing.keys"],
        "sources.bytes_read": m["sources.bytes_read"],
        "bloom.busy_s": bloom_busy,
        "bloom.keys_per_s": m["bloom.keys"] / bloom_busy if bloom_busy else 0.0,
        "bloom.fill": bits / sum(f.m for f in filters),
        "bloom.marginal_fpr": max(f.marginal_fpr() for f in filters),
        "bloom.state_bytes": sum(len(f.to_bytes()) for f in filters),
        "dedup.rpc_calls": m["dedup.rpc_calls"],
        "dedup.keys_per_rpc": m["bloom.keys"] / max(m["dedup.rpc_calls"], 1),
        "dedup.rpc_s": rpc_s,
        "dedup.rpc_wait_s": rpc_s - bloom_busy,
        "tail.busy_s": tracer.busy("tail"),
        "tail.partials": m["tail.partials"],
        "tail.partial_bytes": m["tail.partial_bytes"],
        "merge.busy_s": tracer.busy("merge"),
        "merge.states": sum(len(s) for s in states.values()),
        "state.snapshot_s": tracer.busy("state.snapshot"),
    }
    for short in SKETCHES:
        out[f"sketch.{short}.insert_s"] = tracer.busy(f"sketch.{short}.insert")
        out[f"sketch.{short}.merge_s"] = tracer.busy(f"sketch.{short}.merge")
    shutil.rmtree(scratch, ignore_errors=True)
    return out


def exact_pass(tracer: Tracer, wl, files: list[str]):
    """Sequential pass of the exact-dedup job's per-block layers: read and
    key hashing (the shuffle and sort show in the Ray Data breakdown)."""
    m = {"sources.bytes_read": 0.0, "hashing.keys": 0.0}
    with tracer.span("layers", workload=wl.name):
        for i, path in enumerate(files):
            with tracer.span("block", block=i):
                t = _read(tracer, path, None, m)
                _keyed(tracer, t, m)
    return dict(m)


def layer_metrics(
    tracer: Tracer, seq: dict, *, traced_wall: float, untraced_wall: float
) -> dict[str, float]:
    """Fill in the derived per-layer metrics shared by every workload."""
    hashing = tracer.busy("hashing")
    seq = dict(seq)
    keys = seq.pop("hashing.keys")
    seq.update(
        {
            "sources.read_s": tracer.busy("sources.read"),
            "hashing.busy_s": hashing,
            "hashing.keys_per_s": keys / hashing if hashing else 0.0,
            "runtime.overhead_s": traced_wall - sum(tracer.busy(n) for n in _JOB_LAYERS),
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }
    )
    return seq
