"""One benchmark run: set up, run jobs closed-loop for the window, check
every job against the oracle, and report metrics by name with their units.

Load shape: a single driver process keeps one job in flight and starts the
next only when the previous one has returned its complete result (closed
loop, one client). Ray gets every CPU of the host, recorded in the output.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from . import data, hostnoise, layers
from .workloads import TEXT_FILES, TEXT_TURNS, WORKLOADS

#: object-store budget of the local Ray session
OBJECT_STORE_BYTES = 512 << 20
#: reference-kernel samples taken in each gap between timed jobs
REF_SAMPLES = 3
#: AF_UNIX socket paths are limited to 107 bytes; Ray's session directory
#: adds about 62 characters below its temp dir
_MAX_RAY_TMP = 45


def _median(xs: list) -> float:
    """Median, or 0 when no job completed (the run then reports failures)."""
    return statistics.median(xs) if xs else 0.0


def nproc() -> int:
    """The CPU count ``nproc`` reports (it honours OMP_NUM_THREADS)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True).stdout)
    except (OSError, ValueError):
        return len(os.sched_getaffinity(0))


def _ray_init(root: str, num_cpus: int) -> None:
    import ray

    ray_tmp = os.path.join(root, ".bench_tmp", "ray")
    if len(ray_tmp) > _MAX_RAY_TMP:
        print(
            f"perfbench: {ray_tmp} is too long for Ray's sockets; "
            "using Ray's default temp dir",
            file=sys.stderr,
        )
        ray_tmp = None
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=ray_tmp,
    )
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def _ref_samples() -> list[float]:
    return [hostnoise.ref_kernel_s() for _ in range(REF_SAMPLES)]


def _measure(wl, inputs, seconds: float) -> list[dict]:
    """Run jobs back to back for ``seconds``; every job is checked. A job
    that raises or fails a check is recorded as failed, never dropped.
    The reference kernel is timed before the first job and after each one,
    outside the timed job, so every job is bracketed by core-speed samples."""
    jobs = []
    meter = hostnoise.StealMeter()
    ref = _ref_samples()
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        rec: dict = {"loadavg": hostnoise.loadavg(), "ref_before_s": ref}
        meter.start()
        try:
            with hostnoise.MemSampler() as mem:
                cpu0 = hostnoise.tree_cpu_ns(mem.root)
                t0 = time.perf_counter()
                out = wl.job(inputs.files)
                rec["wall_s"] = time.perf_counter() - t0
                rec["cpu_s"] = hostnoise.cpu_seconds_between(
                    cpu0, hostnoise.tree_cpu_ns(mem.root)
                )
            rec["mem_start_bytes"] = mem.start_bytes
            rec["mem_peak_bytes"] = mem.peak_bytes
            res = wl.check(inputs, out)
            rec["fails"] = res.fails
            rec["written_bytes"] = res.written_bytes
        except Exception as exc:
            traceback.print_exc()
            rec["fails"] = [f"raised {exc!r}"]
        rec["steal"] = meter.stop()
        wl.reset()
        ref = _ref_samples()
        rec["ref_after_s"] = ref
        jobs.append(rec)
    return jobs


def _nominal_wall(job: dict) -> float:
    """The job's wall time rescaled to the nominal core speed by the median
    of the reference-kernel samples that bracket it."""
    ref = statistics.median(job["ref_before_s"] + job["ref_after_s"])
    return job["wall_s"] * hostnoise.REF_NOMINAL_S / ref


def _traced(wl, inputs, run_id: str, scratch: str, untraced_wall: float, spawn_s: float):
    """The separate traced run: one engine-traced job (Ray Data operator
    breakdown), then the sequential per-layer pass. Returns the job record,
    the per-layer metrics and the tracer."""
    rec: dict = {"traced": True}
    try:
        with layers.engine_trace() as buf:
            t0 = time.perf_counter()
            out = wl.job(inputs.files)
            rec["wall_s"] = time.perf_counter() - t0
        res = wl.check(inputs, out)
        rec["fails"] = res.fails
    except Exception as exc:
        traceback.print_exc()
        rec["fails"] = [f"raised {exc!r}"]
        return rec, None, None
    stats = wl.last_dataset.stats() if wl.kind == "exact" else buf.getvalue()
    wl.reset()
    tracer = layers.Tracer(run_id)
    metrics = {"dedup.spawn_s": spawn_s, **layers.parse_ray_stats(stats)}
    if wl.kind == "exact":
        seq = layers.exact_pass(tracer, wl, inputs.files)
    else:
        # the checkpointed runner keeps no shards: it spawns them in every
        # job, so there the spawn is one of the job's own layers
        spawned = not wl.shards
        if spawned:
            with tracer.span("dedup.spawn"):
                shards = wl.spawn()
            metrics["dedup.spawn_s"] = tracer.busy("dedup.spawn")
        else:
            shards = wl.shards
        try:
            seq = layers.flagship_pass(tracer, wl, inputs.files, shards, scratch)
        finally:
            if spawned:
                import ray

                for s in shards:
                    ray.kill(s)
        wl.reset()
        for short, name in layers.SKETCHES.items():
            metrics[f"sketch.{short}.state_bytes"] = len(res.sketches[name].to_bytes())
            metrics[f"sketch.{short}.err"] = res.sketch_errors[short]
    if res.state:
        metrics.update({f"state.{k}": v for k, v in res.state.items()})
        metrics.pop("state.manifest_bytes")
    metrics.update(
        layers.layer_metrics(
            tracer, seq, traced_wall=rec["wall_s"], untraced_wall=untraced_wall
        )
    )
    return rec, metrics, tracer


def run(
    workload: str, seed: int, seconds: float, trace: bool, root: str
) -> tuple[dict, dict]:
    """One run; returns (result line, full run record)."""
    import ray

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    all_units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    all_units["turns_per_s"] = "1/s"  # wall-clock throughput: reported, not gated
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    run_id = f"{workload}-s{seed}-t{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    wl = WORKLOADS[workload](work_dir=os.path.join(out_dir, f"work-{run_id}"))
    num_cpus = nproc()
    text_files = data.text_table(
        os.path.join(root, ".bench_cache"), seed=seed, n_turns=TEXT_TURNS, n_files=TEXT_FILES
    )
    inputs = wl.prepare(text_files)  # derivation and oracle: not timed

    t0 = time.perf_counter()
    _ray_init(root, num_cpus)
    init_s = time.perf_counter() - t0
    # the idle Ray session's own memory; peak_rss_mb is what a job adds to it
    idle_mem = hostnoise.tree_mem_bytes(os.getpid())
    try:
        spawn_s = wl.setup()
        wl.reset()
        # warm-up on two input files: it pays the worker imports, the
        # probe-kernel load and Ray Data's first execution, but not a job's
        # worth of throughput. A one-file warm-up left about a second of
        # lazy start-up to the first timed job; two files leave none.
        t0 = time.perf_counter()
        wl.job(inputs.files[:2])
        warm_s = time.perf_counter() - t0
        wl.reset()
        setup_s = init_s + warm_s + spawn_s

        jobs = _measure(wl, inputs, seconds)
        done = [j for j in jobs if "wall_s" in j]
        walls = [j["wall_s"] for j in done]
        amps = [
            (inputs.input_bytes + j["written_bytes"]) / inputs.input_bytes
            for j in done
            if "written_bytes" in j
        ]
        turns = inputs.facts.turns
        window = {
            "turns_per_ref_s": _median([turns / _nominal_wall(j) for j in done]),
            "turns_per_s": _median([turns / w for w in walls]),
            "setup_s": setup_s,
            "peak_rss_mb": _median([j["mem_peak_bytes"] - idle_mem for j in done])
            / 2**20,
            "io_amp": _median(amps),
            # CPU cost: reported, not gated (see README.md)
            "runtime.turns_per_cpu_s": _median([turns / j["cpu_s"] for j in done]),
        }
        metrics = window
        tracer = None
        if trace:
            rec, layer_metrics, tracer = _traced(
                wl,
                inputs,
                run_id,
                os.path.join(wl.work_dir, "trace"),
                _median(walls) or float("nan"),
                spawn_s,
            )
            jobs.append(rec)
            metrics = dict.fromkeys(units, 0.0)
            metrics["runtime.turns_per_cpu_s"] = window["runtime.turns_per_cpu_s"]
            if layer_metrics is not None:
                unknown = set(layer_metrics) - set(units)
                if unknown:
                    raise KeyError(f"per-layer metrics not in BENCHMARK.json: {unknown}")
                metrics.update(layer_metrics)
    finally:
        wl.release()
        ray.shutdown()
        shutil.rmtree(wl.work_dir, ignore_errors=True)

    failed = sum(1 for j in jobs if j["fails"])
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "run_id": run_id,
        "workload": workload,
        "provenance": {
            "seed": seed,
            "num_cpus": num_cpus,
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "input_turns": inputs.facts.turns,
            "input_files": len(inputs.files),
            "input_bytes": inputs.input_bytes,
            "input_fingerprint": inputs.fingerprint,
            **wl.provenance(),
        },
        "setup": {
            "init_s": init_s,
            "spawn_s": spawn_s,
            "warm_s": warm_s,
            "idle_mem_bytes": idle_mem,
        },
        "window_s": seconds,
        "window_metrics": {
            k: {"value": v, "unit": all_units[k]} for k, v in window.items()
        },
        "jobs": jobs,
        "error_rate": failed / len(jobs),
        "result": result,
    }
    with open(os.path.join(out_dir, f"{run_id}.json"), "w") as f:
        json.dump(record, f, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(out_dir, f"{run_id}.spans.jsonl"))
        record["self_times"] = tracer.self_times()
    return result, record


def report(record: dict) -> None:
    """Human-readable lines; the result JSON follows as the last line."""
    p = record["provenance"]
    print(f"perfbench {record['workload']} run {record['run_id']}")
    print("provenance " + json.dumps(p, sort_keys=True))
    s = record["setup"]
    print(
        f"setup init {s['init_s']:.3f} s, shard spawn {s['spawn_s']:.3f} s, "
        f"two-file warm-up {s['warm_s']:.3f} s"
    )
    jobs = record["jobs"]
    timed = [j for j in jobs if "mem_peak_bytes" in j]
    if timed:
        grow = statistics.median(j["mem_peak_bytes"] - j["mem_start_bytes"] for j in timed)
        print(
            f"memory idle session {s['idle_mem_bytes'] / 2**20:.1f} MiB; "
            f"median growth within a job {grow / 2**20:.1f} MiB"
        )
    walls = sorted(j["wall_s"] for j in jobs if "wall_s" in j and not j.get("traced"))
    steal = [j["steal"] for j in jobs if "steal" in j]
    if walls:
        print(
            f"jobs n={len(walls)} wall median {statistics.median(walls):.4f} s "
            f"min {walls[0]:.4f} max {walls[-1]:.4f}; steal max {max(steal):.3f}; "
            f"loadavg {jobs[0]['loadavg']} -> {jobs[-1].get('loadavg')}"
        )
    for j in jobs:
        if j["fails"]:
            print("FAILED job: " + "; ".join(j["fails"]))
    print(f"error_rate {record['error_rate']}")
    shown = record["result"]["metrics"]
    for name, m in record["window_metrics"].items():
        if name not in shown:
            print(f"  (also measured) {name} {m['value']:.6g} {m['unit']}")
    for name, m in record["result"]["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    if "self_times" in record:
        print(f"  {'span':24s} {'count':>6s} {'total_s':>10s} {'self_s':>10s}")
        for name, row in record["self_times"].items():
            print(
                f"  {name:24s} {row['count']:6d} {row['total_s']:10.4f} {row['self_s']:10.4f}"
            )
