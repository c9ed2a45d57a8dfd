"""CLI job driver — re-exposes the reference's flag surface
(/root/reference/src/streammd.cxx:34-89, studied for the contract only) on
the Ray pipeline, launchable directly or via ``ray job submit -- python -m
streammd_ray.cli ...``: it connects to the cluster ``RAY_ADDRESS`` names
(``ray job submit`` sets it), else starts a local Ray (also for
``RAY_ADDRESS=local``), and shuts down only a Ray it started.

A plain job is one ``run_flagship`` pass over the engine's one read
(``sources.parquet_files``, which coerces every file to TRANSCRIPTS_SCHEMA
in its read task): ``min(input files, cluster CPUs)`` fused tasks, each
over a contiguous group of files, mark, sketch and write part files into a
temporary directory beside ``--output``; the part files move into
``--output`` only once the capacity check passes. ``--sort-output``
instead rewrites them in one more pass over the same read, which reads
finished output and never marks. ``--checkpoint-dir`` runs the fused pass
in waves, each over that same read, so both modes write one schema. Input
and output are Parquet.

Flags mapped (SURVEY.md §2.7):
  --input / --output        parquet in/out (no stdio mode)
  -p / --fp-rate            Bloom FPR target (default 1e-6)
  -m / --mem                total filter memory budget (default 4GiB)
  --allow-overcapacity      warn instead of error when shards overflow
  --metrics FILE            metrics JSON path (default streammd-metrics.json)
  --remove-duplicates       drop marked rows from the output
  --show-capacity           print sizing and exit (planning path,
                            src/streammd.cxx:97-107 analog)
  --single                  per-conversation dedup: appends conv_id to
                            --key-cols (the reference's reads-per-template
                            switch analog)
  --strip-previous          clear pre-existing is_duplicate marks unless
                            re-marked
New knobs: --sort-output, --num-shards, --key-cols, --bloom-layout,
--num-cpus, --checkpoint-dir (wave-resumable fused run; arrival order,
previous marks kept, so it refuses --sort-output and --strip-previous),
--wave-size.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import tempfile

from .sketches.bloom import DEFAULT_FPR, DEFAULT_MEM
from .state.shards import shard_geometry


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="streammd-ray",
        description="Mark duplicate transcript turns with a partitioned Bloom filter",
    )
    ap.add_argument("--input", required=False, help="input parquet file/dir/glob")
    ap.add_argument("--output", required=False, help="output parquet dir")
    ap.add_argument("-p", "--fp-rate", type=float, default=DEFAULT_FPR)
    ap.add_argument("-m", "--mem", default=DEFAULT_MEM)
    ap.add_argument("--allow-overcapacity", action="store_true")
    ap.add_argument("--metrics", default="streammd-metrics.json")
    ap.add_argument("--remove-duplicates", action="store_true")
    ap.add_argument("--show-capacity", action="store_true")
    ap.add_argument("--single", action="store_true", help="append conv_id to --key-cols")
    ap.add_argument("--strip-previous", action="store_true")
    ap.add_argument(
        "--sort-output",
        action="store_true",
        help="enforce stable (conv_id, turn_idx) ordering on the output "
        "(the reference's stream-order invariant; costs one range sort)",
    )
    ap.add_argument(
        "--num-shards",
        type=int,
        default=8,
        help="Bloom filter partitions: each gets an equal share of -m, "
        "keys route by hash mod partitions, and a checkpoint pins the "
        "count; processes come from the cluster (one per CPU, at most "
        "one per partition)",
    )
    ap.add_argument(
        "--bloom-layout",
        choices=("classic", "split"),
        default="classic",
        help="Bloom probe geometry: classic = reference double-hashing "
        "(default); split = one bit per 64-bit lane of one cache line "
        "(fastest kernel, structural k=8). split trades a documented FPR "
        "model shift for probe speed — the capacity report always shows "
        "the layout's honest marginal FPR",
    )
    ap.add_argument("--checkpoint-dir", default=None)
    ap.add_argument(
        "--wave-size",
        type=int,
        default=8,
        help="input files per checkpointed wave (the checkpoint "
        "granularity); a wave runs one fused task per group of files, "
        "min(wave files, cluster CPUs) groups",
    )
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument(
        "--key-cols",
        default="text",
        help="comma-separated dedup key columns (default: text)",
    )
    return ap


def show_capacity(args) -> dict:
    from .sketches.bloom import capacity, parse_memspec

    per_m, k = shard_geometry(args.mem, args.num_shards, args.bloom_layout)
    per_shard = capacity(args.fp_rate, per_m, k)
    return {
        "fp_rate": args.fp_rate,
        "mem": args.mem,
        "mem_bytes": parse_memspec(args.mem),
        "num_shards": args.num_shards,
        "bits_per_shard_pow2": per_m,
        "k": k,
        "capacity_per_shard": per_shard,
        "capacity_total": args.num_shards * per_shard,
    }


def _warn_overcapacity(over: int, max_fpr: float, args) -> None:
    """The WARNING line for a run that --allow-overcapacity let through."""
    if over:
        print(
            f"WARNING: {over}/{args.num_shards} Bloom shards over capacity; "
            f"max marginal FPR {max_fpr:.3g} exceeds target {args.fp_rate} "
            "(--allow-overcapacity given, continuing)",
            file=sys.stderr,
        )


def _run_plain(args, paths, key_cols) -> dict:
    """One fused mark + sketch + persist pass over the engine read, and
    with ``--sort-output`` one sorting pass over the same read of its part
    files (see the module docstring)."""
    from .pipelines.flagship import run_flagship
    from .sources.io import write_transcripts
    from .sources.parquet_files import read_parquet_files

    out = os.path.abspath(args.output)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".streammd-", dir=os.path.dirname(out))
    try:
        res = run_flagship(
            read_parquet_files(paths),
            p=args.fp_rate,
            mem=args.mem,
            num_shards=args.num_shards,
            bloom_layout=args.bloom_layout,
            output_dir=tmp,
            key_cols=key_cols,
            strip_previous=args.strip_previous,
            remove_duplicates=args.remove_duplicates,
        )
        report = res.check_capacity(allow_overcapacity=args.allow_overcapacity)
        _warn_overcapacity(
            report["overcapacity_shards"], report["max_marginal_fpr"], args
        )
        parts = sorted(glob.glob(os.path.join(tmp, "*.parquet")))
        os.makedirs(out, exist_ok=True)  # also for an input of no rows
        if args.sort_output:
            write_transcripts(read_parquet_files(parts), out, sort=True)
        else:
            for part in parts:
                os.replace(part, os.path.join(out, os.path.basename(part)))
        return res.metrics()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # a bad -m, --num-shards or --wave-size is a usage error, before Ray starts
        shard_geometry(args.mem, args.num_shards, args.bloom_layout)
        if args.wave_size < 1:
            raise ValueError(f"--wave-size must be at least 1, got {args.wave_size}")
    except ValueError as e:
        parser.exit(2, f"{parser.prog}: error: {e}\n")

    if args.show_capacity:
        print(json.dumps(show_capacity(args), indent=2))
        return 0

    if not args.input or not args.output:
        print("--input and --output are required (or use --show-capacity)", file=sys.stderr)
        return 2

    if args.checkpoint_dir:
        unsupported = [
            flag
            for flag, given in (
                ("--sort-output", args.sort_output),
                ("--strip-previous", args.strip_previous),
            )
            if given
        ]
        if unsupported:
            print(
                f"--checkpoint-dir cannot honour {', '.join(unsupported)}: "
                "wave runs write in arrival order and keep previous marks",
                file=sys.stderr,
            )
            return 2

    import ray

    started = not ray.is_initialized()
    address = os.environ.get("RAY_ADDRESS") or "local"
    if started and address != "local":
        # Ray refuses num_cpus for an existing cluster
        ray.init(address=address, logging_level="ERROR")
    elif started:
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    try:
        paths = sorted(glob.glob(args.input)) or [args.input]
        if len(paths) == 1 and os.path.isdir(paths[0]):
            paths = sorted(glob.glob(os.path.join(paths[0], "*.parquet"))) or paths

        key_cols = tuple(c.strip() for c in args.key_cols.split(",") if c.strip())
        if args.single and "conv_id" not in key_cols:
            key_cols = (*key_cols, "conv_id")

        if args.checkpoint_dir:
            from .state.checkpoint import run_flagship_checkpointed

            manifest, _ = run_flagship_checkpointed(
                paths,
                ckpt_dir=args.checkpoint_dir,
                output_dir=args.output,
                wave_size=args.wave_size,
                p=args.fp_rate,
                mem=args.mem,
                num_shards=args.num_shards,
                key_cols=key_cols,
                bloom_layout=args.bloom_layout,
                remove_duplicates=args.remove_duplicates,
                allow_overcapacity=args.allow_overcapacity,
            )
            waves = manifest["waves"].values()
            _warn_overcapacity(
                max(w["overcapacity_shards"] for w in waves),
                max(w["max_marginal_fpr"] for w in waves),
                args,
            )
            metrics = manifest["metrics"]
        else:
            metrics = _run_plain(args, paths, key_cols)

        with open(args.metrics, "w") as f:
            json.dump(metrics, f, indent=2)
        print(json.dumps(metrics))
        return 0
    finally:
        if started:
            ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
