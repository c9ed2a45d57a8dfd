"""CLI job driver — re-exposes the reference's flag surface
(/root/reference/src/streammd.cxx:34-89, studied for the contract only) on
the Ray pipeline, launchable directly or via ``ray job submit -- python -m
streammd_ray.cli ...``.

Flags mapped (SURVEY.md §2.7):
  --input / --output        parquet in/out (no stdio mode)
  -p / --fp-rate            Bloom FPR target (default 1e-6)
  -m / --mem                total filter memory budget (default 4GiB)
  --allow-overcapacity      warn instead of error when shards overflow
  --metrics FILE            metrics JSON path (default streammd-metrics.json)
  --remove-duplicates       drop marked rows from the output
  --show-capacity           print sizing and exit (planning path,
                            src/streammd.cxx:97-107 analog)
  --single                  per-conversation dedup scope (the reference's
                            reads-per-template switch analog)
  --strip-previous          clear pre-existing is_duplicate marks unless
                            re-marked
New knobs: --num-shards, --checkpoint-dir (wave-resumable fused run; parquet
in and out, arrival order, so it refuses --sort-output and --strip-previous),
--wave-size.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="streammd-ray",
        description="Mark duplicate transcript turns with a partitioned Bloom filter",
    )
    ap.add_argument("--input", required=False, help="input parquet file/dir/glob")
    ap.add_argument("--output", required=False, help="output parquet dir")
    ap.add_argument("-p", "--fp-rate", type=float, default=1e-6)
    ap.add_argument("-m", "--mem", default="4GiB")
    ap.add_argument("--allow-overcapacity", action="store_true")
    ap.add_argument("--metrics", default="streammd-metrics.json")
    ap.add_argument("--remove-duplicates", action="store_true")
    ap.add_argument("--show-capacity", action="store_true")
    ap.add_argument("--single", action="store_true", help="per-conversation scope")
    ap.add_argument("--strip-previous", action="store_true")
    ap.add_argument(
        "--sort-output",
        action="store_true",
        help="enforce stable (conv_id, turn_idx) ordering on the output "
        "(the reference's stream-order invariant; costs one range sort)",
    )
    ap.add_argument("--num-shards", type=int, default=8)
    ap.add_argument(
        "--bloom-blocked",
        action="store_true",
        help="cache-line-blocked Bloom probe layout (shorthand for "
        "--bloom-layout blocked)",
    )
    ap.add_argument(
        "--bloom-layout",
        choices=("classic", "blocked", "split", "exact"),
        default=None,
        help="Bloom probe geometry: classic = reference double-hashing "
        "(default); blocked = all k probes in one cache line; split = "
        "one bit per 64-bit lane of the line (fastest kernel, structural "
        "k=8); exact = a true 128-bit-key set, p=0 at ~16 bytes/key. "
        "Non-classic probabilistic layouts trade a documented FPR model shift for "
        "probe speed — the capacity report always shows the layout's "
        "honest marginal FPR",
    )
    ap.add_argument("--checkpoint-dir", default=None)
    ap.add_argument("--wave-size", type=int, default=8)
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--input-format", choices=("parquet", "jsonl", "csv"), default="parquet")
    ap.add_argument("--output-format", choices=("parquet", "jsonl", "csv"), default="parquet")
    ap.add_argument(
        "--key-cols",
        default="text",
        help="comma-separated dedup key columns (default: text)",
    )
    return ap


def show_capacity(args) -> dict:
    from .sketches.bloom import DEFAULT_MEM_K, capacity, parse_memspec

    nbytes = parse_memspec(args.mem)
    total_m = 8 * nbytes
    per_m = 1 << ((total_m // args.num_shards).bit_length() - 1)
    info = {
        "fp_rate": args.fp_rate,
        "mem": args.mem,
        "mem_bytes": nbytes,
        "num_shards": args.num_shards,
        "bits_per_shard_pow2": per_m,
        "k": DEFAULT_MEM_K,
        "capacity_per_shard": capacity(args.fp_rate, per_m, DEFAULT_MEM_K),
        "capacity_total": args.num_shards
        * capacity(args.fp_rate, per_m, DEFAULT_MEM_K),
    }
    return info


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

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
                ("--input-format", args.input_format != "parquet"),
                ("--output-format", args.output_format != "parquet"),
            )
            if given
        ]
        if unsupported:
            print(
                f"--checkpoint-dir cannot honour {', '.join(unsupported)}: "
                "wave runs read and write parquet in arrival order and keep "
                "previous marks",
                file=sys.stderr,
            )
            return 2

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    try:
        paths = sorted(glob.glob(args.input)) or [args.input]
        if len(paths) == 1 and os.path.isdir(paths[0]):
            ext = {"parquet": "*.parquet", "jsonl": "*.json*", "csv": "*.csv"}[
                args.input_format
            ]
            paths = sorted(glob.glob(os.path.join(paths[0], ext))) or paths

        scope = "conversation" if args.single else "global"
        key_cols = tuple(c.strip() for c in args.key_cols.split(",") if c.strip())

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
                scope=scope,
                bloom_layout=args.bloom_layout
                or ("blocked" if args.bloom_blocked else None),
                remove_duplicates=args.remove_duplicates,
                allow_overcapacity=args.allow_overcapacity,
            )
            metrics = manifest["metrics"]
        else:
            from .pipelines.mark_duplicates import compute_metrics, mark_duplicates
            from .sources.io import read_transcripts, write_transcripts

            ds = read_transcripts(paths, fmt=args.input_format)
            res = mark_duplicates(
                ds,
                key_cols=key_cols,
                scope=scope,
                p=args.fp_rate,
                mem=args.mem,
                num_shards=args.num_shards,
                remove_duplicates=args.remove_duplicates,
                strip_previous=args.strip_previous,
                materialize=True,
                bloom_blocked=args.bloom_blocked,
                bloom_layout=args.bloom_layout,
            )
            # capacity check FIRST (marking already ran via materialize=True):
            # a CapacityExceeded aborts before any output is written; with
            # --allow-overcapacity the report goes to stderr as a warning
            report = res.check_capacity(allow_overcapacity=args.allow_overcapacity)
            if report["overcapacity_shards"]:
                print(
                    f"WARNING: {report['overcapacity_shards']}/{len(report['shards'])} "
                    f"Bloom shards over capacity; max marginal FPR "
                    f"{report['max_marginal_fpr']:.3g} exceeds target {args.fp_rate} "
                    "(--allow-overcapacity given, continuing)",
                    file=sys.stderr,
                )
            write_transcripts(
                res.dataset, args.output, fmt=args.output_format, sort=args.sort_output
            )
            metrics = compute_metrics(res.marked, exact_conversations=False)

        with open(args.metrics, "w") as f:
            json.dump(metrics, f, indent=2)
        print(json.dumps(metrics))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
