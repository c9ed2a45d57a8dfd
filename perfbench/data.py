"""Seeded workload inputs, cached under the checkout by (seed, shape).

The engine only ever sees the parquet files written here. Generation is
load-generator cost: it runs before any timed region.
"""

from __future__ import annotations

import hashlib
import os
import shutil

def _cached(path: str, build) -> list[str]:
    """Parquet files of ``path``, built by ``build(tmp_dir)`` on first use.
    The build goes to a temporary sibling that is renamed into place, so an
    interrupted build never leaves a half-written cache entry behind."""
    if not os.path.isdir(path):
        tmp = f"{path}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        build(tmp)
        try:
            os.rename(tmp, path)
        except OSError:  # another run finished the same entry first
            shutil.rmtree(tmp, ignore_errors=True)
    return sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )


def text_table(cache_dir: str, *, seed: int, n_turns: int, n_files: int) -> list[str]:
    """Full-payload synthetic transcripts (FIXTURES.md F1 defaults: 25%
    planted exact duplicates, 2% null text, zipf conversations plus one
    giant one, 40-word texts)."""
    from streammd_ray.sources.transcripts import generate_transcripts

    path = os.path.join(cache_dir, f"text-n{n_turns}-f{n_files}-s{seed}")
    return _cached(
        path,
        lambda tmp: generate_transcripts(
            tmp, n_turns=n_turns, seed=seed, n_files=n_files
        ),
    )


def fingerprint(files: list[str]) -> str:
    """Content hash of the input files, stamped on every output."""
    h = hashlib.sha256()
    for path in files:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()[:16]


def total_bytes(paths: list[str]) -> int:
    return sum(os.path.getsize(p) for p in paths)


def tree_bytes(root: str) -> int:
    """Bytes of every regular file under ``root`` (0 if it does not exist)."""
    total = 0
    for dirpath, _, names in os.walk(root):
        total += sum(os.path.getsize(os.path.join(dirpath, n)) for n in names)
    return total
