"""Benchmark of record for streammd_ray: see README.md in this directory."""
