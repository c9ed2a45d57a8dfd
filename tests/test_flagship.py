"""Fused flagship pipeline: counters/metrics vs ground truth, sketch
estimates within bounds, single-pass write + sketch consistency."""

import glob

import numpy as np
import pytest
import ray.data as rd

from streammd_ray.pipelines import run_flagship
from streammd_ray.sources import generate_transcripts


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("flagdata"))
    paths, truth = generate_transcripts(
        out, n_turns=15_000, seed=31, dup_frac=0.3, return_truth=True
    )
    return out, truth.to_pandas()


def test_flagship_counters_and_sketches(ray_session, data):
    path, truth = data
    out = run_flagship(rd.read_parquet(path), p=1e-9, num_shards=4)
    out.mark.release()
    assert out.counters["turns"] == len(truth)
    assert out.counters["nulls"] == int(truth["text"].isna().sum())
    assert out.counters["dups"] == int(truth["is_duplicate"].sum())
    true_convs = truth["conv_id"].nunique()
    hll = out.sketches["convs_hll"]
    assert abs(hll.estimate() - true_convs) / true_convs < 4 * hll.relative_error
    # length quantiles within rank bounds
    lens = truth["text"].str.len().fillna(0).to_numpy()
    for q in (0.5, 0.9):
        for name in ("len_tdigest", "len_kll"):
            est = out.sketches[name].quantile(q)
            # two-sided rank interval: lengths are heavily tied, so the
            # one-sided rank jumps at tied values
            r_lo, r_hi = (lens < est).mean(), (lens <= est).mean()
            assert r_lo - 0.03 <= q <= r_hi + 0.03, (name, q, r_lo, r_hi)
    m = out.metrics()
    assert m["TURNS"] == len(truth)
    assert m["TURNS_MARKED_DUPLICATE"] == int(truth["is_duplicate"].sum())


def test_flagship_with_output_dir(ray_session, data, tmp_path):
    path, truth = data
    outdir = str(tmp_path / "marked")
    out = run_flagship(
        rd.read_parquet(path), p=1e-9, num_shards=4, output_dir=outdir
    )
    out.mark.release()
    files = glob.glob(outdir + "/*.parquet")
    assert files
    written = rd.read_parquet(outdir).to_pandas()
    assert len(written) == len(truth)
    # the written marks agree with the counters from the same pass
    assert int(written["is_duplicate"].sum()) == out.counters["dups"]
