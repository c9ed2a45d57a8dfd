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


def test_flagship_payload_light_equals_full(ray_session):
    """A pre-hashed, text-dropped (payload-light) table must mark the same
    duplicates and count the same rows as the full-payload run:
    add_key_columns passes precomputed keys through and SketchTail falls
    back to the '__len' column."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from streammd_ray.pipelines.flagship import run_flagship
    from streammd_ray.sources.transcripts import generate_transcripts
    from streammd_ray.stages.dedup import add_key_columns

    import tempfile

    with tempfile.TemporaryDirectory() as d:
        generate_transcripts(d, n_turns=20_000, seed=11, dup_frac=0.3, n_files=4)
        full = rd.read_parquet(d, columns=["conv_id", "text", "tool"])
        r_full = run_flagship(full, p=1e-9, num_shards=2)
        r_full.mark.release()

        def slim(t):
            return t.append_column(
                "__len", pc.cast(pc.utf8_length(t["text"]), pa.int64())
            ).drop_columns(["text"])

        light = add_key_columns(
            rd.read_parquet(d, columns=["conv_id", "text", "tool"]), ("text",)
        ).map_batches(slim, batch_format="pyarrow", zero_copy_batch=True)
        r_light = run_flagship(light, p=1e-9, num_shards=2)
        r_light.mark.release()

        assert r_light.counters == r_full.counters
        assert round(r_light.sketches["convs_hll"].estimate()) == round(
            r_full.sketches["convs_hll"].estimate()
        )
