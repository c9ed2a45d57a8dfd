"""Sketch aggregation: the one-scan multi-sketch pass, its parity with the
flagship's tail, and the tree merge."""

import pickle

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from streammd_ray.pipelines.flagship import SketchTail, default_sketch_specs
from streammd_ray.sketches import KLL, CountMinSketch, HyperLogLog, TDigest
from streammd_ray.stages import run_sketches, sketch_column, tree_merge
from streammd_ray.stages.sketch_agg import MERGE_FANIN
from streammd_ray.stages import sketch_agg
from streammd_ray.stages.dedup import MARK_COL


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(21)
    n = 50_000
    df = pd.DataFrame(
        {
            "conv_id": np.char.add("c", (rng.integers(0, 5000, n)).astype(str)),
            "role": rng.choice(["user", "assistant", "tool"], n, p=[0.5, 0.4, 0.1]),
            "tool": np.char.add("tool-", np.clip(rng.zipf(1.5, n), 1, 40).astype(str)),
            "text_len": rng.lognormal(5, 1, n),
        }
    )
    return df


def test_run_sketches_one_scan(ray_session, table):
    ds = rd.from_arrow(pa.Table.from_pandas(table, preserve_index=False)).repartition(8)
    merged = run_sketches(
        ds,
        {
            "convs": ("conv_id", HyperLogLog()),
            "tools": ("tool", CountMinSketch(eps=1e-3, delta=1e-3, track_heavy=8)),
            "len_td": ("text_len", TDigest()),
            "len_kll": ("text_len", KLL()),
        },
    )
    true_convs = table["conv_id"].nunique()
    est = merged["convs"].estimate()
    assert abs(est - true_convs) / true_convs < 4 * merged["convs"].relative_error

    true_top = table["tool"].value_counts()
    got_top = dict(merged["tools"].top_k(3))
    for k, v in got_top.items():
        assert v >= true_top[k]
        assert v - true_top[k] <= merged["tools"].eps * len(table)
    assert set(got_top) == set(true_top.index[:3])

    data = table["text_len"].to_numpy()
    for q in (0.1, 0.5, 0.9):
        for sk in ("len_td", "len_kll"):
            est_q = merged[sk].quantile(q)
            r = (data <= est_q).mean()
            assert abs(r - q) < 0.02, (sk, q, r)


def test_sketch_column_and_tree_merge(ray_session, table):
    ds = rd.from_arrow(pa.Table.from_pandas(table, preserve_index=False)).repartition(4)
    hll = sketch_column(ds, "conv_id", HyperLogLog())
    true_convs = table["conv_id"].nunique()
    assert abs(hll.estimate() - true_convs) / true_convs < 0.05


def test_tree_merge_many_states(ray_session):
    # more states than one MERGE_FANIN round → exercises the remote fold
    parts = []
    for i in range(70):
        h = HyperLogLog()
        h.insert_batch(np.arange(i * 1000, (i + 1) * 1000).astype(str))
        parts.append(h.to_bytes())
    assert len(parts) > MERGE_FANIN
    merged = tree_merge(parts)
    assert abs(merged.estimate() - 70_000) / 70_000 < 0.04


def test_run_sketches_is_the_tail_path(ray_session, monkeypatch):
    """The catalog scan and the flagship's tail insert through one function:
    on one block, the partials run_sketches merges are byte-equal to the
    states of one SketchTail call, for all four sketches."""
    rng = np.random.default_rng(5)
    n = 4000
    lengths = rng.integers(0, 300, n)
    text = [None if i % 97 == 0 else "x" * int(k) for i, k in enumerate(lengths)]
    batch = pa.table(
        {
            "conv_id": np.char.add("c", rng.integers(0, 600, n).astype(str)),
            "tool": np.char.add("tool-", np.clip(rng.zipf(1.5, n), 1, 40).astype(str)),
            "text": pa.array(text, pa.string()),
            MARK_COL: rng.random(n) < 0.2,
        }
    )
    specs = default_sketch_specs()
    tail_out = SketchTail(pickle.dumps(specs))(batch)
    tail_states = dict(zip(tail_out["sketch"].to_pylist(), tail_out["state"].to_pylist()))

    lens = pc.cast(pc.fill_null(pc.utf8_length(batch["text"]), 0), pa.float64())
    ds = rd.from_arrow(batch.append_column("__len", lens))
    assert ds.num_blocks() == 1
    merged_inputs = []

    def recording_merge(states, **kw):
        merged_inputs.append(list(states))
        return tree_merge(states, **kw)

    monkeypatch.setattr(sketch_agg, "tree_merge", recording_merge)
    out = run_sketches(ds, specs)
    assert set(out) == set(specs)
    scanned = dict(zip(out, merged_inputs))
    for name in specs:
        assert scanned[name] == [tail_states[name]], name


def test_tail_output_of_one_block_stays_inline(tmp_path):
    """One 12,500-row block's partial rows (the flagship's four sketches)
    fit under Ray's 100 KiB inline-object limit, so a tail task returns
    them without the object store: count-min travels as its non-zero
    cells."""
    import pyarrow.parquet as pq

    from streammd_ray.sources import generate_transcripts

    (path,) = generate_transcripts(str(tmp_path), n_turns=12_500, n_files=1, seed=7)
    batch = pq.read_table(path)
    assert batch.num_rows == 12_500
    batch = batch.append_column(MARK_COL, pa.array(np.zeros(batch.num_rows, bool)))
    out = SketchTail(pickle.dumps(default_sketch_specs()))(batch)
    assert out.nbytes < 100 * 1024


def test_prototype_pickle_carries_the_layout():
    """The tail's prototypes pickle as their state layout
    (``Sketch.__reduce__``), so count-min's zero table travels as its empty
    sparse form: under 20 KB where the attribute pickle was ~170 KB."""
    packed = pickle.dumps(default_sketch_specs())
    assert len(packed) < 20_000
    want = default_sketch_specs()
    for name, (col, proto) in pickle.loads(packed).items():
        assert col == want[name][0]
        assert proto.to_bytes() == want[name][1].to_bytes()


def test_empty_copy_shares_no_array_with_its_prototype():
    """``sketch_partials`` inserts into ``proto.empty()``: same parameters,
    fresh writable state, no memory shared with the prototype."""
    from streammd_ray.sketches import BloomFilter, SplitBlockBloomFilter

    protos = [
        *(proto for _, proto in default_sketch_specs().values()),
        BloomFilter(1e-6, n=1_000),
        SplitBlockBloomFilter(1e-6, m=1 << 14),
    ]
    for proto in protos:
        copy = proto.empty()
        assert type(copy) is type(proto)
        assert copy._compat_key() == proto._compat_key()
        assert copy.to_bytes() == proto.to_bytes()  # both empty
        arrays = [_arrays(copy), _arrays(proto)]
        assert arrays[0], proto.kind
        for a in arrays[0]:
            assert a.flags.writeable, proto.kind
            assert not any(np.shares_memory(a, b) for b in arrays[1]), proto.kind


def _arrays(sk) -> list:
    out = [v for v in vars(sk).values() if isinstance(v, np.ndarray)]
    return out + list(getattr(sk, "levels", []))
