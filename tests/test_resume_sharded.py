"""Checkpoint-resume for the sharded (conv-partitioned input) plan."""

import glob
import os

import pyarrow.parquet as pq
import pytest

from console_log_parser_ray.sources.synth import gen_table
from console_log_parser_ray.state import manifests as M


@pytest.fixture(scope="module")
def sharded_input(tmp_path_factory):
    d = tmp_path_factory.mktemp("transcripts_sharded")
    for shard, start in enumerate(range(0, 12, 4)):
        tbl = gen_table(4, seed=11, mean_turns=25, start=start)
        pq.write_table(tbl, str(d / f"part-{shard}.parquet"))
    (d / "_CONV_PARTITIONED").write_text("conv_id\n")
    return str(d)


def _parsed_rows(out_dir):
    files = sorted(
        glob.glob(
            os.path.join(out_dir, "sinks", "parsed", "**", "*.parquet"),
            recursive=True,
        )
    )
    rows = []
    for f in files:
        t = pq.read_table(f, columns=["conv_id", "turn_idx", "clean_text"])
        rows.extend(
            zip(
                t.column("conv_id").to_pylist(),
                t.column("turn_idx").to_pylist(),
                t.column("clean_text").to_pylist(),
            )
        )
    return sorted(rows)


def _aggregates(out_dir):
    """{table: {key: n}} for both aggregates/ tables."""
    got = {}
    for name in ("counts_by_role", "counts_by_sink"):
        t = pq.read_table(os.path.join(out_dir, "aggregates", name + ".parquet"))
        got[name] = dict(zip(t.column(0).to_pylist(), t.column("n").to_pylist()))
    return got


def _rollup_rows(pattern):
    rows = []
    for f in glob.glob(pattern):
        rows.extend(tuple(r.values()) for r in pq.read_table(f).to_pylist())
    assert rows
    return sorted(rows)


def test_sharded_resume(ray_session, sharded_input, tmp_path):
    from console_log_parser_ray.pipelines.run import run_flagship

    clean = str(tmp_path / "clean")
    res = run_flagship(sharded_input, clean)
    assert res["partitions"] == 3 and res["ran"] == 3
    want = _parsed_rows(clean)
    assert want

    crash = str(tmp_path / "crash")
    run_flagship(sharded_input, crash)
    # lose shard 1's manifest (and leave its stale partial output)
    os.remove(M.manifest_path(crash, 1, "shard"))
    res2 = run_flagship(sharded_input, crash)
    assert res2["ran"] == 1 and res2["skipped"] == 2
    assert _parsed_rows(crash) == want
    # aggregates and routed rows cover every committed shard, not only
    # the one this call re-ran
    assert _aggregates(crash) == _aggregates(clean)
    assert res2["routed_rows"] == res["routed_rows"]

    # a no-op resume reports the same keys, with the cumulative totals
    res3 = run_flagship(sharded_input, crash)
    assert res3 == {**res, "ran": 0, "skipped": 3}
    assert _aggregates(crash) == _aggregates(clean)


def test_sharded_matches_bucketed(ray_session, sharded_input, tmp_path):
    """Both physical plans produce identical parsed rows, rollup rows
    and aggregates."""
    import shutil

    from console_log_parser_ray.pipelines.run import run_flagship

    a = str(tmp_path / "sharded")
    run_flagship(sharded_input, a)

    # strip the marker -> generic bucketed plan
    b_in = str(tmp_path / "input_nomarker")
    shutil.copytree(sharded_input, b_in)
    os.remove(os.path.join(b_in, "_CONV_PARTITIONED"))
    b = str(tmp_path / "bucketed")
    run_flagship(b_in, b, n_buckets=8)

    rows_a = _parsed_rows(a)
    files_b = sorted(
        glob.glob(os.path.join(b, "parsed", "**", "*.parquet"), recursive=True)
    )
    rows_b = []
    for f in files_b:
        t = pq.read_table(f, columns=["conv_id", "turn_idx", "clean_text"])
        rows_b.extend(
            zip(
                t.column("conv_id").to_pylist(),
                t.column("turn_idx").to_pylist(),
                t.column("clean_text").to_pylist(),
            )
        )
    assert rows_a == sorted(rows_b)
    assert _rollup_rows(
        os.path.join(a, "sinks", "conv_rollup", "shard=*", "*.parquet")
    ) == _rollup_rows(
        os.path.join(b, "sinks", "conv_rollup", "bucket=*", "*.parquet")
    )
    assert _aggregates(a) == _aggregates(b)
