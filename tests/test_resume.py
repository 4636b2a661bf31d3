"""Checkpoint-resume: a killed run's unfinished buckets re-run; finished
buckets are skipped; final sinks equal a clean run's."""

import glob
import os
import shutil

import pyarrow.parquet as pq
import pytest

from console_log_parser_ray.sources.synth import gen_table
from console_log_parser_ray.state import manifests as M


@pytest.fixture(scope="module")
def small_input(tmp_path_factory):
    d = tmp_path_factory.mktemp("transcripts")
    tbl = gen_table(12, seed=7, mean_turns=25)
    pq.write_table(tbl, str(d / "part-0.parquet"))
    return str(d)


def _parsed_rows(out_dir):
    files = sorted(glob.glob(os.path.join(out_dir, "parsed", "**", "*.parquet"), recursive=True))
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


def test_resume_completes_partial_run(ray_session, small_input, tmp_path):
    from console_log_parser_ray.pipelines.run import run_flagship

    clean_dir = str(tmp_path / "clean")
    run_flagship(small_input, clean_dir, n_buckets=8)
    want = _parsed_rows(clean_dir)
    assert len(M.completed_partitions(clean_dir)) == 8

    # simulate a crash: a full run with some buckets' work lost --
    # remove two buckets' manifests and their outputs, plus leave one
    # bucket with partial (uncommitted) output
    crash_dir = str(tmp_path / "crash")
    run_flagship(small_input, crash_dir, n_buckets=8)
    for b in (2, 5):
        os.remove(M.manifest_path(crash_dir, b))
        M.clean_partition_outputs(crash_dir, b)
        shutil.rmtree(
            os.path.join(crash_dir, "parsed", f"bucket={b}"), ignore_errors=True
        )
    # bucket 3: manifest missing but stale partial output present
    os.remove(M.manifest_path(crash_dir, 3))

    run_flagship(small_input, crash_dir, n_buckets=8)
    assert len(M.completed_partitions(crash_dir)) == 8
    assert _parsed_rows(crash_dir) == want


def test_resume_skips_completed(ray_session, small_input, tmp_path):
    from console_log_parser_ray.pipelines.run import run_flagship

    out = str(tmp_path / "out")
    run_flagship(small_input, out, n_buckets=4)
    # record mtimes of bucket-0 parsed files
    files = sorted(
        glob.glob(os.path.join(out, "parsed", "bucket=0", "*.parquet"))
    )
    mtimes = {f: os.path.getmtime(f) for f in files}
    run_flagship(small_input, out, n_buckets=4)
    for f, m in mtimes.items():
        assert os.path.getmtime(f) == m, "completed bucket was rewritten"
