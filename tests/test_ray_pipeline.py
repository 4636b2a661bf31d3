"""End-to-end Ray Data pipeline tests on the reference corpus."""

import glob
import os

import pyarrow as pa
import pytest

from console_log_parser_ray.pipelines import flagship
from console_log_parser_ray.pipelines.run import conv_rollup_table
from console_log_parser_ray.stages.scan import scan_bucket_table
from console_log_parser_ray.sources.convert import logs_to_table
from tests.conftest import CORPUS, RESOURCES


@pytest.fixture(scope="module")
def corpus_table():
    paths = sorted(glob.glob(os.path.join(RESOURCES, "*.log")))
    return logs_to_table(paths)


def test_flagship_parse_matches_oracle(ray_session, corpus_table, oracle_results):
    ray = ray_session
    ds = ray.data.from_arrow(corpus_table)
    parsed = flagship.parse_sessions(ds)
    out = parsed.sort(["conv_id", "turn_idx"]).take_all()
    by_conv = {}
    for row in out:
        by_conv.setdefault(row["conv_id"], []).append(row)
    assert set(by_conv) == set(CORPUS)
    for stem, rows in by_conv.items():
        oracle = oracle_results[stem]
        assert [r["turn_idx"] for r in rows] == list(range(len(rows)))
        for i, row in enumerate(rows):
            assert row["clean_text"] == oracle.per_line[i], (
                f"{stem} turn {i}"
            )


def test_sequence_histogram_matches_oracle(ray_session, corpus_table, oracle_results):
    ray = ray_session
    ds = ray.data.from_arrow(corpus_table)
    hist = flagship.sequence_histogram(ds).take_all()
    got = {}
    for row in hist:
        if row["kind"] == "csi":
            got[row["seq"]] = row["n"]
    want = {}
    for oracle in oracle_results.values():
        for k, v in oracle.control_sequences.items():
            want[k] = want.get(k, 0) + v
    assert got == want


def test_conv_rollup(corpus_table, oracle_results):
    parsed = scan_bucket_table(corpus_table)
    roll = {r["conv_id"]: r for r in conv_rollup_table(parsed).to_pylist()}
    for stem, oracle in oracle_results.items():
        assert roll[stem]["n_cmds"] == len(oracle.cmd_rows), stem
