"""Skew handling: giant conversations get dedicated partitions."""

import glob
import os

import pyarrow.parquet as pq
import pytest

from console_log_parser_ray.sources.synth import gen_table


@pytest.fixture(scope="module")
def skewed_input(tmp_path_factory):
    import pyarrow as pa

    d = tmp_path_factory.mktemp("skewed")
    tbl = gen_table(8, seed=3, mean_turns=20)
    # one giant conversation: ~20x the mean
    giant = gen_table(1, seed=3, mean_turns=400, start=100)
    pq.write_table(pa.concat_tables([tbl, giant]), str(d / "part-0.parquet"))
    return str(d), giant.column("conv_id")[0].as_py()


def test_heavy_conv_detection(ray_session, skewed_input):
    from console_log_parser_ray.pipelines.run import find_heavy_conversations

    path, giant_id = skewed_input
    heavy = find_heavy_conversations(path, threshold=100)
    assert giant_id in heavy
    assert all(n > 100 for n in heavy.values())


def test_heavy_conv_isolated_partition(ray_session, skewed_input, tmp_path):
    from console_log_parser_ray.pipelines.run import run_flagship

    path, giant_id = skewed_input
    out = str(tmp_path / "out")
    res = run_flagship(
        path, out, n_buckets=4, skew_threshold=100
    )
    # the giant conversation lives alone in a dedicated bucket >= 4
    found = None
    for f in glob.glob(
        os.path.join(out, "parsed", "bucket=*", "*.parquet")
    ):
        t = pq.read_table(f, columns=["conv_id"])
        convs = set(t.column("conv_id").to_pylist())
        bucket = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        if giant_id in convs:
            found = (bucket, convs)
    assert found is not None
    bucket, convs = found
    assert bucket >= 4 and convs == {giant_id}


def test_heavy_conv_sinks_in_heavy_bucket_and_resume(
    ray_session, skewed_input, tmp_path
):
    """ADVICE r1 (high): the giant conversation's routed sink rows
    (by_role / by_tool / vim_sessions) must be written under its
    dedicated heavy bucket -- not its hash bucket -- so the heavy
    bucket's manifest owns them and resume stays exactly-once."""
    import json

    from console_log_parser_ray.pipelines.run import run_flagship
    from console_log_parser_ray.state import manifests as M

    path, giant_id = skewed_input
    out = str(tmp_path / "out")
    run_flagship(path, out, n_buckets=4, skew_threshold=100)

    def sink_rows_by_bucket(sink_glob):
        got = {}
        for f in glob.glob(os.path.join(out, "sinks", sink_glob), recursive=True):
            t = pq.read_table(f, columns=["conv_id"])
            b = None
            for part in f.split(os.sep):
                if part.startswith("bucket="):
                    b = int(part.split("=")[1])
            for c in t.column("conv_id").to_pylist():
                got.setdefault(c, set()).add(b)
        return got

    role_map = sink_rows_by_bucket(os.path.join("by_role", "**", "*.parquet"))
    assert role_map[giant_id] == {4}, role_map.get(giant_id)
    tool_map = sink_rows_by_bucket(os.path.join("by_tool", "**", "*.parquet"))
    assert tool_map[giant_id] == {4}

    # heavy bucket's manifest records its sink rows
    payload = json.load(open(M.manifest_path(out, 4)))
    giant_role_rows = sum(
        v["rows"] for k, v in payload["sinks"].items()
        if k.startswith("by_role/")
    )
    assert giant_role_rows > 0

    def routed_rows():
        rows = []
        for f in glob.glob(
            os.path.join(out, "sinks", "by_role", "**", "*.parquet"),
            recursive=True,
        ):
            t = pq.read_table(f, columns=["conv_id", "turn_idx"])
            rows.extend(
                zip(t.column("conv_id").to_pylist(), t.column("turn_idx").to_pylist())
            )
        return sorted(rows)

    want = routed_rows()

    # crash scenario A: heavy bucket uncommitted -> its re-run must not
    # duplicate rows in any committed hash bucket
    os.remove(M.manifest_path(out, 4))
    M.clean_partition_outputs(out, [4])
    run_flagship(path, out, n_buckets=4, skew_threshold=100)
    assert routed_rows() == want

    # crash scenario B: a hash bucket uncommitted -> its cleanup must
    # not delete the giant's committed sink rows
    os.remove(M.manifest_path(out, 2))
    M.clean_partition_outputs(out, [2])
    run_flagship(path, out, n_buckets=4, skew_threshold=100)
    assert routed_rows() == want


def test_giant_conv_chunk_parallel_equals_sequential(
    ray_session, skewed_input, tmp_path
):
    """The chunk-parallel giant path produces the same parsed rows as a
    run without skew handling."""
    from console_log_parser_ray.pipelines.run import run_flagship

    path, giant_id = skewed_input
    plain_out = str(tmp_path / "plain")
    run_flagship(path, plain_out, n_buckets=4)
    skew_out = str(tmp_path / "skew")
    run_flagship(
        path, skew_out, n_buckets=4, skew_threshold=100
    )

    _assert_same_rows(plain_out, skew_out)


def test_giant_conv_multichunk_storage_stitch(
    ray_session, skewed_input, tmp_path
):
    """Force many small chunks (and a tiny stitch head) through the
    storage-streaming giant path: per-chunk outputs with carried
    command backfill must equal the sequential scan's rows."""
    import ray

    from console_log_parser_ray.pipelines.run import (
        _parse_giant_conversation,
        run_flagship,
    )
    from console_log_parser_ray.stages.enrich import EnrichConfig

    path, giant_id = skewed_input
    plain_out = str(tmp_path / "plain")
    run_flagship(path, plain_out, n_buckets=4)

    chunk_out = str(tmp_path / "chunked")
    cfg_ref = ray.put(EnrichConfig())
    _parse_giant_conversation(
        path, giant_id, 4, chunk_out, cfg_ref, 4, chunk_size=60, head=8
    )

    def rows(out, conv_filter=None):
        got = []
        for f in glob.glob(
            os.path.join(out, "parsed", "**", "*.parquet"), recursive=True
        ):
            t = pq.read_table(
                f,
                columns=[
                    "conv_id", "turn_idx", "clean_text", "role",
                    "cmd_count", "command", "vim_session_id", "sink",
                ],
            )
            got.extend(
                map(tuple, zip(*[t.column(c).to_pylist() for c in t.schema.names]))
            )
        if conv_filter:
            got = [r for r in got if r[0] == conv_filter]
        return sorted(got)

    assert rows(chunk_out) == rows(plain_out, conv_filter=giant_id)


def _assert_same_rows(plain_out, skew_out):

    def rows(out):
        got = []
        for f in glob.glob(
            os.path.join(out, "parsed", "**", "*.parquet"), recursive=True
        ):
            t = pq.read_table(
                f,
                columns=[
                    "conv_id", "turn_idx", "clean_text", "role",
                    "cmd_count", "command", "vim_session_id", "sink",
                ],
            )
            got.extend(map(tuple, zip(*[t.column(c).to_pylist() for c in t.schema.names])))
        return sorted(got)

    assert rows(plain_out) == rows(skew_out)


def test_giant_path_hostile_atoms_multichunk(ray_session, tmp_path):
    """Chunk-parallel storage path vs sequential scan on a hostile
    conversation built from the fuzz atoms (prompts, vim blocks, edit
    sequences, unterminated escapes), with tiny chunks and a tiny
    stitch head so convergence failures and the re-read fallback are
    exercised."""
    import random

    import pyarrow as pa
    import ray

    from console_log_parser_ray.pipelines.run import _parse_giant_conversation
    from console_log_parser_ray.stages.enrich import EnrichConfig, EnrichTurns
    from console_log_parser_ray.stages.scan import scan_bucket_table
    from tests.test_scanner_fuzz import _ATOMS

    rng = random.Random(20260817)
    texts = [
        "".join(_ATOMS[rng.randrange(len(_ATOMS))] for _ in range(rng.randint(1, 3)))
        for _ in range(400)
    ]
    tbl = pa.table(
        {
            "conv_id": pa.array(["hostile"] * len(texts), pa.string()),
            "turn_idx": pa.array(range(len(texts)), pa.int32()),
            "text": pa.array(texts, pa.string()),
            "ts": pa.array(
                [1_700_000_000_000_000 + i for i in range(len(texts))],
                pa.timestamp("us"),
            ),
        }
    )
    d = tmp_path / "in"
    d.mkdir()
    pq.write_table(tbl, str(d / "part-0.parquet"))

    out = str(tmp_path / "out")
    cfg_ref = ray.put(EnrichConfig())
    _parse_giant_conversation(
        str(d), "hostile", 2, out, cfg_ref, 2, chunk_size=37, head=5
    )

    cols = [
        "turn_idx", "clean_text", "cmd_count", "cmd_number", "command",
        "cwd", "role", "vim_session_id", "in_vim", "is_prompt",
        "osc_title", "warnings", "vim_text",
    ]
    got_files = sorted(
        glob.glob(os.path.join(out, "parsed", "**", "*.parquet"), recursive=True)
    )
    got = pa.concat_tables(
        [pq.read_table(f, columns=cols) for f in got_files]
    ).sort_by("turn_idx")
    want = EnrichTurns(EnrichConfig())(scan_bucket_table(tbl)).select(
        cols
    ).sort_by("turn_idx")
    assert got.num_rows == len(texts)
    assert got.equals(want)
