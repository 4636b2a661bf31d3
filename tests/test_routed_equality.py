"""North-rule routed-row equality: every routed sink's rows equal the
parsed sink filtered by that sink's key, and per-sink aggregate counts
match both the routed rows and the committed manifests -- for both
physical plans."""

import glob
import json
import os

import pyarrow.parquet as pq
import pytest

from console_log_parser_ray.sources.synth import gen_table


def _read_rows(pattern, columns):
    rows = []
    for f in sorted(glob.glob(pattern, recursive=True)):
        t = pq.read_table(f, columns=columns)
        rows.extend(
            map(tuple, zip(*[t.column(c).to_pylist() for c in columns]))
        )
    return sorted(rows)


_KEY = ["conv_id", "turn_idx", "clean_text", "role", "sink", "cmd_count"]


def _read_partition(d, part_col, part_value):
    """Read a hive partition dir; the partition column may live in the
    path (Ray's write_parquet) or in the data (in-task fan-out)."""
    rows = []
    for f in sorted(glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)):
        t = pq.read_table(f)
        cols = []
        for c in _KEY:
            if c in t.schema.names:
                cols.append(t.column(c).to_pylist())
            elif c == part_col:
                cols.append([part_value] * t.num_rows)
            else:
                raise AssertionError(f"missing column {c} in {f}")
        rows.extend(map(tuple, zip(*cols)))
    return rows


def _check_out_dir(out, parsed_glob):
    parsed = _read_rows(parsed_glob, _KEY)
    assert parsed

    # routed-row equality: by_role partitions reassemble to exactly the
    # parsed rows, and each partition holds only its role
    by_role = []
    role_counts = {}
    for d in glob.glob(os.path.join(out, "sinks", "by_role", "role=*")):
        role = os.path.basename(d).split("=", 1)[1]
        rows = _read_partition(d, "role", role)
        assert all(r[3] == role for r in rows), f"foreign rows in role={role}"
        role_counts[role] = len(rows)
        by_role.extend(rows)
    assert sorted(by_role) == parsed

    by_tool = []
    sink_counts = {}
    for d in glob.glob(os.path.join(out, "sinks", "by_tool", "sink=*")):
        sink = os.path.basename(d).split("=", 1)[1]
        rows = _read_partition(d, "sink", sink)
        assert all(r[4] == sink for r in rows), f"foreign rows in sink={sink}"
        sink_counts[sink] = len(rows)
        by_tool.extend(rows)
    assert sorted(by_tool) == parsed

    # per-sink aggregate counts match the routed rows
    agg = pq.read_table(os.path.join(out, "aggregates", "counts_by_role.parquet"))
    agg_roles = dict(
        zip(agg.column("role").to_pylist(), agg.column("n").to_pylist())
    )
    assert agg_roles == role_counts
    agg = pq.read_table(os.path.join(out, "aggregates", "counts_by_sink.parquet"))
    agg_sinks = dict(
        zip(agg.column("sink").to_pylist(), agg.column("n").to_pylist())
    )
    assert agg_sinks == sink_counts
    return role_counts


def test_routed_row_equality_sharded(ray_session, tmp_path):
    from console_log_parser_ray.pipelines.run import run_flagship

    d = tmp_path / "in"
    d.mkdir()
    for shard, start in enumerate(range(0, 9, 3)):
        pq.write_table(
            gen_table(3, seed=21, mean_turns=30, start=start),
            str(d / f"part-{shard}.parquet"),
        )
    (d / "_CONV_PARTITIONED").write_text("conv_id\n")
    out = str(tmp_path / "out")
    run_flagship(str(d), out)
    role_counts = _check_out_dir(
        out, os.path.join(out, "sinks", "parsed", "**", "*.parquet")
    )

    # manifests carry the same per-sink row counts
    manifest_roles = {}
    for mf in glob.glob(os.path.join(out, "_manifest", "shard-*.json")):
        payload = json.load(open(mf))
        for k, v in payload["sinks"].items():
            if k.startswith("by_role/role="):
                role = k.split("=", 1)[1]
                manifest_roles[role] = manifest_roles.get(role, 0) + v["rows"]
    assert manifest_roles == role_counts


def test_routed_row_equality_bucketed(ray_session, tmp_path):
    from console_log_parser_ray.pipelines.run import run_flagship

    d = tmp_path / "in"
    d.mkdir()
    pq.write_table(
        gen_table(9, seed=22, mean_turns=30), str(d / "all.parquet")
    )
    out = str(tmp_path / "out")
    run_flagship(str(d), out, n_buckets=4)
    _check_out_dir(out, os.path.join(out, "parsed", "**", "*.parquet"))


def test_conv_rollup_table_brute_force():
    """The Arrow rollup that feeds the conv_rollup sink matches a
    brute-force per-conversation count, row for row and in
    first-appearance order of conv_id (Arrow's hash group_by alone
    reorders 100+ distinct keys, which would change the sink's bytes)."""
    import random

    import pyarrow as pa

    from console_log_parser_ray.pipelines.run import conv_rollup_table

    rng = random.Random(5)
    convs, cmds, vims = [], [], []
    for c in rng.sample(range(1000), 150):
        for _ in range(rng.randint(1, 4)):
            convs.append(f"conv{c:06d}")
            cmds.append(rng.randint(0, 9))
            vims.append(rng.choice([-1, -1, 0, 1, 2]))
    got = conv_rollup_table(
        pa.table(
            {
                "conv_id": pa.array(convs, pa.string()),
                "cmd_count": pa.array(cmds, pa.int32()),
                "vim_session_id": pa.array(vims, pa.int32()),
            }
        )
    )

    want = []
    for c in dict.fromkeys(convs):
        rows = [i for i, x in enumerate(convs) if x == c]
        want.append(
            (
                c,
                len(rows),
                max(cmds[i] for i in rows),
                len({vims[i] for i in rows if vims[i] >= 0}),
            )
        )
    assert [tuple(r.values()) for r in got.to_pylist()] == want
    assert got.schema.names == ["conv_id", "n_turns", "n_cmds", "n_vim_sessions"]
    assert all(t == pa.int64() for t in got.schema.types[1:])


def test_sink_files_follow_the_encoding_plan(ray_session, tmp_path):
    """Every sink file reads back equal to the table the kernel built,
    schema metadata included, and is written by the one encoding plan:
    integer and timestamp columns delta-packed without a dictionary,
    string columns that hold values dictionary-coded, no statistics.
    DuckDB reads each file to its manifest's row count."""
    import duckdb
    import pyarrow as pa

    from console_log_parser_ray.pipelines.run import (
        _INPUT_COLUMNS,
        _SINKS,
        _fan_out,
        run_flagship,
    )
    from console_log_parser_ray.stages.enrich import EnrichTurns
    from console_log_parser_ray.stages.scan import scan_bucket_table
    from console_log_parser_ray.state import manifests as M

    d = tmp_path / "in"
    d.mkdir()
    for shard, start in enumerate(range(0, 6, 3)):
        pq.write_table(
            gen_table(3, seed=23, mean_turns=30, start=start),
            str(d / f"part-{shard}.parquet"),
        )
    (d / "_CONV_PARTITIONED").write_text("conv_id\n")
    out = str(tmp_path / "out")
    run_flagship(str(d), out)

    checked = set()
    for s, f in enumerate(sorted(glob.glob(str(d / "*.parquet")))):
        enriched = EnrichTurns()(
            scan_bucket_table(pq.read_table(f, columns=_INPUT_COLUMNS))
        )
        want = dict(_fan_out(enriched, _SINKS))
        payload = M.read_manifest(out, s, "shard")
        assert set(payload["sinks"]) == {k for k, t in want.items() if t.num_rows}
        for sink, entry in payload["sinks"].items():
            (name,) = entry["files"]
            path = os.path.join(M.sink_dir(out, sink, s, "shard"), name)
            tbl = want[sink]
            assert pq.read_table(path).equals(tbl, check_metadata=True), path
            assert duckdb.execute(
                "select count(*) from read_parquet(?)", [path]
            ).fetchone() == (entry["rows"],)
            meta = pq.ParquetFile(path).metadata
            for rg in range(meta.num_row_groups):
                for i, field in enumerate(tbl.schema):
                    col = meta.row_group(rg).column(i)
                    assert not col.is_stats_set, (path, field.name)
                    if pa.types.is_integer(field.type) or pa.types.is_timestamp(
                        field.type
                    ):
                        assert "DELTA_BINARY_PACKED" in col.encodings
                        assert not col.has_dictionary_page
                    elif pa.types.is_string(field.type) and tbl.column(
                        i
                    ).null_count < tbl.num_rows:
                        assert col.has_dictionary_page, (path, field.name)
            checked.add(sink.split("/")[0])
    assert checked == set(_SINKS)
