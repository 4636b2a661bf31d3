"""Output checks for one ``run_flagship`` call against generator truth.

Each check returns a list of problems; an empty list means the call's
outputs are correct.  The checks run outside the timed window.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq

# parsed-sink column -> generator truth column
COMPARED = {
    "clean_text": "expected_clean_text",
    "role": "expected_role",
    "cmd_count": "expected_cmd_count",
    "in_vim": "expected_in_vim",
    "command": "expected_command",
    "tool": "expected_tool",
}
KEYS = [("conv_id", "ascending"), ("turn_idx", "ascending")]


def parsed_dir(out_dir: str) -> str:
    """The sharded plan writes the parsed sink under ``sinks/``, the
    bucketed plan next to it."""
    sharded = os.path.join(out_dir, "sinks", "parsed")
    return sharded if os.path.isdir(sharded) else os.path.join(out_dir, "parsed")


def parquet_files(root: str) -> list:
    """Visible Parquet files under ``root`` (hidden tmp files excluded,
    as the pipeline's own readers exclude them)."""
    out = []
    for d, dirs, files in os.walk(root):
        dirs[:] = [x for x in dirs if not x.startswith((".", "_"))]
        out += [
            os.path.join(d, f)
            for f in files
            if f.endswith(".parquet") and not f.startswith((".", "_"))
        ]
    return sorted(out)


def check_outputs(out_dir: str, truth: pa.Table) -> list:
    problems = []
    n = truth.num_rows

    pdir = parsed_dir(out_dir)
    if not os.path.isdir(pdir):
        return [f"no parsed sink under {out_dir}"]
    got = pds.dataset(pdir, format="parquet").to_table(
        columns=["conv_id", "turn_idx", *COMPARED]
    )
    if got.num_rows != n:
        problems.append(f"parsed sink has {got.num_rows} rows, input has {n}")
    else:
        got = got.sort_by(KEYS)
        want = truth.sort_by(KEYS)
        for key, _ in KEYS:
            if not got.column(key).equals(want.column(key).cast(got.schema.field(key).type)):
                problems.append(f"parsed sink keys differ in {key}")
        if not problems:
            for col, exp in COMPARED.items():
                a = got.column(col)
                b = want.column(exp).cast(a.type)
                bad = n - pc.sum(pc.fill_null(pc.equal(a, b), False)).as_py()
                if bad:
                    problems.append(f"parsed.{col} differs from {exp} on {bad} rows")

    agg = os.path.join(out_dir, "aggregates", "counts_by_role.parquet")
    if not os.path.exists(agg):
        problems.append("aggregates/counts_by_role.parquet missing")
    else:
        t = pq.read_table(agg)
        got_counts = dict(zip(t.column("role").to_pylist(), t.column("n").to_pylist()))
        vc = truth.column("expected_role").combine_chunks().value_counts()
        want_counts = dict(
            zip(vc.field("values").to_pylist(), vc.field("counts").to_pylist())
        )
        if got_counts != want_counts:
            problems.append(f"counts_by_role {got_counts} != truth {want_counts}")

    routed = sum(
        pq.read_metadata(p).num_rows
        for p in parquet_files(os.path.join(out_dir, "sinks", "by_role"))
    )
    if routed != n:
        problems.append(f"by_role sink holds {routed} rows, input has {n}")
    return problems


def check_resume(result: dict, n_buckets: int) -> list:
    """A resume call after removing every other bucket manifest must
    re-run exactly that half and skip the rest."""
    half = n_buckets // 2
    if result.get("ran") != half or result.get("skipped") != half:
        return [
            f"resume ran {result.get('ran')}, skipped {result.get('skipped')};"
            f" expected {half} and {half}"
        ]
    return []
