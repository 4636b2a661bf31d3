"""Seeded benchmark inputs: one synthetic transcript table, two layouts.

The table comes from ``sources.synth.gen_table``, which also carries the
generator's ground truth (``expected_*`` columns).  Only the transcript
columns are written to Parquet; the truth stays in memory for the
output checks.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from console_log_parser_ray.sources.synth import gen_table

N_CONVS = 300
MEAN_TURNS = 200
N_FILES = 10
# bucketed layout: file k holds turns [k*WINDOW, (k+1)*WINDOW) of every
# conversation, the last file the remainder
WINDOW = 25

INPUT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
TRUTH_COLUMNS = [
    "conv_id",
    "turn_idx",
    "expected_clean_text",
    "expected_role",
    "expected_cmd_count",
    "expected_in_vim",
    "expected_command",
    "expected_tool",
]


def generate(seed: int, n_convs: int = N_CONVS, mean_turns: int = MEAN_TURNS) -> pa.Table:
    return gen_table(n_convs, seed, mean_turns, 0)


def write_sharded(tbl: pa.Table, in_dir: str, n_files: int = N_FILES) -> None:
    """Conversation-complete files (contiguous conv_id ranges) plus the
    ``_CONV_PARTITIONED`` marker that selects the fused sharded plan."""
    os.makedirs(in_dir)
    convs = pc.unique(tbl.column("conv_id")).to_pylist()
    per = -(-len(convs) // n_files)
    conv_col = tbl.column("conv_id")
    for k in range(n_files):
        part = convs[k * per : (k + 1) * per]
        if not part:
            break
        mask = pc.is_in(conv_col, value_set=pa.array(part, pa.string()))
        pq.write_table(
            tbl.filter(mask).select(INPUT_COLUMNS),
            os.path.join(in_dir, f"part-{k:05d}.parquet"),
        )
    open(os.path.join(in_dir, "_CONV_PARTITIONED"), "w").close()


def write_bucketed(tbl: pa.Table, in_dir: str, n_files: int = N_FILES) -> None:
    """Ingest-order files: each holds one turn window of every
    conversation, so conversations span files and the run needs the
    bucketed scatter/gather."""
    os.makedirs(in_dir)
    turn = tbl.column("turn_idx")
    for k in range(n_files):
        mask = pc.greater_equal(turn, k * WINDOW)
        if k < n_files - 1:
            mask = pc.and_(mask, pc.less(turn, (k + 1) * WINDOW))
        part = tbl.filter(mask).select(INPUT_COLUMNS)
        pq.write_table(
            part.sort_by([("turn_idx", "ascending"), ("conv_id", "ascending")]),
            os.path.join(in_dir, f"part-{k:05d}.parquet"),
        )


def truth_of(tbl: pa.Table) -> pa.Table:
    return tbl.select(TRUTH_COLUMNS)
