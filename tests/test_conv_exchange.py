"""The one conversation exchange, ``sources.cache.map_conversations``.

Each per-conversation operator gives the same rows three ways: through
a conversation-complete directory (one task per file), through a plain
Dataset (the conv-bucket shuffle, at several bucket counts), and by
calling its table-level kernel in-process on the whole table.  No
reference files are needed: the kernel on the whole table is the
oracle for the exchange.
"""

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from console_log_parser_ray.functions import replay
from console_log_parser_ray.pipelines import flagship
from console_log_parser_ray.sources.cache import map_conversations
from console_log_parser_ray.sources.synth import gen_table
from console_log_parser_ray.stages import dedup, stats
from console_log_parser_ray.stages.scan import scan_bucket_table


def _histogram(df: pd.DataFrame) -> pd.DataFrame:
    return df.groupby(["kind", "seq"], as_index=False)["n"].sum()


# operator, its table-level kernel, and the fold that turns per-call
# outputs into the operator's result (the histogram sums partials)
CASES = {
    "parse_sessions": (flagship.parse_sessions, scan_bucket_table, None),
    "sequence_histogram": (
        flagship.sequence_histogram,
        stats.stats_table,
        _histogram,
    ),
    "conversation_fingerprints": (
        dedup.conversation_fingerprints,
        dedup._fingerprint_rows,
        None,
    ),
    "conversation_texts": (
        dedup.conversation_texts,
        dedup._text_rows,
        None,
    ),
    "extract_events": (stats.extract_events, stats.events_table, None),
    "stream_replay": (replay.stream_replay, replay.replay_table, None),
}


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def turns():
    return gen_table(9, seed=5, mean_turns=12)


@pytest.fixture(scope="module")
def conv_dir(turns, tmp_path_factory):
    """The turns as three conversation-complete files plus the marker."""
    d = tmp_path_factory.mktemp("conv_complete")
    convs = sorted(set(turns.column("conv_id").to_pylist()))
    for i in range(3):
        part = turns.filter(
            pc.is_in(
                turns.column("conv_id"), pa.array(convs[i::3], pa.string())
            )
        )
        pq.write_table(part, str(d / f"part-{i}.parquet"))
    (d / "_CONV_PARTITIONED").write_text("conv_id\n")
    return str(d)


def _want(name, turns):
    _, kernel, fold = CASES[name]
    out = kernel(turns).to_pandas()
    return _canon(fold(out) if fold else out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_path_and_dataset_match_kernel(ray_session, name, turns, conv_dir):
    op = CASES[name][0]
    want = _want(name, turns)
    by_path = _canon(op(conv_dir).to_pandas())
    by_dataset = _canon(op(ray_session.data.from_arrow(turns)).to_pandas())
    pd.testing.assert_frame_equal(by_path, want)
    pd.testing.assert_frame_equal(by_dataset, want)


@pytest.mark.parametrize("n_buckets", [1, 4, 64])
@pytest.mark.parametrize("name", sorted(CASES))
def test_exchange_bucket_counts(ray_session, name, n_buckets, turns):
    _, kernel, fold = CASES[name]
    out = map_conversations(
        ray_session.data.from_arrow(turns), kernel, n_buckets=n_buckets
    ).to_pandas()
    pd.testing.assert_frame_equal(
        _canon(fold(out) if fold else out), _want(name, turns)
    )


def test_null_conv_id_rejected_by_both_plans(ray_session, tmp_path):
    """A null conv_id is an error in both flagship plans; the bucketed
    plan used to route such rows to a null bucket and drop them."""
    from console_log_parser_ray.pipelines.run import run_flagship

    tbl = gen_table(6, seed=3, mean_turns=10)
    conv = tbl.column("conv_id")
    first = conv[0].as_py()
    tbl = tbl.set_column(
        0,
        "conv_id",
        pc.if_else(
            pc.equal(conv, first), pa.scalar(None, pa.string()), conv
        ),
    )
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(tbl, str(src / "part-0.parquet"))
    for plan in ("bucketed", "sharded"):
        with pytest.raises(Exception, match="null 'conv_id'"):
            run_flagship(str(src), str(tmp_path / plan), plan=plan, resume=False)
