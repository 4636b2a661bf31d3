"""The one keyed exchange, ``sources.cache.map_keyed``, and its hash,
``state.manifests.key_buckets``.

Each per-conversation operator gives the same rows three ways: through
a conversation-complete directory (one task per file), through a plain
Dataset (the conv-bucket shuffle, at several bucket counts), and by
calling its table-level kernel in-process on the whole table.  No
reference files are needed: the kernel on the whole table is the
oracle for the exchange.  Integer-keyed operators (per user) give the
same frame at every bucket count, and integer placement is pinned to
the plain-Python formula every SQL oracle states.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from console_log_parser_ray.functions import replay
from console_log_parser_ray.pipelines import flagship
from console_log_parser_ray.sources.cache import map_keyed
from console_log_parser_ray.sources.synth import gen_table
from console_log_parser_ray.stages import (
    dedup,
    events,
    relational,
    search,
    stats,
    textan,
)
from console_log_parser_ray.stages.scan import scan_bucket_table
from console_log_parser_ray.state.manifests import key_buckets


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
    out = map_keyed(
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


@pytest.mark.parametrize("n_buckets", [1, 3, 64])
def test_int_key_buckets_pinned(n_buckets):
    """Integer placement is h32(k) % n, the formula the samplers and the
    SQL oracles state: a changed value would move rows between groups."""
    ids = [0, 1, 2**31 - 1, 2**31, 2**32 + 5, -1, 2**63 - 1]
    want = [
        ((k & 0x7FFFFFFF) * 2654435761 % 2**32) % n_buckets for k in ids
    ]
    got = key_buckets(pa.array(ids, pa.int64()), n_buckets)
    assert got.type == pa.int32()
    assert got.to_pylist() == want


@pytest.mark.parametrize(
    "keys", [[1, None, 2, None, 3, None, 4, 5], ["a", None, "b"]]
)
def test_null_keys(ray_session, keys):
    """Null integer keys are one group (SQL's PARTITION BY rule): they
    are kept and arrive together in one call.  Null string keys have no
    identity to group on and raise."""

    def calls(tbl: pa.Table) -> pa.Table:  # one row per exchange call
        return pa.table(
            {
                "n": pa.array([tbl.num_rows], pa.int64()),
                "n_null": pa.array([tbl.column("k").null_count], pa.int64()),
            }
        )

    ds = ray_session.data.from_arrow(pa.table({"k": keys})).repartition(3)
    if isinstance(keys[0], str):
        with pytest.raises(Exception, match="null 'k'"):
            map_keyed(ds, calls, key="k", n_buckets=4).materialize()
        return
    out = map_keyed(ds, calls, key="k", n_buckets=4).to_pandas()
    assert out["n"].sum() == len(keys)
    with_nulls = out[out["n_null"] > 0]
    assert with_nulls["n_null"].tolist() == [keys.count(None)]


@pytest.fixture(scope="module")
def user_tables():
    rng = np.random.default_rng(11)
    n = 400
    ev = pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "user_id": pa.array(rng.integers(0, 40, n), pa.int64()),
            "ts": pa.array(rng.integers(0, 10**10, n), pa.timestamp("us")),
            "value": pa.array(rng.normal(5.0, 3.0, n), pa.float64()),
        }
    )
    m = 120
    od = pa.table(
        {
            "o_orderkey": pa.array(np.arange(m), pa.int64()),
            "o_custkey": pa.array(rng.integers(0, 40, m), pa.int64()),
            "o_orderdate": pa.array(
                rng.integers(0, 10**10, m), pa.timestamp("us")
            ),
            "o_totalprice": pa.array(rng.normal(100.0, 20.0, m)),
        }
    )
    return ev, od


USER_OPS = {
    "sessionize": lambda ds, od, n: events.sessionize(ds, n_buckets=n),
    "running_user_totals": lambda ds, od, n: events.running_user_totals(
        ds, n_buckets=n
    ),
    "asof_join_events_orders": (
        lambda ds, od, n: events.asof_join_events_orders(ds, od, n_buckets=n)
    ),
}


@pytest.mark.parametrize("name", sorted(USER_OPS))
def test_user_key_bucket_counts(ray_session, name, user_tables):
    ev, od = user_tables
    frames = [
        _canon(
            USER_OPS[name](
                ray_session.data.from_arrow(ev).repartition(4),
                ray_session.data.from_arrow(od),
                n,
            ).to_pandas()
        )
        for n in (1, 4, 64)
    ]
    assert len(frames[0])
    for f in frames[1:]:
        pd.testing.assert_frame_equal(f, frames[0])


@pytest.fixture(scope="module")
def doc_tables(user_tables):
    """Random documents over a 12-token vocabulary (empty texts, exact
    duplicates, repeated pairs) and order windows over ``user_tables``."""
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(12)]
    texts = [
        " ".join(rng.choice(vocab, int(rng.integers(0, 9))))
        for _ in range(60)
    ]
    texts += texts[:10]
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
            "text": texts,
        }
    )
    ev, od = user_tables
    end = pc.add(od.column("o_orderdate").cast(pa.int64()), 2 * 10**9)
    windows = od.append_column("o_end", end.cast(pa.timestamp("us")))
    return docs, ev, windows


# operators keyed on a token, a content hash or an int id: each takes
# (docs, events, windows, n_buckets)
KEYED_OPS = {
    "idf_rarity": lambda d, e, w, n: textan.idf_rarity(d, n_buckets=n),
    "pmi_topk": lambda d, e, w, n: textan.pmi_topk(
        d, k=10, min_count=2, n_buckets=n
    ),
    "postings": lambda d, e, w, n: search.postings(d, n_buckets=n),
    "exact_dedup": lambda d, e, w, n: dedup.exact_dedup(
        d, n_shuffle_buckets=n
    ),
    # forced onto the join paths: the DF exchange and the text joins
    "setsim_join": lambda d, e, w, n: dedup.setsim_join(
        d,
        0.5,
        k=2,
        n_df_buckets=n,
        n_pair_buckets=n,
        max_broadcast_shingles=0,
        broadcast_pair_limit=0,
    ),
    "range_count_join": lambda d, e, w, n: relational.range_count_join(
        w,
        e,
        on="o_custkey",
        right_on="user_id",
        start_col="o_orderdate",
        end_col="o_end",
        ts_col="ts",
        keep_cols=["o_orderkey"],
        n_buckets=n,
    ),
}


@pytest.mark.parametrize("name", sorted(KEYED_OPS))
def test_keyed_op_bucket_counts(ray_session, name, doc_tables):
    docs, ev, windows = doc_tables
    data = ray_session.data
    frames = [
        _canon(
            KEYED_OPS[name](
                data.from_arrow(docs).repartition(4),
                data.from_arrow(ev).repartition(3),
                data.from_arrow(windows),
                n,
            ).to_pandas()
        )
        for n in (1, 4, 64)
    ]
    assert len(frames[0])
    for f in frames[1:]:
        pd.testing.assert_frame_equal(f, frames[0])
