"""Flagship pipeline: parse -> enrich -> route -> aggregate.

Ray-Data-native composition over the transcripts table
(conv_id, turn_idx, role, text, tool, ts):

    read_parquet(columns pruned)
      -> groupby(conv_id).map_groups(session scan)   # the one shuffle
      -> map_batches(Enrich actor pool)              # broadcast lookups
      -> routed parquet sinks (by role / by tool / vim sessions)
      -> groupby aggregates (per-sink counts, rollups, histograms)

The session scan is the only stage that needs co-located, ordered
conversations; every downstream stage is stateless over its output and
keyed aggregations shuffle only small columns.
"""

from __future__ import annotations

import ray.data

from ..stages.scan import (
    make_scan_fn,
    make_stats_fn,
)
from ..state.manifests import conv_buckets


def read_transcripts(sf_dir: str, path: str | None = None) -> "ray.data.Dataset":
    """Read the transcripts parquet with column pruning."""
    p = path or f"{sf_dir}/transcripts.parquet"
    return ray.data.read_parquet(p, columns=["conv_id", "turn_idx", "text", "ts"])


def add_bucket(n_buckets: int):
    """conv_id -> bucket column (stable CRC hash, the runner's bucket ids)."""

    def fn(batch):
        return batch.append_column(
            "bucket", conv_buckets(batch.column("conv_id"), n_buckets)
        )

    return fn


def parse_sessions(
    ds: "ray.data.Dataset",
    suppress_map=None,
    use_fast_paths: bool = True,
    num_cpus: float = 1.0,
    n_buckets: int = 64,
    by_conversation: bool = False,
) -> "ray.data.Dataset":
    """The session-scan stage.

    Default: conversations are hash-bucketed and each bucket is scanned
    in one map_groups call (amortizes per-group overhead across many
    conversations; the partitioning key every later stage reuses).
    ``by_conversation=True`` keeps the one-group-per-conversation shape
    (used by conformance tests and for giant-conversation isolation).
    """
    fn = make_scan_fn(suppress_map=suppress_map, use_fast_paths=use_fast_paths)
    if by_conversation:
        return ds.groupby("conv_id").map_groups(
            fn, batch_format="pyarrow", num_cpus=num_cpus
        )
    bucketed = ds.map_batches(add_bucket(n_buckets), batch_format="pyarrow")
    return bucketed.groupby("bucket").map_groups(
        fn, batch_format="pyarrow", num_cpus=num_cpus
    )


def sequence_histogram(
    ds: "ray.data.Dataset", n_buckets: int = 64
) -> "ray.data.Dataset":
    """Global (kind, seq) histogram, mirroring the reference's
    log_statistics (reference vtparser.py:751-787): per-bucket partial
    histograms (distinct-string kinds stay exact because OSC/DCS string
    sets are deduplicated inside each conversation before counting),
    then a narrow groupby-sum shuffle over the small partials."""
    from ..stages.scan import make_bucket_stats_fn

    bucketed = ds.map_batches(add_bucket(n_buckets), batch_format="pyarrow")
    partials = bucketed.groupby("bucket").map_groups(
        make_bucket_stats_fn(), batch_format="pyarrow"
    )
    return _reduce_histogram(partials)


def _combine_partials(batch):
    import pyarrow as pa

    out = batch.group_by(["kind", "seq"]).aggregate([("n", "sum")])
    return pa.table(
        {
            "kind": out.column("kind"),
            "seq": out.column("seq"),
            "n": out.column("n_sum"),
        }
    )


def _reduce_histogram(partials: "ray.data.Dataset") -> "ray.data.Dataset":
    """Merge tiny (kind, seq, n) partials without an all-to-all shuffle:
    a distributed combine stage collapses each batch of partials to at
    most one row per key (bounded by the sequence vocabulary, a few
    thousand), then one driver-side Acero group_by finishes the already
    mostly-merged stream.  A sort-based groupby here costs seconds of
    barrier overhead to aggregate kilobytes."""
    import pyarrow as pa

    import ray.data

    # batch_size=None: combine per block -- a concrete batch size makes
    # Ray re-bundle many small partial blocks into one batch, which
    # serializes the whole upstream stage behind the bundler
    reduced = partials.map_batches(
        _combine_partials, batch_format="pyarrow", batch_size=None
    )
    tables = list(reduced.iter_batches(batch_format="pyarrow", batch_size=None))
    merged = _combine_partials(
        pa.concat_tables(tables) if tables else _EMPTY_HIST
    )
    return ray.data.from_arrow(merged)


import pyarrow as _pa  # noqa: E402

_EMPTY_HIST = _pa.table(
    {
        "kind": _pa.array([], _pa.string()),
        "seq": _pa.array([], _pa.string()),
        "n": _pa.array([], _pa.int64()),
    }
)


def sequence_histogram_path(input_path: str) -> "ray.data.Dataset":
    """Shuffle-free histogram for conversation-partitioned inputs: one
    stats task per input file, then the tiny partial groupby-sum."""
    import glob as _g
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..stages.scan import make_bucket_stats_fn

    if not os.path.exists(os.path.join(input_path, "_CONV_PARTITIONED")):
        return sequence_histogram(
            ray.data.read_parquet(
                input_path, columns=["conv_id", "turn_idx", "text"]
            )
        )
    files = sorted(_g.glob(os.path.join(input_path, "*.parquet")))
    stats_fn = make_bucket_stats_fn()

    def per_file(batch: pa.Table) -> pa.Table:
        outs = []
        for item in batch.column("item").to_pylist():
            tbl = pq.read_table(
                item, columns=["conv_id", "turn_idx", "text"]
            )
            outs.append(stats_fn(tbl))
        return pa.concat_tables(outs)

    partials = ray.data.from_items(
        files, override_num_blocks=len(files)
    ).map_batches(per_file, batch_format="pyarrow", batch_size=None)
    return _reduce_histogram(partials)


def sink_counts(parsed: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-sink routed-row counts (role sinks)."""
    return parsed.groupby("role").count().rename_columns({"count()": "n"})


def conv_rollup(
    parsed: "ray.data.Dataset", n_buckets: int = 64
) -> "ray.data.Dataset":
    """Per-conversation rollup: turns, command rows, vim sessions.

    Conversations never span buckets, so per-bucket groups compute the
    per-conversation aggregates with one vectorized group_by per bucket
    instead of one task per conversation."""
    from .run import conv_rollup_table

    if "bucket" in (parsed.schema().names or []):
        return parsed.groupby("bucket").map_groups(
            conv_rollup_table, batch_format="pyarrow"
        )
    bucketed = parsed.map_batches(add_bucket(n_buckets), batch_format="pyarrow")
    return bucketed.groupby("bucket").map_groups(
        conv_rollup_table, batch_format="pyarrow"
    )
