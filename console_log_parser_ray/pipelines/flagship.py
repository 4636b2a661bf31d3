"""Session scan and sequence histogram over Ray Datasets.

The flagship pipeline itself -- parse -> enrich -> route -> aggregate --
is ``pipelines.run.run_flagship``: one Ray task per partition runs the
partition kernel (``process_partition``), and for conversation-complete
files (``sources.cache.map_conv_files``) that task is also how registry
queries parse, with no exchange.  This module holds the two Dataset
shapes that are not files:

* ``parse_sessions`` scans an arbitrary Dataset of turns (frames
  reassembled from asciinema, an in-memory corpus): conversations are
  hash-bucketed and each bucket is scanned in one ``map_groups`` call,
  the one shuffle such an input needs;
* ``sequence_histogram`` folds per-bucket statistics partials into the
  global (kind, seq) histogram without an all-to-all shuffle.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from ..stages.scan import make_bucket_stats_fn, scan_bucket_table
from ..state.manifests import conv_buckets

_N_BUCKETS = 64


def add_bucket(n_buckets: int):
    """conv_id -> bucket column (stable CRC hash, the runner's bucket ids)."""

    def fn(batch):
        return batch.append_column(
            "bucket", conv_buckets(batch.column("conv_id"), n_buckets)
        )

    return fn


def _by_bucket(ds: "ray.data.Dataset", fn) -> "ray.data.Dataset":
    """Apply ``fn`` to each conv-hash bucket: whole conversations, many
    per call."""
    bucketed = ds.map_batches(add_bucket(_N_BUCKETS), batch_format="pyarrow")
    return bucketed.groupby("bucket").map_groups(fn, batch_format="pyarrow")


def parse_sessions(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """The session scan of a Dataset of turns (conv_id, turn_idx, text
    [, ts, has_eol]): one ``scan_bucket_table`` call per bucket."""
    return _by_bucket(ds, scan_bucket_table)


def sequence_histogram(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Global (kind, seq) histogram, mirroring the reference's
    log_statistics (reference vtparser.py:751-787): per-bucket partial
    histograms (distinct-string kinds stay exact because OSC/DCS string
    sets are deduplicated inside each conversation before counting),
    then a narrow combine over the small partials."""
    return _reduce_histogram(_by_bucket(ds, make_bucket_stats_fn()))


def sequence_histogram_path(input_path: str) -> "ray.data.Dataset":
    """Shuffle-free histogram for conversation-partitioned inputs: one
    stats task per input file, then the tiny partial combine."""
    import os

    from ..sources.cache import map_conv_files

    columns = ["conv_id", "turn_idx", "text"]
    if not os.path.exists(os.path.join(input_path, "_CONV_PARTITIONED")):
        return sequence_histogram(
            ray.data.read_parquet(input_path, columns=columns)
        )
    return _reduce_histogram(
        map_conv_files(input_path, make_bucket_stats_fn(), columns)
    )


def _combine_partials(batch):
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


_EMPTY_HIST = pa.table(
    {
        "kind": pa.array([], pa.string()),
        "seq": pa.array([], pa.string()),
        "n": pa.array([], pa.int64()),
    }
)
