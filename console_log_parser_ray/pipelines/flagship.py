"""Session scan and sequence histogram over any turns input.

The flagship pipeline itself -- parse -> enrich -> route -> aggregate --
is ``pipelines.run.run_flagship``: one Ray task per partition runs the
partition kernel (``process_partition``).  This module holds the scan
and the histogram for registry queries and arbitrary Datasets.  Both
run through the one keyed exchange, ``sources.cache.map_keyed``, keyed
on ``conv_id``, so a conversation-complete directory costs one task per
file and any other input one conv-bucket shuffle:

* ``parse_sessions`` runs one ``scan_bucket_table`` call per file or
  bucket (frames reassembled from asciinema, an in-memory corpus, the
  transcripts cache);
* ``sequence_histogram`` folds per-file or per-bucket statistics
  partials into the global (kind, seq) histogram without an all-to-all
  shuffle.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from ..sources.cache import map_keyed
from ..stages.scan import scan_bucket_table
from ..stages.stats import stats_table


def parse_sessions(src) -> "ray.data.Dataset":
    """The session scan of a path or Dataset of turns (conv_id,
    turn_idx, text [, ts, has_eol])."""
    return map_keyed(
        src, scan_bucket_table, columns=["conv_id", "turn_idx", "text", "ts"]
    )


def sequence_histogram(src) -> "ray.data.Dataset":
    """Global (kind, seq) histogram of a path or Dataset of turns,
    mirroring the reference's log_statistics (reference
    vtparser.py:751-787): per-call partial histograms (distinct-string
    kinds stay exact because OSC/DCS string sets are deduplicated inside
    each conversation before counting), then a narrow combine over the
    small partials."""
    partials = map_keyed(
        src, stats_table, columns=["conv_id", "turn_idx", "text"]
    )
    return _reduce_histogram(partials)


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
