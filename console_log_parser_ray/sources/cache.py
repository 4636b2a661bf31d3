"""Deterministic transcript datasets cached under /tmp.

The driver's testdata (``/root/testdata/sf*``) has no transcripts
table, so the engine synthesises one per scale factor -- deterministic
(seed 42), generated once, cached as partitioned Parquet.  DuckDB
oracle SQL reads the same files via ``read_parquet``, so the driver's
side-by-side comparison sees one consistent dataset.

Generation is sharded across Ray tasks (one task per conversation
range) when a Ray session is available, falling back to inline
generation for tests.  Each file holds whole conversations, which the
directory's ``_CONV_PARTITIONED`` marker records (``conv_complete``).
``ensure_enriched`` materializes the parse once per scale factor with
the flagship runner.

Per-key work (per conversation, user, group, ...) over any input runs
through one exchange, ``map_keyed``: one task per file for a
conversation-complete directory (``map_conv_files``), else one
``key_buckets`` hash column -> ``groupby`` -> ``map_groups``, for
string and integer keys alike.  ``per_key`` splits such a call's table
for kernels that take one key per call.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state.manifests import key_buckets
from .synth import gen_table

CACHE_ROOT = "/tmp/clpr_transcripts"

# scale-factor name -> (n_convs, mean_turns)
SIZES = {
    "sf0.001": (60, 40),
    "sf0.01": (500, 50),
    "sf0.1": (50000, 200),
}
_DEFAULT = (60, 40)
SEED = 42
_SHARD_CONVS = 200  # conversations per generation shard / output file


def sf_name(sf_dir: str) -> str:
    return os.path.basename(os.path.normpath(sf_dir))


def transcripts_dir(sf_dir: str) -> str:
    return os.path.join(CACHE_ROOT, sf_name(sf_dir))


def transcripts_glob(sf_dir: str) -> str:
    return os.path.join(transcripts_dir(sf_dir), "*.parquet")


ENRICHED_ROOT = "/tmp/clpr_enriched"


def enriched_dir(sf_dir: str) -> str:
    return os.path.join(ENRICHED_ROOT, sf_name(sf_dir))


def ensure_enriched(sf_dir: str) -> str:
    """Parse + enrich the transcripts ONCE per scale factor; returns the
    directory of the enriched rows, ``/tmp/clpr_enriched/<sf>/sinks/parsed``.

    The transcript-ANALYTICS query family (tool_rules, tool_transitions,
    tools_per_conv, role_runs, top_commands, vim_share, turnlen_by_role)
    treats the enriched parse output as its INPUT table; before this
    cache each of them re-ran the full session scan (the most expensive
    stage in the repo) per query.  This is the materialized-view step a
    100 TB deployment would run anyway -- pay the parse once, write
    columnar output, and let every downstream query read a
    column-pruned parquet instead of re-parsing the corpus.

    The build IS the flagship's sharded plan (``pipelines.run``), asked
    for the parsed sink alone (no query reads the routed sinks or the
    rollup): one Ray task per transcript file runs the partition
    kernel, so the parsed sink holds one conversation-complete file per
    transcript file
    (``shard=<s>/part-00000.parquet``) and per-conversation consumers
    can run one task per file (``map_conv_files``).  Same
    _SUCCESS-marker + rename protocol as ``ensure_transcripts`` so
    concurrent builders race safely; a directory without the parsed
    sink (a crashed partial build, or an older cache layout) is
    discarded and rebuilt.
    """
    import shutil

    from ..pipelines.run import _run_sharded

    src = ensure_transcripts(sf_dir)
    out = enriched_dir(sf_dir)
    parsed = os.path.join(out, "sinks", "parsed")
    done = os.path.join(out, "_SUCCESS")
    if os.path.exists(done) and os.path.isdir(parsed):
        return parsed
    if os.path.exists(out):  # a crashed partial build, or an older layout
        shutil.rmtree(out, ignore_errors=True)
    tmp = out + ".building.{}".format(os.getpid())
    # the registry reads the parsed sink alone, so only it is written
    _run_sharded(src, tmp, resume=False, sinks=("parsed",))
    with open(os.path.join(tmp, "_SUCCESS"), "w") as fh:
        fh.write("ok\n")
    try:
        os.rename(tmp, out)
    except OSError:
        if os.path.exists(done):  # lost the race
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            raise
    return parsed


def map_conv_files(path: str, fn, columns=None):
    """One Ray task per parquet file under ``path`` (sorted, recursive):
    the task reads its file column-pruned and emits ``fn(table)``.

    For conversation-complete files only (a ``_CONV_PARTITIONED``
    transcripts directory, or ``ensure_enriched``'s parsed sink): every
    conversation is whole inside one task, so per-conversation work
    needs no exchange.
    """
    import glob

    import ray.data

    files = sorted(
        glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True)
    )

    def per_file(batch: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [
                fn(pq.read_table(f, columns=columns))
                for f in batch.column("item").to_pylist()
            ]
        )

    return ray.data.from_items(files, override_num_blocks=len(files)).map_batches(
        per_file, batch_format="pyarrow", batch_size=None
    )


def conv_complete(path: str) -> bool:
    """True for a directory whose files each hold whole conversations
    (it carries the ``_CONV_PARTITIONED`` marker)."""
    return os.path.exists(os.path.join(path, "_CONV_PARTITIONED"))


_BUCKET = "__bucket"


def map_keyed(src, fn, key="conv_id", n_buckets=64, columns=None):
    """Apply ``fn`` (pyarrow.Table -> pyarrow.Table) to tables that each
    hold every row of the ``key`` values in them: whole keys (a
    conversation, a user, ...), many per call.

    ``src`` is a path, a Dataset, or a list of Datasets of one schema
    (a tagged union: each side is bucketed before the union, so the
    hash runs in that side's own map tasks instead of one more task
    per block).  A conversation-complete directory runs one task per
    file (``map_conv_files``), with no exchange.  Any other path is
    read (pruned to ``columns``) and, like a Dataset, goes through one
    exchange: ``key_buckets`` column -> ``groupby`` ->
    ``map_groups(fn)``, with the bucket column dropped before ``fn``
    sees the table.  String and integer keys hash by their own rule
    (``key_buckets``): null string keys raise, null integer keys arrive
    together in one call.  ``n_buckets`` bounds the group count (task
    dispatch), never the key cardinality; size it so one bucket's rows
    fit a worker.
    """
    import ray.data

    if isinstance(src, str):
        if conv_complete(src):
            return map_conv_files(src, fn, columns)
        src = ray.data.read_parquet(src, columns=columns)

    def add_bucket(b: pa.Table) -> pa.Table:
        return b.append_column(
            _BUCKET, key_buckets(b.column(key), n_buckets, key=key)
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        return fn(tbl.drop_columns([_BUCKET]))

    ds, *rest = [
        s.map_batches(add_bucket, batch_format="pyarrow")
        for s in (src if isinstance(src, list) else [src])
    ]
    if rest:
        ds = ds.union(*rest)
    return ds.groupby(_BUCKET).map_groups(per_bucket, batch_format="pyarrow")


def per_key(fn, key="conv_id"):
    """``fn`` called once per distinct ``key`` value of a table (in
    first-appearance order), results concatenated: for kernels that take
    exactly one key per call, run inside ``map_keyed``."""

    def run(tbl: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(tbl.column(key).combine_chunks())
        codes = enc.indices
        return pa.concat_tables(
            [
                fn(tbl.filter(pc.equal(codes, pa.scalar(c, codes.type))))
                for c in range(len(enc.dictionary))
            ]
        )

    return run


def ensure_transcripts(sf_dir: str) -> str:
    """Generate (once) and return the transcripts directory for sf_dir."""
    name = sf_name(sf_dir)
    n_convs, mean_turns = SIZES.get(name, _DEFAULT)
    out = transcripts_dir(sf_dir)
    done = os.path.join(out, "_SUCCESS")
    if os.path.exists(done):
        return out
    if os.path.exists(out):  # stale partial build from a crashed run
        import shutil

        shutil.rmtree(out, ignore_errors=True)
    tmp = out + ".building.{}".format(os.getpid())
    os.makedirs(tmp, exist_ok=True)

    shards = [
        (start, min(_SHARD_CONVS, n_convs - start))
        for start in range(0, n_convs, _SHARD_CONVS)
    ]

    try:
        import ray

        use_ray = ray.is_initialized() and len(shards) > 1
    except Exception:
        use_ray = False

    if use_ray:
        import ray

        repo_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )

        @ray.remote(num_cpus=1)
        def _gen(start, count, path):
            import sys

            if repo_root not in sys.path:
                sys.path.insert(0, repo_root)
            from console_log_parser_ray.sources.synth import gen_table as _gt

            tbl = _gt(count, seed=SEED, mean_turns=mean_turns, start=start)
            pq.write_table(tbl, path, compression="zstd")
            return tbl.num_rows

        refs = [
            _gen.remote(s, c, os.path.join(tmp, f"part-{s:07d}.parquet"))
            for s, c in shards
        ]
        ray.get(refs)
    else:
        for s, c in shards:
            tbl = gen_table(c, seed=SEED, mean_turns=mean_turns, start=s)
            pq.write_table(
                tbl, os.path.join(tmp, f"part-{s:07d}.parquet"), compression="zstd"
            )

    # conversations never span files (each shard covers a conv range),
    # so scans can run file-parallel without a conv_id shuffle
    with open(os.path.join(tmp, "_CONV_PARTITIONED"), "w") as fh:
        fh.write("conv_id\n")
    with open(os.path.join(tmp, "_SUCCESS"), "w") as fh:
        fh.write("ok\n")
    try:
        os.rename(tmp, out)
    except OSError:
        # lost the race: another process finished first
        import shutil

        if os.path.exists(done):
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            raise
    return out
