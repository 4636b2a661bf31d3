"""Checkpoint-resumable flagship run: parse -> enrich -> route -> aggregate.

Two physical plans share one logical pipeline and one partition kernel,
``process_partition``: read -> session scan -> enrich -> multi-sink
Parquet fan-out (parsed / by_role / by_tool / vim_sessions /
conv_rollup) -> lineage manifest commit, all inside one Ray task, so
every partition is an independent checkpoint:

* **Sharded** (input partitioned by conversation at ingest, marked with
  ``_CONV_PARTITIONED``): the input shard is the unit of work AND the
  unit of recovery.  One task per shard runs the kernel.  No shuffle,
  no re-read, and raw text never crosses the object store.

* **Bucketed** (arbitrary input): a storage scatter-gather shuffle.
  Phase 1 reads each input file once and scatters its rows into
  per-conversation-bucket staged parquet (deterministic names, atomic
  writes -- retries are idempotent); phase 2 runs the kernel once per
  bucket over its staged files.  The staged files ARE the shuffle's
  spill -- the same externalized exchange a multi-node run would use,
  without the sample-sort barrier of an in-memory groupby.
  Conversations above ``skew_threshold`` turns get dedicated heavy
  partitions parsed chunk-parallel (``_giant_steps``), streaming chunk
  ranges from storage: speculative chunk scans, a driver-side stitch
  and one finalize task per chunk, all on the kernel's one session
  scan; each finalize task runs the kernel's enrich and sink fan-out
  (``enrich_and_write``) on its chunk.
  The bucket count comes from the input's row count (Parquet footers)
  and the CPU count, ``bucket_count``: ~4 buckets per CPU, but no
  bucket below ``MIN_ROWS`` rows (each bucket pays a fixed cost in
  sink files, a manifest and a task) and none above ``MAX_ROWS`` rows
  (task memory).  The first attempt pins the count for every resume.

Either way, a restarted run skips committed partitions, wipes
uncommitted partial output first, and re-runs only the remainder --
sinks are exactly-once at partition granularity.  The aggregates and
``routed_rows`` come from ALL committed manifests, so a resumed run
reports the same totals as a clean one.

Every partition and scatter chunk is one plain Ray task (``_run_tasks``),
retried as a Ray Data map task would be.  A run starts no Ray Data
executor, so no ``_StatsActor`` or ``AutoscalingRequester`` sits beside
the kernel; only ``skew_threshold``'s heavy-conversation pre-pass
(``find_heavy_conversations``) is a Ray Data groupby.  The driver waits
for every task in Python on the calling thread (``_wait``; several
giants are interleaved there, not run from threads), so a caller's
signal handler -- a time limit -- interrupts a run at once, and the
run cancels its tasks.

Every file a run writes -- sinks, staged scatter files, aggregates --
goes through one writer, ``_atomic_write_table``, with one encoding
plan read off the Arrow types: integers and timestamps delta-packed,
strings dictionary-coded, no statistics (no reader filters these
files).
"""

from __future__ import annotations

import collections
import functools
import math
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..sources.cache import conv_complete
from ..stages.enrich import EnrichConfig, EnrichTurns
from ..stages.scan import scan_bucket_table
from ..state import manifests as M
from ..vt.chunked import finalize, speculate, stitch

_INPUT_COLUMNS = ["conv_id", "turn_idx", "text", "ts"]

# every sink a partition writes; the enriched-rows cache
# (``sources.cache.ensure_enriched``) asks for ``("parsed",)`` alone
_SINKS = ("parsed", "by_role", "by_tool", "vim_sessions", "conv_rollup")

# Bucketed plan sizing (see ``bucket_count``).  A bucket's fixed cost --
# ~12 sink files, a manifest, a Ray task, its cleanup -- is ~37-41 ms,
# and a row costs ~7.4 us of a bucketed call, ~3.5 us of it the scan
# (1 CPU, perfbench seeds 201-202: wall fitted over 1-16 buckets).  At
# MIN_ROWS the fixed cost is ~25% of a bucket's time; MIN_ROWS stays as
# it is because it also fixes the bucket layout that existing outputs
# and the ``resume`` benchmark were written with.  MAX_ROWS bounds one
# gather task's memory on small hosts.
MIN_ROWS = 16_384
MAX_ROWS = 262_144


def run_flagship(
    input_path: str,
    out_dir: str,
    n_buckets: int | None = None,
    cfg: EnrichConfig | None = None,
    resume: bool = True,
    skew_threshold: int | None = None,
    plan: str | None = None,
):
    """Run the full pipeline; returns summary metrics dict.

    ``plan``: force "sharded" or "bucketed" (default: sharded when the
    input carries the ``_CONV_PARTITIONED`` marker, else bucketed).
    """
    conv_partitioned = (
        conv_complete(input_path) if plan is None else plan == "sharded"
    )
    if conv_partitioned:
        return _run_sharded(input_path, out_dir, cfg=cfg, resume=resume)
    return _run_bucketed(
        input_path,
        out_dir,
        n_buckets=n_buckets,
        cfg=cfg,
        resume=resume,
        skew_threshold=skew_threshold,
    )


# ---------------------------------------------------------------------------
# the partition kernel
# ---------------------------------------------------------------------------


def process_partition(
    out_dir: str, kind: str, pid: int, paths: list, cfg_ref, lineage: dict,
    sinks: tuple = _SINKS,
):
    """One partition, start to commit: read its input files, scan ->
    enrich -> write each of ``sinks`` -> commit its manifest.  A
    partition with no input files commits an empty manifest so resume
    bookkeeping stays complete.  Null conv_ids are rejected, as the
    bucketed plan's hash rejects them."""
    enriched = None
    written = {}
    if paths:
        tbl = pa.concat_tables(
            [pq.read_table(p, columns=_INPUT_COLUMNS) for p in paths]
        )
        if tbl.column("conv_id").null_count:
            raise M.null_key_error("conv_id")
        enriched, written = enrich_and_write(
            out_dir, kind, pid, scan_bucket_table(tbl), cfg_ref, sinks
        )
    commit_partition(out_dir, kind, pid, lineage, written, enriched)


def enrich_and_write(
    out_dir: str, kind: str, pid: int, scanned: pa.Table, cfg_ref,
    sinks: tuple, part: str = "part-00000",
):
    """Enrich a partition's scanned rows and write them as its ``part``
    file in each of ``sinks``; returns ``(enriched, {sink: {rows,
    files}})``."""
    enriched = EnrichTurns(cfg_ref)(scanned)
    return enriched, write_sinks(
        out_dir, kind, pid, _fan_out(enriched, sinks), part
    )


def _fan_out(enriched: pa.Table, sinks: tuple):
    """(sink, table) pairs of the wanted ``sinks``, each built only when
    wanted; the sink name is the manifest key."""
    if "parsed" in sinks:
        yield "parsed", enriched
    if "by_role" in sinks:
        for role in pc.unique(enriched.column("role")).to_pylist():
            yield (
                f"by_role/role={role}",
                enriched.filter(pc.equal(enriched.column("role"), role)),
            )
    if "by_tool" in sinks:
        for sink in pc.unique(enriched.column("sink")).to_pylist():
            yield (
                f"by_tool/sink={sink}",
                enriched.filter(pc.equal(enriched.column("sink"), sink)),
            )
    if "vim_sessions" in sinks:
        vim = enriched.filter(pc.is_valid(enriched.column("vim_text")))
        yield "vim_sessions", vim.select(
            ["conv_id", "turn_idx", "ts", "vim_session_id", "vim_text"]
        )
    if "conv_rollup" in sinks:
        yield "conv_rollup", conv_rollup_table(enriched)


def write_sinks(
    out_dir: str, kind: str, pid: int, tables, part: str = "part-00000"
) -> dict:
    """Write (sink, table) pairs as one partition's ``part`` file in
    each sink; returns the manifest's ``{sink: {rows, files}}``.

    File names are deterministic per (partition, part), so a retried
    task overwrites its own partial output instead of duplicating rows.
    """
    sinks = {}
    for sink, sub in tables:
        if sub.num_rows == 0:
            continue
        d = M.sink_dir(out_dir, sink, pid, kind)
        os.makedirs(d, exist_ok=True)
        # tmp + rename: a task re-executed after its manifest committed
        # (lineage reconstruction) that dies mid-write must never leave
        # a truncated file behind a committed manifest
        _atomic_write_table(sub, os.path.join(d, part + ".parquet"))
        sinks[sink] = {"rows": sub.num_rows, "files": [part + ".parquet"]}
    return sinks


def commit_partition(
    out_dir: str, kind: str, pid: int, lineage: dict, sinks: dict, counted
):
    """Write the partition's lineage manifest: input lineage, rows and
    files per sink, and the role/sink counts of ``counted`` (the
    partition's enriched rows, or None when it has none).  Written last,
    so a manifest exists only for a partition whose sinks are whole."""
    has_rows = counted is not None
    M.write_manifest(
        out_dir,
        pid,
        {
            kind: pid,
            **lineage,
            "sinks": sinks,
            "role_counts": _counts(counted.column("role")) if has_rows else {},
            "sink_counts": _counts(counted.column("sink")) if has_rows else {},
        },
        kind,
    )


def conv_rollup_table(parsed: pa.Table) -> pa.Table:
    """Per-conversation rollup rows -- turns, highest command count and
    distinct vim sessions -- in first-appearance order of conv_id."""
    vim = parsed.column("vim_session_id")
    grouped = (
        pa.table(
            {
                "conv_id": parsed.column("conv_id"),
                "cmd_count": parsed.column("cmd_count"),
                # a negative id marks a turn outside any vim session
                "vim": pc.if_else(pc.less(vim, 0), None, vim),
                "row": pa.array(range(parsed.num_rows), pa.int64()),
            }
        )
        .group_by("conv_id", use_threads=False)
        .aggregate(
            [
                ([], "count_all"),
                ("cmd_count", "max"),
                ("vim", "count_distinct"),
                ("row", "min"),
            ]
        )
        # group_by does not promise first-appearance order of its groups
        .sort_by("row_min")
    )
    return pa.table(
        {
            "conv_id": grouped.column("conv_id"),
            "n_turns": grouped.column("count_all"),
            "n_cmds": pc.cast(grouped.column("cmd_count_max"), pa.int64()),
            "n_vim_sessions": grouped.column("vim_count_distinct"),
        }
    )


def _run_tasks(fn, calls: list):
    """Run ``fn(*args)`` for each ``args`` in ``calls``, one plain
    one-CPU Ray task each, and wait for all of them (``_wait``).

    The tasks keep the fault semantics of a Ray Data map task
    (``ray/data/_internal/remote_fn.py``): a task is retried without
    limit when its worker dies (``max_retries=-1``), and also when it
    raises ``RaySystemError``; any other exception fails the run.  A
    retry is idempotent: every file a task writes has a deterministic
    name and is written atomically (tmp + rename), and a manifest is
    written only after its partition's sinks are whole."""
    import ray

    task = ray.remote(
        num_cpus=1,
        max_retries=-1,
        retry_exceptions=[ray.exceptions.RaySystemError],
    )(fn)
    refs = []
    try:
        for args in calls:
            refs.append(task.remote(*args))
        _wait(refs)
    except BaseException:
        _cancel(refs)
        raise


def _wait(refs: list) -> list:
    """The values of ``refs``; the first task error wins.

    The driver waits on the tasks' futures, not inside ``ray.get``:
    ``ray.get`` runs signal handlers in its own C++ wait and turns an
    exception they raise (a caller's SIGALRM time limit) into a
    ``SystemError``, or drops it, while a wait in Python lets it
    through as raised.  Whoever launched the tasks cancels them on
    any exception (``_cancel``), so none of them outlives the call."""
    import concurrent.futures as cf

    futs = [r.future() for r in refs]
    cf.wait(futs, return_when=cf.FIRST_EXCEPTION)
    return [f.result() for f in futs]


def _cancel(refs: list):
    """Stop the tasks of ``refs`` now.  ``force`` ends a running task's
    worker: a plain cancel only interrupts Python bytecode, so a task
    inside a native call (a sleep, a Parquet write) would run on.  Its
    writes are atomic, and a cancelled task is not retried."""
    import ray

    for r in refs:
        ray.cancel(r, force=True)


def _atomic_write_table(tbl: pa.Table, path: str):
    """zstd parquet write via tmp + rename: readers (and resume) never
    observe a truncated file, even if the writer dies mid-write.

    Every file the flagship writes -- sinks, staged scatter files and
    aggregates -- is written here, with one encoding plan read off the
    Arrow types:

    * integer and timestamp columns: ``DELTA_BINARY_PACKED``, no
      dictionary.  ``turn_idx``, ``ts`` and the command counters rise
      in small steps within a conversation, which delta coding packs
      into a few bits per value; a dictionary of near-distinct values
      costs a dictionary entry plus an index per value.
    * every other column keeps the writer's default: strings (roles,
      sinks, tools, repeated prompts and commands) are dictionary-coded;
      booleans never are.  (Flagship tables are flat; a nested column
      would be written without a dictionary.)
    * no min/max statistics: no reader filters these files -- the one
      Parquet predicate in the package reads the flagship's input -- so
      they would cost write time and bytes for nothing.

    Rows, schema and schema metadata read back unchanged, and the bytes
    stay a pure function of the table."""
    delta = [
        f.name
        for f in tbl.schema
        if pa.types.is_integer(f.type) or pa.types.is_timestamp(f.type)
    ]
    # dot-prefixed tmp name: pyarrow/Ray dataset discovery ignores
    # hidden files, so a crash-orphaned tmp can never pollute a read
    d, base = os.path.split(path)
    tmp = os.path.join(d, "." + base + ".tmp")
    pq.write_table(
        tbl,
        tmp,
        compression="zstd",
        use_dictionary=[n for n in tbl.schema.names if n not in delta],
        column_encoding=dict.fromkeys(delta, "DELTA_BINARY_PACKED"),
        write_statistics=False,
    )
    os.replace(tmp, path)


def _value_counts(col):
    vc = col.combine_chunks().value_counts() if isinstance(
        col, pa.ChunkedArray
    ) else col.value_counts()
    return (
        vc.field("values").to_pylist(),
        vc.field("counts").to_pylist(),
    )


def _counts(col) -> dict:
    vals, ns = _value_counts(col)
    return dict(zip(vals, ns))


def _write_aggregates_from_manifests(out_dir: str, kind: str) -> int:
    """Cumulative per-sink counts from ALL committed manifests of the
    plan's partition kind (tiny): a resumed run's aggregates cover the
    skipped partitions too.  Returns the routed (by_role) row total."""
    role_total = collections.Counter()
    sink_total = collections.Counter()
    routed = 0
    for pid in sorted(M.completed_partitions(out_dir, kind)):
        payload = M.read_manifest(out_dir, pid, kind)
        role_total.update(payload["role_counts"])
        sink_total.update(payload["sink_counts"])
        routed += sum(
            v["rows"]
            for k, v in payload["sinks"].items()
            if k.startswith("by_role/")
        )

    agg_dir = os.path.join(out_dir, "aggregates")
    os.makedirs(agg_dir, exist_ok=True)
    for key, total in (("role", role_total), ("sink", sink_total)):
        _atomic_write_table(
            pa.table(
                {
                    key: pa.array(list(total), pa.string()),
                    "n": pa.array(list(total.values()), pa.int64()),
                }
            ),
            os.path.join(agg_dir, f"counts_by_{key}.parquet"),
        )
    return routed


# ---------------------------------------------------------------------------
# sharded plan
# ---------------------------------------------------------------------------


def _run_sharded(input_path, out_dir, cfg=None, resume=True, sinks=_SINKS):
    """Conversation-complete input: one ``process_partition`` task per
    input file, writing ``sinks`` (the manifests record only those)."""
    import glob as _g

    import ray

    os.makedirs(out_dir, exist_ok=True)
    in_files = sorted(_g.glob(os.path.join(input_path, "*.parquet")))
    done = M.completed_partitions(out_dir, "shard") if resume else set()
    todo = [s for s in range(len(in_files)) if s not in done]
    M.clean_partition_outputs(out_dir, todo, "shard")
    cfg_ref = ray.put(cfg or EnrichConfig())
    _run_tasks(
        process_partition,
        [
            (
                out_dir, "shard", s, [in_files[s]], cfg_ref,
                {"input": in_files[s]}, sinks,
            )
            for s in todo
        ],
    )
    return {
        "partitions": len(in_files),
        "ran": len(todo),
        "skipped": len(done),
        "routed_rows": _write_aggregates_from_manifests(out_dir, "shard"),
    }


# ---------------------------------------------------------------------------
# bucketed plan (generic inputs)
# ---------------------------------------------------------------------------


def _scatter(
    paths: list, idx: int, staging: str, n_buckets: int, wanted: frozenset,
    heavy_ids: dict,
):
    """Scatter one chunk of input files (phase 1 of the storage
    shuffle, one Ray task per chunk): read the chunk, assign
    conversation buckets, and write one staged parquet per wanted
    bucket it touches.

    One staged file per (bucket, chunk) instead of per (bucket, file)
    keeps the staged-file count, and its open/footer overhead on the
    gather side, an order of magnitude down.  File names are
    deterministic per (bucket, chunk index ``idx``) and writes are
    atomic, so a retried scatter task overwrites its own staged output
    byte-identically instead of duplicating rows.
    """
    tbl = pa.concat_tables(
        [pq.read_table(p, columns=_INPUT_COLUMNS) for p in paths]
    )
    buckets = M.key_buckets(tbl.column("conv_id"), n_buckets, heavy_ids)
    for b in pc.unique(buckets).to_pylist():
        if b not in wanted:
            continue
        d = os.path.join(staging, f"bucket={b}")
        os.makedirs(d, exist_ok=True)
        _atomic_write_table(
            tbl.filter(pc.equal(buckets, b)),
            os.path.join(d, f"src-{idx:06d}.parquet"),
        )


# ---------------------------------------------------------------------------
# giant-conversation path (skew isolation + chunk-parallel scan)
# ---------------------------------------------------------------------------


def _conv_dataset_filter(conv_id: str, lo=None, hi=None):
    import pyarrow.dataset as pds

    f = pds.field("conv_id") == conv_id
    if lo is not None:
        f = f & (pds.field("turn_idx") >= lo)
    if hi is not None:
        f = f & (pds.field("turn_idx") <= hi)
    return f


def _read_conv_range(input_path, conv_id, columns, lo=None, hi=None):
    import pyarrow.dataset as pds

    dset = pds.dataset(input_path)
    tbl = dset.to_table(
        columns=columns, filter=_conv_dataset_filter(conv_id, lo, hi)
    )
    return tbl.sort_by("turn_idx")


def _parse_giant_conversation(*args, **kwargs):
    """Parse one oversized conversation to its commit (``_giant_steps``)."""
    _interleave([functools.partial(_giant_steps, *args, **kwargs)])


def _interleave(giants: list):
    """Run ``_giant_steps`` calls (partials lacking only ``launched``)
    round robin in this thread: each ``next`` runs one giant up to its
    next phase boundary, so one giant's driver-side stitch walk runs
    while the other giants' tasks are in flight.  Every wait stays in
    the calling thread, where a caller's signal handler can interrupt
    it (``_wait``); on any exception every task that any giant has
    launched is cancelled."""
    launched = []
    steps = [giant(launched=launched) for giant in giants]
    end = object()
    try:
        while steps:
            steps = [g for g in steps if next(g, end) is not end]
    except BaseException:
        _cancel(launched)
        raise


def _giant_steps(
    input_path,
    conv_id,
    bucket_id,
    out_dir,
    cfg_ref,
    n_buckets,
    chunk_size=None,
    head=256,
    n_cpus=None,
    *,
    launched: list,
):
    """Parse one oversized conversation chunk-parallel, streaming chunk
    ranges from storage, and write its full sink set under its
    dedicated heavy bucket.  A generator for ``_interleave``: it yields
    after phases 1 and 2, and appends each task it launches to
    ``launched`` as soon as it is launched.

    Three phases of ``vt.chunked``'s scheme, each on the one session
    scan (``stages.scan._scan_rows``); none materializes the
    conversation anywhere:

    1. **Speculative scans**: one Ray task per chunk, the first
       included, READS ITS OWN turn range from storage (Parquet
       predicate pushdown on conv_id + turn_idx) and returns only
       stitch metadata (``chunked.speculate``), no records.
    2. **Stitch walk** (driver, sequential but bounded per boundary;
       ``chunked.stitch``): the true scanner crosses each boundary by
       re-scanning at most ``head`` lines (terminal sessions
       re-synchronize at prompts; a chunk that fails to converge is
       re-read and walked to its end -- the sequential worst case,
       never an error).  It yields each chunk's true start scanner and
       the conversation-wide command/cwd backfill maps.
    3. **Finalize tasks** (parallel): each re-reads its chunk, scans it
       from its true start scanner against the complete maps
       (``chunked.finalize``) and runs the partition kernel's enrich and
       sink fan-out on it, as that chunk's part file in every sink but
       the rollup.  The driver writes the conversation's one rollup row
       from the returned count columns and commits the manifest.

    Without ``chunk_size``, chunks are sized for ~2 per CPU of the
    cluster's ``n_cpus``.

    Routed sink rows land under ``bucket=<heavy id>`` so the heavy
    bucket's manifest owns them and resume stays exactly-once (a hash
    bucket's cleanup can never delete them).
    """
    import ray

    lineage = {"input": input_path, "n_buckets": n_buckets}
    idxs = (
        _read_conv_range(input_path, conv_id, ["turn_idx"])
        .column("turn_idx")
        .to_pylist()
    )
    n = len(idxs)
    if n == 0:
        commit_partition(out_dir, "bucket", bucket_id, lineage, {}, None)
        return
    if chunk_size is None:
        chunk_size = max(500, n // max(2 * n_cpus, 4))
    # each chunk's first and last turn_idx
    ranges = [
        (idxs[b], idxs[min(b + chunk_size, n) - 1]) for b in range(0, n, chunk_size)
    ]

    def read(k, columns=("turn_idx", "text")):
        return _read_conv_range(input_path, conv_id, list(columns), *ranges[k])

    @ray.remote(num_cpus=1)
    def _speculate(k):
        return speculate(read(k).column("text"), head)

    @ray.remote(num_cpus=1)
    def _finalize(k, sc, carry):
        enriched, sinks = enrich_and_write(
            out_dir, "bucket", bucket_id, finalize(read(k, _INPUT_COLUMNS), sc, carry),
            cfg_ref,
            # the driver writes the rollup, once for the conversation
            _SINKS[:-1],
            part=f"part-{k:05d}",
        )
        return sinks, enriched.select(
            ["conv_id", "cmd_count", "vim_session_id", "role", "sink"]
        )

    def launch(task, calls):
        refs = []
        for args in calls:
            refs.append(task.remote(*args))
            launched.append(refs[-1])
        return refs

    spec_refs = launch(_speculate, [(k,) for k in range(len(ranges))])
    yield

    starts, carry = stitch(
        (_wait([ref])[0] for ref in spec_refs), lambda k: read(k).column("text")
    )
    carry_ref = ray.put(carry)
    refs = launch(_finalize, [(k, sc, carry_ref) for k, sc in enumerate(starts)])
    yield

    sinks = {}
    parts = _wait(refs)
    for chunk_sinks, _ in parts:
        for k, v in chunk_sinks.items():
            cur = sinks.setdefault(k, {"rows": 0, "files": []})
            cur["rows"] += v["rows"]
            cur["files"].extend(v["files"])
    # the rollup row covers the whole conversation, so it is written once
    # here rather than per chunk
    counted = pa.concat_tables([t for _, t in parts])
    sinks.update(
        write_sinks(
            out_dir, "bucket", bucket_id,
            [("conv_rollup", conv_rollup_table(counted))],
        )
    )
    commit_partition(out_dir, "bucket", bucket_id, lineage, sinks, counted)


def find_heavy_conversations(input_path, threshold: int) -> dict:
    """Pre-pass: per-conversation turn counts, entirely in the data
    plane (narrow read of conv_id only, per-batch partial counts, small
    conv_id groupby, threshold filter BEFORE collection) -- the driver
    only ever holds the few heavy conversations, never the full
    conv -> count map."""
    import ray.data

    ds = ray.data.read_parquet(input_path, columns=["conv_id"])

    def partial(batch: pa.Table) -> pa.Table:
        vals, counts = _value_counts(batch.column("conv_id"))
        return pa.table(
            {
                "conv_id": pa.array(vals, pa.string()),
                "n": pa.array(counts, pa.int64()),
            }
        )

    totals = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("conv_id")
        .sum("n")
    )

    def heavy_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch.column("sum(n)"), threshold))

    rows = totals.map_batches(heavy_only, batch_format="pyarrow").take_all()
    return {r["conv_id"]: r["sum(n)"] for r in rows}


def bucket_count(rows: int, n_cpus: int) -> int:
    """Default bucket count for ``rows`` input rows on ``n_cpus`` CPUs:
    ~4 gather tasks per CPU (enough that the slowest bucket can't
    dominate the tail), lowered so that no bucket holds fewer than
    ``MIN_ROWS`` rows and raised so that none holds more than
    ``MAX_ROWS``; at least one."""
    return max(
        1,
        min(
            math.ceil(rows / MIN_ROWS),
            max(4 * n_cpus, math.ceil(rows / MAX_ROWS)),
        ),
    )


def _run_bucketed(
    input_path,
    out_dir,
    n_buckets=None,
    cfg=None,
    resume=True,
    skew_threshold=None,
):
    """Generic-input plan: storage scatter-gather.

    scatter (read each input file once -> split by conv bucket ->
    staged parquet) -> gather (one ``process_partition`` task per
    bucket over its staged files).  No stage re-reads
    the input or the parsed output; aggregates combine the tiny
    per-bucket counts recorded in the manifests.

    The bucket count is, in order: the count pinned in the run manifest
    by a previous attempt (bucket assignment is hash(conv_id) %
    n_buckets, so a resume must reuse it or committed buckets would
    cover a different conversation set), else ``n_buckets``, else
    ``bucket_count(input rows, CPUs)`` with the rows read from the
    Parquet footers: ``min(ceil(rows / MIN_ROWS), max(4 * CPUs,
    ceil(rows / MAX_ROWS)))``.  The bucket is also the unit of
    recovery, so on a small host the trade-off is granularity: at one
    CPU a crash loses up to a quarter of the input, not 1/128 of it.

    ``skew_threshold``: conversations with more turns than this get a
    dedicated partition each, parsed chunk-parallel (conv_id-salting's
    safe sibling: a giant conversation can dominate a hash bucket, so
    it is isolated; splitting one *across* partitions uses the
    speculative FSM stitch in vt/chunked.py).
    """
    import glob as _g

    import ray

    os.makedirs(out_dir, exist_ok=True)
    in_files = sorted(_g.glob(os.path.join(input_path, "*.parquet")))
    if not in_files and os.path.isfile(input_path):
        in_files = [input_path]
    n_cpus = int(ray.cluster_resources().get("CPU", 8))
    prior = M.read_run_manifest(out_dir) if resume else None
    if prior and prior.get("n_buckets"):
        n_buckets = prior["n_buckets"]
    elif n_buckets is None:
        n_buckets = bucket_count(
            sum(pq.read_metadata(f).num_rows for f in in_files), n_cpus
        )
    M.write_run_manifest(
        out_dir, {"plan": "bucketed", "n_buckets": n_buckets}
    )
    heavy = (
        find_heavy_conversations(input_path, skew_threshold)
        if skew_threshold
        else {}
    )
    heavy_ids = {c: n_buckets + i for i, c in enumerate(sorted(heavy))}
    total_buckets = n_buckets + len(heavy_ids)

    done = M.completed_partitions(out_dir) if resume else set()
    todo = [b for b in range(total_buckets) if b not in done]
    M.clean_partition_outputs(out_dir, todo)

    cfg_ref = ray.put(cfg or EnrichConfig())

    heavy_bucket_ids = frozenset(heavy_ids.values())
    heavy_todo = [
        (conv, bucket_id)
        for conv, bucket_id in heavy_ids.items()
        if bucket_id in todo
    ]
    # overlap the giants: each alternates parallel Ray phases with a
    # sequential driver-side stitch walk, so interleaving them lets one
    # giant's stitch overlap another's scan/finalize tasks; at most 8
    # at a time bound the stitch metadata the driver holds
    for i in range(0, len(heavy_todo), 8):
        _interleave(
            [
                functools.partial(
                    _giant_steps,
                    input_path, conv, bucket_id, out_dir, cfg_ref, n_buckets,
                    n_cpus=n_cpus,
                )
                for conv, bucket_id in heavy_todo[i : i + 8]
            ]
        )

    wanted = frozenset(todo) - heavy_bucket_ids
    if wanted:
        # Storage scatter-gather shuffle.  Ray's sort-based groupby
        # measured ~16s of wall per 10M-row exchange here (the sample
        # sort + merge dominate); scattering through storage instead
        # streams phase 1 fully and gives phase 2 one independent task
        # per bucket -- and staged files double as the shuffle's spill,
        # exactly how a 256-node run would externalize this exchange.
        import shutil as _sh

        staging = os.path.join(out_dir, "_staging")
        # ~2 scatter tasks per CPU: enough for balance, few enough that
        # the staged-file count stays ~n_tasks x n_buckets, not
        # n_files x n_buckets
        n_chunks = min(len(in_files), max(1, 2 * n_cpus))
        _run_tasks(
            _scatter,
            [
                (in_files[i::n_chunks], i, staging, n_buckets, wanted, heavy_ids)
                for i in range(n_chunks)
            ],
        )
        lineage = {"input": input_path, "n_buckets": n_buckets}
        _run_tasks(
            process_partition,
            [
                (
                    out_dir,
                    "bucket",
                    b,
                    sorted(
                        _g.glob(os.path.join(staging, f"bucket={b}", "*.parquet"))
                    ),
                    cfg_ref,
                    lineage,
                )
                for b in sorted(wanted)
            ],
        )
        # every wanted bucket committed (empty ones with no sinks); the
        # staged shuffle files are no longer needed
        _sh.rmtree(staging, ignore_errors=True)

    return {
        "buckets": n_buckets,
        "ran": len(todo),
        "skipped": len(done),
        "routed_rows": _write_aggregates_from_manifests(out_dir, "bucket"),
    }
