"""Resumable routed sinks: partitioned Parquet with lineage manifests.

Output layout (north rule: "per-partition lineage manifests + metrics"),
for partitions of kind ``bucket`` (bucketed plan) or ``shard`` (sharded
plan), written as ``<kind>=<id>`` directories:

    <out_dir>/
      parsed/ bucket=<b>/ part-*.parquet        # bucketed plan
      sinks/
        parsed/ shard=<s>/ part-*.parquet       # sharded plan
        by_role/ role=<r>/ <kind>=<id>/ part-*.parquet
        by_tool/ sink=<s>/ <kind>=<id>/ part-*.parquet
        vim_sessions/ <kind>=<id>/ part-*.parquet
        conv_rollup/ <kind>=<id>/ part-*.parquet
      aggregates/
        counts_by_role.parquet, counts_by_sink.parquet
      _manifest/
        run.json            # run-level parameters (bucket count)
        <kind>-<id>.json    # rows + files per sink, role/sink counts,
                            # input lineage

Conversations are assigned to ``n_buckets`` partitions by a stable hash
of ``conv_id`` (the sharded plan uses the input files as partitions).
That hash is ``key_buckets``; the runner's scatter and every keyed
exchange (``sources.cache.map_keyed``) use it, so they all agree on
placement.  The bucket exchanges that do not use it, and why:

* ``stages.relational.hash_join`` salts hot keys into sub-buckets;
* ``relational._pair_bucket_col`` (``_attach_rank_map``,
  ``_attach_map_cols``, ``dense_rank``, ``rank_fractions_per_group``,
  ``stages.events``' ``sample_per_group`` and ``topk_per_group``)
  takes keys of any type and keeps a null group, which the string
  rule below rejects;
* ``relational.global_row_number``'s value buckets, whose large path
  takes minutes on one CPU, too long to re-check a placement change;
* ``stages.dedup.distinct_rows`` hashes several columns at once;
* ``dedup.line_dedup`` mixes line-hash and doc-id buckets in one
  column;
* groups whose bucket is the real key: LSH bands, IVF cells, time
  buckets, ranges and shards.

It picks the hash from the key column's Arrow type:

* string keys: crc32 of the key modulo the bucket count; null keys
  raise (a null has no identity to group on);
* integer keys: ``h32`` (Knuth's multiplicative hash, the one int id
  hash, also the deterministic samplers' and the SQL oracles') modulo
  the bucket count; null keys keep a null bucket and so form one group,
  like SQL's ``PARTITION BY``.
A partition's manifest is written only after every sink finished
writing that partition, so a killed run leaves at most one unfinished
partition per task; on restart committed partitions are skipped and
the rest have their partial output removed and re-run idempotently.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib

import pyarrow as pa
import pyarrow.compute as pc


def conv_bucket(conv_id: str, n_buckets: int) -> int:
    return zlib.crc32(conv_id.encode()) % n_buckets


H32_MULT = 2654435761  # Knuth multiplicative hash constant
H32_MOD = 1 << 32


def h32(ids):
    """Knuth multiplicative hash of integer ids into ``[0, 2^32)`` as
    int64: ``((k & 0x7fffffff) * 2654435761) mod 2^32``, nulls kept.
    Ids are masked to 31 bits BEFORE multiplying, so the product stays
    below 2^63 -- in range for int64 here AND for a SQL engine's BIGINT
    (which raises on overflow rather than wrapping): the oracle SQL
    mirrors it bit for bit."""
    ids31 = pc.bit_wise_and(
        ids.cast(pa.int64()), pa.scalar(0x7FFFFFFF, pa.int64())
    )
    h = pc.multiply(ids31, pa.scalar(H32_MULT, pa.int64()))
    return pc.bit_wise_and(h, pa.scalar(H32_MOD - 1, pa.int64()))


def key_buckets(keys, n_buckets: int, pinned=None, key: str = "conv_id"):
    """int32 bucket ids in ``[0, n_buckets)`` for a key column: the one
    key -> bucket hash of the package (the runner's scatter and every
    keyed exchange), chosen by the column's Arrow type.

    Integer keys: ``h32(k) % n_buckets``; a null key keeps a null
    bucket, so all null keys form one group.

    String keys: ``conv_bucket`` of each key.  Only the distinct keys
    are hashed (a batch holds whole or few conversations, so distinct
    << rows), then the ids fan back out through the dictionary indices.
    ``pinned`` maps keys to fixed bucket ids that override the hash.
    Null keys are rejected: a null has no identity to group on, and a
    null bucket id would be filtered away by the scatter (silently
    dropping rows).  ``key`` names the column in that error."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if pa.types.is_integer(keys.type):
        h = h32(keys)
        n = pa.scalar(n_buckets, pa.int64())
        return pc.subtract(h, pc.multiply(pc.divide(h, n), n)).cast(
            pa.int32()
        )
    if keys.null_count:
        raise null_key_error(key)
    pinned = pinned or {}
    dic = pc.dictionary_encode(keys)
    ids = pa.array(
        [
            pinned.get(c, conv_bucket(c, n_buckets))
            for c in dic.dictionary.to_pylist()
        ],
        pa.int32(),
    )
    return ids.take(dic.indices)


def null_key_error(key: str) -> ValueError:
    return ValueError(
        f"null {key!r} values are unsupported: rows are grouped on "
        "that key; filter or impute nulls upstream"
    )


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def manifest_path(out_dir: str, pid: int, kind: str = "bucket") -> str:
    return os.path.join(manifest_dir(out_dir), f"{kind}-{pid:05d}.json")


def sink_dir(out_dir: str, sink: str, pid: int, kind: str = "bucket") -> str:
    """Directory of one partition's files in one sink; ``sink`` is the
    manifest key (``parsed``, ``by_role/role=user``, ...).  The bucketed
    plan keeps its primary ``parsed`` sink at the top level."""
    top = kind == "bucket" and sink == "parsed"
    return os.path.join(out_dir, "" if top else "sinks", sink, f"{kind}={pid}")


def completed_partitions(out_dir: str, kind: str = "bucket") -> set:
    md = manifest_dir(out_dir)
    if not os.path.isdir(md):
        return set()
    pref = kind + "-"
    out = set()
    for name in os.listdir(md):
        if name.startswith(pref) and name.endswith(".json"):
            out.add(int(name[len(pref):-len(".json")]))
    return out


def clean_partition_outputs(out_dir: str, pids, kind: str = "bucket"):
    """Remove partial output of the uncommitted partitions ``pids`` from
    every sink (including the primary parsed sink -- writers add files
    to existing partition directories, so stale files would duplicate
    rows).  One walk of the sink trees covers all of ``pids``."""
    needles = {f"{kind}={pid}" for pid in pids}
    if not needles:
        return
    for sub in ("sinks", "parsed"):
        root_dir = os.path.join(out_dir, sub)
        if not os.path.isdir(root_dir):
            continue
        for root, dirs, _files in os.walk(root_dir):
            for d in [d for d in dirs if d in needles]:
                shutil.rmtree(os.path.join(root, d), ignore_errors=True)
                dirs.remove(d)


def _write_json(path: str, payload: dict):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    os.replace(tmp, path)


def write_manifest(out_dir: str, pid: int, payload: dict, kind: str = "bucket"):
    _write_json(manifest_path(out_dir, pid, kind), payload)


def read_manifest(out_dir: str, pid: int, kind: str = "bucket") -> dict:
    with open(manifest_path(out_dir, pid, kind)) as fh:
        return json.load(fh)


def run_manifest_path(out_dir: str) -> str:
    return os.path.join(manifest_dir(out_dir), "run.json")


def read_run_manifest(out_dir: str) -> dict | None:
    path = run_manifest_path(out_dir)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def write_run_manifest(out_dir: str, payload: dict):
    """Run-level parameters (e.g. the bucket count) that every resumed
    attempt must reuse for partition assignment to stay stable."""
    _write_json(run_manifest_path(out_dir), payload)
