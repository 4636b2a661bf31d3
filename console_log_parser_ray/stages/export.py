"""Training-data export: deterministic hash sharding to partitioned
Parquet.

The last stage of a curation pipeline ships the corpus as N shard
directories (``shard=<i>/``) that downstream training loaders read
independently.  Two requirements drive the design:

- **Deterministic placement** -- a document's shard depends only on
  its id (31-bit-masked multiplicative hash, the same cross-engine-
  safe form as ``stages.events.deterministic_sample``), so re-exports,
  incremental appends, and other engines (the SQL oracle) agree on
  every row's shard.
- **Retry/resume safety without coordination** -- every block writes
  its own rows into the shard directories it touches (scatter, no
  shuffle), under a part name derived from the block's id content.
  A retried or re-run task rewrites byte-identical files over the
  same names (atomic tmp+rename), so failures and re-runs converge on
  the same output tree instead of duplicating rows; no per-shard
  locks or commit protocol needed.  The driver writes a final
  ``_manifest.json`` with per-shard row totals once the pass
  completes, marking the export finished.

At 100 TB: no shuffle at all -- each input block streams once, writes
out_degree <= min(n_shards, block_rows) small files, and only tiny
per-shard count rows return to the driver.  Shard directories contain
many part files (one per touching block); that is the layout training
loaders want anyway, and a compaction pass is one
``read_parquet(shard_dir).repartition(k).write_parquet`` per shard if
ever needed.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.cache import map_keyed
from ..state.manifests import H32_MOD, h32, key_buckets


def _shard_col(ids: pa.Array, n_shards: int) -> pa.Array:
    # n_shards need not be a power of two; the modulo of the 32-bit
    # hash is what the SQL oracle states verbatim
    return key_buckets(ids, n_shards).cast(pa.int64())


def shard_assignments(ds, n_shards: int, id_col: str = "doc_id"):
    """(id, shard) for every row -- the placement rule alone, as a
    stateless projection (used standalone for planning/skew checks and
    pinned by the ``shard_assign`` SQL oracle)."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64())
        return pa.table(
            {id_col: ids, "shard": _shard_col(ids, n_shards)}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def pack_sequences(
    ds,
    budget: int = 512,
    n_shards: int = 16,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Sequence packing for training: assign every document to a
    fixed-token-budget pack.

    Training loaders consume fixed-length token windows; the packing
    rule here is the deterministic contiguous one -- within a shard,
    documents ordered by id are laid end to end on a token tape, and a
    document belongs to the pack its FIRST token lands in
    (``pack_id = start_offset // budget``).  That rule is exactly
    mirrorable in SQL (a windowed running sum), stable under re-runs
    and repartitioning, and needs no bin-packing search.

    Scale shape: the text column is dropped in the first projection --
    only ``(id, shard, n_tokens)`` int64 triples go through the one
    ``groupby(shard)`` exchange, so the shuffle moves ~24 bytes/doc
    regardless of document size.  Each shard group is a vectorized
    numpy sort+cumsum; pick ``n_shards`` so a shard's *metadata* (not
    its text) fits a worker -- at 100 TB / ~1 KB docs and 4096 shards
    that is ~600 MB of int64s per group, and the hierarchical
    prefix-sum refinement is only needed beyond that.

    Emits ``(doc_id, shard, n_tokens, pack_id)``.
    """

    def project(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64())
        return pa.table(
            {
                id_col: ids,
                "shard": _shard_col(ids, n_shards),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(
                        pc.fill_null(batch.column(text_col), ""), r"\S+"
                    ),
                    pa.int64(),
                ),
            }
        )

    def pack_group(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by([(id_col, "ascending")])
        n = tbl.column("n_tokens").to_numpy(zero_copy_only=False)
        start = np.cumsum(n) - n  # first-token offset of each doc
        return tbl.append_column(
            "pack_id", pa.array(start // budget, pa.int64())
        )

    return (
        ds.map_batches(project, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(pack_group, batch_format="pyarrow")
    )


def mix_domains(ds, weight_fn, group_col: str = "source", id_col: str = "doc_id"):
    """Domain-mixture resampling: downsample each source so the kept
    corpus matches target proportions, keeping as many rows as the
    targets allow.

    Two passes. Pass 1 is a tiny ``groupby(group_col).count()``
    (#domains rows to the driver).  The binding domain is the one with
    the smallest ``count/weight`` ratio (float64 division, source-name
    tie-break -- the identical ordering the SQL oracle states); it is
    kept whole, and every other domain's keep-rate is the exact
    rational ``(mn * w_g) / (mw * n_g)`` realised as an integer
    threshold on the 32-bit multiplicative id hash.  Pass 2 is a
    stateless broadcast filter -- the threshold map is #domains
    entries closed over by the batch fn, never re-shipped per row.

    All threshold arithmetic is integer (``2^32 * mn * w_g // (mw *
    n_g)``), so the engine and a BIGINT SQL oracle agree bit-for-bit;
    the product stays in int64 up to ``mn * w_g < 2^31`` -- beyond
    that move the oracle to HUGEINT.  Domains whose weight is falsy
    are dropped entirely.

    ``weight_fn``: either a dict ``{group_value: int_weight}`` or a
    callable ``group_value -> int_weight``.
    """

    counts = {
        r[group_col]: r["count()"]
        for r in ds.groupby(group_col).count().take_all()
    }
    if callable(weight_fn):
        weights = {g: int(weight_fn(g) or 0) for g in counts}
    else:
        weights = {g: int(weight_fn.get(g, 0)) for g in counts}
    weighted = {g: w for g, w in weights.items() if w > 0}
    if not weighted:
        raise ValueError("mix_domains: no group has a positive weight")
    # binding domain: smallest n/w under float64 ordering, then name
    mg = min(weighted, key=lambda g: (counts[g] / weighted[g], g))
    mn, mw = counts[mg], weighted[mg]
    thresholds = {
        g: (H32_MOD * mn * w) // (mw * counts[g])
        for g, w in weighted.items()
    }

    thr_groups = pa.array(list(thresholds))
    thr_values = pa.array(
        [thresholds[g] for g in thresholds.keys()], pa.int64()
    )

    def keep(b: pa.Table) -> pa.Table:
        b = b.combine_chunks()  # one chunk -> elementwise kernels align
        h = h32(b.column(id_col))
        # vectorized dict lookup: group -> threshold (absent/zero-weight
        # groups take null -> 0 -> always filtered out)
        idx = pc.index_in(b.column(group_col), thr_groups)
        thr = pc.fill_null(pc.take(thr_values, idx), 0)
        return b.filter(pc.less(h, thr))

    return ds.map_batches(keep, batch_format="pyarrow")


def epoch_upsample(
    ds,
    epochs_fn,
    group_col: str = "source",
    id_col: str = "doc_id",
    denom: int = 1000,
):
    """Fractional-epoch domain resampling -- the UPSAMPLING complement
    of :func:`mix_domains`: each row of domain ``g`` is replicated
    ``floor(e_g)`` or ``ceil(e_g)`` times (fractional part resolved
    per row by the deterministic fmix32 id hash), so a mixture spec
    like "2.7 epochs of wiki, 0.5 of web" realises exactly in one
    stateless pass.  An ``epoch`` ordinal distinguishes the copies so
    downstream shuffles/packing see distinct rows.

    ``epochs_fn``: dict or callable giving INTEGER per-``denom``
    epochs (2700 = 2.7 epochs).  Rows of domains mapping to 0 drop;
    e < 1 is plain deterministic downsampling.  Everything is integer
    arithmetic on the DuckDB-expressible hash chain, so a SQL mirror
    (CROSS JOIN range + the same threshold test) matches exactly.
    Expansion happens inside each block (``np.repeat`` + one Arrow
    ``take``); no shuffle, no driver state beyond the domain map.
    """
    from .events import _fmix32

    def reps_fn(b: pa.Table) -> pa.Table:
        b = b.combine_chunks()
        groups = b.column(group_col)
        enc = groups.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = (
                enc.chunk(0)
                if enc.num_chunks
                else pa.array([], type=enc.type)
            )
        if callable(epochs_fn):
            em_by_g = [int(epochs_fn(g.as_py()) or 0) for g in enc.dictionary]
        else:
            em_by_g = [
                int(epochs_fn.get(g.as_py(), 0)) for g in enc.dictionary
            ]
        em = np.asarray(em_by_g, dtype=np.int64)[
            enc.indices.to_numpy(zero_copy_only=False)
            if len(enc)
            else np.array([], dtype=np.int64)
        ]
        ids = (
            b.column(id_col)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        reps = em // denom + (_fmix32(ids) % denom < em % denom)
        idx = np.repeat(np.arange(b.num_rows), reps)
        starts = np.cumsum(reps) - reps
        epoch = np.arange(len(idx)) - np.repeat(starts, reps)
        return b.take(pa.array(idx, pa.int64())).append_column(
            "epoch", pa.array(epoch.astype(np.int64), pa.int64())
        )

    return ds.map_batches(reps_fn, batch_format="pyarrow")


def token_budget(
    ds,
    budget: int,
    group_col: str = "lang",
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
):
    """Per-group token-budget cap -- the quota primitive of mixture
    curation ("at most N tokens per language/domain per epoch"):
    within each group, documents are taken in deterministic hash
    order (the 31-bit multiplicative doc-id hash, ties by id) while
    the running token total stays ``<= budget``; the rest drop.
    Unlike top-k or ntile this gates on a CUMULATIVE quantity, so a
    group's keep-count adapts to its document lengths.

    Kept rows return with their token count and the inclusive running
    total.  Everything is integer (token counts via one RE2 kernel,
    the hash chain DuckDB-expressible), so the SQL mirror -- a window
    ``SUM OVER (PARTITION BY grp ORDER BY h, id)`` -- is bit-exact.

    Scale shape is the window-family recipe (``running_user_totals``):
    groups coarsen into ``n_buckets`` hash buckets before the ONE
    groupby (dispatch bounded by bucket count, never group
    cardinality); inside a bucket one sort + cumsum-with-group-reset
    computes every group's prefix sums vectorized.  Only the narrow
    (id, group, n_tokens, h) projection shuffles -- text never leaves
    the first pass.
    """
    def project(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(b.column(text_col).combine_chunks(), "")
        nt = pc.count_substring_regex(texts, r"\S+").cast(pa.int64())
        ids = b.column(id_col).combine_chunks().cast(pa.int64())
        return pa.table(
            {
                id_col: ids,
                group_col: b.column(group_col).combine_chunks(),
                "n_tokens": nt,
                "h": h32(ids),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(
            [
                (group_col, "ascending"),
                ("h", "ascending"),
                (id_col, "ascending"),
            ]
        )
        n = tbl.num_rows
        enc = pc.dictionary_encode(tbl.column(group_col).combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        nt = tbl.column("n_tokens").to_numpy(zero_copy_only=False)
        idx = np.arange(n, dtype=np.int64)
        first = np.ones(n, dtype=bool)
        if n:
            first[1:] = codes[1:] != codes[:-1]
        cs = np.cumsum(nt)
        before = np.where(first, cs - nt, 0)
        start = np.maximum.accumulate(np.where(first, idx, 0))
        cum = cs - before[start]
        keep = cum <= budget
        return pa.table(
            {
                id_col: tbl.column(id_col).filter(pa.array(keep)),
                group_col: tbl.column(group_col).filter(pa.array(keep)),
                "n_tokens": pa.array(nt[keep], pa.int64()),
                "cum_tokens": pa.array(cum[keep], pa.int64()),
            }
        )

    return map_keyed(
        ds.map_batches(project, batch_format="pyarrow"),
        per_bucket,
        key=group_col,
        n_buckets=n_buckets,
    )


def export_shards(
    ds,
    out_dir: str,
    n_shards: int,
    id_col: str = "doc_id",
):
    """Write ``ds`` as ``out_dir/shard=<i>/part-<hash>.parquet`` and a
    final ``_manifest.json``; returns the per-shard row counts dict.

    Scatter, not shuffle: each block splits itself by shard and writes
    directly.  Part names hash the block's id column, so retries and
    full re-runs rewrite identical files in place (atomic) rather than
    appending duplicates.
    """

    def write_block(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64())
        shard = _shard_col(ids, n_shards)
        batch = batch.set_column(
            batch.schema.get_field_index(id_col), id_col, ids
        ).append_column("shard", shard)
        # block-deterministic part name: same block content -> same
        # name, distinct blocks -> distinct names (md5 of the raw id
        # bytes -- invariant to Arrow chunk layout)
        ids_np = ids.to_numpy(zero_copy_only=False)
        digest = hashlib.md5(ids_np.tobytes()).hexdigest()[:16]
        shards_np = shard.to_numpy(zero_copy_only=False)
        out_s, out_n = [], []
        for s in np.unique(shards_np):
            sub = batch.filter(pc.equal(batch.column("shard"), int(s)))
            sub = sub.drop_columns(["shard"])
            d = os.path.join(out_dir, "shard={}".format(int(s)))
            os.makedirs(d, exist_ok=True)
            final = os.path.join(d, "part-{}.parquet".format(digest))
            tmp = final + ".tmp.{}".format(os.getpid())
            import pyarrow.parquet as pq

            pq.write_table(sub, tmp, compression="zstd")
            os.replace(tmp, final)
            out_s.append(int(s))
            out_n.append(sub.num_rows)
        return pa.table(
            {
                "shard": pa.array(out_s, pa.int64()),
                "rows": pa.array(out_n, pa.int64()),
            }
        )

    os.makedirs(out_dir, exist_ok=True)
    counts = {}
    for tbl in ds.map_batches(
        write_block, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        for s, n in zip(
            tbl.column("shard").to_pylist(), tbl.column("rows").to_pylist()
        ):
            counts[s] = counts.get(s, 0) + n
    manifest = {
        "n_shards": n_shards,
        "rows_per_shard": {str(k): counts[k] for k in sorted(counts)},
        "total_rows": sum(counts.values()),
    }
    mpath = os.path.join(out_dir, "_manifest.json")
    tmp = mpath + ".tmp.{}".format(os.getpid())
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    os.replace(tmp, mpath)
    return counts


def weighted_sample(
    ds,
    k: int,
    weight_col: str = "n_chars",
    id_col: str = "doc_id",
):
    """Deterministic weighted top-k sample: every row draws a
    pseudo-uniform ``u(id)`` from the md5 of its id's decimal string
    (52 bits -> an EXACT double in [0,1)) and is kept iff its score
    ``u * (weight + 1)`` ranks in the global top ``k`` (ties: smaller
    id).  Higher-weight rows win proportionally more often, re-runs
    and other engines (the SQL oracle spells the identical md5 + IEEE
    chain) pick the SAME sample -- the property grid-search /
    curriculum pipelines need from a "random" subset.

    Scale shape: each block reduces to its own top ``k`` candidates
    (vectorized argpartition-free sort, k rows out per block), and
    only candidates enter the final tiny sort+limit; the corpus never
    shuffles.  The md5 draw is a per-row Python loop by design -- it
    is the cross-engine-portable PRF (same cost profile as
    ``hash_embed``'s per-token chain); swap in a vectorized hash when
    SQL parity is not required.
    """
    import hashlib

    two52 = float(1 << 52)

    def local_topk(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).combine_chunks().cast(pa.int64())
        w = b.column(weight_col).cast(pa.float64()).to_numpy(
            zero_copy_only=False
        )
        id_np = ids.to_numpy(zero_copy_only=False)
        hv = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:13], 16)
                for i in id_np
            ),
            dtype=np.int64,
            count=len(id_np),
        )
        u = hv.astype(np.float64) / two52
        score = u * (w + 1.0)
        order = np.lexsort((id_np, -score))[:k]
        order = np.sort(order)  # stable block layout
        take = pa.array(order, pa.int64())
        return pa.table(
            {
                id_col: ids.take(take),
                weight_col: b.column(weight_col).combine_chunks().take(
                    take
                ),
                "score": pa.array(score[order], pa.float64()),
            }
        )

    return (
        ds.map_batches(local_topk, batch_format="pyarrow")
        .sort(["score", id_col], descending=[True, False])
        .limit(k)
    )


def split_assign(
    ds,
    id_col: str = "doc_id",
    labels: tuple = ("train", "val", "test"),
    cuts: tuple = (0.9, 0.95),
):
    """Deterministic train/val/test split assignment: every row draws
    the same pseudo-uniform ``u(id)`` as ``weighted_sample`` (md5 of
    the id's decimal string, 52-bit prefix -> an EXACT double in
    [0, 1)) and gets ``labels[i]`` for the first cut with ``u <
    cuts[i]`` (the last label catches the rest).  Re-runs, other
    engines, and later incremental batches assign the SAME row the
    SAME split -- the property that keeps eval sets uncontaminated
    when the corpus regrows.

    The cut points are compared as the exact IEEE doubles the caller
    wrote, so the SQL mirror (same literals, same md5/2^52 chain) is
    bit-identical.  Stateless ``map_batches``: no shuffle, no state,
    scales with the read.  The md5 draw is the cross-engine-portable
    PRF (see ``weighted_sample``); swap in a vectorized hash when SQL
    parity is not required.
    """
    import hashlib

    if len(cuts) != len(labels) - 1:
        raise ValueError("split_assign: need len(labels)-1 cuts")
    two52 = float(1 << 52)
    bounds = np.array(list(cuts) + [np.inf], np.float64)
    lab_arr = pa.array(list(labels), pa.string())

    def assign(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).combine_chunks().cast(pa.int64())
        id_np = ids.to_numpy(zero_copy_only=False)
        hv = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:13], 16)
                for i in id_np
            ),
            dtype=np.int64,
            count=len(id_np),
        )
        u = hv.astype(np.float64) / two52
        # u < cuts[i] first-match == searchsorted right on the bounds
        idx = np.searchsorted(bounds, u, side="right")
        return pa.table(
            {
                id_col: ids,
                "u": pa.array(u, pa.float64()),
                "split": lab_arr.take(pa.array(idx, pa.int64())),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def quota_alloc(ds, budget: int, group_col: str = "source"):
    """Largest-remainder apportionment: split an integer sampling
    ``budget`` across groups proportionally to their row counts, with
    EXACT integer outputs that sum to the budget -- the quota step a
    mixture-weighted export runs before drawing per-domain samples
    (``mix_domains`` consumes rates; this produces the exact counts).

    Method (Hamilton): each group gets ``floor(budget * n_g / N)``;
    the ``budget - sum(floors)`` leftover units go to the groups with
    the largest remainders ``(budget * n_g) mod N`` (ties broken by
    group ascending).  All arithmetic in arbitrary-precision Python
    ints (the SQL mirror uses HUGEINT), so a 10^12-row group cannot
    overflow.

    Scale shape: per-block Arrow group_by partial counts -> one tiny
    groupby; the driver sees one row per group (bounded by group
    cardinality -- domains/languages, not rows).
    """
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        g = (
            pa.table({"g": b.column(group_col)})
            .group_by("g")
            .aggregate([([], "count_all")])
        )
        col = g.column("g")
        # Ray's sort-based groupby cannot order null string keys;
        # fold on (filled value, is-null flag) and restore after
        return pa.table(
            {
                "gk": pc.fill_null(pc.cast(col, pa.string()), ""),
                "gn": pc.is_null(col).cast(pa.int64()),
                "n_part": g.column("count_all").cast(pa.int64()),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["gk", "gn"])
        .aggregate(Sum("n_part"))
        .take_all()
    )
    counts = sorted(
        (
            (None if r["gn"] else r["gk"], int(r["sum(n_part)"]))
            for r in rows
        ),
        key=lambda t: (t[0] is None, t[0] or ""),  # SQL NULLS LAST
    )
    total = sum(n for _, n in counts)
    base = [(budget * n) // total for _, n in counts]
    rem = [(budget * n) % total for _, n in counts]
    k = budget - sum(base)
    # k largest remainders get one extra unit (ties: group ascending)
    order = sorted(
        range(len(counts)),
        key=lambda i: (-rem[i], counts[i][0] is None, counts[i][0] or ""),
    )
    extra = set(order[:k])
    return pa.table(
        {
            group_col: pa.array([g for g, _ in counts], pa.string()),
            "n_docs": pa.array([n for _, n in counts], pa.int64()),
            "alloc": pa.array(
                [base[i] + (1 if i in extra else 0) for i in range(len(counts))],
                pa.int64(),
            ),
        }
    )


def split_leakage(
    ds,
    id_col: str = "doc_id",
    group_col: str = "source",
    labels: tuple = ("train", "val", "test"),
    cuts: tuple = (0.9, 0.95),
):
    """Split-leakage audit: for every group (source / domain /
    conversation), how many of its rows ``split_assign``'s id-hash
    draw lands in each split, and whether the group LEAKS -- has rows
    in both train and the final (eval) split.  Row-level hash splits
    leak every multi-row group by construction; this is the check a
    pipeline runs to decide it must split by group key instead.

    Same md5 52-bit-prefix -> exact-double chain and cut literals as
    ``split_assign``/``weighted_sample``, so the SQL mirror assigns
    identical splits.  Scale shape: per-block partial pivot counts
    (group x |labels| ints) -> one small groupby keyed by group; no
    text moves, output bounded by group cardinality.
    """
    import hashlib

    from ray.data.aggregate import Sum

    if len(cuts) != len(labels) - 1:
        raise ValueError("split_leakage: need len(labels)-1 cuts")
    two52 = float(1 << 52)
    bounds = np.array(list(cuts) + [np.inf], np.float64)

    def partial(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).combine_chunks().cast(pa.int64())
        id_np = ids.to_numpy(zero_copy_only=False)
        hv = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:13], 16)
                for i in id_np
            ),
            dtype=np.int64,
            count=len(id_np),
        )
        idx = np.searchsorted(bounds, hv.astype(np.float64) / two52,
                              side="right")
        cols = {"g": b.column(group_col)}
        for li in range(len(labels)):
            cols[f"s{li}"] = pa.array(
                (idx == li).astype(np.int64), pa.int64()
            )
        g = (
            pa.table(cols)
            .group_by("g")
            .aggregate([(f"s{li}", "sum") for li in range(len(labels))])
        )
        out = {"g": g.column("g")}
        for li in range(len(labels)):
            out[f"s{li}_part"] = g.column(f"s{li}_sum").cast(pa.int64())
        return pa.table(out)

    folded = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .aggregate(*[Sum(f"s{li}_part") for li in range(len(labels))])
    )

    def finish(b: pa.Table) -> pa.Table:
        out = {group_col: b.column("g")}
        for li, lab in enumerate(labels):
            out[f"n_{lab}"] = b.column(f"sum(s{li}_part)").cast(
                pa.int64()
            )
        out["leaky"] = pc.and_(
            pc.greater(out[f"n_{labels[0]}"], pa.scalar(0, pa.int64())),
            pc.greater(
                out[f"n_{labels[-1]}"], pa.scalar(0, pa.int64())
            ),
        )
        return pa.table(out)

    return folded.map_batches(finish, batch_format="pyarrow")
