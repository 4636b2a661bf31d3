"""Relational operators Ray Data lacks natively.

* ``hash_join``  -- large-x-large equi-join (inner / left / semi /
  anti) by co-partitioning BOTH sides on a coarse key-hash bucket
  (one union + one bucket groupby = one shuffle), then one vectorized
  Acero ``pyarrow.Table.join`` per bucket group.  Group dispatch is bounded by the bucket count, never
  by the key cardinality, and neither side is ever broadcast or
  materialized -- the complement of the broadcast join in
  ``stages/enrich.py`` (small side) for when BOTH sides are big.
* ``lookup_join`` -- the size-adaptive planner over the two: the
  right side is materialized and metadata-counted; bounded sides are
  key-sorted, broadcast once and probed per left batch (searchsorted
  + vectorized multi-match expansion -- the corpus never shuffles),
  unbounded sides fall back to the co-partitioned ``hash_join``.
* ``dense_rank`` -- distributed ``dense_rank() OVER (PARTITION BY g
  ORDER BY v)``: a partial+final groupby builds the (group, value)
  histogram (shuffle volume = distinct pairs per block, not rows),
  ranks are computed once from the histogram and broadcast, and the
  corpus itself never shuffles.
* ``range_count_join`` -- equi + range interval join-aggregate
  (events-per-window counts) via equi-key co-partitioning and one
  vectorized boundary merge per bucket group.
* ``bloom_semi_join`` -- exact semi/anti/inner join with a
  Bloom-filter pushdown: the right key set is sketched into one
  fixed-size bitmap (per-block partials OR-folded, broadcast once),
  the left side is prefiltered before the shuffle, and the
  co-partitioned ``hash_join`` verifies -- false positives cost
  shuffle rows, never wrong answers.

The reference has no joins beyond the tiny hopto lookup
(``terminal2html.py:376-388``); these cover the relational verbs a
training-data pipeline needs at corpus scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..sources.cache import map_keyed
from ..state.manifests import h32
from .dedup import _cached_get

_JOIN_TYPES = {
    "inner": "inner",
    "left": "left outer",
    "outer": "full outer",
    "semi": "left semi",
    "anti": "left anti",
}

# Ceiling for the histogram-to-driver fast path of the rank family.
# The family scales with DISTINCT values of the ranked column, not the
# row count -- fine for integer metrics (lengths, scores), fatal for a
# float64 score column at 100 TB where every value is distinct.  Every
# operator first MATERIALIZES its histogram in the object store
# (distributed, spillable) and metadata-counts it; at or under the cap
# the histogram is collected and broadcast (corpus never shuffles),
# above it each operator switches to its data-plane path (bucketed
# histogram ranking, two-level range prefix, or binary-search
# threshold) -- same exact answers, O(ranges)/O(1) driver memory.
# 2^21 distinct values x (two int64 columns + pandas overhead) stays
# well under ~100 MB of driver heap.
DEFAULT_MAX_DISTINCT = 2_000_000


def _mod(arr, m: int):
    # pc has no modulo kernel; subtract(floor(div)) keeps it vectorized
    q = pc.divide(arr, pa.scalar(m, pa.int64()))
    return pc.subtract(arr, pc.multiply(q, pa.scalar(m, pa.int64())))


def fk_searchsorted(sorted_keys: np.ndarray, query: np.ndarray, what: str = "fk"):
    """Foreign-key resolve against a sorted dimension-key array that
    fails LOUD on orphans.

    A bare ``np.searchsorted`` silently maps an orphan key to the
    wrong dimension row (or IndexErrors only past the max key).  This
    clips the insertion point, verifies exact key equality and raises
    on any miss, so referential-integrity violations surface as an
    error instead of mis-attributed aggregates (``ri_audit`` is the
    lenient counterpart that REPORTS orphans instead).
    """
    if len(sorted_keys) == 0:
        if len(query):
            raise ValueError(f"{what}: empty dimension, {len(query)} keys unresolved")
        return np.zeros(0, np.int64)
    idx = np.minimum(
        np.searchsorted(sorted_keys, query), len(sorted_keys) - 1
    )
    bad = sorted_keys[idx] != query
    if bad.any():
        raise ValueError(
            f"{what}: {int(bad.sum())} orphan key(s), "
            f"e.g. {np.asarray(query)[bad][:3].tolist()}"
        )
    return idx


def histogram_rank_select(
    hist_ds, value_col: str, count_col: str, target_rank: int
) -> int:
    """Exact value at 1-based ``target_rank`` of the ascending value
    order, computed from a MATERIALIZED (value, count) histogram
    Dataset WITHOUT collecting it to the driver.

    Driver-side binary search on the int64 value domain; each probe is
    one small distributed filter+sum over the histogram's cached
    blocks, so memory per probe is O(1) on the driver and the
    histogram itself stays distributed.  <= 64 probes for any int64
    domain (log2 of the value range).  This is the above-``max_distinct``
    fallback for the single-threshold quantile shapes: same answer as
    the collected-histogram path (``percentile_disc`` semantics --
    smallest value whose cumulative count reaches the rank), different
    memory contract.
    """

    def probe_sum(pivot: int) -> int:
        def part(b: pa.Table) -> pa.Table:
            mask = pc.less_equal(
                b.column(value_col).cast(pa.int64()),
                pa.scalar(int(pivot), pa.int64()),
            )
            s = pc.sum(
                pc.if_else(
                    mask,
                    b.column(count_col).cast(pa.int64()),
                    pa.scalar(0, pa.int64()),
                )
            )
            return pa.table(
                {"s": pa.array([s.as_py() or 0], pa.int64())}
            )

        out = hist_ds.map_batches(part, batch_format="pyarrow").sum("s")
        return int(out or 0)

    lo = int(hist_ds.min(value_col))
    hi = int(hist_ds.max(value_col))
    while lo < hi:
        mid = (lo + hi) // 2  # floor division: correct for negatives
        if probe_sum(mid) >= target_rank:
            hi = mid
        else:
            lo = mid + 1
    return lo


def hash_join(
    left,
    right,
    on: str,
    right_on: str | None = None,
    n_buckets: int = 64,
    how: str = "inner",
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    salt: int = 1,
):
    """Co-partitioned hash join of two Datasets on integer keys.

    Both sides are null-padded to the superset schema, tagged with
    ``jb = key mod n_buckets``, unioned, and grouped once on ``jb``;
    each bucket group splits back into its two sides and runs one
    Acero hash join.  Size ``n_buckets`` so one bucket of the LARGER
    side fits a worker (at cluster scale: ~4x total cores).  Keys must
    be integer-castable; non-key column names must not collide.

    Pass ``left_schema`` / ``right_schema`` when the caller already
    knows a side's schema: probing a LAZY (mapped/filtered) side via
    ``Dataset.schema()`` runs a limit-1 plan, which costs a pipeline
    startup per call and whose early-cancel exercises a sporadic Ray
    core race (task_manager CHECK, observed on this Ray build) --
    known schemas skip the probe entirely.

    ``salt > 1`` splits HOT KEYS: every left row lands in one of
    ``salt`` sub-buckets of its key bucket (any assignment is correct
    -- each sub-bucket sees the full right side for its keys), and
    each right row replicates into all ``salt`` sub-buckets.  A key
    with a billion left rows then costs ``salt`` workers 1/salt of
    the rows each instead of OOMing one, at the price of
    ``salt x |right|`` shuffle volume -- the standard skew trade.
    Valid for inner/left/semi/anti (left-side multiplicities are
    untouched); full outer would emit right-unmatched rows once per
    sub-bucket and is rejected.
    """
    right_on = right_on or on
    join_type = _JOIN_TYPES[how]
    salt = int(salt)
    if salt > 1 and how == "outer":
        raise ValueError("salt requires a left-preserving join, not outer")
    ls = left_schema if left_schema is not None else left.schema()
    rs = right_schema if right_schema is not None else right.schema()
    lf = [(n, t) for n, t in zip(ls.names, ls.types)]
    rf = [(n, t) for n, t in zip(rs.names, rs.types)]
    l_names = [n for n, _ in lf]
    r_names = [n for n, _ in rf]
    clash = (set(l_names) & set(r_names)) - {on} if on == right_on else (
        set(l_names) & set(r_names)
    )
    if clash:
        raise ValueError(f"column name collision: {sorted(clash)}")

    def tagger(own, other, key_col, side):
        def tag(b: pa.Table) -> pa.Table:
            n = b.num_rows
            key = b.column(key_col).cast(pa.int64())
            if salt == 1:
                jb_col = pc.cast(_mod(key, n_buckets), pa.int32())
            else:
                # null keys never match any row; pin them to
                # sub-bucket 0 so the numpy lift below stays total
                jb = pc.fill_null(
                    pc.cast(_mod(key, n_buckets), pa.int32()),
                    pa.scalar(0, pa.int32()),
                ).to_numpy(zero_copy_only=False).astype(np.int64)
                if side == 0:
                    # any per-row assignment is correct; round-robin
                    # spreads a hot key evenly
                    jb = jb * salt + (np.arange(n) % salt)
                else:
                    # right rows cover every sub-bucket of their key
                    jb = (jb * salt)[np.repeat(np.arange(n), salt)] + \
                        np.tile(np.arange(salt), n)
                    b = b.take(
                        pa.array(np.repeat(np.arange(n), salt))
                    )
                    n = b.num_rows
                jb_col = pa.array(jb.astype(np.int32), pa.int32())
            cols = {
                "__jb": jb_col,
                "__side": pa.array(np.full(n, side, dtype=np.int8)),
            }
            for name, _ in own:
                cols[name] = b.column(name)
            for name, typ in other:
                if name not in cols:
                    cols[name] = pa.nulls(n, typ)
            return pa.table(cols)

        return tag

    tagged = left.map_batches(
        tagger(lf, rf, on, 0), batch_format="pyarrow"
    ).union(right.map_batches(tagger(rf, lf, right_on, 1), batch_format="pyarrow"))

    def join_group(tbl: pa.Table) -> pa.Table:
        is_left = pc.equal(tbl.column("__side"), pa.scalar(0, pa.int8()))
        lt = tbl.filter(is_left).select(l_names)
        rt = tbl.filter(pc.invert(is_left)).select(r_names)
        out = lt.join(
            rt, keys=[on], right_keys=[right_on], join_type=join_type
        )
        # Acero may reorder; pin the column order for stable block schemas
        if join_type in ("left semi", "left anti"):
            names = l_names  # filtering joins keep only the left side
        else:
            names = l_names + [n for n in r_names if n != right_on]
        return out.select(names)

    return tagged.groupby("__jb").map_groups(
        join_group, batch_format="pyarrow"
    )


def lookup_join(
    left,
    right,
    on: str,
    right_on: str | None = None,
    how: str = "inner",
    max_broadcast_rows: int = 5_000_000,
    max_broadcast_bytes: int = 256 * 1024**2,
    n_buckets: int = 64,
    left_schema: pa.Schema | None = None,
    salt: int = 1,
):
    """Size-adaptive equi-join: broadcast-lookup plan when the right
    side is provably small, ``hash_join`` fallback when it is not --
    the broadcast-vs-shuffle choice a planner makes, on the same
    metadata-count contract as ``setsim_join`` / ``minhash_near_dups``.

    The right side is MATERIALIZED (distributed, spillable) and its
    row count read from block metadata -- nothing is collected to
    decide.  At or under ``max_broadcast_rows`` the right table is
    folded once on the driver (bounded by the count just taken),
    sorted by key, and ``ray.put`` once; every left batch then
    resolves ALL its matches with two ``np.searchsorted`` calls and a
    vectorized range expansion (duplicate right keys emit every
    pairing, exactly like the shuffle join), so the LEFT side -- the
    corpus -- never shuffles at all.  Above the cap the already-
    materialized right side flows into the co-partitioned
    ``hash_join`` unchanged (same exact answer, one shuffle, O(1)
    driver memory).

    Supports inner / left / semi / anti (left-preserving joins; a
    broadcast side cannot track right-unmatched rows for full outer).
    Null keys never match, matching SQL.  Output column order is
    identical to ``hash_join``: left columns then right non-key
    columns.  BOTH caps are metadata reads: ``max_broadcast_rows``
    bounds the row count and ``max_broadcast_bytes`` the serialized
    block bytes, so a narrow-but-deep side and a shallow-but-wide
    side (long strings, embeddings) each trip their own guard --
    still project the right side to the needed columns first, as
    with any broadcast.
    """
    right_on = right_on or on
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"lookup_join: unsupported how={how!r}")

    rmat = right.materialize()
    if (
        rmat.count() > max_broadcast_rows
        or (rmat.size_bytes() or 0) > max_broadcast_bytes
    ):
        return hash_join(
            left,
            rmat,
            on,
            right_on=right_on,
            n_buckets=n_buckets,
            how=how,
            left_schema=left_schema,
            salt=salt,
        )

    parts = [
        b
        for b in rmat.iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    rtbl = (
        pa.concat_tables(parts, promote_options="default")
        if parts
        else pa.table(
            {
                n: pa.array([], t)
                for n, t in zip(rmat.schema().names, rmat.schema().types)
            }
        )
    )
    # null right keys can never match: drop them at fold time
    rtbl = rtbl.filter(pc.is_valid(rtbl.column(right_on)))
    rkeys = (
        rtbl.column(right_on)
        .combine_chunks()
        .cast(pa.int64())
        .to_numpy(zero_copy_only=False)
    )
    order = np.argsort(rkeys, kind="stable")
    rkeys = rkeys[order]
    payload_names = [n for n in rtbl.column_names if n != right_on]
    payload = rtbl.select(payload_names).take(pa.array(order)) if (
        payload_names
    ) else None
    side_ref = ray.put((rkeys, payload))

    ls = left_schema if left_schema is not None else left.schema()
    clash = (set(ls.names) & set(payload_names))
    if clash:
        raise ValueError(f"column name collision: {sorted(clash)}")

    def probe(b: pa.Table) -> pa.Table:
        keys_sorted, pay = _cached_get(side_ref)
        key = b.column(on).combine_chunks().cast(pa.int64())
        valid = pc.is_valid(key).to_numpy(zero_copy_only=False)
        k = pc.fill_null(key, 0).to_numpy(zero_copy_only=False)
        lo = np.searchsorted(keys_sorted, k, side="left")
        hi = np.searchsorted(keys_sorted, k, side="right")
        counts = np.where(valid, hi - lo, 0).astype(np.int64)
        if how == "semi":
            return b.take(pa.array(np.flatnonzero(counts > 0)))
        if how == "anti":
            return b.take(pa.array(np.flatnonzero(counts == 0)))
        matched = np.flatnonzero(counts > 0)
        c = counts[matched]
        total = int(c.sum())
        starts = np.cumsum(c) - c  # empty-safe exclusive prefix sum
        lidx = np.repeat(matched, c)
        ridx = (
            np.repeat(lo[matched], c)
            + np.arange(total, dtype=np.int64)
            - np.repeat(starts, c)
        )
        out = b.take(pa.array(lidx))
        cols = {n: out.column(n) for n in out.column_names}
        for n in payload_names:
            cols[n] = pay.column(n).take(pa.array(ridx))
        result = pa.table(cols) if cols else out
        if how == "left":
            un = np.flatnonzero(counts == 0)
            if len(un):
                ut = b.take(pa.array(un))
                ucols = {n: ut.column(n) for n in ut.column_names}
                for n in payload_names:
                    ucols[n] = pa.nulls(
                        len(un), pay.schema.field(n).type
                    )
                result = pa.concat_tables([result, pa.table(ucols)])
        return result

    return left.map_batches(probe, batch_format="pyarrow")


def _bloom_positions(keys: np.ndarray, m_bits: int, n_hashes: int):
    """k bit positions per key via double hashing over two murmur
    fmix32 finalizers (h2 forced odd so the probe sequence never
    degenerates).  Returns an (n, k) int64 array of positions."""

    def fmix32(x: np.ndarray) -> np.ndarray:
        h = x.astype(np.uint64) & np.uint64(0xFFFFFFFF)
        h ^= h >> np.uint64(16)
        h = (h * np.uint64(0x85EBCA6B)) & np.uint64(0xFFFFFFFF)
        h ^= h >> np.uint64(13)
        h = (h * np.uint64(0xC2B2AE35)) & np.uint64(0xFFFFFFFF)
        h ^= h >> np.uint64(16)
        return h

    x = keys.astype(np.int64).view(np.uint64)
    h1 = fmix32(x ^ (x >> np.uint64(32)))
    h2 = fmix32(x ^ np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)
    i = np.arange(n_hashes, dtype=np.uint64)
    return (
        (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits)
    ).astype(np.int64)


def bloom_semi_join(
    left,
    right,
    on: str,
    right_on: str | None = None,
    m_bits: int = 1 << 20,
    n_hashes: int = 4,
    n_buckets: int = 64,
    how: str = "semi",
):
    """EXACT semi/anti/inner join with a Bloom-filter pushdown: the
    right side's key set is sketched into an ``m_bits`` bitmap
    (per-block partial bitmaps, OR-folded), the bitmap is broadcast
    once via ``ray.put``, and the LEFT side is prefiltered before the
    co-partitioned :func:`hash_join` verifies exactly -- false
    positives cost only wasted shuffle rows, never wrong answers, and
    false negatives cannot occur, so the result equals the plain join.

    This is the scale pattern for a selective big x big semi-join: the
    shuffle then carries ~selectivity x left rows instead of all of
    them, at the price of one fixed-size bitmap per block on the
    build side.  Driver/broadcast state is ``m_bits/8`` bytes
    (default 128 KiB) regardless of either side's row count; size
    ``m_bits`` to ~10 bits per expected distinct right key for a ~1%
    false-positive rate.  Keys must be integer-castable.
    """
    right_on = right_on or on
    nbytes = m_bits // 8

    def block_bitmap(b: pa.Table) -> pa.Table:
        keys = (
            b.column(right_on)
            .cast(pa.int64())
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
        )
        bm = np.zeros(nbytes, dtype=np.uint8)
        pos = _bloom_positions(keys, m_bits, n_hashes).ravel()
        np.bitwise_or.at(
            bm, pos >> 3, np.left_shift(1, pos & 7).astype(np.uint8)
        )
        return pa.table({"bm": pa.array([bm.tobytes()], pa.binary())})

    # one fixed-size bitmap per block comes back to the driver; the
    # fold is bounded by block count x m_bits/8 bytes, never by rows
    parts = (
        right.map_batches(block_bitmap, batch_format="pyarrow")
        .take_all()
    )
    folded = np.zeros(nbytes, dtype=np.uint8)
    for p in parts:
        folded |= np.frombuffer(p["bm"], dtype=np.uint8)
    bm_ref = ray.put(folded)

    def prefilter(b: pa.Table) -> pa.Table:
        bm = _cached_get(bm_ref)
        keys = (
            b.column(on)
            .cast(pa.int64())
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
        )
        pos = _bloom_positions(keys, m_bits, n_hashes)
        hit = (
            (bm[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        ).all(axis=1)
        if how == "anti":
            # bloom misses are DEFINITE non-members: emit them
            # directly; only bloom hits (maybe-members) need the
            # exact verify
            return b.filter(pa.array(~hit)), b.filter(pa.array(hit))
        return b.filter(pa.array(hit))

    if how == "anti":
        definite = left.map_batches(
            lambda t: prefilter(t)[0], batch_format="pyarrow"
        )
        maybe = left.map_batches(
            lambda t: prefilter(t)[1], batch_format="pyarrow"
        )
        return definite.union(
            hash_join(
                maybe, right, on=on, right_on=right_on,
                n_buckets=n_buckets, how="anti",
            )
        )
    pre = left.map_batches(prefilter, batch_format="pyarrow")
    return hash_join(
        pre, right, on=on, right_on=right_on,
        n_buckets=n_buckets, how=how,
    )


def _pair_bucket_col(tbl: pa.Table, col: str, n_buckets: int) -> pa.Array:
    """Deterministic hash bucket of an arbitrary-typed key column
    (pandas' fixed-key hash -- stable across worker processes; used
    only for shuffle placement, the key itself stays the merge key)."""
    h = pd.util.hash_array(
        tbl.column(col).combine_chunks().to_numpy(zero_copy_only=False)
    ).astype(np.int64, copy=False)
    return pa.array((np.abs(h) % n_buckets).astype(np.int32), pa.int32())


def _attach_rank_map(ds, rank_map, keys, out_col: str, n_buckets: int):
    """Merge a (keys -> out_col) Dataset onto every row of ``ds`` via
    ONE co-partitioned tagged-union shuffle keyed by a hash of
    ``keys[-1]`` (the value column -- every map row for a value shares
    its bucket with every data row of that value, whatever the other
    keys are).  The big-cardinality complement of the ``ray.put``
    broadcast attach: the corpus moves once, nothing is collected or
    broadcast, group dispatch is bounded by the bucket count."""
    schema = ds.schema()
    names = list(schema.names)
    types = {n: t for n, t in zip(schema.names, schema.types)}

    def tag_rows(b: pa.Table) -> pa.Table:
        cols = {n: b.column(n) for n in names}
        cols[out_col] = pa.nulls(b.num_rows, pa.int64())
        cols["__side"] = pa.array(np.zeros(b.num_rows, dtype=np.int8))
        cols["__jb"] = _pair_bucket_col(b, keys[-1], n_buckets)
        return pa.table(cols)

    def tag_map(b: pa.Table) -> pa.Table:
        cols = {}
        for n in names:
            cols[n] = (
                b.column(n) if n in keys else pa.nulls(b.num_rows, types[n])
            )
        cols[out_col] = b.column(out_col).cast(pa.int64())
        cols["__side"] = pa.array(np.ones(b.num_rows, dtype=np.int8))
        cols["__jb"] = _pair_bucket_col(b, keys[-1], n_buckets)
        return pa.table(cols)

    tagged = ds.map_batches(tag_rows, batch_format="pyarrow").union(
        rank_map.map_batches(tag_map, batch_format="pyarrow")
    )

    def merge_group(tbl: pa.Table) -> pa.Table:
        is_row = pc.equal(tbl.column("__side"), pa.scalar(0, pa.int8()))
        rows = tbl.filter(is_row).select(names).to_pandas()
        lk = (
            tbl.filter(pc.invert(is_row))
            .select(list(keys) + [out_col])
            .to_pandas()
        )
        out = rows.merge(lk, on=list(keys), how="left")
        out[out_col] = out[out_col].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    return tagged.groupby("__jb").map_groups(
        merge_group, batch_format="pyarrow"
    )


def dense_rank(
    ds, group_col: str, val_col: str, descending: bool = True,
    out_col: str = "rnk",
    max_distinct: int = DEFAULT_MAX_DISTINCT,
    n_buckets: int = 64,
):
    """Adds ``dense_rank() OVER (PARTITION BY group_col ORDER BY
    val_col [DESC])`` -- exact at ANY cardinality.

    The (group, value) histogram (shuffle volume = distinct pairs per
    block, never rows) is the only state.  Under ``max_distinct``
    pairs it is collected, ranked on the driver and broadcast, so the
    corpus never shuffles.  ABOVE the cap nothing is collected: the
    histogram is ranked IN the data plane (group-hash bucket groups --
    a group's whole histogram slice lands in one bucket, so its dense
    ranks are one local sort + cumcount) and merged back through one
    co-partitioned value-hash shuffle.  Same answer, different memory
    contract: the driver never holds more than block metadata.

    The input lineage executes twice (histogram pass, attach pass) --
    deliberate: two streaming scans from storage beat pinning the
    corpus in the object store (``materialize()`` on a 100 TB input is
    the real anti-pattern).  Callers with a small or already-
    materialized input can pass it materialized to fold the two passes
    onto cached blocks.
    """
    hist_ds = ds.groupby([group_col, val_col]).count().materialize()
    n_pairs = hist_ds.count()

    if n_pairs <= max_distinct:
        hist = hist_ds.to_pandas()
        hist = hist.sort_values(
            [group_col, val_col], ascending=[True, not descending]
        )
        hist[out_col] = hist.groupby(group_col, sort=False).cumcount() + 1
        lookup_ref = ray.put(
            hist[[group_col, val_col, out_col]].reset_index(drop=True)
        )

        def attach(df: pd.DataFrame) -> pd.DataFrame:
            lk = _cached_get(lookup_ref)
            out = df.merge(lk, on=[group_col, val_col], how="left")
            out[out_col] = out[out_col].astype(np.int64)
            return out

        return ds.map_batches(attach, batch_format="pandas")

    # big-cardinality path: rank the histogram in the data plane
    def add_gb(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__gb", _pair_bucket_col(b, group_col, n_buckets)
        )

    def rank_in_bucket(tbl: pa.Table) -> pa.Table:
        df = tbl.select([group_col, val_col]).to_pandas()
        df = df.sort_values(
            [group_col, val_col], ascending=[True, not descending],
            kind="mergesort",
        )
        df[out_col] = df.groupby(group_col, sort=False).cumcount() + 1
        return pa.Table.from_pandas(df, preserve_index=False)

    ranked = (
        hist_ds.map_batches(add_gb, batch_format="pyarrow")
        .groupby("__gb")
        .map_groups(rank_in_bucket, batch_format="pyarrow")
    )
    return _attach_rank_map(
        ds, ranked, (group_col, val_col), out_col, n_buckets
    )


def range_count_join(
    windows,
    events,
    on: str,
    right_on: str,
    start_col: str,
    end_col: str,
    ts_col: str,
    keep_cols: list[str],
    out_col: str = "n_events",
    n_buckets: int = 64,
):
    """Equi + range interval join-aggregate: for every window row,
    count events of the SAME equi-key whose timestamp falls in
    ``[start, end)`` -- the "events in the week after each order"
    shape.  LEFT semantics: every window row is emitted, zero counts
    included.

    The equi key alone determines placement, so both sides go through
    one ``map_keyed`` exchange on it with NO window replication (the
    range dimension never partitions).  Inside each call
    the count is one vectorized boundary merge: events and window
    boundaries are lexsorted together on (key, time, boundary-first)
    and a cumulative event count read off at the boundary positions
    gives ``#events < end  -  #events < start`` for every window at
    once -- no per-key loop, no per-window loop.

    Timestamps are compared as int64 microseconds; ``keep_cols`` are
    window columns carried to the output.
    """

    def tag_windows(b: pa.Table) -> pa.Table:
        n = b.num_rows
        key = b.column(on).cast(pa.int64())
        cols = {
            "__side": pa.array(np.zeros(n, dtype=np.int8)),
            "__key": key,
            "__start": b.column(start_col).cast(pa.int64()),
            "__end": b.column(end_col).cast(pa.int64()),
        }
        for name in keep_cols:
            cols[name] = b.column(name)
        return pa.table(cols)

    keep_types: dict = {}

    def tag_events(b: pa.Table) -> pa.Table:
        n = b.num_rows
        key = b.column(right_on).cast(pa.int64())
        cols = {
            "__side": pa.array(np.ones(n, dtype=np.int8)),
            "__key": key,
            "__start": b.column(ts_col).cast(pa.int64()),
            "__end": pa.nulls(n, pa.int64()),
        }
        for name, typ in keep_types.items():
            cols[name] = pa.nulls(n, typ)
        return pa.table(cols)

    w_schema = windows.schema()
    for name, typ in zip(w_schema.names, w_schema.types):
        if name in keep_cols:
            keep_types[name] = typ

    def count_group(tbl: pa.Table) -> pa.Table:
        side = tbl.column("__side").to_numpy(zero_copy_only=False)
        key = tbl.column("__key").to_numpy(zero_copy_only=False)
        t0 = tbl.column("__start").to_numpy(zero_copy_only=False)
        is_w = side == 0
        wt = tbl.filter(pa.array(is_w))
        n_w = wt.num_rows
        if n_w == 0:
            cols = {name: pa.array([], typ) for name, typ in keep_types.items()}
            cols[out_col] = pa.array([], pa.int64())
            return pa.table(cols)
        ev_key = key[~is_w]
        ev_ts = t0[~is_w].astype(np.int64)
        w_key = key[is_w]
        w_start = t0[is_w].astype(np.int64)
        w_end = wt.column("__end").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        # merged array: events (kind 1) + start/end boundaries (kind 0,
        # sorting BEFORE events at equal (key, t) => cumulative event
        # count at a boundary == #events strictly before t => the
        # window count is exactly #events in [start, end))
        m_key = np.concatenate([ev_key, w_key, w_key])
        m_t = np.concatenate([ev_ts, w_start, w_end])
        m_kind = np.concatenate(
            [np.ones(len(ev_key), np.int8), np.zeros(2 * n_w, np.int8)]
        )
        order = np.lexsort((m_kind, m_t, m_key))
        is_event_sorted = m_kind[order] == 1
        cum = np.concatenate(([0], np.cumsum(is_event_sorted)))[:-1]
        pos_of = np.empty(len(order), dtype=np.int64)
        pos_of[order] = np.arange(len(order))
        c_start = cum[pos_of[len(ev_key) : len(ev_key) + n_w]]
        c_end = cum[pos_of[len(ev_key) + n_w :]]
        counts = c_end - c_start
        cols = {name: wt.column(name) for name in keep_types}
        cols[out_col] = pa.array(counts, pa.int64())
        return pa.table(cols)

    return map_keyed(
        [
            windows.map_batches(tag_windows, batch_format="pyarrow"),
            events.map_batches(tag_events, batch_format="pyarrow"),
        ],
        count_group,
        key="__key",
        n_buckets=n_buckets,
    )


def global_row_number(
    ds,
    value_col: str,
    id_col: str,
    descending: bool = True,
    out_col: str = "rank",
    n_buckets: int = 64,
    ntile: int | None = None,
    max_distinct: int = DEFAULT_MAX_DISTINCT,
):
    """Exact global ``row_number() OVER (ORDER BY value [DESC], id)``
    WITHOUT a global sort barrier -- the total-order rank primitive
    (leaderboards, ordered training-shard ids, percentile exports)
    that Ray Data's ``sort`` alone can't produce, since blocks don't
    know their global offset.

    Plan: (1) a value histogram via partial+final groupby -- bounded
    by distinct values, not rows (same ``max_distinct``-guarded scale
    assumption as ``dense_rank``); the cumulative counts become a
    broadcast value -> rows-before-it offset table.  (2) rows bucket
    by a value hash, so every row of a value lands in one group; a
    lexsort gives each row its ordinal WITHIN its value run (id
    tie-break), and rank = offset[value] + ordinal + 1.  Neither pass
    moves more than (value, id) pairs; the corpus text never shuffles.

    With ``ntile=k`` the output column becomes the row's equi-depth
    bin (``ntile(k) OVER`` the same order): the first ``N % k`` tiles
    take ``N//k + 1`` rows, the rest ``N//k`` -- computed from the
    exact rank, so it matches the SQL window function bit-for-bit.

    ABOVE ``max_distinct`` distinct values nothing is collected: the
    value -> rows-before-it offset table is computed in the data plane
    by ``_global_value_offsets`` (two-level range partitioning -- the
    driver sees only per-range totals, <= ~2x the range count) and
    joined into the same value-hash bucket groups through the tagged
    union instead of a broadcast.  Same exact ranks, O(ranges) driver
    memory.
    """
    hist_ds = ds.groupby(value_col).count().materialize()
    n_vals = hist_ds.count()
    big = n_vals > max_distinct

    if not big:
        hist = hist_ds.to_pandas()
        hist = hist.sort_values(value_col, ascending=not descending)
        before = hist["count()"].cumsum().shift(fill_value=0).to_numpy(
            dtype=np.int64
        )
        total = int(hist["count()"].sum())
        vals_in_order = hist[value_col].to_numpy(dtype=np.int64)
        asc = np.argsort(vals_in_order, kind="stable")
        lookup_ref = ray.put((vals_in_order[asc], before[asc]))
        offsets_ds = None
    else:
        offsets_ds, total = _global_value_offsets(
            hist_ds, value_col, "count()", descending, n_vals
        )
        lookup_ref = None

    def project(b: pa.Table) -> pa.Table:
        v = b.column(value_col).combine_chunks().cast(pa.int64())
        return pa.table(
            {
                id_col: b.column(id_col).cast(pa.int64()),
                value_col: v,
                "__before": pa.nulls(b.num_rows, pa.int64()),
                "vb": pc.cast(_mod(v, n_buckets), pa.int32()),
            }
        )

    def tag_offsets(b: pa.Table) -> pa.Table:
        v = b.column(value_col).combine_chunks().cast(pa.int64())
        return pa.table(
            {
                id_col: pa.nulls(b.num_rows, pa.int64()),
                value_col: v,
                "__before": b.column("__before").cast(pa.int64()),
                "vb": pc.cast(_mod(v, n_buckets), pa.int32()),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        if big:
            # offset rows travel in-band: ids are null on them
            is_row = pc.is_valid(tbl.column(id_col))
            offs = tbl.filter(pc.invert(is_row))
            tbl = tbl.filter(is_row)
            off_vals = offs.column(value_col).to_numpy(
                zero_copy_only=False
            )
            off_before = offs.column("__before").to_numpy(
                zero_copy_only=False
            )
            o = np.argsort(off_vals, kind="stable")
            sorted_vals, offsets = off_vals[o], off_before[o]
        else:
            sorted_vals, offsets = _cached_get(lookup_ref)
        tbl = tbl.sort_by(
            [
                (value_col, "descending" if descending else "ascending"),
                (id_col, "ascending"),
            ]
        )
        vals = tbl.column(value_col).to_numpy(zero_copy_only=False)
        n = len(vals)
        idx = np.arange(n, dtype=np.int64)
        first = np.ones(n, dtype=bool)
        if n:
            first[1:] = vals[1:] != vals[:-1]
        start = np.maximum.accumulate(np.where(first, idx, 0))
        ordinal = idx - start
        off = (
            offsets[np.searchsorted(sorted_vals, vals)]
            if n
            else np.zeros(0, dtype=np.int64)
        )
        rank = off + ordinal + 1
        if ntile:
            q, r = divmod(total, ntile)
            boundary = r * (q + 1)
            r0 = rank - 1
            rank = 1 + np.where(
                r0 < boundary,
                r0 // (q + 1),
                r + (r0 - boundary) // max(q, 1),
            )
        return pa.table(
            {
                id_col: tbl.column(id_col),
                value_col: tbl.column(value_col),
                out_col: pa.array(rank, pa.int64()),
            }
        )

    rows = ds.map_batches(project, batch_format="pyarrow")
    if big:
        rows = rows.union(
            offsets_ds.map_batches(tag_offsets, batch_format="pyarrow")
        )
    return rows.groupby("vb").map_groups(
        per_bucket, batch_format="pyarrow"
    )


def _global_value_offsets(
    hist_ds, value_col: str, count_col: str, descending: bool,
    n_vals: int, n_ranges: int = 4096,
):
    """Data-plane (value -> rows strictly before it) offset table for
    the global total order, exact at any distinct-value cardinality.

    Two-level range partitioning: (1) a deterministic multiplicative
    hash samples ~2x``n_ranges`` distinct values as range boundaries
    (the only rows the driver touches besides the per-range totals);
    (2) per-range count totals fold to range-start offsets on the
    driver (<= #ranges + 1 rows); (3) each range group locally sorts
    its values and emits ``offset = range_start + local prefix`` -- a
    distributed prefix sum whose driver state is O(ranges), not
    O(distinct values).  Returns ``(offsets Dataset with __before
    column, total row count)``.
    """
    p32 = min(
        (1 << 32) - 1,
        int((1 << 32) * min(1.0, (2.0 * n_ranges) / max(n_vals, 1))),
    )

    def sample(b: pa.Table) -> pa.Table:
        v = b.column(value_col).combine_chunks().cast(pa.int64())
        keep = pc.less(h32(v), pa.scalar(p32, pa.int64()))
        return pa.table({value_col: v.filter(keep)})

    bounds = np.unique(
        np.array(
            [
                r[value_col]
                for r in hist_ds.map_batches(
                    sample, batch_format="pyarrow"
                ).take_all()
            ],
            dtype=np.int64,
        )
    )

    def add_range(b: pa.Table) -> pa.Table:
        v = (
            b.column(value_col)
            .combine_chunks()
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        r = np.searchsorted(bounds, v, side="right").astype(np.int32)
        return pa.table(
            {
                "__r": pa.array(r, pa.int32()),
                value_col: pa.array(v, pa.int64()),
                "__n": b.column(count_col).cast(pa.int64()),
            }
        )

    ranged = hist_ds.map_batches(
        add_range, batch_format="pyarrow"
    ).materialize()
    totals = {
        r["__r"]: r["sum(__n)"]
        for r in ranged.groupby("__r").sum("__n").take_all()
    }  # <= len(bounds) + 1 rows, independent of distinct values
    order = sorted(totals, reverse=descending)  # value order of ranges
    range_start: dict = {}
    acc = 0
    for rid in order:
        range_start[rid] = acc
        acc += totals[rid]
    total = acc
    start_keys = np.array(sorted(range_start), dtype=np.int64)
    start_vals = np.array(
        [range_start[k] for k in start_keys], dtype=np.int64
    )
    start_ref = ray.put((start_keys, start_vals))

    def per_range(tbl: pa.Table) -> pa.Table:
        keys, starts = _cached_get(start_ref)
        v = tbl.column(value_col).to_numpy(zero_copy_only=False)
        n = tbl.column("__n").to_numpy(zero_copy_only=False)
        rid = int(tbl.column("__r")[0].as_py())
        o = np.argsort(-v if descending else v, kind="stable")
        local = np.cumsum(n[o]) - n[o]
        base = int(starts[np.searchsorted(keys, rid)])
        return pa.table(
            {
                value_col: pa.array(v[o], pa.int64()),
                "__before": pa.array(base + local, pa.int64()),
            }
        )

    offsets_ds = ranged.groupby("__r").map_groups(
        per_range, batch_format="pyarrow"
    )
    return offsets_ds, total


def rollup_agg(
    ds,
    keys: list[str],
    value_col: str,
    out_n: str = "n_rows",
    out_sum: str = "sum_cents",
) -> pa.Table:
    """``GROUP BY ROLLUP(keys...)`` -- the hierarchical-subtotal OLAP
    aggregate: one result row per finest-level group plus, for every
    prefix of ``keys``, a subtotal row with the rolled-up trailing
    keys NULL, and one grand-total row.

    Values are fixed-pointed to integer cents (floor(value * 100)) so
    every sum is associative-exact and the SQL mirror agrees
    bit-for-bit at any combine order.

    Scale shape: the base data is read ONCE -- per-block Arrow
    ``group_by`` partials at the finest level feed the one Ray
    groupby-sum (shuffle volume = distinct finest groups per block,
    never rows).  Every coarser level is an aggregate OF the finest
    aggregate, whose cardinality is the operator's own output bound,
    so the subtotal fold touches only that small table and never the
    corpus.  (A ROLLUP whose finest level is driver-unboundable --
    e.g. keyed on a float measure -- is the rank family's histogram
    problem, not this operator's: ROLLUP keys are categorical by
    construction.)
    """
    keys = list(keys)

    def partial(b: pa.Table) -> pa.Table:
        vals = b.column(value_col).cast(pa.float64()).to_numpy(
            zero_copy_only=False
        )
        cents = np.floor(vals * 100.0).astype(np.int64)
        t = pa.table(
            {
                **{k: b.column(k) for k in keys},
                "__one": pa.array(
                    np.ones(b.num_rows, dtype=np.int64), pa.int64()
                ),
                "__cents": pa.array(cents, pa.int64()),
            }
        )
        g = t.group_by(keys).aggregate(
            [("__one", "sum"), ("__cents", "sum")]
        )
        return g.rename_columns(keys + ["__one", "__cents"])

    finest_ds = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys)
        .sum(["__one", "__cents"])
    )
    finest = pa.Table.from_pandas(
        finest_ds.to_pandas(), preserve_index=False
    ).rename_columns(keys + [out_n, out_sum])

    key_types = {k: finest.schema.field(k).type for k in keys}
    levels = [finest]
    for depth in range(len(keys) - 1, -1, -1):
        head = keys[:depth]
        if head:
            g = finest.group_by(head).aggregate(
                [(out_n, "sum"), (out_sum, "sum")]
            )
            g = g.rename_columns(head + [out_n, out_sum])
        else:
            g = pa.table(
                {
                    out_n: pa.array(
                        [pc.sum(finest.column(out_n)).as_py()], pa.int64()
                    ),
                    out_sum: pa.array(
                        [pc.sum(finest.column(out_sum)).as_py()], pa.int64()
                    ),
                }
            )
        cols = {}
        for k in keys:
            cols[k] = (
                g.column(k)
                if k in head
                else pa.nulls(g.num_rows, key_types[k])
            )
        cols[out_n] = g.column(out_n).cast(pa.int64())
        cols[out_sum] = g.column(out_sum).cast(pa.int64())
        levels.append(pa.table(cols))
    return pa.concat_tables(
        [lv.select(keys + [out_n, out_sum]) for lv in levels]
    )


def _attach_map_cols(
    ds, map_ds, keys, out_cols: dict, n_buckets: int
):
    """Generalization of ``_attach_rank_map`` to several output
    columns of arbitrary Arrow type: merges a ``(keys -> out_cols)``
    map Dataset onto every row of ``ds`` via ONE co-partitioned
    tagged-union shuffle keyed by a hash of ``keys[-1]`` (the value
    column).  Nothing is collected or broadcast; group dispatch is
    bounded by the bucket count."""
    schema = ds.schema()
    names = list(schema.names)
    types = {n: t for n, t in zip(schema.names, schema.types)}
    out_names = list(out_cols)

    def tag_rows(b: pa.Table) -> pa.Table:
        cols = {n: b.column(n) for n in names}
        for oc, ot in out_cols.items():
            cols[oc] = pa.nulls(b.num_rows, ot)
        cols["__side"] = pa.array(np.zeros(b.num_rows, dtype=np.int8))
        cols["__jb"] = _pair_bucket_col(b, keys[-1], n_buckets)
        return pa.table(cols)

    def tag_map(b: pa.Table) -> pa.Table:
        cols = {}
        for n in names:
            cols[n] = (
                b.column(n) if n in keys else pa.nulls(b.num_rows, types[n])
            )
        for oc, ot in out_cols.items():
            cols[oc] = b.column(oc).cast(ot)
        cols["__side"] = pa.array(np.ones(b.num_rows, dtype=np.int8))
        cols["__jb"] = _pair_bucket_col(b, keys[-1], n_buckets)
        return pa.table(cols)

    tagged = ds.map_batches(tag_rows, batch_format="pyarrow").union(
        map_ds.map_batches(tag_map, batch_format="pyarrow")
    )

    def merge_group(tbl: pa.Table) -> pa.Table:
        is_row = pc.equal(tbl.column("__side"), pa.scalar(0, pa.int8()))
        rows = tbl.filter(is_row).select(names).to_pandas()
        lk = (
            tbl.filter(pc.invert(is_row))
            .select(list(keys) + out_names)
            .to_pandas()
        )
        out = rows.merge(lk, on=list(keys), how="left")
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).replace_schema_metadata(None)

    return tagged.groupby("__jb").map_groups(
        merge_group, batch_format="pyarrow"
    )


def rank_fractions_per_group(
    ds,
    group_col: str,
    val_col: str,
    pct_col: str = "pct_rank",
    cd_col: str = "cume_dist",
    max_distinct: int = DEFAULT_MAX_DISTINCT,
    n_buckets: int = 64,
):
    """Adds ``percent_rank() OVER (PARTITION BY group_col ORDER BY
    val_col)`` and ``cume_dist() OVER (...)`` -- exact at ANY
    cardinality, bit-identical doubles.

    Both fractions depend only on the row's VALUE (ties share them),
    so the whole window collapses onto the (group, value) histogram
    exactly like ``dense_rank``: percent_rank = (rank-1)/(n-1) with
    rank-with-gaps = 1 + rows strictly before the value, cume_dist =
    rows-at-or-before / n.  Each is ONE IEEE division of two exact
    integers, so the DuckDB mirror matches bit-for-bit (no float
    accumulation anywhere).

    Under ``max_distinct`` (group, value) pairs the histogram is
    collected, ranked on the driver and broadcast -- the corpus never
    shuffles.  Above the cap nothing is collected: the histogram is
    ranked inside group-hash bucket groups (a group's whole histogram
    slice lands in one bucket, so its cumulative counts are one local
    sort + cumsum) and merged back through one co-partitioned
    value-hash shuffle (``_attach_map_cols``).
    """

    def _fractions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([group_col, val_col]).reset_index(drop=True)
        cnt = df["count()"].to_numpy(dtype=np.int64)
        grp = df.groupby(group_col, sort=False)
        cum = grp["count()"].cumsum().to_numpy(dtype=np.int64)
        n = grp["count()"].transform("sum").to_numpy(dtype=np.int64)
        rank = cum - cnt + 1
        pct = np.where(n > 1, (rank - 1) / np.maximum(n - 1, 1), 0.0)
        df[pct_col] = pct
        df[cd_col] = cum / n
        return df[[group_col, val_col, pct_col, cd_col]]

    hist_ds = ds.groupby([group_col, val_col]).count().materialize()
    n_pairs = hist_ds.count()
    out_cols = {pct_col: pa.float64(), cd_col: pa.float64()}

    if n_pairs <= max_distinct:
        lookup_ref = ray.put(_fractions(hist_ds.to_pandas()))

        def attach(df: pd.DataFrame) -> pd.DataFrame:
            lk = _cached_get(lookup_ref)
            return df.merge(lk, on=[group_col, val_col], how="left")

        return ds.map_batches(attach, batch_format="pandas")

    def add_gb(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__gb", _pair_bucket_col(b, group_col, n_buckets)
        )

    def rank_in_bucket(tbl: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(
            _fractions(tbl.to_pandas()), preserve_index=False
        ).replace_schema_metadata(None)

    ranked = (
        hist_ds.map_batches(add_gb, batch_format="pyarrow")
        .groupby("__gb")
        .map_groups(rank_in_bucket, batch_format="pyarrow")
    )
    return _attach_map_cols(
        ds, ranked, (group_col, val_col), out_cols, n_buckets
    )


def group_regression(
    ds,
    group_col: str,
    x_col: str,
    y_col: str,
    x_scale: int = 1,
    y_scale: int = 100,
):
    """Per-group simple linear regression (least squares y = a*x + b)
    from exact integer moments -- the distributed skeleton of
    per-segment trend features (price sensitivity, drift slopes).

    Both columns are fixed-pointed (``floor(col * scale)``) so the
    five moments (n, Sx, Sy, Sxx, Sxy) are associative-exact BIGINT
    sums; slope and intercept are then a fixed IEEE double expression
    over those exact integers, so an SQL mirror that casts the same
    moments to DOUBLE and applies the same expression tree is
    bit-identical.  Products are computed AFTER the float cast
    (``nf * sxyf``), never in int64, so a billion-row group cannot
    overflow the moment arithmetic (each individual moment is the
    scale bound the caller owns).

    Scale shape: one Arrow ``group_by`` per block reduces to <=
    n_groups partial rows before the single Ray groupby-sum; the
    closed-form finish touches n_groups rows.  A group with a single
    distinct x yields den = 0 -> IEEE inf/nan, same as the SQL mirror.
    """
    from ray.data.aggregate import Sum

    def partials(b: pa.Table) -> pa.Table:
        x = np.floor(
            b.column(x_col).cast(pa.float64()).to_numpy(
                zero_copy_only=False
            )
            * x_scale
        ).astype(np.int64)
        y = np.floor(
            b.column(y_col).cast(pa.float64()).to_numpy(
                zero_copy_only=False
            )
            * y_scale
        ).astype(np.int64)
        t = pa.table(
            {
                group_col: b.column(group_col),
                "n_p": pa.array(np.ones(len(x), np.int64)),
                "sx_p": pa.array(x),
                "sy_p": pa.array(y),
                "sxx_p": pa.array(x * x),
                "sxy_p": pa.array(x * y),
            }
        )
        return t.group_by(group_col).aggregate(
            [
                ("n_p", "sum"),
                ("sx_p", "sum"),
                ("sy_p", "sum"),
                ("sxx_p", "sum"),
                ("sxy_p", "sum"),
            ]
        ).rename_columns(
            [group_col, "n_p", "sx_p", "sy_p", "sxx_p", "sxy_p"]
        )

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("sum(n_p)").to_numpy(zero_copy_only=False)
        sx = b.column("sum(sx_p)").to_numpy(zero_copy_only=False)
        sy = b.column("sum(sy_p)").to_numpy(zero_copy_only=False)
        sxx = b.column("sum(sxx_p)").to_numpy(zero_copy_only=False)
        sxy = b.column("sum(sxy_p)").to_numpy(zero_copy_only=False)
        nf = n.astype(np.float64)
        sxf = sx.astype(np.float64)
        syf = sy.astype(np.float64)
        sxxf = sxx.astype(np.float64)
        sxyf = sxy.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (nf * sxyf - sxf * syf) / (nf * sxxf - sxf * sxf)
            intercept = (syf - slope * sxf) / nf
        return pa.table(
            {
                group_col: b.column(group_col),
                "n_obs": pa.array(n, pa.int64()),
                "sx": pa.array(sx, pa.int64()),
                "sy": pa.array(sy, pa.int64()),
                "sxx": pa.array(sxx, pa.int64()),
                "sxy": pa.array(sxy, pa.int64()),
                "slope": pa.array(slope, pa.float64()),
                "intercept": pa.array(intercept, pa.float64()),
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(
            Sum("n_p"), Sum("sx_p"), Sum("sy_p"),
            Sum("sxx_p"), Sum("sxy_p"),
        )
        .map_batches(finish, batch_format="pyarrow")
    )


def snapshot_diff(
    old_ds,
    new_ds,
    key: str,
    compare_cols: list[str],
    n_buckets: int = 64,
):
    """CDC snapshot comparison: classify every key across two table
    snapshots as ``added`` (new only), ``removed`` (old only),
    ``changed`` (present in both, any compare column differs) or
    ``same`` -- the diff step of an incremental-ingest / anti-entropy
    pipeline, and the consumer-side complement of ``latest_state`` /
    ``scd2_intervals``.

    Built on the co-partitioned FULL OUTER ``hash_join`` (one
    shuffle): the old side's columns are suffixed ``_old`` before the
    join, presence is derived from a per-side sentinel (so a snapshot
    whose payload columns are ALL null still classifies correctly),
    and the comparison is one vectorized null-safe equality chain per
    block.  Keys must be unique per snapshot (it diffs snapshots, not
    logs -- compact with ``latest_state`` first).

    Both snapshots must share the key/compare column types (they are
    snapshots of ONE table); the tag schemas are derived from the old
    side alone so a lazily-derived new side is never schema-probed
    (see ``hash_join`` on the limit-1 probe).
    """
    base = old_ds.schema()
    types = dict(zip(base.names, base.types))
    old_tag_schema = pa.schema(
        [(key, types[key])]
        + [(f"{c}_old", types[c]) for c in compare_cols]
        + [("__in_old", pa.int8())]
    )
    new_tag_schema = pa.schema(
        [("__newkey", types[key])]
        + [(f"{c}_new", types[c]) for c in compare_cols]
        + [("__in_new", pa.int8())]
    )

    def tag_old(b: pa.Table) -> pa.Table:
        cols = {key: b.column(key)}
        for c in compare_cols:
            cols[f"{c}_old"] = b.column(c)
        cols["__in_old"] = pa.array(
            np.ones(b.num_rows, dtype=np.int8)
        )
        return pa.table(cols)

    def tag_new(b: pa.Table) -> pa.Table:
        cols = {"__newkey": b.column(key)}
        for c in compare_cols:
            cols[f"{c}_new"] = b.column(c)
        cols["__in_new"] = pa.array(
            np.ones(b.num_rows, dtype=np.int8)
        )
        return pa.table(cols)

    joined = hash_join(
        old_ds.map_batches(tag_old, batch_format="pyarrow"),
        new_ds.map_batches(tag_new, batch_format="pyarrow"),
        on=key,
        right_on="__newkey",
        how="outer",
        n_buckets=n_buckets,
        left_schema=old_tag_schema,
        right_schema=new_tag_schema,
    )

    def classify(b: pa.Table) -> pa.Table:
        in_old = pc.is_valid(b.column("__in_old"))
        in_new = pc.is_valid(b.column("__in_new"))
        same = pa.array(np.ones(b.num_rows, dtype=bool))
        for c in compare_cols:
            o, n_ = b.column(f"{c}_old"), b.column(f"{c}_new")
            # null-safe equality: both-null counts as equal
            eq = pc.fill_null(pc.equal(o, n_), False)
            both_null = pc.and_(pc.is_null(o), pc.is_null(n_))
            same = pc.and_(same, pc.or_(eq, both_null))
        status = pc.if_else(
            pc.and_(in_old, pc.invert(in_new)),
            pa.scalar("removed"),
            pc.if_else(
                pc.and_(in_new, pc.invert(in_old)),
                pa.scalar("added"),
                pc.if_else(
                    same, pa.scalar("same"), pa.scalar("changed")
                ),
            ),
        )
        cols = {key: b.column(key), "status": status}
        for c in compare_cols:
            cols[f"{c}_old"] = b.column(f"{c}_old")
            cols[f"{c}_new"] = b.column(f"{c}_new")
        return pa.table(cols)

    return joined.map_batches(classify, batch_format="pyarrow")


def cube_agg(
    ds,
    keys: list[str],
    value_col: str,
    out_n: str = "n_rows",
    out_sum: str = "sum_cents",
) -> pa.Table:
    """``GROUP BY CUBE(keys...)`` -- every subset of the grouping
    keys, with a SQL ``GROUPING()`` bitmask column (``grouping_id``,
    first key = most significant bit) so subtotal NULLs are
    distinguishable from data NULLs -- the full OLAP lattice that
    ``rollup_agg``'s prefix hierarchy is a slice of.

    Same scale contract as ``rollup_agg``: integer-cent sums are
    associative-exact; the base data is read ONCE into per-block
    finest-level Arrow partials + one Ray groupby-sum, and all
    ``2^d - 1`` coarser subsets fold from the finest aggregate, whose
    cardinality is the operator's own output bound (CUBE keys are
    categorical by construction).
    """
    from itertools import combinations

    keys = list(keys)
    key_types = {
        k: ds.schema().types[ds.schema().names.index(k)] for k in keys
    }
    # Ray's sort-based groupby cannot order null keys; group on
    # (filled value, null flag) pairs and restore the nulls after --
    # exact for any key content, including data NULLs (which CUBE must
    # keep distinct from its own subtotal NULLs)
    flags = [f"__nv_{k}" for k in keys]

    def partial(b: pa.Table) -> pa.Table:
        vals = b.column(value_col).cast(pa.float64()).to_numpy(
            zero_copy_only=False
        )
        cents = np.floor(vals * 100.0).astype(np.int64)
        cols = {}
        for k in keys:
            c = b.column(k)
            fill = (
                pa.scalar("", pa.string())
                if pa.types.is_string(key_types[k])
                else pa.scalar(0, key_types[k])
            )
            cols[k] = pc.fill_null(c, fill)
            cols[f"__nv_{k}"] = pc.cast(pc.is_null(c), pa.int8())
        cols["__one"] = pa.array(
            np.ones(b.num_rows, dtype=np.int64), pa.int64()
        )
        cols["__cents"] = pa.array(cents, pa.int64())
        t = pa.table(cols)
        g = t.group_by(keys + flags).aggregate(
            [("__one", "sum"), ("__cents", "sum")]
        )
        return g.rename_columns(keys + flags + ["__one", "__cents"])

    finest_ds = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys + flags)
        .sum(["__one", "__cents"])
    )
    finest = pa.Table.from_pandas(
        finest_ds.to_pandas(), preserve_index=False
    ).rename_columns(keys + flags + [out_n, out_sum])
    restored = {}
    for k in keys:
        isnull = pc.cast(
            finest.column(f"__nv_{k}").combine_chunks(), pa.bool_()
        )
        restored[k] = pc.if_else(
            isnull,
            pa.scalar(None, key_types[k]),
            finest.column(k).combine_chunks().cast(key_types[k]),
        )
    finest = pa.table(
        {
            **restored,
            out_n: finest.column(out_n).cast(pa.int64()),
            out_sum: finest.column(out_sum).cast(pa.int64()),
        }
    )
    d = len(keys)
    levels = []
    for r in range(d, -1, -1):
        for subset in combinations(range(d), r):
            head = [keys[i] for i in subset]
            gid = sum(1 << (d - 1 - i) for i in range(d)
                      if i not in subset)
            if len(head) == d:
                g = finest
            elif head:
                g = finest.group_by(head).aggregate(
                    [(out_n, "sum"), (out_sum, "sum")]
                ).rename_columns(head + [out_n, out_sum])
            else:
                g = pa.table(
                    {
                        out_n: pa.array(
                            [pc.sum(finest.column(out_n)).as_py() or 0],
                            pa.int64(),
                        ),
                        out_sum: pa.array(
                            [pc.sum(finest.column(out_sum)).as_py() or 0],
                            pa.int64(),
                        ),
                    }
                )
            cols = {}
            for k in keys:
                cols[k] = (
                    g.column(k)
                    if k in head
                    else pa.nulls(g.num_rows, key_types[k])
                )
            cols["grouping_id"] = pa.array(
                np.full(g.num_rows, gid, dtype=np.int64), pa.int64()
            )
            cols[out_n] = g.column(out_n).cast(pa.int64())
            cols[out_sum] = g.column(out_sum).cast(pa.int64())
            levels.append(pa.table(cols))
    return pa.concat_tables(
        [
            lv.select(keys + ["grouping_id", out_n, out_sum])
            for lv in levels
        ]
    )


def _skyline_key_np(col: pa.ChunkedArray) -> np.ndarray:
    """Comparable numpy view of a skyline dimension: temporal and
    integer columns stay exact int64; floats stay float64."""
    t = col.type
    if pa.types.is_temporal(t) or pa.types.is_integer(t):
        return col.cast(pa.int64()).to_numpy(zero_copy_only=False)
    return col.cast(pa.float64()).to_numpy(zero_copy_only=False)


def skyline_2d(ds, max_col: str, min_col: str, max_candidates: int = 5_000_000):
    """2-D skyline (Pareto frontier): every row not dominated by any
    other row, where p dominates q iff ``p.max_col >= q.max_col`` and
    ``p.min_col <= q.min_col`` with at least one strict -- the
    multi-objective "best trade-offs" query (e.g. highest-price,
    earliest-date orders).  Rows tied on BOTH dimensions are mutual
    non-dominators: all of them are kept iff their point survives.

    Scale shape: the per-block pass is a sound PRUNE -- a row dominated
    inside its own block is dominated globally, so dropping it can
    never change the answer -- and only block-frontier candidates
    reach the final single-task merge.  For statistically independent
    dimensions the expected frontier of an n-row block is O(log n), so
    the candidate set is ~blocks x log(block), not the corpus; an
    adversarial input (all points on one anti-chain) degrades to the
    full dataset, so the merge is guarded: candidates are counted
    (metadata of the materialized prune output, nothing is collected)
    and the merge refuses above ``max_candidates`` instead of silently
    funnelling 100 TB through one task.

    Nulls in either dimension are rejected (dominance is undefined);
    the reference engine has no multi-objective operator -- this is
    net-new surface for curation fronts (e.g. quality-vs-toxicity).
    """

    def block_skyline(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        xc = t.column(max_col).combine_chunks()
        yc = t.column(min_col).combine_chunks()
        if xc.null_count or yc.null_count:
            raise ValueError(
                "skyline_2d: null values in a skyline dimension"
            )
        x = _skyline_key_np(t.column(max_col))
        y = _skyline_key_np(t.column(min_col))
        order = np.lexsort((y, -x))  # x desc, then y asc
        xs, ys = x[order], y[order]
        n = len(xs)
        # distinct (x, y) points in sorted order
        d = np.empty(n, dtype=bool)
        d[0] = True
        d[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
        xd, yd = xs[d], ys[d]
        m = len(xd)
        # within a distinct-point list sorted (x desc, y asc), a point
        # is non-dominated iff it is the first of its x (same-x
        # predecessors have strictly smaller y) AND its y is strictly
        # below every higher-x point's y (the running minimum)
        fx = np.empty(m, dtype=bool)
        fx[0] = True
        fx[1:] = xd[1:] != xd[:-1]
        sky = np.zeros(m, dtype=bool)
        idx_f = np.flatnonzero(fx)
        yf = yd[idx_f]
        keep_f = np.empty(len(idx_f), dtype=bool)
        keep_f[0] = True
        if len(idx_f) > 1:
            keep_f[1:] = yf[1:] < np.minimum.accumulate(yf)[:-1]
        sky[idx_f] = keep_f
        # map every row to its distinct point and keep skyline members
        row_pt = np.cumsum(d) - 1
        keep_rows = sky[row_pt]
        return t.take(pa.array(order[keep_rows]))

    cand = ds.map_batches(block_skyline, batch_format="pyarrow").materialize()
    n_cand = cand.count()
    if n_cand > max_candidates:
        raise ValueError(
            f"skyline_2d: {n_cand} frontier candidates exceed "
            f"max_candidates={max_candidates}; the input is close to "
            "one giant anti-chain -- partition it (e.g. per group) or "
            "raise the cap explicitly"
        )
    return cand.repartition(1).map_batches(
        block_skyline, batch_format="pyarrow", batch_size=None
    )


def corr_matrix(ds, cols: list[str], scales: list[int]) -> pa.Table:
    """Pearson correlation matrix over ``cols`` from exact fixed-point
    moments -- the one-pass feature-redundancy screen (which numeric
    signals move together) run before feature selection.

    Each column is fixed-pointed (``floor(col * scale)``) so every
    moment (n, S_i, S_ij) is an exact integer; per-block partial sums
    stay in int64 (caller owns the bound ``max|x_i*x_j| * block_rows
    < 2^63`` via the scales -- the reason the defaults quantize prices
    to whole units, not cents), and the driver folds one tiny partial
    row per block in arbitrary-precision Python ints, so no corpus
    size can overflow the global moments.  The correlation itself is a
    fixed IEEE expression over the exact moments (every moment cast to
    double FIRST, then the textbook formula), so an SQL mirror that
    sums the same BIGINT products into HUGEINT and applies the same
    expression tree is bit-identical.

    Scale shape: one stateless streaming pass, zero shuffles; driver
    state is O(blocks x d^2) integers (the k-means partial-fold
    pattern).  A constant column yields a zero denominator -> IEEE
    nan, same as the SQL mirror.  Output: one row per unordered pair
    (col_x < col_y by position), columns (col_x, col_y, n, corr).
    """
    import math

    d = len(cols)
    if len(scales) != d:
        raise ValueError("corr_matrix: one scale per column required")

    def partials(b: pa.Table) -> pa.Table:
        arrs = [
            np.floor(
                b.column(c).cast(pa.float64()).to_numpy(
                    zero_copy_only=False
                )
                * s
            ).astype(np.int64)
            for c, s in zip(cols, scales)
        ]
        row: dict[str, list[int]] = {"n_p": [b.num_rows]}
        for i in range(d):
            row[f"s{i}"] = [int(arrs[i].sum())]
            for j in range(i, d):
                row[f"ss{i}_{j}"] = [int((arrs[i] * arrs[j]).sum())]
        return pa.table(
            {k: pa.array(v, pa.int64()) for k, v in row.items()}
        )

    part_rows = ds.map_batches(
        partials, batch_format="pyarrow"
    ).take_all()
    # arbitrary-precision fold: block partials are int64, totals are not
    tot: dict[str, int] = {}
    for r in part_rows:
        for k, v in r.items():
            tot[k] = tot.get(k, 0) + int(v)
    n = tot.get("n_p", 0)
    nf = float(n)
    out_x, out_y, out_corr = [], [], []
    for i in range(d):
        for j in range(i + 1, d):
            sx = float(tot.get(f"s{i}", 0))
            sy = float(tot.get(f"s{j}", 0))
            sxx = float(tot.get(f"ss{i}_{i}", 0))
            syy = float(tot.get(f"ss{j}_{j}", 0))
            sxy = float(tot.get(f"ss{i}_{j}", 0))
            num = nf * sxy - sx * sy
            den = math.sqrt(nf * sxx - sx * sx) * math.sqrt(
                nf * syy - sy * sy
            )
            out_x.append(cols[i])
            out_y.append(cols[j])
            try:
                out_corr.append(num / den)
            except ZeroDivisionError:
                out_corr.append(float("nan"))
    return pa.table(
        {
            "col_x": pa.array(out_x, pa.string()),
            "col_y": pa.array(out_y, pa.string()),
            "n": pa.array([n] * len(out_x), pa.int64()),
            "corr": pa.array(out_corr, pa.float64()),
        }
    )


def band_join(
    left,
    right,
    val_col: str,
    id_col: str,
    right_val_col: str,
    right_id_col: str,
    eps_q: int,
    n_buckets: int = 64,
    antisym: bool = False,
    salt: int = 1,
):
    """Numeric band join: all pairs with ``|a - b| <= eps_q`` over
    INTEGER-QUANTIZED value columns (the caller quantizes floats --
    e.g. cents -- so the predicate, the bands and the SQL mirror are
    exact; no float epsilon ambiguity).  The fuzzy-numeric record
    linkage / near-price matching shape that equality joins cannot
    express and naive inequality joins turn quadratic.

    Plan: band id = ``value // eps_q`` (floor division, negatives
    included); a qualifying pair's bands differ by at most 1, so the
    LEFT side replicates to bands ``{b-1, b, b+1}`` (3x left rows,
    documented) and one equality ``hash_join`` on the band meets every
    candidate exactly once (at the right row's own band); a vectorized
    exact ``|diff| <= eps_q`` filter closes.  ``antisym=True`` keeps
    ``id_a < id_b`` only -- each unordered pair of a self join appears
    exactly once.

    Scale shape: one co-partitioned bucket shuffle (the band key);
    candidate volume is sum over bands of ``3 * |left_band| *
    |right_band|`` -- size ``eps_q`` so bands stay small.  For
    heavily-tied value distributions (one HOT band holding a large
    fraction of rows), pass ``salt > 1``: it forwards to
    ``hash_join``'s hot-key splitter, spreading each band's left rows
    over ``salt`` sub-buckets at the price of ``salt x`` right-side
    replication.  Output columns: ``id_a, val_a, id_b, val_b``.
    """
    sch_l = pa.schema(
        [("band", pa.int64()), ("id_a", pa.int64()),
         ("val_a", pa.int64())]
    )
    sch_r = pa.schema(
        [("rband", pa.int64()), ("id_b", pa.int64()),
         ("val_b", pa.int64())]
    )

    def rep(b: pa.Table) -> pa.Table:
        v = b.column(val_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        ids = b.column(id_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        band = np.floor_divide(v, np.int64(eps_q))
        return pa.table(
            {
                "band": pa.array(
                    np.concatenate([band - 1, band, band + 1]),
                    pa.int64(),
                ),
                "id_a": pa.array(np.tile(ids, 3), pa.int64()),
                "val_a": pa.array(np.tile(v, 3), pa.int64()),
            }
        )

    def tag(b: pa.Table) -> pa.Table:
        v = b.column(right_val_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "rband": pa.array(
                    np.floor_divide(v, np.int64(eps_q)), pa.int64()
                ),
                "id_b": b.column(right_id_col).cast(pa.int64()),
                "val_b": pa.array(v, pa.int64()),
            }
        )

    j = hash_join(
        left.map_batches(rep, batch_format="pyarrow"),
        right.map_batches(tag, batch_format="pyarrow"),
        on="band",
        right_on="rband",
        how="inner",
        n_buckets=n_buckets,
        left_schema=sch_l,
        right_schema=sch_r,
        salt=salt,
    )

    def close(b: pa.Table) -> pa.Table:
        diff = pc.abs(pc.subtract(b.column("val_a"), b.column("val_b")))
        keep = pc.less_equal(diff, pa.scalar(int(eps_q), pa.int64()))
        if antisym:
            keep = pc.and_(
                keep, pc.less(b.column("id_a"), b.column("id_b"))
            )
        return b.filter(keep).select(
            ["id_a", "val_a", "id_b", "val_b"]
        )

    return j.map_batches(close, batch_format="pyarrow")


def melt(
    ds,
    id_cols: list,
    value_cols: list,
    var_col: str = "variable",
    val_col: str = "value",
):
    """Unpivot (wide -> long): one output row per input row per value
    column, carrying the id columns, the source column's name and its
    value cast to float64 (numeric melt -- the reshape every metrics
    store and plotting layer wants).  Column order and the cast are
    stated so DuckDB's UNPIVOT mirrors exactly.

    Scale shape: stateless ``map_batches`` -- per batch one
    ``pa.concat_tables`` over per-column projections (zero-copy id
    columns, one cast per value column); no shuffle, output streams
    at ``len(value_cols)`` x input rows.
    """

    def fn(b: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            cols = {ic: b.column(ic) for ic in id_cols}
            cols[var_col] = pa.array([c] * len(b), pa.string())
            cols[val_col] = b.column(c).cast(pa.float64())
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(fn, batch_format="pyarrow")
