"""Event-stream operators: sessionization, windowed aggregates, as-of
joins.

Patterns:
* sessionize      -- groupby(user).map_groups ordered scan; gap rule
* as-of join      -- sort-merge two-pointer inside per-key groups; the
                     small side rides along in the same group (union by
                     key), no broadcast needed
* twebber hops    -- the reference's two-recording time alignment
                     (reference twebber.py:56-105) re-expressed as a
                     grouped two-pointer interleave per pair_id
* fold            -- every collected statistic (histograms, moments,
                     window profiles, contingency cells): per-block
                     Arrow group_by partials, one groupby(keys)
                     aggregate, a row-count guard before the one
                     collect; ``collect=False`` keeps per-entity folds
                     distributed
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.cache import map_keyed
from ..state.manifests import H32_MOD, h32

def fold(
    ds, project, keys, aggs=None, limit=None, op="fold",
    limit_name="max_distinct", collect=True,
):
    """The collected-statistic fold: per-block Arrow ``group_by(keys)``
    partials of ``project(batch)``, one ``groupby(keys).aggregate``
    combine, an optional row-count guard, one collect.

    ``aggs`` maps a column of ``project``'s table to ``"sum"``,
    ``"max"`` or ``"min"``; without it the fold counts rows into
    ``n`` (int64).  Output columns keep the plain names: the keys,
    then each ``aggs`` column.  ``keys=[]`` folds to one global row.
    With ``limit``, the folded table is materialised and ``op`` raises
    a ``ValueError`` naming ``limit_name`` when it holds more rows --
    before any row reaches the driver.  Returns a ``pyarrow.Table``;
    ``collect=False`` returns the folded Dataset instead, for
    per-entity folds that stay distributed.  Counts, maxima, minima
    and integer sums are combine-order-exact.
    """
    from ray.data.aggregate import Max, Min, Sum

    keys = [keys] if isinstance(keys, str) else list(keys)
    count = aggs is None
    if count:
        aggs = {"n": "sum"}
    arrow = [([], "count_all")] if count else list(aggs.items())
    named = ["count_all"] if count else [f"{c}_{f}" for c, f in arrow]

    def partial(b: pa.Table) -> pa.Table:
        g = project(b).group_by(keys).aggregate(arrow)
        return g.select(keys + named).rename_columns(keys + list(aggs))

    combine = {"sum": Sum, "max": Max, "min": Min}
    final = [combine[f](c, alias_name=c) for c, f in aggs.items()]
    parts = ds.map_batches(partial, batch_format="pyarrow")
    if not keys:
        row = parts.aggregate(*final) or {}
        return pa.table({c: [row.get(c)] for c in aggs})
    folded = parts.groupby(keys).aggregate(*final)
    if not collect:
        return folded
    return _collect(folded, keys + list(aggs), limit, op, limit_name)


def _collect(
    folded, columns, limit=None, op="fold", limit_name="max_distinct"
):
    """``fold``'s guard and collect, for a Dataset folded by its own
    exchange: with ``limit``, materialise and raise before any row
    reaches the driver; then one ``pyarrow.Table`` (``columns``, all
    null-typed, when the fold is empty).  The blocks stream in one
    ``iter_batches`` pass: ``to_arrow_refs`` on a lazy Dataset runs
    the plan a second time to fetch the schema."""
    if limit is not None:
        folded = folded.materialize()
        n = folded.count()
        if n > limit:
            raise ValueError(
                f"{op}: {n} folded rows exceed {limit_name}={limit}; "
                "coarsen the keys (quantize the metric, widen the "
                "window) or hash-sample rows first"
            )
    blocks = folded.iter_batches(batch_size=None, batch_format="pyarrow")
    tables = [t for t in blocks if t.num_columns]
    if not tables:
        return pa.table({c: pa.nulls(0) for c in columns})
    return pa.concat_tables(tables)


def _rows(tbl: pa.Table, *cols):
    """``tbl``'s ``cols`` as row tuples of Python values."""
    return zip(*(tbl.column(c).to_pylist() for c in cols))


def _window(col, width: int) -> pa.Array:
    """Integer window id of a timestamp column: ``int64(col) / width``
    (Arrow integer division)."""
    return pc.divide(col.cast(pa.int64()), pa.scalar(width, pa.int64()))


def _ones(n: int) -> pa.Array:
    """``n`` int64 ones: a row-count column for a summing ``fold``."""
    return pa.array(np.ones(n, np.int64))


def _cents(col) -> pa.Array:
    """``floor(col * 100)`` as int64: a 2-decimal metric in exact
    integer cents."""
    return pc.cast(
        pc.floor(
            pc.multiply(col.cast(pa.float64()), pa.scalar(100.0, pa.float64()))
        ),
        pa.int64(),
    )


def tumbling_window_agg(
    ds, window_us: int = 3_600_000_000, ts_col="ts", key_col="event_type"
):
    """Per-(key, tumbling time window) count and value sum.

    The window id is a pure projection (ts // window), so this is one
    small-key groupby -- no ordering requirement, no state, and the
    partial aggregation happens inside the shuffle's map side.  The
    100 TB shape for "events per hour per type" style rollups.
    (count/max are combine-order-exact; a float sum would depend on
    addition order and break bit-level oracle comparison.)
    """
    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: b.column(key_col),
                "window": _window(b.column(ts_col), window_us),
                "n": _ones(b.num_rows),
                "value_max": b.column("value"),
            }
        )

    return fold(
        ds, project, [key_col, "window"], {"n": "sum", "value_max": "max"},
        collect=False,
    )


def hopping_window_agg(
    ds,
    size_us: int = 3_600_000_000,
    hop_us: int = 900_000_000,
    ts_col="ts",
    key_col="event_type",
    val_col="value",
):
    """Per-(key, hopping/sliding window) count and max: window ``w``
    covers ``[w*hop, w*hop + size)``, so each event lands in exactly
    ``size/hop`` overlapping windows.

    Same shape as the tumbling variant -- a pure per-row projection
    (here a vectorized ``size/hop``-fold explode) feeding one
    partial+final small-key groupby.  Shuffle volume grows by the
    overlap factor, the inherent cost of overlapping windows; counts
    and max are combine-order-exact so the SQL mirror is bit-exact.
    ``size_us`` must be a multiple of ``hop_us``.
    """
    if size_us % hop_us:
        raise ValueError("size_us must be a multiple of hop_us")
    k = size_us // hop_us

    def explode(b: pa.Table) -> pa.Table:
        n = b.num_rows
        w0 = pc.divide(b.column(ts_col).cast(pa.int64()), hop_us)
        w0 = w0.to_numpy(zero_copy_only=False)
        windows = (
            np.repeat(w0, k) - np.tile(np.arange(k, dtype=np.int64), n)
        )
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), k))
        return pa.table(
            {
                key_col: pc.take(
                    b.column(key_col).combine_chunks(), idx
                ),
                "window": pa.array(windows, pa.int64()),
                "n": _ones(n * k),
                "value_max": pc.take(b.column(val_col).combine_chunks(), idx),
            }
        )

    return fold(
        ds, explode, [key_col, "window"], {"n": "sum", "value_max": "max"},
        collect=False,
    )


def deterministic_sample(ds, rate_pct: int = 10, id_col="doc_id"):
    """Deterministic hash sample: keep rows whose multiplicative id
    hash falls below the rate.  Reproducible across runs/engines (the
    SQL oracle computes the same arithmetic), cluster-friendly (pure
    per-row projection, no global state or RNG), and stable under
    repartitioning -- the properties a training-data subsampling step
    needs that ``random_sample`` lacks."""

    def keep(b: pa.Table) -> pa.Table:
        thresh = (H32_MOD * rate_pct) // 100
        return b.filter(
            pc.less(h32(b.column(id_col)), pa.scalar(thresh, pa.int64()))
        )

    return ds.map_batches(keep, batch_format="pyarrow")


def sessionize(
    ds, gap_us: int = 30 * 60 * 1_000_000, user_col="user_id",
    ts_col="ts", n_buckets: int = 64,
):
    """Assign gap-based session ids per user; emits per-session rows.

    Scale shape: users coarsen to hash buckets before the one groupby
    (dispatch bounded by bucket count, never user count -- the
    event_gaps recipe); inside a bucket ONE lexsort + boundary cumsum
    resolves every user's sessions vectorized, no per-user Python."""

    def project(b: pa.Table) -> pa.Table:
        key = b.column(user_col).cast(pa.int64())
        return pa.table(
            {
                user_col: key,
                "t": b.column(ts_col).cast(pa.int64()),
                "e": b.column("event_id").cast(pa.int64()),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        u = tbl.column(user_col).to_numpy(zero_copy_only=False)
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        e = tbl.column("e").to_numpy(zero_copy_only=False)
        n = len(u)
        order = np.lexsort((e, t, u))
        u, t = u[order], t[order]
        user_change = np.ones(n, dtype=bool)
        user_change[1:] = u[1:] != u[:-1]
        boundary = user_change.copy()
        if n > 1:
            boundary[1:] |= (np.diff(t) > gap_us) & ~user_change[1:]
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.concatenate([starts, [n]]))
        users_out = u[starts]
        # per-user ordinal of each session
        m = len(starts)
        sess_uc = np.ones(m, dtype=bool)
        sess_uc[1:] = users_out[1:] != users_out[:-1]
        first = np.maximum.accumulate(
            np.where(sess_uc, np.arange(m, dtype=np.int64), 0)
        )
        return pa.table(
            {
                "user_id": pa.array(users_out, pa.int64()),
                "session_id": pa.array(
                    np.arange(m, dtype=np.int64) - first, pa.int64()
                ),
                "n_events": pa.array(counts.astype(np.int64), pa.int64()),
                "start_ts": pa.array(t[starts], pa.int64()),
            }
        )

    return map_keyed(
        ds.map_batches(project, batch_format="pyarrow"),
        per_bucket,
        key=user_col,
        n_buckets=n_buckets,
    )


def asof_join_events_orders(events_ds, orders_ds, n_buckets: int = 64):
    """For each event, the most recent order (by date) of the same user
    at or before the event time.  Implemented as a tagged-union
    sort-merge over user-HASH bucket groups: one shuffle, dispatch
    bounded by the bucket count (never user count), and inside each
    bucket a single lexsort + forward-fill resolves every user's
    events vectorized -- the asof equivalent of the event_gaps recipe.
    At equal (user, t) an order dated exactly at the event time
    qualifies, ties among such orders resolving to the largest
    orderkey (same semantics as the ordered sequential walk)."""

    def tag_events(b: pa.Table) -> pa.Table:
        key = b.column("user_id").cast(pa.int64())
        return pa.table(
            {
                "key": key,
                "t": b.column("ts").cast(pa.int64()),
                "side": pa.array(np.ones(b.num_rows, dtype=np.int8)),
                "event_id": b.column("event_id").cast(pa.int64()),
                "o_orderkey": pa.nulls(b.num_rows, pa.int64()),
                "o_totalprice": pa.nulls(b.num_rows, pa.float64()),
            }
        )

    def tag_orders(b: pa.Table) -> pa.Table:
        key = b.column("o_custkey").cast(pa.int64())
        return pa.table(
            {
                "key": key,
                "t": b.column("o_orderdate").cast(pa.int64()),
                "side": pa.array(np.zeros(b.num_rows, dtype=np.int8)),
                "event_id": pa.nulls(b.num_rows, pa.int64()),
                "o_orderkey": b.column("o_orderkey").cast(pa.int64()),
                "o_totalprice": b.column("o_totalprice").cast(pa.float64()),
            }
        )

    both = [
        events_ds.map_batches(tag_events, batch_format="pyarrow"),
        orders_ds.map_batches(tag_orders, batch_format="pyarrow"),
    ]

    def walk(tbl: pa.Table) -> pa.Table:
        key = tbl.column("key").to_numpy(zero_copy_only=False)
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        side = tbl.column("side").to_numpy(zero_copy_only=False)
        okey = (
            pc.fill_null(tbl.column("o_orderkey"), -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        price = (
            pc.fill_null(tbl.column("o_totalprice"), 0.0)
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        eid = (
            pc.fill_null(tbl.column("event_id"), -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        n = len(key)
        # orders (side 0) before events (side 1) at equal (key, t);
        # equal-t orders ascending by orderkey so the forward fill's
        # "last seen" is the largest orderkey, like the ordered walk
        order = np.lexsort((okey, side, t, key))
        key_s, side_s = key[order], side[order]
        is_order = side_s == 0
        idx = np.arange(n, dtype=np.int64)
        ffill = np.maximum.accumulate(np.where(is_order, idx, -1))
        key_change = np.ones(n, dtype=bool)
        key_change[1:] = key_s[1:] != key_s[:-1]
        seg_start = np.maximum.accumulate(np.where(key_change, idx, 0))
        ev_rows = np.flatnonzero(~is_order)
        src = ffill[ev_rows]
        valid = src >= seg_start[ev_rows]
        src_safe = np.where(valid, src, 0)
        okey_s = okey[order]
        price_s = price[order]
        return pa.table(
            {
                "event_id": pa.array(eid[order][ev_rows], pa.int64()),
                "last_orderkey": pa.array(
                    np.where(valid, okey_s[src_safe], -1),
                    pa.int64(),
                    mask=~valid,
                ),
                "last_totalprice": pa.array(
                    np.where(valid, price_s[src_safe], 0.0),
                    pa.float64(),
                    mask=~valid,
                ),
            }
        )

    return map_keyed(both, walk, key="key", n_buckets=n_buckets)


def twebber_hops(frames_ds, pair_col="pair_id", n_buckets: int = 64):
    """Two-recording alignment: within each pair, frames from 'left' and
    'right' recordings interleave; emit hops (from_ts, to_ts) whenever
    the active side catches up past the paused side's position.

    Port of the reference algorithm (reference twebber.py:56-105): the
    earlier-starting side is active; repeatedly skip the active side to
    the paused side's current absolute time, record a hop from the last
    local frame time, swap.  Input rows: (pair_id, side['left'/'right'],
    start_ts, frame_ts) with absolute = start_ts + frame_ts.

    Scale shape: pairs coarsen to hash buckets (dispatch bounded by
    bucket count, never pair count); the two-cursor walk itself is the
    reference's inherently sequential algorithm, run per pair inside
    the bucket.
    """

    def walk(tbl: pa.Table) -> pa.Table:
        pair = tbl.column(pair_col)[0].as_py()
        sides = {}
        for side in ("left", "right"):
            mask = pc.equal(tbl.column("side"), side)
            sub = tbl.filter(mask).sort_by("frame_ts")
            sides[side] = {
                "frames": sub.column("frame_ts").to_pylist(),
                "start": sub.column("start_ts")[0].as_py() if sub.num_rows else 0.0,
            }
        empty = pa.table(
            {
                "pair_id": pa.array([], pa.string()),
                "from_side": pa.array([], pa.string()),
                "from_ts": pa.array([], pa.float64()),
                "to_ts": pa.array([], pa.float64()),
            }
        )
        if not sides["left"]["frames"] or not sides["right"]["frames"]:
            return empty

        class Cursor:
            def __init__(self, name, info, offset):
                self.name = name
                self.frames = info["frames"]
                self.start = offset
                self.i = 0
                self.curr = self.start + self.frames[0]
                self.last_local = 0.0

            def skip_to(self, stop):
                while self.curr < stop:
                    self.last_local = self.frames[self.i]
                    self.i += 1
                    if self.i < len(self.frames):
                        self.curr = self.start + self.frames[self.i]
                    else:
                        self.curr = float("inf")
                return self.last_local

        diff = sides["right"]["start"] - sides["left"]["start"]
        if diff >= 0:
            active = Cursor("left", sides["left"], 0.0)
            paused = Cursor("right", sides["right"], diff)
        else:
            active = Cursor("right", sides["right"], 0.0)
            paused = Cursor("left", sides["left"], -diff)

        out_side, out_from, out_to = [], [], []
        while True:
            from_ts = active.skip_to(paused.curr)
            if active.curr == float("inf") and paused.curr == float("inf"):
                break
            out_side.append(active.name)
            out_from.append(from_ts)
            out_to.append(paused.frames[paused.i])
            active, paused = paused, active
        return pa.table(
            {
                "pair_id": pa.array([pair] * len(out_from), pa.string()),
                "from_side": pa.array(out_side, pa.string()),
                "from_ts": pa.array(out_from, pa.float64()),
                "to_ts": pa.array(out_to, pa.float64()),
            }
        )

    from ..sources.cache import per_key

    return map_keyed(
        frames_ds, per_key(walk, pair_col), key=pair_col, n_buckets=n_buckets
    )


def group_quantiles(
    ds,
    group_col: str,
    value_col: str,
    qs=(0.5, 0.95),
):
    """Exact per-group quantiles with ``percentile_disc`` semantics:
    the reported quantile IS an element of the group (the smallest
    value whose cumulative rank reaches ``q``), so the result is
    bit-identical to SQL's discrete percentile -- no interpolation
    ambiguity.

    Partitioning assumption (documented per the custom-operator rule):
    one group's values must fit a task, which holds when the group key
    is low-cardinality-per-volume (event types, status codes, shard
    labels).  For high-cardinality keys at 100 TB, pre-aggregate to
    (group, value, count) rows first -- the quantile of the compressed
    distribution is exact and the per-group row count drops to the
    distinct-value count.
    """

    def per_group(tbl: pa.Table) -> pa.Table:
        vals = np.sort(
            tbl.column(value_col).to_numpy(zero_copy_only=False)
        )
        n = len(vals)
        row = {group_col: [tbl.column(group_col)[0].as_py()]}
        for q in qs:
            # percentile_disc: smallest value with cum_dist >= q
            idx = max(0, int(np.ceil(q * n)) - 1)
            row["p{}".format(int(q * 100))] = [float(vals[idx])]
        return pa.table(row)

    return ds.groupby(group_col).map_groups(
        per_group, batch_format="pyarrow"
    )


def group_quantiles_hist(
    ds,
    group_col: str,
    value_col: str,
    qs=(0.5, 0.95),
    counts_col: str | None = None,
):
    """Exact per-group ``percentile_disc`` over DISCRETE value columns
    via the compressed (group, value, count) distribution -- the scale
    path :func:`group_quantiles`' docstring prescribes for
    high-volume groups.

    Per-block Arrow partials fold each block to its distinct
    (group, value) counts, one tiny groupby sums them, and the driver
    cumulative-scans each group's sorted histogram to pick the
    smallest value whose cumulative rank reaches ``q`` -- identical
    output to :func:`group_quantiles`, but shuffle volume and driver
    state are bounded by distinct (group, value) PAIRS (e.g. roles x
    line lengths), never by row count, and no task ever holds a whole
    group.

    ``counts_col``: pass the column name when ``ds`` already carries
    partial counts per (group, value) row (e.g. per-file histogram
    partials from conversation-partitioned storage) -- the fold sums
    those counts instead of counting rows.
    """
    n_col = "n" if counts_col is None else counts_col
    hist = fold(
        ds,
        lambda b: b,
        [group_col, value_col],
        None if counts_col is None else {counts_col: "sum"},
    )  # bounded by distinct (group, value) pairs
    by_g: dict = {}
    for gk, v, c in _rows(hist, group_col, value_col, n_col):
        by_g.setdefault(gk, []).append((v, c))
    out = {group_col: []}
    for q in qs:
        out["p{}".format(int(q * 100))] = []
    for gk in sorted(by_g):
        pairs = sorted(by_g[gk])
        vals = np.array([p[0] for p in pairs])
        cum = np.cumsum([p[1] for p in pairs])
        n = int(cum[-1])
        out[group_col].append(gk)
        for q in qs:
            # percentile_disc: smallest value with cum_dist >= q
            target = max(1, int(np.ceil(q * n)))
            out["p{}".format(int(q * 100))].append(
                float(vals[int(np.searchsorted(cum, target))])
            )
    return pa.table(
        {
            group_col: pa.array(out[group_col]),
            **{
                k: pa.array(v, pa.float64())
                for k, v in out.items()
                if k != group_col
            },
        }
    )


def sampled_group_quantiles(
    ds,
    group_col: str,
    value_col: str,
    id_col: str = "event_id",
    qs=(0.5, 0.95),
    sample_mod: int = 4,
):
    """Approximate per-group quantiles for CONTINUOUS (arbitrary-
    cardinality) value columns: a deterministic murmur-fmix32 hash
    sample of ~1/``sample_mod`` of the rows feeds the exact
    discrete-quantile operator.

    This is the scale path the exact quantile family can't cover: its
    state is bounded by DISTINCT values, which for a float64 column
    equals the row count.  Hash sampling bounds the per-group sort at
    rows/``sample_mod`` with quantile error ~O(1/sqrt(group sample));
    at 100 TB pick ``sample_mod`` so a group's sample fits a task
    (e.g. 2^14 for ~10^6 of 10^10 rows).  Because the sample is
    keyed on a stable id hash -- never ``random()`` -- the result is
    deterministic and a SQL mirror running the same hash chain sees
    the IDENTICAL sample, so the quantiles match bit-for-bit
    (percentile_disc picks actual elements)."""

    def sample(b: pa.Table) -> pa.Table:
        ids = (
            b.column(id_col)
            .cast(pa.int64())
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
        )
        keep = _fmix32(ids) % sample_mod == 0
        return b.filter(pa.array(keep)).select([group_col, value_col])

    return group_quantiles(
        ds.map_batches(sample, batch_format="pyarrow"),
        group_col,
        value_col,
        qs=qs,
    )


def winsorize_per_group(
    ds,
    group_col: str,
    value_col: str,
    id_col: str = "event_id",
    q: float = 0.95,
    sample_mod: int = 4,
):
    """Winsorize (upper-clip) a continuous column at its per-group
    hash-sampled ``q``-quantile -- the standard outlier-taming step
    before scaling/normalization in a feature pipeline.

    Two bounded passes: :func:`sampled_group_quantiles` yields one
    threshold row per group (collected and broadcast -- fine for
    low-cardinality groups like event types; co-partition a threshold
    join instead if groups number in the millions), then one stateless
    ``map_batches`` clips.  The threshold is deterministic (fmix32
    id-hash sample + disc quantile), so a SQL mirror computes the
    identical double and ``LEAST`` matches ``np.minimum``
    bit-for-bit."""
    qcol = "p{}".format(int(q * 100))
    thr_rows = sampled_group_quantiles(
        ds, group_col, value_col, id_col=id_col, qs=(q,),
        sample_mod=sample_mod,
    ).take_all()
    thr = {r[group_col]: r[qcol] for r in thr_rows}

    def clip(b: pa.Table) -> pa.Table:
        groups = b.column(group_col).combine_chunks()
        if isinstance(groups, pa.ChunkedArray):
            groups = (
                groups.chunk(0)
                if groups.num_chunks
                else pa.array([], type=groups.type)
            )
        # dictionary-encode: one threshold lookup per DISTINCT group
        # value per batch, then one vectorized minimum
        enc = groups.dictionary_encode()
        tvals = np.array(
            [thr.get(g.as_py(), np.inf) for g in enc.dictionary],
            dtype=np.float64,
        )
        idx = enc.indices.to_numpy(zero_copy_only=False)
        vals = b.column(value_col).to_numpy(zero_copy_only=False)
        clipped = np.minimum(vals, tvals[idx]) if len(idx) else vals
        return pa.table(
            {
                id_col: b.column(id_col),
                group_col: groups,
                "value_w": pa.array(clipped, pa.float64()),
            }
        )

    return ds.map_batches(clip, batch_format="pyarrow")


def zscore_per_group(
    ds,
    group_col: str,
    value_col: str,
    id_col: str = "event_id",
):
    """Per-group z-score normalization of a 2-decimal value column,
    bit-reproducible against SQL: moments are integer-exact (cent
    sums S and squared-cent sums SS folded in unbounded Python ints /
    HUGEINT), and the float epilogue is a fixed IEEE-deterministic
    sequence -- mean = S/n, std = sqrt(double(n*SS - S*S))/n,
    z = (c - mean)/std -- division, sqrt and subtraction are all
    correctly rounded, so both engines emit identical doubles.

    Scale shape: one streaming pass emits per-block (group, n, S, SS)
    partials (an Arrow group_by -- block-sized state never leaves the
    task); the driver fold and broadcast dict are bounded by GROUP
    cardinality (event types, shard labels).  Zero-variance groups
    emit null z."""

    def partials(b: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.floor(pc.multiply(b.column(value_col), 100.0)),
            pa.int64(),
        )
        sq = pc.multiply(cents, cents)
        g = (
            pa.table(
                {
                    group_col: b.column(group_col),
                    "c": cents,
                    "s": sq,
                    "one": _ones(b.num_rows),
                }
            )
            .group_by(group_col)
            .aggregate([("one", "sum"), ("c", "sum"), ("s", "sum")])
        )
        return pa.table(
            {
                group_col: g.column(group_col),
                "n": g.column("one_sum"),
                "s": g.column("c_sum"),
                "ss": g.column("s_sum"),
            }
        )

    # driver fold in unbounded Python ints: no overflow at any scale;
    # state bounded by group cardinality
    stats: dict = {}
    for tbl in ds.map_batches(
        partials, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        for g, n, s, ss in zip(
            tbl.column(group_col).to_pylist(),
            tbl.column("n").to_pylist(),
            tbl.column("s").to_pylist(),
            tbl.column("ss").to_pylist(),
        ):
            pn, ps, pss = stats.get(g, (0, 0, 0))
            stats[g] = (pn + n, ps + s, pss + ss)

    mean_std = {}
    for g, (n, s, ss) in stats.items():
        mean = s / n
        std = np.sqrt(np.float64(n * ss - s * s)) / n
        mean_std[g] = (mean, std)

    def normalize(b: pa.Table) -> pa.Table:
        groups = b.column(group_col).combine_chunks()
        if isinstance(groups, pa.ChunkedArray):
            groups = (
                groups.chunk(0)
                if groups.num_chunks
                else pa.array([], type=groups.type)
            )
        enc = groups.dictionary_encode()
        means = np.array(
            [mean_std.get(g.as_py(), (0.0, 0.0))[0] for g in enc.dictionary],
            dtype=np.float64,
        )
        stds = np.array(
            [mean_std.get(g.as_py(), (0.0, 0.0))[1] for g in enc.dictionary],
            dtype=np.float64,
        )
        idx = enc.indices.to_numpy(zero_copy_only=False)
        cents = (
            pc.cast(
                pc.floor(pc.multiply(b.column(value_col), 100.0)),
                pa.int64(),
            )
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        if len(idx):
            sd = stds[idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                z = (cents - means[idx]) / sd
            valid = sd > 0
        else:
            z = np.array([], dtype=np.float64)
            valid = np.array([], dtype=bool)
        return pa.table(
            {
                id_col: b.column(id_col),
                group_col: groups,
                "z": pa.array(
                    np.where(valid, z, 0.0), pa.float64(), mask=~valid
                ),
            }
        )

    return ds.map_batches(normalize, batch_format="pyarrow")


def event_gaps(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    n_buckets: int = 64,
):
    """Per-user inter-event gap (the LAG delta): for every event, the
    microseconds since the same user's previous event (null for the
    user's first).  The building block for think-time, churn and
    abuse-rate features.

    Scale shape: users are coarsened into ``n_buckets`` hash buckets
    before the one groupby, so group count -- and per-group Python
    dispatch -- is bounded by the bucket count, never by user
    cardinality (the anti-pattern the per-key variant would hit at
    10^9 users).  Inside a bucket one vectorized lexsort + diff
    computes every user's gaps; user boundaries mask to null.
    Per-bucket memory is total/n_buckets of (id, user, ts) int64
    triples -- size n_buckets to the cluster.
    """

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: b.column(id_col).cast(pa.int64()),
                user_col: b.column(user_col).cast(pa.int64()),
                ts_col: b.column(ts_col),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(
            [
                (user_col, "ascending"),
                (ts_col, "ascending"),
                (id_col, "ascending"),
            ]
        )
        ts = tbl.column(ts_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        users = tbl.column(user_col).to_numpy(zero_copy_only=False)
        gap = np.empty(len(ts), dtype=np.int64)
        valid = np.zeros(len(ts), dtype=bool)
        if len(ts):
            gap[1:] = np.diff(ts)
            valid[1:] = users[1:] == users[:-1]  # first-of-user -> null
        return pa.table(
            {
                id_col: tbl.column(id_col),
                user_col: tbl.column(user_col),
                ts_col: tbl.column(ts_col),
                "gap_us": pa.array(
                    np.where(valid, gap, 0), pa.int64(), mask=~valid
                ),
            }
        )

    return map_keyed(
        ds.map_batches(project, batch_format="pyarrow"),
        per_bucket,
        key=user_col,
        n_buckets=n_buckets,
    )


def filter_top_quantile(
    ds, value_col: str, q: float = 0.9, max_distinct: int | None = None
):
    """Keep rows at or above the global discrete ``q``-quantile of an
    INTEGER-valued column -- the "top decile by length/score" curation
    filter, exact (``percentile_disc`` semantics, so the SQL subquery
    mirror picks the identical threshold element).

    Two passes, both shuffle-light: pass 1 pre-reduces every block to
    its (value, count) partials with an Arrow ``group_by`` -- only
    distinct-value rows (bounded for integer metrics like lengths or
    scores, independent of row count) reach the small Ray groupby.
    Under ``max_distinct`` values the driver folds the collected
    distribution into the threshold; ABOVE the cap the collect never
    happens -- the threshold comes from ``histogram_rank_select``, a
    distributed binary search over the materialized histogram (same
    exact ``percentile_disc`` answer, O(1) driver memory).  Pass 2 is
    a stateless broadcast comparison.
    """
    from .relational import DEFAULT_MAX_DISTINCT, histogram_rank_select

    def project(b: pa.Table) -> pa.Table:
        return pa.table({value_col: b.column(value_col).cast(pa.int64())})

    hist_ds = fold(ds, project, value_col, collect=False).materialize()
    n_distinct = hist_ds.count()
    if n_distinct == 0:
        return ds
    cap = max_distinct if max_distinct is not None else DEFAULT_MAX_DISTINCT
    if n_distinct <= cap:
        hist = hist_ds.to_pandas()
        dist = sorted(
            zip(
                hist[value_col].to_numpy(dtype=np.int64).tolist(),
                hist["n"].to_numpy(dtype=np.int64).tolist(),
            )
        )
        total = sum(n for _, n in dist)
        target = max(1, int(np.ceil(q * total)))  # disc-quantile rank
        cum = 0
        thr = dist[-1][0]
        for v, n in dist:
            cum += n
            if cum >= target:
                thr = v
                break
    else:
        total = int(hist_ds.sum("n"))
        target = max(1, int(np.ceil(q * total)))
        thr = histogram_rank_select(hist_ds, value_col, "n", target)

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(
            pc.greater_equal(
                b.column(value_col).cast(pa.int64()),
                pa.scalar(int(thr), pa.int64()),
            )
        )

    return ds.map_batches(keep, batch_format="pyarrow")


def sample_per_group(
    ds,
    group_col: str,
    k: int = 20,
    id_col: str = "doc_id",
):
    """Deterministic stratified sample: the ``k`` rows per group whose
    multiplicative id hash sorts lowest (ties by id) -- balanced
    per-source/per-language subsampling for training-data mixes, with
    the same cross-engine reproducibility story as
    ``deterministic_sample``.

    Scale shape: each block pre-reduces to its own per-group top-k
    (vectorized lexsort + bounded take), so the one shuffle moves at
    most ``k`` rows per group PER BLOCK, never whole groups; partials
    shuffle by a GROUP-HASH bucket (dispatch bounded by bucket count,
    never group count) and one pandas sort+head per bucket folds every
    group at once.  Output rows keep ``(id, group)`` plus the hash so
    the fold needs no recompute.
    """
    from .relational import _pair_bucket_col

    def local_topk(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                id_col: b.column(id_col).cast(pa.int64()),
                group_col: b.column(group_col),
                "h": h32(b.column(id_col)),
            }
        )
        df = t.to_pandas()
        df = df.sort_values(["h", id_col], kind="mergesort")
        # dropna=False: SQL GROUP BY (and Ray's final groupby) keep the
        # null group, so the block-local partial must too
        df = df.groupby(group_col, sort=False, dropna=False).head(k)
        out = pa.Table.from_pandas(df, preserve_index=False).cast(t.schema)
        return out.append_column(
            "gb", _pair_bucket_col(out, group_col, 64)
        )

    partial = ds.map_batches(local_topk, batch_format="pyarrow")

    def merge_heads(tbl: pa.Table) -> pa.Table:
        df = tbl.select([id_col, group_col, "h"]).to_pandas()
        df = df.sort_values(["h", id_col], kind="mergesort")
        df = df.groupby(group_col, sort=False, dropna=False).head(k)
        return pa.Table.from_pandas(
            df[[id_col, group_col]], preserve_index=False
        ).cast(tbl.select([id_col, group_col]).schema)

    return partial.groupby("gb").map_groups(
        merge_heads, batch_format="pyarrow"
    )


def topk_per_group(
    ds,
    group_col: str,
    val_col: str,
    k: int = 3,
    id_col: str = "doc_id",
):
    """The ``k`` rows per group with the LARGEST value (ties broken by
    smallest id) -- "best documents per language/source" selection for
    training-data mixes.

    Same bounded-shuffle shape as ``sample_per_group``: each block
    pre-reduces to its own per-group top-k, so the one shuffle moves at
    most ``k`` rows per group per block; partials shuffle by a
    group-hash bucket (dispatch bounded by bucket count, never group
    count) and one pandas sort+head per bucket folds every group at
    once -- no group ever ships whole.
    """
    from .relational import _pair_bucket_col

    def local_topk(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                id_col: b.column(id_col).cast(pa.int64()),
                group_col: b.column(group_col),
                val_col: b.column(val_col),
            }
        )
        df = t.to_pandas()
        df = df.sort_values(
            [val_col, id_col], ascending=[False, True], kind="mergesort"
        )
        # dropna=False: keep the null group in the partial (see
        # sample_per_group)
        df = df.groupby(group_col, sort=False, dropna=False).head(k)
        out = pa.Table.from_pandas(df, preserve_index=False).cast(t.schema)
        return out.append_column(
            "gb", _pair_bucket_col(out, group_col, 64)
        )

    partial = ds.map_batches(local_topk, batch_format="pyarrow")

    def merge_heads(tbl: pa.Table) -> pa.Table:
        keep = tbl.select([id_col, group_col, val_col])
        df = keep.to_pandas()
        df = df.sort_values(
            [val_col, id_col], ascending=[False, True], kind="mergesort"
        )
        df = df.groupby(group_col, sort=False, dropna=False).head(k)
        return pa.Table.from_pandas(df, preserve_index=False).cast(
            keep.schema
        )

    return partial.groupby("gb").map_groups(
        merge_heads, batch_format="pyarrow"
    )


def pivot_counts(
    ds,
    key_col: str,
    cat_col: str,
    categories: tuple,
    n_buckets: int = 64,
):
    """Pivot / crosstab: one row per key with a count column per
    category (``n_<cat>``) -- the wide feature-matrix shape model
    pipelines feed from event streams.

    Two-level reduction: a per-batch Arrow group-by shrinks blocks to
    (key, cat, n) partials, then key-hash bucket groups fold partials
    and pivot with one vectorized pandas unstack per bucket -- group
    dispatch is bounded by the bucket count, shuffle volume by distinct
    (key, cat) pairs per block.  ``categories`` pins the output schema
    (unknown categories raise rather than silently drop)."""
    cats = list(categories)

    def partial(b: pa.Table) -> pa.Table:
        g = b.select([key_col, cat_col]).group_by(
            [key_col, cat_col]
        ).aggregate([([], "count_all")])
        return pa.table(
            {
                key_col: g.column(key_col).cast(pa.int64()),
                cat_col: g.column(cat_col),
                "n": g.column("count_all").cast(pa.int64()),
            }
        )

    def fold_pivot(tbl: pa.Table) -> pa.Table:
        df = tbl.select([key_col, cat_col, "n"]).to_pandas()
        unknown = set(df[cat_col]) - set(cats)
        if unknown:
            raise ValueError(f"unknown categories: {sorted(unknown)}")
        wide = (
            df.pivot_table(
                index=key_col, columns=cat_col, values="n",
                aggfunc="sum", fill_value=0,
            )
            .reindex(columns=cats, fill_value=0)
            .reset_index()
        )
        cols = {key_col: pa.array(wide[key_col].to_numpy(), pa.int64())}
        for c in cats:
            cols["n_" + c] = pa.array(
                wide[c].to_numpy(dtype="int64"), pa.int64()
            )
        return pa.table(cols)

    return map_keyed(
        ds.map_batches(partial, batch_format="pyarrow"),
        fold_pivot,
        key=key_col,
        n_buckets=n_buckets,
    )


def funnel_two_step(
    ds,
    first_ev: str,
    second_ev: str,
    window_us: int = 7 * 86400 * 1_000_000,
    user_col="user_id",
    ts_col="ts",
    type_col="event_type",
    n_buckets: int = 64,
):
    """Two-step funnel / sequence match: for every user with at least
    one ``first_ev``, the time of their first one, the time of their
    first ``second_ev`` AT OR AFTER it (null if none), and whether that
    conversion landed within ``window_us`` -- the signup→purchase
    retention shape.

    Scale shape: the stream is filtered to the two event types before
    the one user-hash bucket shuffle, and each bucket group resolves
    ALL its users with three vectorized pandas group operations (min
    first-event ts per user; candidate second events filtered by the
    merged per-user anchor; min per user) -- no per-user dispatch, no
    ordered scan.  Timestamps compare as int64 microseconds, so the
    correlated-subquery SQL mirror is exact.
    """

    def prefilter(b: pa.Table) -> pa.Table:
        types = b.column(type_col)
        keep = pc.or_(
            pc.equal(types, first_ev), pc.equal(types, second_ev)
        )
        t = b.filter(keep)
        key = t.column(user_col).cast(pa.int64())
        return pa.table(
            {
                user_col: key,
                "t_us": t.column(ts_col).cast(pa.int64()),
                "is_first": pc.equal(t.column(type_col), first_ev),
            }
        )

    def resolve(tbl: pa.Table) -> pa.Table:
        df = tbl.select([user_col, "t_us", "is_first"]).to_pandas()
        anchors = (
            df[df["is_first"]].groupby(user_col)["t_us"].min().rename("s")
        )
        cand = df[~df["is_first"]].merge(
            anchors, left_on=user_col, right_index=True
        )
        # the merge names the index after user_col when cand is empty;
        # drop it so the groupby below never sees an index/column clash
        cand = cand.reset_index(drop=True)
        cand = cand[cand["t_us"] >= cand["s"]]
        conv = cand.groupby(user_col)["t_us"].min()
        # stay in int64 end-to-end: a left-join would promote the
        # conversion column to float64 and lose exactness past 2^53 us
        s = anchors.to_numpy(dtype="int64")
        has = anchors.index.isin(conv.index)
        sec = np.zeros(len(anchors), dtype=np.int64)
        if has.any():
            sec[has] = conv.reindex(anchors.index[has]).to_numpy(
                dtype="int64"
            )
        converted = has & (sec - s <= window_us)
        return pa.table(
            {
                user_col: pa.array(
                    anchors.index.to_numpy(dtype="int64"), pa.int64()
                ),
                "first_us": pa.array(s, pa.int64()),
                "second_us": pa.array(sec, pa.int64(), mask=~has),
                "converted": pa.array(converted, pa.bool_()),
            }
        )

    return map_keyed(
        ds.map_batches(prefilter, batch_format="pyarrow"),
        resolve,
        key=user_col,
        n_buckets=n_buckets,
    )


def funnel_steps(
    ds,
    steps: list[str],
    window_us: int = 7 * 86400 * 1_000_000,
    user_col="user_id",
    ts_col="ts",
    type_col="event_type",
    n_buckets: int = 64,
):
    """k-step ordered funnel: for every user with at least one
    ``steps[0]`` event, the time of their first one, then for each
    later step the first event of that type AT OR AFTER the previous
    step's time (null once any step is missed, and all later steps
    stay null), plus whether the whole chain completed within
    ``window_us`` of step 1 -- the k-step generalization of
    ``funnel_two_step`` (signup -> activation -> purchase journeys).

    Step event types must be distinct; ties share the `>=` rule of
    the two-step operator, so an equal-timestamp later-step event
    satisfies its step.

    Scale shape: the stream is filtered to the k event types before
    the one user-hash bucket shuffle, and each bucket group resolves
    ALL its users with k-1 vectorized pandas merge+group-min rounds
    over aligned int64 arrays -- no per-user dispatch, no float64
    promotion (exact past 2^53 us), driver sees nothing.
    """
    if len(steps) < 2:
        raise ValueError("funnel_steps needs at least 2 steps")
    if len(set(steps)) != len(steps):
        raise ValueError("funnel_steps: step event types must be distinct")
    k = len(steps)

    def prefilter(b: pa.Table) -> pa.Table:
        types = b.column(type_col)
        keep = pc.is_in(types, value_set=pa.array(steps))
        t = b.filter(keep)
        key = t.column(user_col).cast(pa.int64())
        si = pc.index_in(
            t.column(type_col), value_set=pa.array(steps)
        ).cast(pa.int8())
        return pa.table(
            {
                user_col: key,
                "t_us": t.column(ts_col).cast(pa.int64()),
                "step": si,
            }
        )

    def resolve(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        df = tbl.select([user_col, "t_us", "step"]).to_pandas()
        anchors = (
            df[df["step"] == 0].groupby(user_col)["t_us"].min()
        )
        users = anchors.index
        prev = anchors.to_numpy(dtype="int64")
        reached = np.ones(len(users), dtype=bool)
        cols = [prev.copy()]
        masks = [reached.copy()]
        for i in range(1, k):
            cur = np.zeros(len(users), dtype=np.int64)
            new_reached = np.zeros(len(users), dtype=bool)
            if reached.any():
                pf = pd.Series(
                    prev[reached], index=users[reached], name="prev"
                )
                cand = df[df["step"] == i].merge(
                    pf, left_on=user_col, right_index=True
                )
                cand = cand.reset_index(drop=True)
                cand = cand[cand["t_us"] >= cand["prev"]]
                got = cand.groupby(user_col)["t_us"].min()
                hit = users.isin(got.index)
                if hit.any():
                    cur[hit] = got.reindex(users[hit]).to_numpy(
                        dtype="int64"
                    )
                new_reached = hit
            prev, reached = cur, new_reached
            cols.append(cur.copy())
            masks.append(new_reached.copy())
        converted = masks[-1] & (cols[-1] - cols[0] <= window_us)
        out = {
            user_col: pa.array(
                users.to_numpy(dtype="int64"), pa.int64()
            )
        }
        for i in range(k):
            out[f"s{i + 1}_us"] = pa.array(
                cols[i], pa.int64(), mask=~masks[i]
            )
        out["converted"] = pa.array(converted, pa.bool_())
        return pa.table(out)

    return map_keyed(
        ds.map_batches(prefilter, batch_format="pyarrow"),
        resolve,
        key=user_col,
        n_buckets=n_buckets,
    )


def distinct_count_per_group(
    ds, key_col: str = "event_type", val_col: str = "user_id",
    n_buckets: int = 64,
):
    """Exact COUNT(DISTINCT val) per key -- the reach / unique-users
    aggregate (reference G4's per-sink totals generalized to distinct
    cardinality, main.py-style counters are plain counts).

    Scale shape: (key, val) pairs are deduplicated INSIDE each block
    first (an Arrow group_by -- no data leaves the task), so the one
    shuffle carries at most the distinct pairs per block, not the raw
    rows.  Buckets are keyed by a val hash alone: every pair with a
    given val lands in exactly one bucket, so the per-bucket second
    dedup is globally exact, and per-key partial counts from the
    buckets sum to the answer in a final key groupby whose input is
    n_buckets x n_keys tiny rows.  At 10^9 users nothing driver-side
    ever sees a user id.
    """

    def local_distinct(b: pa.Table) -> pa.Table:
        pairs = pa.table(
            {
                key_col: b.column(key_col),
                val_col: b.column(val_col).cast(pa.int64()),
            }
        )
        d = pairs.group_by([key_col, val_col]).aggregate([])
        return pa.table(
            {
                key_col: d.column(key_col),
                val_col: d.column(val_col),
            }
        )

    def count_in_bucket(tbl: pa.Table) -> pa.Table:
        d = tbl.group_by([key_col, val_col]).aggregate([])
        part = d.group_by(key_col).aggregate([(val_col, "count")])
        return pa.table(
            {
                key_col: part.column(key_col),
                "n_distinct": part.column(f"{val_col}_count").cast(
                    pa.int64()
                ),
            }
        )

    return fold(
        map_keyed(
            ds.map_batches(local_distinct, batch_format="pyarrow"),
            count_in_bucket,
            key=val_col,
            n_buckets=n_buckets,
        ),
        lambda t: t,
        key_col,
        {"n_distinct": "sum"},
        collect=False,
    )


def running_user_totals(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    n_buckets: int = 64,
):
    """Per-user running aggregates over the event stream: the event's
    ordinal within its user (ROW_NUMBER) and the user's cumulative
    value total up to and including it (SUM OVER ... ROWS UNBOUNDED
    PRECEDING) -- the prefix-sum window family that LTV / quota /
    rate-limit features are built from.

    Values are fixed-pointed to integer cents (floor(value * 100)) so
    the running sum is associative-exact and the SQL mirror is
    bit-identical -- a float running sum would be order-dependent.

    Scale shape mirrors ``event_gaps``: users coarsen into
    ``n_buckets`` hash buckets before the one groupby, so group
    dispatch is bounded by the bucket count; inside a bucket one
    lexsort + cumsum-with-group-reset computes every user's prefix
    sums vectorized.
    """

    def project(b: pa.Table) -> pa.Table:
        vals = b.column(value_col).cast(pa.float64()).to_numpy(
            zero_copy_only=False
        )
        cents = np.floor(vals * 100.0).astype(np.int64)
        users = b.column(user_col).combine_chunks().cast(pa.int64())
        return pa.table(
            {
                id_col: b.column(id_col).cast(pa.int64()),
                user_col: users,
                ts_col: b.column(ts_col),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(
            [
                (user_col, "ascending"),
                (ts_col, "ascending"),
                (id_col, "ascending"),
            ]
        )
        n = tbl.num_rows
        users = tbl.column(user_col).to_numpy(zero_copy_only=False)
        cents = tbl.column("cents").to_numpy(zero_copy_only=False)
        idx = np.arange(n, dtype=np.int64)
        first = np.ones(n, dtype=bool)
        if n:
            first[1:] = users[1:] != users[:-1]
        start = np.maximum.accumulate(np.where(first, idx, 0))
        seq = idx - start + 1
        cs = np.cumsum(cents)
        # total strictly before each user's first row, broadcast down
        before = np.where(first, cs - cents, 0)
        base = before[start]
        return pa.table(
            {
                id_col: tbl.column(id_col),
                user_col: tbl.column(user_col),
                ts_col: tbl.column(ts_col),
                "seq": pa.array(seq, pa.int64()),
                "run_cents": pa.array(cs - base, pa.int64()),
            }
        )

    return map_keyed(
        ds.map_batches(project, batch_format="pyarrow"),
        per_bucket,
        key=user_col,
        n_buckets=n_buckets,
    )


def _fmix32(vals: np.ndarray) -> np.ndarray:
    """murmur3 fmix32 finalizer over the low 31 bits of an int64
    array: well-avalanched even for sequential ids, and every step
    (xor/shift + multiply mod 2^32) is exactly expressible in DuckDB
    (HUGEINT multiply), so SQL oracles can mirror it bit-for-bit."""
    h = (np.asarray(vals, dtype=np.int64) & 0x7FFFFFFF).astype(
        np.uint64
    )
    h ^= h >> np.uint64(16)
    h = (h * np.uint64(0x85EBCA6B)) & np.uint64(0xFFFFFFFF)
    h ^= h >> np.uint64(13)
    h = (h * np.uint64(0xC2B2AE35)) & np.uint64(0xFFFFFFFF)
    h ^= h >> np.uint64(16)
    return h.astype(np.int64)


def approx_distinct_per_group(
    ds, key_col: str = "event_type", val_col: str = "user_id",
    n_kb: int = 16,
):
    """HyperLogLog-style approximate COUNT(DISTINCT val) per key --
    the bounded-state scale path beside the exact
    :func:`distinct_count_per_group` (which must shuffle every
    distinct pair at least once; this shuffles 64 integers per key per
    block, full stop).

    m = 64 registers.  The value hash is a murmur3 fmix32 finalizer
    over the low 31 bits (a plain multiplicative hash leaves
    sequential ids badly mixed in the rank bits: +75% bias measured on
    arange ids); the register index is its low 6 bits and the register
    value the leading-zero rank of the remaining 26-bit word -- every
    step is integer-exact, so the DuckDB mirror (xor/shift + HUGEINT
    multiply mod 2^32, `bin()` string length for the bit length)
    agrees bit-for-bit.  Output per key: ``inv_sum_scaled`` (the harmonic
    denominator ``sum(2^-register)`` scaled by 2^27 -- an exact
    BIGINT), ``n_zero_regs``, and ``est`` = the raw HLL estimate
    ``alpha_64 * m^2 / inv_sum`` (alpha_64 = 0.709).  The single float
    division of two identically-computed exact operands is
    bit-reproducible against the SQL oracle; no small-range
    correction is applied (its ``ln`` is not cross-engine
    bit-stable -- use the exact operator when the count is small).

    Scale shape: per-block (key, register) max partials (an Arrow
    group_by -- nothing row-sized leaves the task), one Ray groupby on
    a key-hash bucket folds n_blocks x keys x 64 tiny rows; dispatch
    is bounded by ``n_kb``, never by key or value cardinality.
    """

    def local_regs(b: pa.Table) -> pa.Table:
        vals = (
            b.column(val_col)
            .cast(pa.int64())
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
        )
        hv = _fmix32(vals)
        bucket = hv & 63
        w = hv >> 6  # 26-bit word
        # frexp exponent == bit length for integers (exact in f64 up
        # to 2^53); w == 0 -> exponent 0 -> rank 27, the max
        rank = 27 - np.frexp(w.astype(np.float64))[1]
        part = (
            pa.table(
                {
                    key_col: b.column(key_col),
                    "reg": pa.array(bucket.astype(np.int64), pa.int64()),
                    "rank": pa.array(rank.astype(np.int64), pa.int64()),
                }
            )
            .group_by([key_col, "reg"])
            .aggregate([("rank", "max")])
        )
        return pa.table(
            {
                key_col: part.column(key_col),
                "reg": part.column("reg"),
                "rank": part.column("rank_max"),
            }
        )

    def fold_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {
                "k": tbl.column(key_col).to_pandas(),
                "reg": tbl.column("reg").to_numpy(zero_copy_only=False),
                "rank": tbl.column("rank").to_numpy(
                    zero_copy_only=False
                ),
            }
        )
        mx = df.groupby(["k", "reg"], sort=False)["rank"].max()
        inv = pd.Series(
            np.int64(1) << (27 - mx.to_numpy()), index=mx.index
        )
        per_key = inv.groupby(level="k")
        inv_present = per_key.sum()
        n_present = per_key.size()
        n_zero = 64 - n_present
        inv_sum = inv_present + n_zero * (1 << 27)
        num = 0.709 * 64 * 64 * 134217728
        return pa.table(
            {
                key_col: pa.array(inv_sum.index.to_list(), pa.string()),
                "inv_sum_scaled": pa.array(
                    inv_sum.to_numpy(), pa.int64()
                ),
                "n_zero_regs": pa.array(
                    n_zero.to_numpy().astype(np.int64), pa.int64()
                ),
                "est": pa.array(
                    num / inv_sum.to_numpy().astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    return map_keyed(
        ds.map_batches(local_regs, batch_format="pyarrow"),
        fold_bucket,
        key=key_col,
        n_buckets=n_kb,
    )


def transition_counts(
    ds,
    key_col: str = "conv_id",
    order_col: str = "turn_idx",
    state_col: str = "role",
    n_buckets: int = 64,
):
    """Global state-transition (Markov) counts over keyed ordered
    sequences: for every adjacent pair of rows within a key (ordered
    by ``order_col``), count (from_state -> to_state) occurrences
    corpus-wide -- the turn-structure fingerprint of a conversation
    corpus (who speaks after whom), and the skeleton of any n-gram-
    over-events model.

    Scale shape: keys coarsen into ``n_buckets`` hash buckets before
    the one groupby (dispatch bounded by bucket count); inside a
    bucket one lexsort + shifted compare forms every key's adjacent
    pairs vectorized, and an Arrow group_by collapses them to
    per-bucket (from, to, n) partials -- so the final transition
    groupby sees at most n_buckets x |states|^2 tiny rows.
    """

    def project(b: pa.Table) -> pa.Table:
        keys = b.column(key_col)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        return pa.table(
            {
                key_col: keys,
                order_col: b.column(order_col).cast(pa.int64()),
                state_col: b.column(state_col),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(
            [(key_col, "ascending"), (order_col, "ascending")]
        )
        keys = tbl.column(key_col).to_numpy(zero_copy_only=False)
        states = tbl.column(state_col).combine_chunks()
        n = len(keys)
        if n < 2:
            return pa.table(
                {
                    "from_state": pa.array([], pa.string()),
                    "to_state": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        same = keys[1:] == keys[:-1]
        idx = np.nonzero(same)[0]
        pairs = pa.table(
            {
                "from_state": states.take(pa.array(idx, pa.int64())),
                "to_state": states.take(pa.array(idx + 1, pa.int64())),
            }
        )
        agg = pairs.group_by(["from_state", "to_state"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "from_state": agg.column("from_state"),
                "to_state": agg.column("to_state"),
                "n": agg.column("count_all").cast(pa.int64()),
            }
        )

    return fold(
        map_keyed(
            ds.map_batches(project, batch_format="pyarrow"),
            per_bucket,
            key=key_col,
            n_buckets=n_buckets,
        ),
        lambda t: t,
        ["from_state", "to_state"],
        {"n": "sum"},
        collect=False,
    )


def rolling_user_sum(
    ds,
    window: int = 3,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    n_buckets: int = 64,
):
    """Per-user moving-frame sum: for every event, the sum of the
    user's last ``window`` event values INCLUDING this one (``ROWS
    BETWEEN window-1 PRECEDING AND CURRENT ROW``) -- the bounded-frame
    sibling of ``running_user_totals``'s unbounded prefix sum, and the
    skeleton of burst / velocity features.

    Values fixed-point to integer cents so the frame sum is
    associative-exact.  Same bounded-bucket shape as ``event_gaps``:
    one groupby over ``n_buckets`` user-hash buckets; inside a bucket
    one lexsort + prefix-sum difference (cs[i] - cs[i-window], clamped
    at the user boundary) computes every frame vectorized.
    """

    def project(b: pa.Table) -> pa.Table:
        vals = b.column(value_col).cast(pa.float64()).to_numpy(
            zero_copy_only=False
        )
        cents = np.floor(vals * 100.0).astype(np.int64)
        users = b.column(user_col).combine_chunks().cast(pa.int64())
        return pa.table(
            {
                id_col: b.column(id_col).cast(pa.int64()),
                user_col: users,
                ts_col: b.column(ts_col),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(
            [
                (user_col, "ascending"),
                (ts_col, "ascending"),
                (id_col, "ascending"),
            ]
        )
        n = tbl.num_rows
        users = tbl.column(user_col).to_numpy(zero_copy_only=False)
        cents = tbl.column("cents").to_numpy(zero_copy_only=False)
        idx = np.arange(n, dtype=np.int64)
        first = np.ones(n, dtype=bool)
        if n:
            first[1:] = users[1:] != users[:-1]
        start = np.maximum.accumulate(np.where(first, idx, 0))
        cs = np.cumsum(cents)
        before = np.where(first, cs - cents, 0)
        base = before[start]  # total strictly before the user's run
        prev = idx - window
        clamped = np.maximum(prev, start - 1)
        # cs just before the frame: cs[clamped] where the frame start
        # is inside the run, else the pre-run base
        frame_base = np.where(
            clamped >= start, cs[np.maximum(clamped, 0)], base
        )
        return pa.table(
            {
                id_col: tbl.column(id_col),
                user_col: tbl.column(user_col),
                ts_col: tbl.column(ts_col),
                "win_cents": pa.array(cs - frame_base, pa.int64()),
            }
        )

    return map_keyed(
        ds.map_batches(project, batch_format="pyarrow"),
        per_bucket,
        key=user_col,
        n_buckets=n_buckets,
    )


def audience_overlap(
    ds,
    categories: tuple,
    cat_col: str = "event_type",
    user_col: str = "user_id",
    n_buckets: int = 64,
):
    """Pairwise audience overlap: for every unordered pair of
    categories, how many distinct users appear in BOTH -- the
    co-occurrence / audience-intersection matrix (the exact core of
    segment-overlap and source-affinity analyses).

    Scale shape: (cat, user) pairs dedup inside each block, bucket by
    a user hash (every row of a user lands in one group), and each
    bucket reduces its users to a CATEGORY-BITMASK HISTOGRAM -- at
    most 2^|categories| tiny rows per bucket, regardless of user
    count.  The final groupby sums histograms, and the pairwise
    expansion runs over that <= 2^T-row table (T = |categories|,
    pinned by the caller; unknown categories raise).  No user id ever
    reaches the driver.
    """
    cats = list(categories)
    cat_set = pa.array(cats, pa.string())

    def local_masks(b: pa.Table) -> pa.Table:
        d = (
            pa.table(
                {
                    cat_col: b.column(cat_col),
                    user_col: b.column(user_col).cast(pa.int64()),
                }
            )
            .group_by([cat_col, user_col])
            .aggregate([])
        )
        ci = pc.index_in(d.column(cat_col), value_set=cat_set)
        if ci.null_count:
            bad = d.filter(pc.is_null(ci)).column(cat_col)[0].as_py()
            raise ValueError(f"unknown category {bad!r}")
        ci = ci.to_numpy(zero_copy_only=False).astype(np.int64)
        users = d.column(user_col).to_numpy(zero_copy_only=False)
        uu, inv = np.unique(users, return_inverse=True)
        masks = np.zeros(len(uu), dtype=np.int64)
        np.bitwise_or.at(masks, inv, np.int64(1) << ci)
        return pa.table(
            {
                user_col: pa.array(uu, pa.int64()),
                "mask": pa.array(masks, pa.int64()),
            }
        )

    def hist_in_bucket(tbl: pa.Table) -> pa.Table:
        users = tbl.column(user_col).to_numpy(zero_copy_only=False)
        masks = tbl.column("mask").to_numpy(zero_copy_only=False)
        uu, inv = np.unique(users, return_inverse=True)
        full = np.zeros(len(uu), dtype=np.int64)
        np.bitwise_or.at(full, inv, masks)
        hm, hn = np.unique(full, return_counts=True)
        return pa.table(
            {
                "mask": pa.array(hm, pa.int64()),
                "n": pa.array(hn.astype(np.int64), pa.int64()),
            }
        )

    hist = fold(
        map_keyed(
            ds.map_batches(local_masks, batch_format="pyarrow"),
            hist_in_bucket,
            key=user_col,
            n_buckets=n_buckets,
        ),
        lambda t: t,
        "mask",
        {"n": "sum"},
    )  # <= 2^|categories| rows, independent of data size
    masks = hist.column("mask").to_numpy(zero_copy_only=False)
    counts = hist.column("n").to_numpy(zero_copy_only=False)
    rows = []
    for a in range(len(cats)):
        for b_ in range(a + 1, len(cats)):
            both = (masks >> a) & (masks >> b_) & 1
            n_both = int(counts[both == 1].sum())
            if n_both:
                rows.append((cats[a], cats[b_], n_both))
    import pandas as pd

    return pd.DataFrame(
        rows, columns=["type_a", "type_b", "n_both"]
    )


def mad_outlier_flags(
    ds, value_col: str, id_col: str, k: int = 3,
    max_distinct: int | None = None,
):
    """Robust outlier flags by median absolute deviation: a row is an
    outlier when ``|value - median| > k * MAD`` (both medians with
    percentile_disc semantics -- actual elements, so the rule is
    all-integer exact).  The scale-safe robust alternative to
    mean/stddev filters, which heavy tails corrupt.

    Scale shape: one value-histogram groupby per pass, bounded by
    DISTINCT values, not rows (the ``dense_rank`` scale assumption).
    Under ``max_distinct`` values the two medians are computed from
    the collected (value, count) distribution on the driver; ABOVE the
    cap nothing is collected -- each median comes from
    ``histogram_rank_select`` (distributed binary search over the
    materialized histogram; the deviation histogram for the MAD
    derives from the value histogram with one tiny map+groupby, never
    from the corpus).  Either way the medians enter the flag pass as
    two plain int closures and the corpus itself streams through one
    stateless map.  The input scans ONCE for the distribution and once
    for the flags.
    """
    from .relational import DEFAULT_MAX_DISTINCT, histogram_rank_select

    hist_ds = fold(
        ds, lambda b: b.select([value_col]), value_col, collect=False
    ).materialize()
    n_distinct = hist_ds.count()
    cap = max_distinct if max_distinct is not None else DEFAULT_MAX_DISTINCT
    if n_distinct <= cap:
        hist = hist_ds.to_pandas()
        vals = hist[value_col].to_numpy(dtype=np.int64)
        counts = hist["n"].to_numpy(dtype=np.int64)

        def disc_median(v: np.ndarray, c: np.ndarray) -> int:
            order = np.argsort(v, kind="stable")
            v, c = v[order], c[order]
            total = int(c.sum())
            rank = (total + 1) // 2  # ceil(0.5 * N), 1-based
            cum = np.cumsum(c)
            return int(v[np.searchsorted(cum, rank)])

        med = disc_median(vals, counts)
        mad = disc_median(np.abs(vals - med), counts)
    else:
        total = int(hist_ds.sum("n"))
        rank = (total + 1) // 2
        med = histogram_rank_select(hist_ds, value_col, "n", rank)

        def dev_hist(b: pa.Table) -> pa.Table:
            dev = pc.abs(
                pc.subtract(
                    b.column(value_col).cast(pa.int64()),
                    pa.scalar(med, pa.int64()),
                )
            )
            return pa.table({"dev": dev, "n": b.column("n")})

        dev_ds = fold(
            hist_ds, dev_hist, "dev", {"n": "sum"}, collect=False
        ).materialize()
        mad = histogram_rank_select(dev_ds, "dev", "n", rank)
    thr = k * mad

    def flag(b: pa.Table) -> pa.Table:
        v = b.column(value_col).cast(pa.int64())
        dev = pc.abs(pc.subtract(v, pa.scalar(med, pa.int64())))
        return pa.table(
            {
                id_col: b.column(id_col).cast(pa.int64()),
                value_col: v,
                "is_outlier": pc.greater(
                    dev, pa.scalar(thr, pa.int64())
                ),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow")


def extract_json_int(
    ds, col: str = "props", key: str = "k",
    id_col: str = "event_id", out_col: str | None = None,
):
    """Semi-structured extraction: pull an integer field out of a JSON
    string column with one vectorized RE2 kernel per batch -- the
    schema-on-read ETL step event pipelines apply before anything
    relational.  Rows without the key yield null (mirrored by
    NULLIF + TRY_CAST in the SQL oracle).  Stateless map; at 100 TB
    this fuses into the read task, nothing shuffles.
    """
    out_col = out_col or key
    pattern = '"' + key + '":\\s*(?P<v>-?\\d+)'

    def fn(b: pa.Table) -> pa.Table:
        ext = pc.extract_regex(
            pc.fill_null(b.column(col).combine_chunks(), ""),
            pattern=pattern,
        )
        vals = pc.cast(pc.struct_field(ext, "v"), pa.int64())
        return pa.table(
            {
                id_col: b.column(id_col).cast(pa.int64()),
                out_col: vals,
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def user_history(
    ds,
    k: int = 3,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    state_col: str = "event_type",
    n_buckets: int = 64,
):
    """Per-user ordered history prefix: the user's first ``k`` event
    states in (ts, id) order joined with commas, plus the total event
    count -- the bounded "context window per entity" feature that
    sequence models and abuse heuristics consume (a collect_list
    LIMIT k, which Ray Data has no primitive for).

    Scale shape: the usual bounded user-hash bucket groupby; inside a
    bucket one lexsort + ordinal mask keeps at most ``k`` rows per
    user, and a pandas group-join concatenates them (group dispatch at
    the Ray level stays bounded by bucket count; the per-user join
    walks <= k-row groups inside one bucket).
    """

    def project(b: pa.Table) -> pa.Table:
        users = b.column(user_col).combine_chunks().cast(pa.int64())
        return pa.table(
            {
                id_col: b.column(id_col).cast(pa.int64()),
                user_col: users,
                ts_col: b.column(ts_col),
                state_col: b.column(state_col),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(
            [
                (user_col, "ascending"),
                (ts_col, "ascending"),
                (id_col, "ascending"),
            ]
        )
        n = tbl.num_rows
        users = tbl.column(user_col).to_numpy(zero_copy_only=False)
        idx = np.arange(n, dtype=np.int64)
        first = np.ones(n, dtype=bool)
        if n:
            first[1:] = users[1:] != users[:-1]
        start = np.maximum.accumulate(np.where(first, idx, 0))
        ordinal = idx - start
        uu, counts = np.unique(users, return_counts=True)
        head = tbl.filter(pa.array(ordinal < k)).to_pandas()
        joined = head.groupby(user_col, sort=True)[state_col].agg(
            ",".join
        )
        return pa.table(
            {
                user_col: pa.array(
                    joined.index.to_numpy(dtype="int64"), pa.int64()
                ),
                "first_k": pa.array(
                    joined.to_numpy(dtype=object), pa.string()
                ),
                "n_events": pa.array(counts, pa.int64()),
            }
        )

    return map_keyed(
        ds.map_batches(project, batch_format="pyarrow"),
        per_bucket,
        key=user_col,
        n_buckets=n_buckets,
    )


def gapfill_user_windows(
    ds,
    window_us: int = 3_600_000_000,
    user_col: str = "user_id",
    ts_col: str = "ts",
    n_buckets: int = 64,
):
    """Dense per-user time series: events counted into tumbling
    windows (ts // window), then every missing window between a
    user's first and last active window emitted with count 0 -- the
    gap-fill / densify step dashboards and rate models need before a
    rolling pass.

    Scale shape: per-block Arrow ``group_by`` shrinks each block to
    its distinct (user, window) partials BEFORE the one user-hash
    bucket shuffle (volume = active windows per block, never rows).
    Inside a bucket the dense grid is built fully vectorized -- one
    sort, per-user [min, max] bounds, one ``np.repeat`` + offset
    arange for the grid, one ``searchsorted``-free positional scatter
    of the observed counts.  The output is the dense grid itself, so
    its size (sum of per-user window spans) is the operator's
    inherent result, produced streaming per bucket -- nothing is
    collected.
    """

    def partial(b: pa.Table) -> pa.Table:
        users = b.column(user_col).combine_chunks().cast(pa.int64())
        win = pc.cast(
            pc.divide(
                pc.cast(b.column(ts_col), pa.int64()),
                pa.scalar(window_us, pa.int64()),
            ),
            pa.int64(),
        )
        t = pa.table(
            {
                user_col: users,
                "window_id": win,
                "__one": _ones(b.num_rows),
            }
        )
        g = t.group_by([user_col, "window_id"]).aggregate(
            [("__one", "sum")]
        )
        return g.rename_columns([user_col, "window_id", "__n"])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        df = (
            tbl.select([user_col, "window_id", "__n"])
            .to_pandas()
            .groupby([user_col, "window_id"], sort=True, as_index=False)[
                "__n"
            ]
            .sum()
        )
        users = df[user_col].to_numpy(dtype=np.int64)
        wins = df["window_id"].to_numpy(dtype=np.int64)
        cnts = df["__n"].to_numpy(dtype=np.int64)
        m = len(df)
        if m == 0:
            return pa.table(
                {
                    user_col: pa.array([], pa.int64()),
                    "window_id": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        first = np.ones(m, dtype=bool)
        first[1:] = users[1:] != users[:-1]
        last = np.roll(first, -1)
        lo = wins[first]
        hi = wins[last]
        sizes = hi - lo + 1
        offs = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        total = int(sizes.sum())
        uidx = np.repeat(np.arange(len(lo), dtype=np.int64), sizes)
        grid_w = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offs, sizes)
            + np.repeat(lo, sizes)
        )
        n_events = np.zeros(total, dtype=np.int64)
        row_user_ord = np.cumsum(first) - 1
        pos = offs[row_user_ord] + (wins - lo[row_user_ord])
        n_events[pos] = cnts
        return pa.table(
            {
                user_col: pa.array(users[first][uidx], pa.int64()),
                "window_id": pa.array(grid_w, pa.int64()),
                "n_events": pa.array(n_events, pa.int64()),
            }
        )

    return map_keyed(
        ds.map_batches(partial, batch_format="pyarrow"),
        per_bucket,
        key=user_col,
        n_buckets=n_buckets,
    )


def latest_state(
    ds,
    key_cols=("user_id", "event_type"),
    ts_col: str = "ts",
    id_col: str = "event_id",
    n_buckets: int = 64,
):
    """CDC-style last-writer-wins compaction: one row per key -- the
    row with the greatest (ts, id) -- turning an append-only
    change/event stream into its latest-state snapshot (the merge
    step of an upsert table format).

    Deterministic total order: ties on ``ts`` break by ``id``
    descending, so replays and re-runs converge on the same snapshot.

    Scale shape: every block first compacts LOCALLY to at most one
    row per key it contains (vectorized pandas sort + tail(1)), so
    the one user-hash bucket shuffle carries per-block distinct keys,
    never rows; the per-bucket fold repeats the identical rule on the
    partials.  All non-key columns ride along unchanged -- no
    arithmetic, so the SQL mirror is hash-exact including float
    payloads.
    """
    key_cols = list(key_cols)
    order = key_cols + [ts_col, id_col]

    def keep_latest(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(order, kind="mergesort")
        return df.groupby(key_cols, sort=False, dropna=False).tail(1)

    def local_latest(b: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(
            keep_latest(b.to_pandas()), preserve_index=False
        ).replace_schema_metadata(None)

    names = list(ds.schema().names)

    def per_bucket(tbl: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(
            keep_latest(tbl.select(names).to_pandas()),
            preserve_index=False,
        ).replace_schema_metadata(None)

    return map_keyed(
        ds.map_batches(local_latest, batch_format="pyarrow"),
        per_bucket,
        key=key_cols[0],
        n_buckets=n_buckets,
    )


def scd2_intervals(
    ds,
    user_col: str = "user_id",
    state_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "event_id",
    n_buckets: int = 64,
):
    """Change-log rows -> SCD-type-2 validity intervals: each change
    of a (user, state) key is open from its own timestamp until the
    key's NEXT change (``lead(ts)``), null for the key's latest row --
    the standard warehouse shape for "what was true at time T" joins,
    and the interval complement of ``latest_state``'s compaction.

    Scale shape mirrors ``event_gaps`` with the sort reversed into a
    LEAD: user-hash buckets bound group dispatch by bucket count, one
    lexsort per bucket orders every (user, state) run, and the shifted
    timestamp vector closes each interval vectorized; run boundaries
    mask the final row of each key to null (open interval).
    """

    def project(b: pa.Table) -> pa.Table:
        users = b.column(user_col).combine_chunks().cast(pa.int64())
        return pa.table(
            {
                user_col: users,
                state_col: b.column(state_col),
                id_col: b.column(id_col).cast(pa.int64()),
                ts_col: b.column(ts_col),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(
            [
                (user_col, "ascending"),
                (state_col, "ascending"),
                (ts_col, "ascending"),
                (id_col, "ascending"),
            ]
        )
        n = tbl.num_rows
        ts = tbl.column(ts_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        users = tbl.column(user_col).to_numpy(zero_copy_only=False)
        states = tbl.column(state_col).to_numpy(zero_copy_only=False)
        nxt = np.zeros(n, dtype=np.int64)
        closed = np.zeros(n, dtype=bool)
        if n:
            same = (users[1:] == users[:-1]) & (states[1:] == states[:-1])
            nxt[:-1] = ts[1:]
            closed[:-1] = same
        return pa.table(
            {
                user_col: tbl.column(user_col),
                state_col: tbl.column(state_col),
                id_col: tbl.column(id_col),
                "valid_from": tbl.column(ts_col),
                "valid_to": pa.array(
                    nxt, pa.timestamp("us"), mask=~closed
                ),
            }
        )

    return map_keyed(
        ds.map_batches(project, batch_format="pyarrow"),
        per_bucket,
        key=user_col,
        n_buckets=n_buckets,
    )


def rolling_time_sum(
    ds,
    window_us: int = 3_600_000_000,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    n_buckets: int = 64,
):
    """Per-user event-TIME windowed sum (``RANGE BETWEEN <interval>
    PRECEDING AND CURRENT ROW``): for every event, the sum of integer
    cents over the same user's events in ``[ts - window_us, ts]``,
    peers (equal timestamps) included on both frame edges exactly as
    SQL RANGE frames demand.  The row-count frame sibling is
    ``rolling_user_sum``; this one is what rate limits and velocity
    features actually want, since event density varies.

    Scale shape: user-hash buckets bound dispatch; inside a bucket one
    lexsort + TWO vectorized ``searchsorted`` calls resolve every
    row's frame.  Per-user timestamp runs are made globally monotone
    by lifting onto a composite axis ``seg_id * span + (ts - t0)``
    with ``span > (t_max - t_min) + window``, so a single searchsorted
    over the whole bucket answers all users at once (a frame lower
    bound can never cross into the previous user's span).  When
    ``n_segments * span`` would overflow int64 (billions of users x a
    years-long range in one bucket) the bucket falls back to a
    per-user-segment searchsorted loop -- still vectorized per user.
    """

    def project(b: pa.Table) -> pa.Table:
        vals = b.column(value_col).cast(pa.float64()).to_numpy(
            zero_copy_only=False
        )
        cents = np.floor(vals * 100.0).astype(np.int64)
        users = b.column(user_col).combine_chunks().cast(pa.int64())
        return pa.table(
            {
                id_col: b.column(id_col).cast(pa.int64()),
                user_col: users,
                ts_col: b.column(ts_col),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(
            [
                (user_col, "ascending"),
                (ts_col, "ascending"),
                (id_col, "ascending"),
            ]
        )
        n = tbl.num_rows
        users = tbl.column(user_col).to_numpy(zero_copy_only=False)
        ts = tbl.column(ts_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        cents = tbl.column("cents").to_numpy(zero_copy_only=False)
        win = np.zeros(n, dtype=np.int64)
        if n:
            first = np.ones(n, dtype=bool)
            first[1:] = users[1:] != users[:-1]
            seg = np.cumsum(first) - 1
            t0 = int(ts.min())
            span = int(ts.max()) - t0 + window_us + 2
            csum = np.concatenate(
                ([0], np.cumsum(cents, dtype=np.int64))
            )
            n_seg = int(seg[-1]) + 1
            if n_seg * span < (1 << 62):
                comp = seg * span + (ts - t0)
                lo = np.searchsorted(comp, comp - window_us, "left")
                hi = np.searchsorted(comp, comp, "right")
                win = csum[hi] - csum[lo]
            else:  # pathological range x segment count: per-user loop
                starts = np.flatnonzero(first)
                ends = np.append(starts[1:], n)
                for s, e in zip(starts, ends):
                    t = ts[s:e]
                    lo = s + np.searchsorted(t, t - window_us, "left")
                    hi = s + np.searchsorted(t, t, "right")
                    win[s:e] = csum[hi] - csum[lo]
        return pa.table(
            {
                id_col: tbl.column(id_col),
                user_col: tbl.column(user_col),
                ts_col: tbl.column(ts_col),
                "win_cents": pa.array(win, pa.int64()),
            }
        )

    return map_keyed(
        ds.map_batches(project, batch_format="pyarrow"),
        per_bucket,
        key=user_col,
        n_buckets=n_buckets,
    )


def throttle_events(
    ds,
    window_us: int,
    user_col: str = "user_id",
    state_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "event_id",
    n_buckets: int = 64,
):
    """Rate-limit / debounce filter: keep an event iff it is the
    first of its (user, type) key or strictly more than ``window_us``
    after the key's PREVIOUS event (LAG semantics -- each event is
    throttled against its raw predecessor, the SQL-expressible variant
    of debouncing; the kept-chain variant is an FSM, not a window).

    Same bounded recipe as ``event_gaps``: user-hash buckets, one
    lexsort per bucket over (user, type, ts, id), vectorized diff +
    boundary mask, then a filter -- rows stream out, nothing
    driver-side.
    """

    def project(b: pa.Table) -> pa.Table:
        users = b.column(user_col).combine_chunks().cast(pa.int64())
        return pa.table(
            {
                id_col: b.column(id_col).cast(pa.int64()),
                user_col: users,
                state_col: b.column(state_col),
                ts_col: b.column(ts_col),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(
            [
                (user_col, "ascending"),
                (state_col, "ascending"),
                (ts_col, "ascending"),
                (id_col, "ascending"),
            ]
        )
        n = tbl.num_rows
        keep = np.ones(n, dtype=bool)
        if n:
            ts = tbl.column(ts_col).cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
            users = tbl.column(user_col).to_numpy(zero_copy_only=False)
            states = tbl.column(state_col).to_numpy(
                zero_copy_only=False
            )
            same = (users[1:] == users[:-1]) & (
                states[1:] == states[:-1]
            )
            keep[1:] = ~same | (np.diff(ts) > window_us)
        return tbl.select(
            [id_col, user_col, state_col, ts_col]
        ).filter(pa.array(keep))

    return map_keyed(
        ds.map_batches(project, batch_format="pyarrow"),
        per_bucket,
        key=user_col,
        n_buckets=n_buckets,
    )


def quantile_cont_per_group(
    ds,
    group_col: str,
    value_col: str,
    qs=(0.5, 0.9),
    scale: int = 100,
):
    """Exact per-group INTERPOLATED quantiles (``percentile_cont``
    semantics): at fractional rank ``h = (n-1) * q`` the result is
    ``lo + (hi - lo) * (h - floor(h))`` over the two neighboring order
    statistics -- the continuous sibling of ``group_quantiles``'
    discrete pick, needed when a smooth threshold (latency SLOs,
    budget caps) matters more than membership.

    Values are fixed-pointed (``floor(value * scale)``) so the order
    statistics are exact integers and the one interpolation is a
    fixed IEEE expression over them -- an SQL mirror spelling the same
    expression tree is bit-identical.

    Partitioning assumption: same as ``group_quantiles`` (a group's
    values fit one task; pre-compress to (group, value, count) for
    high-cardinality keys -- interpolation over the compressed
    distribution is exact too since order statistics survive
    compression).
    """

    def per_group(tbl: pa.Table) -> pa.Table:
        raw = tbl.column(value_col).cast(pa.float64()).to_numpy(
            zero_copy_only=False
        )
        vals = np.sort(np.floor(raw * scale).astype(np.int64))
        n = len(vals)
        row = {group_col: [tbl.column(group_col)[0].as_py()]}
        nf = np.float64(n - 1)
        for q in qs:
            h = nf * np.float64(q)
            lo = vals[int(np.floor(h))]
            hi = vals[int(np.ceil(h))]
            res = np.float64(lo) + (
                np.float64(hi) - np.float64(lo)
            ) * (h - np.floor(h))
            row["p{}_cents".format(int(q * 100))] = [float(res)]
        return pa.table(row)

    return ds.groupby(group_col).map_groups(
        per_group, batch_format="pyarrow"
    )


def cohort_retention(
    ds,
    window_us: int = 86_400_000_000,
    user_col: str = "user_id",
    ts_col: str = "ts",
    n_buckets: int = 64,
):
    """Cohort retention matrix: users bucket into the window of their
    FIRST activity (the cohort), and each (cohort, window) cell counts
    the distinct cohort members active in that window -- the standard
    growth-analytics triangle, built entirely from bounded pieces.

    Scale shape: per-block DISTINCT (user, window) pairs first (Arrow
    group_by in-task, so the shuffle carries at most one row per pair
    per block), ONE user-hash bucket groupby both dedups pairs exactly
    and derives each user's cohort (min window) inside the bucket --
    every pair of a user lands in one bucket, so cohort and activity
    co-locate with no join -- then the final groupby sums tiny
    (cohort, window) partials.  Nothing driver-side, dispatch bounded
    by bucket count.
    """

    def local_pairs(b: pa.Table) -> pa.Table:
        users = b.column(user_col).combine_chunks().cast(pa.int64())
        w = pc.divide(
            b.column(ts_col).cast(pa.int64()),
            pa.scalar(window_us, pa.int64()),
        )
        pairs = pa.table({user_col: users, "win": w})
        return pairs.group_by([user_col, "win"]).aggregate([])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        d = tbl.group_by([user_col, "win"]).aggregate([])
        cohort = d.group_by(user_col).aggregate([("win", "min")])
        merged = d.join(
            cohort, keys=[user_col], join_type="inner"
        )
        part = merged.group_by(["win_min", "win"]).aggregate(
            [(user_col, "count")]
        )
        return pa.table(
            {
                "cohort": part.column("win_min").cast(pa.int64()),
                "win": part.column("win").cast(pa.int64()),
                "n_users": part.column(f"{user_col}_count").cast(
                    pa.int64()
                ),
            }
        )

    return fold(
        map_keyed(
            ds.map_batches(local_pairs, batch_format="pyarrow"),
            per_bucket,
            key=user_col,
            n_buckets=n_buckets,
        ),
        lambda t: t,
        ["cohort", "win"],
        {"n_users": "sum"},
        collect=False,
    )


def merge_upsert(
    base_ds,
    changes_ds,
    key_cols,
    op_col: str = "op",
    seq_col: str = "change_seq",
    n_buckets: int = 64,
):
    """MERGE INTO: apply a CDC change batch (upserts ``op='u'`` and
    deletes ``op='d'``, ordered per key by ``seq_col`` -- base rows
    rank as seq 0) to a base snapshot, producing the next snapshot.
    The write-side completion of the CDC family: ``latest_state``
    compacts a log, ``snapshot_diff`` compares the result, this
    operator PRODUCES it.

    Payload columns are everything except keys / op / seq, and must
    match between base and changes (a snapshot and its change feed
    share a schema; deletes may carry null payloads).  ``seq_col``
    must be a positive int64, unique per key within the batch -- the
    caller's change-log order.

    Scale shape: one union + the ``latest_state`` bounded compaction
    (blocks compact locally to <= 1 row per contained key BEFORE the
    single key-hash bucket shuffle), then a vectorized tombstone
    filter.  Neither snapshot is ever collected or broadcast.
    """
    payload = [
        c
        for c in base_ds.schema().names
        if c not in set(key_cols) | {op_col, seq_col}
    ]
    key_cols = list(key_cols)

    def tag_base(b: pa.Table) -> pa.Table:
        cols = {k: b.column(k) for k in key_cols}
        for c in payload:
            cols[c] = b.column(c)
        cols[op_col] = pa.array(
            np.full(b.num_rows, "u", dtype=object), pa.string()
        )
        cols[seq_col] = pa.array(
            np.zeros(b.num_rows, dtype=np.int64), pa.int64()
        )
        return pa.table(cols)

    def project_changes(b: pa.Table) -> pa.Table:
        cols = {k: b.column(k) for k in key_cols}
        for c in payload:
            cols[c] = b.column(c)
        cols[op_col] = b.column(op_col)
        cols[seq_col] = b.column(seq_col).cast(pa.int64())
        return pa.table(cols)

    unioned = base_ds.map_batches(
        tag_base, batch_format="pyarrow"
    ).union(
        changes_ds.map_batches(project_changes, batch_format="pyarrow")
    )

    def add_tb(b: pa.Table) -> pa.Table:
        return b.append_column("__tb", b.column(seq_col))

    compacted = latest_state(
        unioned.map_batches(add_tb, batch_format="pyarrow"),
        key_cols=key_cols,
        ts_col=seq_col,
        id_col="__tb",
        n_buckets=n_buckets,
    )

    def live(b: pa.Table) -> pa.Table:
        keep = pc.not_equal(b.column(op_col), pa.scalar("d"))
        return b.filter(keep).select(key_cols + payload)

    return compacted.map_batches(live, batch_format="pyarrow")


def top_paths(
    ds,
    gap_us: int = 30 * 60 * 1_000_000,
    k: int = 25,
    user_col: str = "user_id",
    ts_col: str = "ts",
    state_col: str = "event_type",
    n_buckets: int = 64,
):
    """Top-k session paths (sequence mining): sessions cut on the
    same gap rule as ``sessionize``, each session's ordered event
    types joined into a ``a>b>c`` path string, paths counted
    corpus-wide, strongest ``k`` returned (ties: path order).  The
    "what do users actually do" aggregate funnels are sliced from.

    Scale shape: the ``sessionize`` bucket recipe builds every
    session's path VECTORIZED (one lexsort, boundary cumsum, one
    ``pc.binary_join`` over a ListArray built from the boundary
    offsets -- no per-session Python), and each bucket group emits
    only its (path, n) partials; the final groupby's shuffle volume
    is distinct paths per bucket, and sort+limit sees only the
    aggregated path table.
    """

    def project(b: pa.Table) -> pa.Table:
        key = b.column(user_col).cast(pa.int64())
        return pa.table(
            {
                user_col: key,
                "t": b.column(ts_col).cast(pa.int64()),
                "e": b.column("event_id").cast(pa.int64()),
                state_col: b.column(state_col),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        u = tbl.column(user_col).to_numpy(zero_copy_only=False)
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        e = tbl.column("e").to_numpy(zero_copy_only=False)
        n = len(u)
        if n == 0:
            return pa.table(
                {
                    "path": pa.array([], pa.string()),
                    "n_sessions": pa.array([], pa.int64()),
                }
            )
        order = np.lexsort((e, t, u))
        u, t = u[order], t[order]
        states = (
            tbl.column(state_col)
            .combine_chunks()
            .take(pa.array(order, pa.int64()))
        )
        user_change = np.ones(n, dtype=bool)
        user_change[1:] = u[1:] != u[:-1]
        boundary = user_change.copy()
        if n > 1:
            boundary[1:] |= (np.diff(t) > gap_us) & ~user_change[1:]
        starts = np.flatnonzero(boundary)
        offsets = np.concatenate([starts, [n]]).astype(np.int32)
        sessions = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), states
        )
        paths = pc.binary_join(sessions, ">")
        part = pa.table({"path": paths}).group_by("path").aggregate(
            [("path", "count")]
        )
        return pa.table(
            {
                "path": part.column("path"),
                "n_sessions": part.column("path_count").cast(pa.int64()),
            }
        )

    return (
        fold(
            map_keyed(
                ds.map_batches(project, batch_format="pyarrow"),
                per_bucket,
                key=user_col,
                n_buckets=n_buckets,
            ),
            lambda t: t,
            "path",
            {"n_sessions": "sum"},
            collect=False,
        )
        .sort(["n_sessions", "path"], descending=[True, False])
        .limit(k)
    )


def time_weighted_avg(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "value",
    id_col: str = "event_id",
    n_buckets: int = 64,
):
    """Per-entity time-weighted average (TWAP): each event's value
    holds until the entity's next event; the average weights values
    by how long they held -- the sensor-reading / price-stream
    aggregate where a plain mean over-counts bursts.

    Rule (stated so SQL can mirror it exactly): events order by
    ``(ts, id)``; interval ``i`` contributes ``cents_i * dt_ms_i``
    with ``cents = floor(value * 100)`` and ``dt_ms = (next_us -
    us) // 1000``; the last event of an entity contributes nothing.
    Output per entity with >= 2 events: ``n_intervals``, integer
    ``weighted_cents_ms`` and ``span_ms`` sums, and ``twap = weighted
    / (100 * span)`` -- one IEEE division, null when every interval
    is zero-length.  All weights integer, so sums are order-free and
    the DuckDB mirror is bit-exact (int64 bound: max_cents x
    entity_span_ms, ~2^53 at 10^5 cents over 30 years).

    Scale shape: the uniform window-family recipe -- entities
    coarsened to hash buckets before the ONE shuffle, each bucket
    resolved by one lexsort + shifted diff, no per-entity dispatch.
    """

    def prefilter(b: pa.Table) -> pa.Table:
        key = b.column(user_col).cast(pa.int64())
        return pa.table(
            {
                user_col: key,
                "t_us": b.column(ts_col).cast(pa.int64()),
                "eid": b.column(id_col).cast(pa.int64()),
                "cents": _cents(b.column(val_col)),
            }
        )

    def resolve(tbl: pa.Table) -> pa.Table:
        users = tbl.column(user_col).to_numpy(zero_copy_only=False)
        ts = tbl.column("t_us").to_numpy(zero_copy_only=False)
        eid = tbl.column("eid").to_numpy(zero_copy_only=False)
        cents = tbl.column("cents").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, users))
        u, t, c = users[order], ts[order], cents[order]
        same_next = np.zeros(len(u), bool)
        if len(u) > 1:
            same_next[:-1] = u[1:] == u[:-1]
        dt_ms = np.zeros(len(u), np.int64)
        if len(u) > 1:
            dt_ms[:-1] = (t[1:] - t[:-1]) // 1000
        w = np.where(same_next, c * dt_ms, 0)
        # fold per entity: entities are contiguous after the lexsort
        starts = np.concatenate(
            [[0], np.flatnonzero(u[1:] != u[:-1]) + 1]
        )
        n_iv = np.add.reduceat(same_next.astype(np.int64), starts)
        keep = n_iv > 0
        if not keep.any():
            return pa.schema(
                [
                    (user_col, pa.int64()),
                    ("n_intervals", pa.int64()),
                    ("weighted_cents_ms", pa.int64()),
                    ("span_ms", pa.int64()),
                    ("twap", pa.float64()),
                ]
            ).empty_table()
        wsum = np.add.reduceat(w, starts)[keep]
        span = np.add.reduceat(
            np.where(same_next, dt_ms, 0), starts
        )[keep]
        with np.errstate(invalid="ignore", divide="ignore"):
            twap = np.where(
                span > 0,
                wsum.astype(np.float64)
                / (100 * span).astype(np.float64),
                np.nan,
            )
        return pa.table(
            {
                user_col: pa.array(u[starts][keep], pa.int64()),
                "n_intervals": pa.array(n_iv[keep], pa.int64()),
                "weighted_cents_ms": pa.array(wsum, pa.int64()),
                "span_ms": pa.array(span, pa.int64()),
                "twap": pa.array(twap, pa.float64(), mask=~(span > 0)),
            }
        )

    return map_keyed(
        ds.map_batches(prefilter, batch_format="pyarrow"),
        resolve,
        key=user_col,
        n_buckets=n_buckets,
    )


def group_entropy(
    ds,
    key_col: str = "user_id",
    val_col: str = "event_type",
    n_buckets: int = 64,
    scale: int = 1_000_000,
):
    """Per-key Shannon entropy of a categorical column's distribution
    -- the behavioral-diversity feature (a user whose events are all
    one type scores 0; the bot-vs-human signal next to the gap and
    funnel features), in the same integer micro-nat quantization as
    the text-entropy family: a value with per-key count ``c`` in a
    key of ``n`` events contributes ``c * floor((ln(n) - ln(c)) *
    scale)`` with libm ``ln`` once per DISTINCT count -- exact int64
    sums, one IEEE division for ``entropy_nats``.

    Scale shape (the uniform window-family recipe): per-block Arrow
    ``group_by`` reduces raw rows to (key, val, count) partials, the
    ONE shuffle is keyed by a key hash so a bucket owns every partial
    of its keys (dispatch bounded by bucket count, never key
    cardinality), and the in-bucket fold is one lexsort + segmented
    sums.  Nothing driver-side; output is one row per key.
    """
    import math

    scale_f = float(scale)

    def local_counts(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                key_col: b.column(key_col).combine_chunks().cast(
                    pa.int64()
                ),
                val_col: b.column(val_col),
                "n_occ": _ones(len(b)),
            }
        )
        agg = t.group_by([key_col, val_col]).aggregate([("n_occ", "sum")])
        return pa.table(
            {
                key_col: agg.column(key_col),
                val_col: agg.column(val_col),
                "n_occ": agg.column("n_occ_sum"),
            }
        )

    def entropy_in_bucket(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by([key_col, val_col]).aggregate(
            [("n_occ", "sum")]
        )
        keys = agg.column(key_col).to_numpy(zero_copy_only=False)
        c = agg.column("n_occ_sum").to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        keys_s, c_s = keys[order], c[order]
        starts = np.flatnonzero(
            np.r_[True, keys_s[1:] != keys_s[:-1]]
        )
        out_keys = keys_s[starts]
        n_tot = np.add.reduceat(c_s, starts)
        seg = np.repeat(
            np.arange(len(starts), dtype=np.int64),
            np.diff(np.r_[starts, len(keys_s)]),
        )
        vals = np.unique(np.concatenate([c_s, n_tot]))
        ln_map = np.array(
            [math.log(float(v)) for v in vals], np.float64
        )
        ln_c = ln_map[np.searchsorted(vals, c_s)]
        ln_n = ln_map[np.searchsorted(vals, n_tot)][seg]
        contrib = c_s * np.floor(
            (ln_n - ln_c) * scale_f
        ).astype(np.int64)
        ent_q = np.add.reduceat(contrib, starts)
        return pa.table(
            {
                key_col: pa.array(out_keys, pa.int64()),
                "n_events": pa.array(n_tot, pa.int64()),
                "entropy_q": pa.array(ent_q, pa.int64()),
                "entropy_nats": pa.array(
                    ent_q.astype(np.float64)
                    / (scale * n_tot).astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    return map_keyed(
        ds.map_batches(local_counts, batch_format="pyarrow"),
        entropy_in_bucket,
        key=key_col,
        n_buckets=n_buckets,
    )


def activity_streaks(
    ds,
    key_col: str = "user_id",
    ts_col: str = "ts",
    n_buckets: int = 64,
    day_us: int = 86_400_000_000,
):
    """Gaps-and-islands per key: collapse events to distinct active
    days, split each key's day sequence into maximal runs of
    CONSECUTIVE days, and report per key the active-day count, the
    number of runs, and the longest run -- the retention "streak"
    feature (and the generic islands detector: any integer axis works
    via ``day_us``).

    Scale shape (the uniform window-family recipe): (key, day) pairs
    are deduplicated INSIDE each block first, so the one key-hash
    bucket shuffle carries at most distinct pairs per block; the
    in-bucket fold re-deduplicates (cross-block repeats of the same
    day merge exactly), then one lexsort + two ``reduceat`` passes
    compute every run length -- no per-key Python, dispatch bounded by
    bucket count.
    """

    def local_days(b: pa.Table) -> pa.Table:
        keys = b.column(key_col).combine_chunks().cast(pa.int64())
        ts = b.column(ts_col).combine_chunks().cast(pa.int64())
        days = pc.divide(
            pc.subtract(
                ts, pc.if_else(pc.less(ts, 0), pa.scalar(day_us - 1, pa.int64()), pa.scalar(0, pa.int64()))
            ),
            pa.scalar(day_us, pa.int64()),
        )
        t = pa.table({key_col: keys, "day": days})
        d = t.group_by([key_col, "day"]).aggregate([])
        return pa.table(
            {
                key_col: d.column(key_col),
                "day": d.column("day"),
            }
        )

    def streaks_in_bucket(tbl: pa.Table) -> pa.Table:
        d = tbl.group_by([key_col, "day"]).aggregate([])
        keys = d.column(key_col).to_numpy(zero_copy_only=False)
        days = d.column("day").to_numpy(zero_copy_only=False)
        order = np.lexsort((days, keys))
        k_s, day_s = keys[order], days[order]
        n = len(k_s)
        new_run = np.empty(n, dtype=bool)
        new_run[0] = True
        new_run[1:] = (k_s[1:] != k_s[:-1]) | (day_s[1:] != day_s[:-1] + 1)
        run_starts = np.flatnonzero(new_run)
        run_len = np.diff(np.r_[run_starts, n]).astype(np.int64)
        run_key = k_s[run_starts]
        key_starts = np.flatnonzero(
            np.r_[True, run_key[1:] != run_key[:-1]]
        )
        out_key = run_key[key_starts]
        n_active = np.add.reduceat(run_len, key_starts)
        longest = np.maximum.reduceat(run_len, key_starts)
        n_streaks = np.diff(np.r_[key_starts, len(run_len)]).astype(
            np.int64
        )
        return pa.table(
            {
                key_col: pa.array(out_key, pa.int64()),
                "n_active_days": pa.array(n_active, pa.int64()),
                "n_streaks": pa.array(n_streaks, pa.int64()),
                "longest_streak": pa.array(longest, pa.int64()),
            }
        )

    return map_keyed(
        ds.map_batches(local_days, batch_format="pyarrow"),
        streaks_in_bucket,
        key=key_col,
        n_buckets=n_buckets,
    )


def nearest_event_join(
    ds,
    anchor_type: str = "purchase",
    near_type: str = "click",
    user_col: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "event_id",
    n_buckets: int = 64,
):
    """Nearest-neighbor temporal join: for every ``anchor_type`` event,
    the same user's ``near_type`` event CLOSEST in time in either
    direction -- the bidirectional generalization of the as-of join
    (which only looks backward), i.e. "which click does this purchase
    belong to".  Deterministic tie rule, mirrored in SQL: order
    candidates by (absolute gap, candidate ts, candidate id) and keep
    the first; anchors whose user has no candidate are dropped (inner
    semantics).

    Scale shape: both event classes are prefiltered and co-located by
    ONE user-hash bucket shuffle; inside a bucket one lexsort orders
    the candidate axis and three ``searchsorted`` calls per anchor
    column resolve the left/right neighbors and the first-id row of
    the chosen timestamp -- no per-user Python on the fast path (the
    composite segment*span axis, with the same per-segment fallback as
    ``rolling_time_sum`` when segments x span would overflow int64).
    """

    def project(b: pa.Table) -> pa.Table:
        et = b.column(type_col)
        keep = pc.or_(
            pc.equal(et, anchor_type), pc.equal(et, near_type)
        )
        t = b.filter(keep)
        users = t.column(user_col).combine_chunks().cast(pa.int64())
        return pa.table(
            {
                id_col: t.column(id_col).cast(pa.int64()),
                user_col: users,
                ts_col: t.column(ts_col),
                "is_anchor": pc.equal(t.column(type_col), anchor_type),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(
            [
                (user_col, "ascending"),
                (ts_col, "ascending"),
                (id_col, "ascending"),
            ]
        )
        users = tbl.column(user_col).to_numpy(zero_copy_only=False)
        ts = tbl.column(ts_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        is_a = tbl.column("is_anchor").to_numpy(zero_copy_only=False)
        n = len(users)
        tcol = tbl.column(ts_col).type
        empty = pa.table(
            {
                "anchor_id": pa.array([], pa.int64()),
                user_col: pa.array([], pa.int64()),
                "anchor_ts": pa.array([], tcol),
                "near_id": pa.array([], pa.int64()),
                "near_ts": pa.array([], tcol),
                "gap_us": pa.array([], pa.int64()),
            }
        )
        if not n:
            return empty
        first = np.ones(n, dtype=bool)
        first[1:] = users[1:] != users[:-1]
        seg = np.cumsum(first) - 1
        a_idx = np.flatnonzero(is_a)
        c_idx = np.flatnonzero(~is_a)
        if not len(a_idx) or not len(c_idx):
            return empty
        t0 = int(ts.min())
        span = int(ts.max()) - t0 + 2
        n_seg = int(seg[-1]) + 1
        if n_seg * span >= (1 << 62):  # pathological: per-user loop
            rows = []
            starts = np.flatnonzero(first)
            ends = np.append(starts[1:], n)
            for s, e in zip(starts, ends):
                la = [i for i in range(s, e) if is_a[i]]
                lc = [i for i in range(s, e) if not is_a[i]]
                for i in la:
                    best = min(
                        lc,
                        key=lambda j: (abs(int(ts[j]) - int(ts[i])),
                                       int(ts[j]), int(ids[j])),
                        default=None,
                    )
                    if best is not None:
                        rows.append((i, best))
            if not rows:
                return empty
            ai = np.array([r[0] for r in rows], np.int64)
            ci = np.array([r[1] for r in rows], np.int64)
        else:
            comp = seg * span + (ts - t0)
            comp_c = comp[c_idx]
            ts_c = ts[c_idx]
            seg_c = seg[c_idx]
            comp_a = comp[a_idx]
            ts_a = ts[a_idx]
            seg_a = seg[a_idx]
            pos = np.searchsorted(comp_c, comp_a, "left")
            u_lo = np.searchsorted(comp_c, seg_a * span, "left")
            u_hi = np.searchsorted(comp_c, (seg_a + 1) * span, "left")
            has_l = pos > u_lo
            has_r = pos < u_hi
            keep = has_l | has_r
            if not keep.any():
                return empty
            posk = pos[keep]
            d_l = np.where(
                has_l[keep],
                ts_a[keep] - ts_c[np.maximum(posk - 1, 0)],
                np.iinfo(np.int64).max,
            )
            d_r = np.where(
                has_r[keep],
                ts_c[np.minimum(posk, len(ts_c) - 1)] - ts_a[keep],
                np.iinfo(np.int64).max,
            )
            take_left = d_l <= d_r  # equal distance -> earlier ts
            chosen_ts = np.where(
                take_left,
                ts_c[np.maximum(posk - 1, 0)],
                ts_c[np.minimum(posk, len(ts_c) - 1)],
            )
            # first candidate row of the chosen (user, ts) => lowest id
            ci = c_idx[
                np.searchsorted(
                    comp_c, seg_a[keep] * span + (chosen_ts - t0),
                    "left",
                )
            ]
            ai = a_idx[keep]
        gap = np.abs(ts[ci] - ts[ai])
        take_a = pa.array(ai, pa.int64())
        take_c = pa.array(ci, pa.int64())
        return pa.table(
            {
                "anchor_id": pa.array(ids[ai], pa.int64()),
                user_col: pa.array(users[ai], pa.int64()),
                "anchor_ts": tbl.column(ts_col).take(take_a),
                "near_id": pa.array(ids[ci], pa.int64()),
                "near_ts": tbl.column(ts_col).take(take_c),
                "gap_us": pa.array(gap, pa.int64()),
            }
        )

    return map_keyed(
        ds.map_batches(project, batch_format="pyarrow"),
        per_bucket,
        key=user_col,
        n_buckets=n_buckets,
    )


def error_bursts(
    ds,
    window_us: int = 900 * 1_000_000,
    threshold: int = 3,
    match: str = "error",
    type_col: str = "event_type",
    ts_col: str = "ts",
):
    """Burst detection over an event stream: tumble the matching
    events into ``window_us`` windows, call a window HOT when it holds
    ``>= threshold`` events, and return every maximal run of
    CONSECUTIVE hot windows (the gaps-and-islands rule: a cold or
    empty window ends the burst) with its start/end window, length,
    total event count and peak single-window count -- the standard
    alerting primitive of log analytics (error-rate spike detection).

    Scale shape: the stream is filtered and pre-counted per block
    (one (window, partial-count) row per distinct window per block),
    then one small groupby folds the counts -- the windows table is
    bounded by time-span / window size, INDEPENDENT of row count, so
    the final island scan runs as one vectorized data-plane task over
    that bounded table (repartition(1) + numpy reduceat), never a
    driver collect.
    """
    def project(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b.column(type_col), match))
        return pa.table({"w": _window(t.column(ts_col), window_us)})

    agg = fold(ds, project, "w", collect=False)

    def islands(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "burst_id": pa.array([], pa.int64()),
                "w_start": pa.array([], pa.int64()),
                "w_end": pa.array([], pa.int64()),
                "n_windows": pa.array([], pa.int64()),
                "total_events": pa.array([], pa.int64()),
                "peak_events": pa.array([], pa.int64()),
            }
        )
        if len(tbl) == 0:
            return empty
        w = tbl.column("w").to_numpy(zero_copy_only=False)
        n = tbl.column("n").to_numpy(zero_copy_only=False)
        order = np.argsort(w, kind="stable")
        w, n = w[order], n[order]
        hot = n >= threshold
        w, n = w[hot], n[hot]
        if len(w) == 0:
            return empty
        # consecutive hot windows share (w - ordinal)
        grp = w - np.arange(len(w), dtype=np.int64)
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(grp) != 0) + 1)
        )
        ends = np.concatenate((starts[1:], [len(w)]))
        return pa.table(
            {
                "burst_id": pa.array(
                    np.arange(1, len(starts) + 1, dtype=np.int64)
                ),
                "w_start": pa.array(w[starts], pa.int64()),
                "w_end": pa.array(w[ends - 1], pa.int64()),
                "n_windows": pa.array(ends - starts, pa.int64()),
                "total_events": pa.array(
                    np.add.reduceat(n, starts), pa.int64()
                ),
                "peak_events": pa.array(
                    np.maximum.reduceat(n, starts), pa.int64()
                ),
            }
        )

    return agg.repartition(1).map_batches(
        islands, batch_format="pyarrow"
    )


def decay_score(
    ds,
    t_ref_us: int,
    half_life_us: int = 86400 * 1_000_000,
    max_halvings: int = 31,
    user_col: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "value",
):
    """Per-entity exponentially time-decayed engagement score: each
    event contributes its value halved once per elapsed ``half_life``
    before ``t_ref`` -- the recency-weighted activity prior of
    ranking / recommendation pipelines, reduced to an exact integer
    rule so any partitioning (and the SQL mirror) agrees bit-for-bit.

    Rule: ``age = clamp((t_ref_us - ts_us) // half_life_us, 0,
    max_halvings)`` and the event contributes ``cents * 2^(max_halvings
    - age)`` with ``cents = floor(value * 100)`` -- all int64, sums
    order-free.  Output per entity: ``n_events``, the integer
    ``decayed_q`` sum, and ``decay_score = decayed_q / (100.0 *
    2^max_halvings)`` (one IEEE division).  int64 bound:
    ``max_cents * 2^max_halvings * events_per_entity < 2^63`` --
    at the default 31 halvings, ~43M cent-events per entity.

    Scale shape: per-block Arrow group-by partials (user, partial sum,
    partial count) -- one row per distinct user per block crosses the
    one small groupby; no sort, no window, no driver collect.
    """
    def project(b: pa.Table) -> pa.Table:
        age = pc.divide(
            pc.subtract(
                pa.scalar(int(t_ref_us), pa.int64()),
                b.column(ts_col).cast(pa.int64()),
            ),
            pa.scalar(int(half_life_us), pa.int64()),
        )
        age = pc.max_element_wise(age, pa.scalar(0, pa.int64()))
        age = pc.min_element_wise(
            age, pa.scalar(int(max_halvings), pa.int64())
        )
        contrib = pc.multiply(
            _cents(b.column(val_col)),
            pc.shift_left(
                pa.scalar(1, pa.int64()),
                pc.subtract(
                    pa.scalar(int(max_halvings), pa.int64()), age
                ),
            ),
        )
        return pa.table(
            {
                user_col: b.column(user_col).cast(pa.int64()),
                "n_events": _ones(b.num_rows),
                "decayed_q": contrib,
            }
        )

    denom = 100.0 * float(1 << int(max_halvings))

    def finish(b: pa.Table) -> pa.Table:
        return b.append_column(
            "decay_score",
            pc.divide(
                b.column("decayed_q").cast(pa.float64()),
                pa.scalar(denom, pa.float64()),
            ),
        )

    return fold(
        ds, project, user_col, {"n_events": "sum", "decayed_q": "sum"},
        collect=False,
    ).map_batches(finish, batch_format="pyarrow")


def gini_by_group(
    ds,
    group_col: str,
    val_col: str,
    quant: int = 100,
    n_buckets: int = 64,
):
    """Per-group Gini concentration index over a NON-NEGATIVE value
    column -- the inequality / skew profiler (how concentrated is
    spend per priority class, tokens per domain, traffic per key).

    Exact integer rule (so any partitioning and the SQL mirror agree):
    values quantize to ``v = floor(value * quant)``; with the group's
    values ascending (ties in any order -- the rank-weighted sum is
    tie-invariant), ``gini_num = 2 * sum(i * v_i) - (n + 1) * sum(v)``
    and ``gini_den = n * sum(v)``; ``gini = gini_num / gini_den`` is
    the ONE float division.  int64 bound: ``n^2 * mean_v / 2 < 2^63``
    -- ~10^9 rows per group at 10^4 quanta mean.

    Scale shape: the window-family recipe -- group-hash buckets
    (a group's rows land in one bucket), one lexsort per bucket, the
    rank-weighted sums via vectorized segment arithmetic; one row per
    group leaves the bucket.
    """

    def prefilter(b: pa.Table) -> pa.Table:
        g = b.column(group_col)
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        v = pc.cast(
            pc.floor(
                pc.multiply(
                    b.column(val_col).cast(pa.float64()),
                    pa.scalar(float(quant), pa.float64()),
                )
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "grp": g,
                "v": v,
            }
        )

    def resolve(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        grp = tbl.column("grp").to_pandas().to_numpy()
        v = tbl.column("v").to_numpy(zero_copy_only=False)
        order = np.lexsort((v, grp))
        grp, v = grp[order], v[order]
        # group starts on the sorted tape
        new_grp = np.ones(len(grp), dtype=bool)
        new_grp[1:] = grp[1:] != grp[:-1]
        starts = np.flatnonzero(new_grp)
        sizes = np.diff(np.concatenate([starts, [len(grp)]]))
        i = (
            np.arange(len(grp), dtype=np.int64)
            - np.repeat(starts, sizes)
            + 1
        )
        s = np.add.reduceat(v, starts)
        iv = np.add.reduceat(i * v, starts)
        n = sizes.astype(np.int64)
        num = 2 * iv - (n + 1) * s
        den = n * s
        gini = np.divide(
            num.astype(np.float64),
            den.astype(np.float64),
            out=np.full(len(n), np.nan),
            where=den != 0,
        )
        return pa.table(
            {
                group_col: pa.array(grp[starts]),
                "n": pa.array(n, pa.int64()),
                "sum_q": pa.array(s, pa.int64()),
                "gini_num": pa.array(num, pa.int64()),
                "gini_den": pa.array(den, pa.int64()),
                "gini": pa.array(
                    np.where(den != 0, gini, np.nan), pa.float64()
                ),
            }
        )

    return map_keyed(
        ds.map_batches(prefilter, batch_format="pyarrow"),
        resolve,
        key="grp",
        n_buckets=n_buckets,
    )


def interp_join(
    queries_ds,
    events_ds,
    q_id_col: str = "o_orderkey",
    q_user_col: str = "o_custkey",
    q_ts_col: str = "o_orderdate",
    user_col: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "value",
    id_col: str = "event_id",
    n_buckets: int = 64,
):
    """Linear interpolation of a per-entity time series at arbitrary
    query times -- the time-series resampling join (sensor readings at
    invoice dates, metrics at deploy times).  For every query row the
    entity's bracketing events resolve deterministically: ``prev`` =
    last event at or before the query time (ties: largest id),
    ``next`` = first event at or after it (ties: smallest id);
    ``v_interp`` is the ONE IEEE expression ``v_prev + (v_next -
    v_prev) * ((t_q - t_prev) / (t_next - t_prev))`` in float64, with
    hold-last / backfill / prev-wins-at-equal-times / null-when-no-
    events edge rules stated so the SQL mirror is bit-exact.

    Scale shape: tagged union + ONE user-hash bucket shuffle (the
    asof recipe -- dispatch bounded by bucket count); inside a bucket
    two vectorized ``pd.merge_asof`` passes (backward + forward,
    ``by=`` the entity) resolve every query row -- no per-entity
    dispatch, no per-row Python.
    """
    import pandas as pd

    def tag_q(b: pa.Table) -> pa.Table:
        u = b.column(q_user_col).cast(pa.int64())
        return pa.table(
            {
                "u": u,
                "t": b.column(q_ts_col).cast(pa.int64()),
                "side": pa.array(np.ones(b.num_rows, dtype=np.int8)),
                "qid": b.column(q_id_col).cast(pa.int64()),
                "eid": pa.nulls(b.num_rows, pa.int64()),
                "v": pa.nulls(b.num_rows, pa.float64()),
            }
        )

    def tag_e(b: pa.Table) -> pa.Table:
        u = b.column(user_col).cast(pa.int64())
        return pa.table(
            {
                "u": u,
                "t": b.column(ts_col).cast(pa.int64()),
                "side": pa.array(np.zeros(b.num_rows, dtype=np.int8)),
                "qid": pa.nulls(b.num_rows, pa.int64()),
                "eid": b.column(id_col).cast(pa.int64()),
                "v": b.column(val_col).cast(pa.float64()),
            }
        )

    both = [
        queries_ds.map_batches(tag_q, batch_format="pyarrow"),
        events_ds.map_batches(tag_e, batch_format="pyarrow"),
    ]

    def resolve(tbl: pa.Table) -> pa.Table:
        df = tbl.select(["u", "t", "side", "qid", "eid", "v"]).to_pandas()
        q = df[df["side"] == 1][["u", "t", "qid"]].sort_values("t")
        e = (
            df[df["side"] == 0][["u", "t", "eid", "v"]]
            .sort_values(["t", "eid"])
            .rename(columns={"t": "et"})
        )
        if len(q) == 0:
            return pa.table(
                {
                    q_id_col: pa.array([], pa.int64()),
                    "t_prev_us": pa.array([], pa.int64()),
                    "v_prev": pa.array([], pa.float64()),
                    "t_next_us": pa.array([], pa.int64()),
                    "v_next": pa.array([], pa.float64()),
                    "v_interp": pa.array([], pa.float64()),
                }
            )
        # backward: last event <= t (frame order makes ties resolve
        # to the largest eid); forward: first event >= t (smallest eid)
        back = pd.merge_asof(
            q, e, left_on="t", right_on="et", by="u",
            direction="backward",
        ).rename(columns={"et": "tp", "v": "vp"})
        fwd = pd.merge_asof(
            q, e, left_on="t", right_on="et", by="u",
            direction="forward",
        ).rename(columns={"et": "tn", "v": "vn"})
        tq = back["t"].to_numpy(dtype="int64")
        qid = back["qid"].to_numpy(dtype="int64")
        tp = back["tp"].to_numpy(dtype="float64")
        vp = back["vp"].to_numpy(dtype="float64")
        tn = fwd["tn"].to_numpy(dtype="float64")
        vn = fwd["vn"].to_numpy(dtype="float64")
        has_p, has_n = ~np.isnan(tp), ~np.isnan(tn)
        out = np.full(len(tq), np.nan)
        both_m = has_p & has_n
        lerp = both_m & (tp != tn)
        # int64-exact diffs, then the one IEEE expression
        with np.errstate(invalid="ignore", divide="ignore"):
            num = tq[lerp] - tp[lerp].astype(np.int64)
            den = tn[lerp].astype(np.int64) - tp[lerp].astype(np.int64)
            out[lerp] = vp[lerp] + (vn[lerp] - vp[lerp]) * (
                num.astype(np.float64) / den.astype(np.float64)
            )
        out[both_m & (tp == tn)] = vp[both_m & (tp == tn)]
        out[has_p & ~has_n] = vp[has_p & ~has_n]
        out[~has_p & has_n] = vn[~has_p & has_n]
        return pa.table(
            {
                q_id_col: pa.array(qid, pa.int64()),
                "t_prev_us": pa.array(
                    np.where(has_p, tp, 0).astype(np.int64),
                    pa.int64(),
                    mask=~has_p,
                ),
                "v_prev": pa.array(vp, pa.float64(), mask=~has_p),
                "t_next_us": pa.array(
                    np.where(has_n, tn, 0).astype(np.int64),
                    pa.int64(),
                    mask=~has_n,
                ),
                "v_next": pa.array(vn, pa.float64(), mask=~has_n),
                "v_interp": pa.array(
                    out,
                    pa.float64(),
                    mask=~(has_p | has_n),
                ),
            }
        )

    return map_keyed(both, resolve, key="u", n_buckets=n_buckets)


def interval_concurrency(
    ds,
    id_col: str,
    start_col: str,
    end_col: str,
    bucket_us: int = 3600 * 1_000_000,
    max_buckets: int = 4_000_000,
):
    """For every interval, how many intervals of the WHOLE table
    (itself included) are active at its start instant, under
    ``active(t) = start <= t < end`` -- the orders-in-flight /
    concurrent-sessions load profiler.  Pure rank arithmetic, stated
    so the SQL mirror is exact: ``n_active(t) = #(starts <= t) -
    #(ends <= t)`` (an interval ending exactly at ``t`` is no longer
    active; one starting exactly at ``t`` is).

    Scale shape -- global order statistics WITHOUT a global sort:
    pass A folds per-block partials into a (time-bucket, n_starts,
    n_ends) histogram BOUNDED BY TIME SPAN / bucket size, independent
    of row count (guarded by ``max_buckets`` -- the materialized
    histogram is metadata-counted before collection, the rank-family
    contract); its exclusive prefix sums broadcast once via
    ``ray.put``.  Pass B co-locates each bucket's boundary values and
    probe rows with ONE bucket-key shuffle; inside a bucket two local
    ``searchsorted`` calls plus the broadcast prefix resolve every
    probe.  No driver-side per-row work, no global sort.
    """
    import ray

    from .dedup import _cached_get

    def part_a(b: pa.Table) -> pa.Table:
        s = b.column(start_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        e = b.column(end_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        tb = np.concatenate(
            [
                np.floor_divide(s, np.int64(bucket_us)),
                np.floor_divide(e, np.int64(bucket_us)),
            ]
        )
        is_s = np.concatenate(
            [np.ones(len(s), np.int64), np.zeros(len(e), np.int64)]
        )
        return pa.table(
            {
                "tb": pa.array(tb, pa.int64()),
                "ns": pa.array(is_s, pa.int64()),
                "ne": pa.array(1 - is_s, pa.int64()),
            }
        )

    hist = fold(
        ds, part_a, "tb", {"ns": "sum", "ne": "sum"}, limit=max_buckets,
        op="interval_concurrency", limit_name="max_buckets",
    ).sort_by("tb")
    tb_sorted = np.asarray(hist.column("tb"), np.int64)
    ns = np.asarray(hist.column("ns"), np.int64)
    ne = np.asarray(hist.column("ne"), np.int64)
    pre_s = np.concatenate([[0], np.cumsum(ns)[:-1]])
    pre_e = np.concatenate([[0], np.cumsum(ne)[:-1]])
    ref = ray.put((tb_sorted, pre_s, pre_e))

    def part_b(b: pa.Table) -> pa.Table:
        s = b.column(start_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        e = b.column(end_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        ids = b.column(id_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        sb = np.floor_divide(s, np.int64(bucket_us))
        eb = np.floor_divide(e, np.int64(bucket_us))
        # kind 1 = start boundary (doubles as the probe row: the
        # probe instant IS the interval's start), kind 0 = end
        return pa.table(
            {
                "tb": pa.array(np.concatenate([sb, eb]), pa.int64()),
                "t": pa.array(np.concatenate([s, e]), pa.int64()),
                "kind": pa.array(
                    np.concatenate(
                        [
                            np.ones(len(s), np.int8),
                            np.zeros(len(e), np.int8),
                        ]
                    ),
                    pa.int8(),
                ),
                "pid": pa.array(
                    np.concatenate([ids, np.zeros(len(e), np.int64)]),
                    pa.int64(),
                ),
            }
        )

    def resolve(tbl: pa.Table) -> pa.Table:
        tb_sorted_, pre_s_, pre_e_ = _cached_get(ref)
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        kind = tbl.column("kind").to_numpy(zero_copy_only=False)
        pid = tbl.column("pid").to_numpy(zero_copy_only=False)
        tb = int(tbl.column("tb")[0].as_py())
        bi = int(np.searchsorted(tb_sorted_, tb))
        starts = np.sort(t[kind == 1])
        ends = np.sort(t[kind == 0])
        probe_t = t[kind == 1]
        c = (
            pre_s_[bi]
            + np.searchsorted(starts, probe_t, side="right")
            - pre_e_[bi]
            - np.searchsorted(ends, probe_t, side="right")
        )
        return pa.table(
            {
                id_col: pa.array(pid[kind == 1], pa.int64()),
                "n_active": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(part_b, batch_format="pyarrow")
        .groupby("tb")
        .map_groups(resolve, batch_format="pyarrow")
    )


def session_entry_exit(
    ds,
    gap_us: int = 30 * 60 * 1_000_000,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    type_col: str = "event_type",
    n_buckets: int = 64,
):
    """Entry/exit transition matrix over gap-based sessions: sessions
    form per user under the ``sessionize`` rule (a gap > ``gap_us``
    starts a new session; events order by ``(ts, id)``); each session
    contributes its FIRST and LAST event type, and the output counts
    sessions per ``(entry_type, exit_type)`` pair -- the landing/exit-
    page analysis of web analytics.

    Scale shape: the sessionize recipe -- user-hash buckets, ONE
    lexsort + boundary cumsum per bucket resolves every session's
    first/last rows vectorized; per-bucket partial pair counts, one
    tiny groupby.
    """
    def project(b: pa.Table) -> pa.Table:
        key = b.column(user_col).cast(pa.int64())
        return pa.table(
            {
                "u": key,
                "t": b.column(ts_col).cast(pa.int64()),
                "e": b.column(id_col).cast(pa.int64()),
                "et": b.column(type_col),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        u = tbl.column("u").to_numpy(zero_copy_only=False)
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        e = tbl.column("e").to_numpy(zero_copy_only=False)
        order = np.lexsort((e, t, u))
        u_s, t_s = u[order], t[order]
        et = tbl.column("et").to_pandas().to_numpy()[order]
        new_sess = np.ones(len(u_s), dtype=bool)
        if len(u_s) > 1:
            same = u_s[1:] == u_s[:-1]
            new_sess[1:] = ~same | (t_s[1:] - t_s[:-1] > gap_us)
        starts = np.flatnonzero(new_sess)
        ends = np.concatenate([starts[1:] - 1, [len(u_s) - 1]])
        return pa.table(
            {
                "entry_type": pa.array(et[starts], pa.string()),
                "exit_type": pa.array(et[ends], pa.string()),
                "n_sessions": _ones(len(starts)),
            }
        )

    return fold(
        map_keyed(
            ds.map_batches(project, batch_format="pyarrow"),
            per_bucket,
            key="u",
            n_buckets=n_buckets,
        ),
        lambda t: t,
        ["entry_type", "exit_type"],
        {"n_sessions": "sum"},
        collect=False,
    )


def cusum_alerts(
    ds,
    target_cents: int,
    h_cents: int,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    val_col: str = "value",
    n_buckets: int = 64,
):
    """Per-entity one-sided CUSUM drift alarms: over each user's
    events ordered by ``(ts, id)``, the CUSUM statistic ``S_i =
    max(0, S_{i-1} + (cents_i - target_cents))`` flags upward drift
    when ``S_i >= h_cents`` -- the classic sequential change
    detector, computable VECTORIZED (and in SQL) via its closed form
    ``S_i = P_i - min(0, P_1..P_i)`` over the deviation prefix sums
    ``P``.  Integer cents end-to-end, so any partitioning and the
    mirror agree exactly.  Output: one row per alerting event with
    its CUSUM value.

    Scale shape: the window-family recipe -- user-hash buckets, one
    lexsort + segment cumsum / running-min per bucket; only alert
    rows leave the task.
    """

    def project(b: pa.Table) -> pa.Table:
        key = b.column(user_col).cast(pa.int64())
        cents = _cents(b.column(val_col))
        return pa.table(
            {
                "u": key,
                "t": b.column(ts_col).cast(pa.int64()),
                "e": b.column(id_col).cast(pa.int64()),
                "c": cents,
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        u = tbl.column("u").to_numpy(zero_copy_only=False)
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        e = tbl.column("e").to_numpy(zero_copy_only=False)
        c = tbl.column("c").to_numpy(zero_copy_only=False)
        order = np.lexsort((e, t, u))
        u_s, t_s, e_s, c_s = u[order], t[order], e[order], c[order]
        dev = c_s - np.int64(target_cents)
        # segmented prefix sums: global cumsum minus each segment's
        # leading offset
        P = np.cumsum(dev)
        new_u = np.ones(len(u_s), dtype=bool)
        if len(u_s) > 1:
            new_u[1:] = u_s[1:] != u_s[:-1]
        seg_starts = np.flatnonzero(new_u)
        seg_sizes = np.diff(np.concatenate([seg_starts, [len(u_s)]]))
        base = np.repeat(
            np.concatenate([[0], P[seg_starts[1:] - 1]])
            if len(seg_starts) > 1
            else np.zeros(1, dtype=np.int64),
            seg_sizes,
        )
        Pl = P - base  # per-user prefix sums
        # running min of (0, Pl_1..Pl_i) per segment, fully
        # vectorized: give each segment a strictly DECREASING offset
        # larger than the global value spread, so a single global
        # minimum.accumulate never carries a previous segment's
        # (higher-offset) values into the current one
        rm = np.minimum(Pl, np.where(new_u, 0, np.int64(2**62)))
        if len(seg_starts) > 1:
            spread = np.int64(
                max(int(Pl.max()) - min(int(Pl.min()), 0), 0) + 1
            )
            seg_of = np.repeat(
                np.arange(len(seg_starts), dtype=np.int64), seg_sizes
            )
            off = (np.int64(len(seg_starts)) - seg_of) * spread
            run_min = np.minimum.accumulate(rm + off) - off
        else:
            run_min = np.minimum.accumulate(rm)
        S = Pl - run_min
        alert = S >= np.int64(h_cents)
        return pa.table(
            {
                user_col: pa.array(u_s[alert], pa.int64()),
                id_col: pa.array(e_s[alert], pa.int64()),
                "t_us": pa.array(t_s[alert], pa.int64()),
                "cusum_q": pa.array(S[alert], pa.int64()),
            }
        )

    return map_keyed(
        ds.map_batches(project, batch_format="pyarrow"),
        per_bucket,
        key="u",
        n_buckets=n_buckets,
    )


def topk_with_other(
    ds,
    group_col: str,
    cat_col: str,
    k: int = 2,
    n_buckets: int = 64,
):
    """Top-k categories per group with an OTHER rollup: for every
    group, the ``k`` most frequent values of ``cat_col`` (ties by
    category ascending) keep their own rows and everything else
    collapses into one ``'<OTHER>'`` row -- the dashboard-legend
    reduction that keeps per-group output bounded no matter the
    category cardinality.

    Scale shape: per-block Arrow group-by partials (one row per
    distinct (group, category) per block) -> one groupby fold on the
    pair -> group-hash bucket reduction where each group's (small)
    category histogram ranks vectorized; output rows per group are
    bounded by k+1.
    """
    def project(b: pa.Table) -> pa.Table:
        return pa.table({"g": b.column(group_col), "c": b.column(cat_col)})

    folded = fold(ds, project, ["g", "c"], collect=False)

    def bucketize(b: pa.Table) -> pa.Table:
        g = b.column("g")
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        return pa.table(
            {
                "g": g,
                "c": b.column("c"),
                "n": b.column("n"),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        df = tbl.select(["g", "c", "n"]).to_pandas()
        df = df.sort_values(
            ["g", "n", "c"], ascending=[True, False, True]
        )
        rank = df.groupby("g", sort=False).cumcount()
        df["c"] = np.where(rank < k, df["c"], "<OTHER>")
        out = (
            df.groupby(["g", "c"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                group_col: pa.array(out["g"].to_numpy()),
                cat_col: pa.array(out["c"].to_numpy()),
                "n": pa.array(
                    out["n"].to_numpy(dtype="int64"), pa.int64()
                ),
            }
        )

    return map_keyed(
        folded.map_batches(bucketize, batch_format="pyarrow"),
        per_bucket,
        key="g",
        n_buckets=n_buckets,
    )


def new_vs_returning(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
    day_us: int = 86_400_000_000,
    n_buckets: int = 64,
):
    """Daily new-vs-returning split: for every day, the number of
    DISTINCT active users, how many of them were seen for the first
    time that day, and how many had prior history -- the growth
    dashboard's top line.

    Scale shape: per-block DISTINCT (user, day) pairs first (an
    in-task Arrow group_by, so repeated activity never leaves the
    block), then ONE user-hash bucket groupby dedups pairs exactly
    AND derives each user's first day inside the bucket (every pair
    of a user lands in one bucket, so "new" needs no join), emitting
    per-day partial counts; the final groupby sums at most
    ``n_buckets`` rows per day.  Nothing driver-side.
    """
    def local_pairs(b: pa.Table) -> pa.Table:
        users = b.column(user_col).combine_chunks().cast(pa.int64())
        day = pc.divide(
            b.column(ts_col).cast(pa.int64()),
            pa.scalar(day_us, pa.int64()),
        )
        d = (
            pa.table({"u": users, "day": day})
            .group_by(["u", "day"])
            .aggregate([])
        )
        u = d.column("u")
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        return pa.table(
            {
                "u": u,
                "day": d.column("day"),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        u = tbl.column("u").to_numpy(zero_copy_only=False)
        day = tbl.column("day").to_numpy(zero_copy_only=False)
        order = np.lexsort((day, u))
        u_s, d_s = u[order], day[order]
        # dedup (user, day) pairs across blocks
        keep = np.ones(len(u_s), dtype=bool)
        if len(u_s) > 1:
            keep[1:] = (u_s[1:] != u_s[:-1]) | (d_s[1:] != d_s[:-1])
        u_s, d_s = u_s[keep], d_s[keep]
        new_u = np.ones(len(u_s), dtype=bool)
        if len(u_s) > 1:
            new_u[1:] = u_s[1:] != u_s[:-1]
        # first (smallest) day of each user's segment marks "new"
        first_day = np.repeat(d_s[new_u], np.diff(
            np.concatenate([np.flatnonzero(new_u), [len(u_s)]])
        ))
        is_new = d_s == first_day
        days, inv = np.unique(d_s, return_inverse=True)
        act = np.bincount(inv, minlength=len(days))
        new = np.bincount(inv, weights=is_new, minlength=len(days))
        return pa.table(
            {
                "day": pa.array(days, pa.int64()),
                "n_active": pa.array(act.astype(np.int64), pa.int64()),
                "n_new": pa.array(new.astype(np.int64), pa.int64()),
            }
        )

    def finish(b: pa.Table) -> pa.Table:
        return b.append_column(
            "n_returning", pc.subtract(b.column("n_active"), b.column("n_new"))
        )

    return fold(
        map_keyed(
            ds.map_batches(local_pairs, batch_format="pyarrow"),
            per_bucket,
            key="u",
            n_buckets=n_buckets,
        ),
        lambda t: t,
        "day",
        {"n_active": "sum", "n_new": "sum"},
        collect=False,
    ).map_batches(finish, batch_format="pyarrow")


def acf_daily(
    ds,
    ts_col: str = "ts",
    max_lag: int = 7,
    day_us: int = 86_400_000_000,
):
    """Calendar-lag autocorrelation of the daily event-count series:
    for each lag k in 1..max_lag, the Pearson correlation between
    (count on day d, count on day d+k) over every day pair where BOTH
    days have events -- the seasonality probe behind "is traffic
    weekly-periodic".

    Exactness: the daily series folds from per-block integer partial
    counts; the correlation finishes from exact arbitrary-precision
    integer moment sums (Python ints, matching SQL HUGEINT), so block
    layout cannot perturb the result.  Days with zero events are
    absent from the series (pairs require both endpoints present),
    mirroring the SQL self-join on day = day + k.

    Scale shape: one tiny groupby folds per-block day partials; the
    ONLY driver-side materialization is the daily series itself,
    bounded by the calendar span (< 40k rows for a century of data),
    never by row count.  Returns a ``max_lag``-row pyarrow Table
    (lag, n_pairs, acf).
    """
    import math

    def project(b: pa.Table) -> pa.Table:
        return pa.table({"day": _window(b.column(ts_col), day_us)})

    # bounded by the calendar span, not the data size
    h = fold(ds, project, "day")
    series = dict(_rows(h, "day", "n"))
    lags, n_pairs, acfs = [], [], []
    for k in range(1, max_lag + 1):
        sx = sy = sxy = sxx = syy = m = 0  # exact Python ints
        for d, x in series.items():
            y = series.get(d + k)
            if y is None:
                continue
            m += 1
            sx += x
            sy += y
            sxy += x * y
            sxx += x * x
            syy += y * y
        num = m * sxy - sx * sy
        dx = m * sxx - sx * sx
        dy = m * syy - sy * sy
        acf = (
            float(num) / math.sqrt(float(dx) * float(dy))
            if m > 1 and dx > 0 and dy > 0
            else None
        )
        lags.append(k)
        n_pairs.append(m)
        acfs.append(acf)
    return pa.table(
        {
            "lag": pa.array(lags, pa.int64()),
            "n_pairs": pa.array(n_pairs, pa.int64()),
            "acf": pa.array(acfs, pa.float64()),
        }
    )


def weighted_median_per_group(
    ds,
    group_col: str,
    value_col: str,
    weight_col: str,
    n_buckets: int = 64,
):
    """Per-group lower weighted median: the smallest value whose
    cumulative weight reaches half the group's total -- "the quantity
    at which half the revenue sits", the robust center an unweighted
    median misses when row importance varies.

    Weights are exact integer cents (``floor(w * 100)``), so cumsums
    and the half-total comparison are order-independent and the SQL
    mirror agrees bit-for-bit; rows with a null value or weight are
    excluded (SQL aggregate-ignore-null convention); a null GROUP is
    kept as its own group.  Per-group total weight must fit int64
    (2^63 cents ~ 9 * 10^16 dollars).

    Scale shape: per-block Arrow group_by compresses to distinct
    (group, value, weight-sum) rows -- repeated values never leave the
    block -- then ONE group-hash bucket shuffle; each bucket merges
    its partials and resolves medians with one pandas sort + segment
    cumsum.  State is bounded by DISTINCT values per group (the
    quantile-family assumption); for continuous float columns at
    100 TB, quantize or hash-sample first as `sampled_group_quantiles`
    does.
    """

    def partial(b: pa.Table) -> pa.Table:
        g = b.column(group_col).combine_chunks()
        v = b.column(value_col).cast(pa.float64())
        w = _cents(b.column(weight_col))
        t = pa.table(
            {
                "gk": pc.fill_null(pc.cast(g, pa.string()), ""),
                "gn": pc.is_null(g).cast(pa.int64()),
                "v": v,
                "w": w,
            }
        ).filter(
            pc.and_(pc.is_valid(v), pc.is_valid(w))
        )
        a = t.group_by(["gk", "gn", "v"]).aggregate([("w", "sum")])
        gk = a.column("gk")
        if isinstance(gk, pa.ChunkedArray):
            gk = gk.combine_chunks()
        return pa.table(
            {
                "gk": gk,
                "gn": a.column("gn"),
                "v": a.column("v"),
                "w": a.column("w_sum").cast(pa.int64()),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        df = tbl.select(["gk", "gn", "v", "w"]).to_pandas()
        # merge cross-block partials for the same (group, value)
        df = (
            df.groupby(["gk", "gn", "v"], sort=False, dropna=False)[
                "w"
            ]
            .sum()
            .reset_index()
        )
        df = df.sort_values(["gk", "gn", "v"])
        df["cw"] = df.groupby(["gk", "gn"], sort=False)["w"].cumsum()
        tw = df.groupby(["gk", "gn"], sort=False)["w"].transform(
            "sum"
        )
        df["tw"] = tw
        hit = df[2 * df["cw"] >= tw]
        first = hit.groupby(["gk", "gn"], sort=False).head(1)
        groups = [
            None if gn else gk
            for gk, gn in zip(first["gk"], first["gn"])
        ]
        return pa.table(
            {
                group_col: pa.array(groups, pa.string()),
                "total_w_cents": pa.array(
                    first["tw"].to_numpy(dtype="int64"), pa.int64()
                ),
                "wmedian": pa.array(
                    first["v"].to_numpy(dtype="float64"),
                    pa.float64(),
                ),
            }
        )

    return map_keyed(
        ds.map_batches(partial, batch_format="pyarrow"),
        per_bucket,
        key="gk",
        n_buckets=n_buckets,
    )


def welch_ab(
    ds,
    variant_a: str,
    variant_b: str,
    variant_col: str = "event_type",
    ts_col: str = "ts",
    val_col: str = "value",
    day_us: int = 86_400_000_000,
    n_buckets: int = 64,
):
    """Per-day Welch's t-test between two variants: for every day
    where BOTH variants have events, the per-variant count / mean and
    the unequal-variance t statistic over the metric column -- the A/B
    readout dashboards recompute daily.

    Exactness: per-variant moment sums (n, sum, sum-of-squares) fold
    from exact integer cents, and the float finish (means, Welch
    variance, t) applies the same expression shape as the SQL mirror,
    so block layout cannot perturb the statistic.  ``t_stat`` is NULL
    when either side has n < 2 or the pooled standard error is zero;
    rows with a null metric are excluded.  Per-(day, variant)
    sum-of-squares must fit int64 (~10^5 rows x $10^4 values per cell
    at the worst; quantize coarser above that).

    Scale shape: one Arrow group_by partial per block (rows = days x
    2 per block), one tiny groupby, per-day finish grouped on the
    calendar-bounded day key.
    """

    def project(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_in(
                b.column(variant_col),
                value_set=pa.array([variant_a, variant_b]),
            ),
            pc.is_valid(b.column(val_col)),
        )
        t = b.filter(keep)
        x = _cents(t.column(val_col))
        return pa.table(
            {
                "day": _window(t.column(ts_col), day_us),
                "v": t.column(variant_col),
                "n": _ones(t.num_rows),
                "sx": x,
                "sxx": pc.multiply(x, x),
            }
        )

    def per_day(tbl: pa.Table) -> pa.Table:
        import math

        stats = {}
        for r in tbl.to_pylist():
            stats[r["v"]] = (r["n"], r["sx"], r["sxx"])
        if variant_a not in stats or variant_b not in stats:
            return pa.table(
                {
                    "day": pa.array([], pa.int64()),
                    "n_a": pa.array([], pa.int64()),
                    "n_b": pa.array([], pa.int64()),
                    "mean_a": pa.array([], pa.float64()),
                    "mean_b": pa.array([], pa.float64()),
                    "t_stat": pa.array([], pa.float64()),
                }
            )
        na, sxa, sxxa = stats[variant_a]
        nb, sxb, sxxb = stats[variant_b]
        ma = float(sxa) / float(na)
        mb = float(sxb) / float(nb)
        va = (
            float(na * sxxa - sxa * sxa) / float(na * (na - 1))
            if na > 1
            else None
        )
        vb = (
            float(nb * sxxb - sxb * sxb) / float(nb * (nb - 1))
            if nb > 1
            else None
        )
        t_stat = None
        if va is not None and vb is not None and va / na + vb / nb > 0:
            t_stat = (ma - mb) / math.sqrt(va / na + vb / nb)
        return pa.table(
            {
                "day": pa.array([tbl.column("day")[0].as_py()], pa.int64()),
                "n_a": pa.array([na], pa.int64()),
                "n_b": pa.array([nb], pa.int64()),
                "mean_a": pa.array([ma / 100.0], pa.float64()),
                "mean_b": pa.array([mb / 100.0], pa.float64()),
                "t_stat": pa.array([t_stat], pa.float64()),
            }
        )

    return (
        fold(
            ds,
            project,
            ["day", "v"],
            {"n": "sum", "sx": "sum", "sxx": "sum"},
            collect=False,
        )
        .groupby("day")
        .map_groups(per_day, batch_format="pyarrow")
    )


def km_retention(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
    day_us: int = 86_400_000_000,
    n_buckets: int = 64,
):
    """Kaplan-Meier retention curve over user activity spans: each
    user's observed lifetime is ``last active day - first active
    day``; users still active on the corpus's final day are
    right-CENSORED (their true lifetime exceeds the window).  For
    every duration with at least one uncensored end, the curve
    reports deaths, the at-risk count (all users with span >= t,
    censored included), and the KM survival estimate
    ``S(t) = prod_{t' <= t} (1 - d/n)`` -- the churn analysis that a
    naive "average lifetime" biases by ignoring censoring.

    Exactness: deaths / at-risk fold from integer partials; the
    survival product multiplies ``(1 - d/n)`` in ascending-duration
    order on both sides (numpy cumprod == SQL window ``product()``),
    so results agree bit-for-bit.

    Scale shape: per-block Arrow per-user min/max partials, ONE
    user-hash bucket groupby resolves true spans and compresses to
    (duration, censored) count partials; the final fold and the
    driver-side finish are bounded by the calendar span, never user
    count.  One extra tiny aggregate derives the observation end.
    """
    rows = _user_span_hist(ds, user_col, ts_col, day_us, n_buckets)
    return _km_finish(rows)


def _user_span_hist(ds, user_col, ts_col, day_us, n_buckets):
    """(duration, censored) -> count histogram of per-user activity
    spans, right-censored at the corpus's final day -- the shared
    survival-family fold behind ``km_retention`` and
    ``nelson_aalen_hazard``.  Per-block per-user min/max partials,
    one user-hash bucket groupby resolves true spans, final fold
    bounded by the calendar span."""
    m_day = _ts_scalar_us(ds.max(ts_col)) // day_us

    def partial(b: pa.Table) -> pa.Table:
        users = b.column(user_col).combine_chunks().cast(pa.int64())
        g = (
            pa.table({"u": users, "day": _window(b.column(ts_col), day_us)})
            .group_by("u")
            .aggregate([("day", "min"), ("day", "max")])
        )
        u = g.column("u")
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        return pa.table(
            {
                "u": u,
                "f": g.column("day_min"),
                "l": g.column("day_max"),
            }
        )

    def per_user(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by("u").aggregate([("f", "min"), ("l", "max")])
        last = g.column("l_max")
        return pa.table(
            {
                "dur": pc.subtract(last, g.column("f_min")),
                "cens": pc.cast(
                    pc.equal(last, pa.scalar(m_day, pa.int64())), pa.int64()
                ),
            }
        )

    return fold(
        map_keyed(
            ds.map_batches(partial, batch_format="pyarrow"),
            per_user,
            key="u",
            n_buckets=n_buckets,
        ),
        lambda t: t,
        ["dur", "cens"],
    ).to_pylist()


def _km_finish(rows):
    # calendar-span-bounded finish
    from collections import defaultdict

    deaths = defaultdict(int)
    totals = defaultdict(int)
    for r in rows:
        totals[r["dur"]] += r["n"]
        if not r["cens"]:
            deaths[r["dur"]] += r["n"]
    durs = sorted(totals)
    total_users = sum(totals.values())
    out_d, out_death, out_risk, out_s = [], [], [], []
    seen_before = 0
    surv = 1.0
    for t in durs:
        at_risk = total_users - seen_before
        seen_before += totals[t]
        d = deaths.get(t, 0)
        if d == 0:
            continue
        surv = surv * (1.0 - float(d) / float(at_risk))
        out_d.append(t)
        out_death.append(d)
        out_risk.append(at_risk)
        out_s.append(surv)
    return pa.table(
        {
            "dur": pa.array(out_d, pa.int64()),
            "deaths": pa.array(out_death, pa.int64()),
            "at_risk": pa.array(out_risk, pa.int64()),
            "survival": pa.array(out_s, pa.float64()),
        }
    )


def _variant_counts(
    ds, variant_a, variant_b, type_col, val_col, to_int, max_distinct, op
):
    """The two-sample distinct-value histogram: ascending
    ``(v, n_a, n_b)`` rows, ``v`` = ``to_int(metric)``, counting each
    variant's rows with a non-null metric.  Folded under the
    rank-family ``max_distinct`` guard on distinct values."""

    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_in(
                    b.column(type_col),
                    value_set=pa.array([variant_a, variant_b]),
                ),
                pc.is_valid(b.column(val_col)),
            )
        )
        is_a = pc.equal(t.column(type_col), pa.scalar(variant_a))
        return pa.table(
            {
                "v": to_int(t.column(val_col)),
                "na": pc.cast(is_a, pa.int64()),
                "nb": pc.cast(pc.invert(is_a), pa.int64()),
            }
        )

    h = fold(
        ds, project, "v", {"na": "sum", "nb": "sum"}, limit=max_distinct,
        op=op,
    )
    return sorted(_rows(h, "v", "na", "nb"))


def rank_sum_test(
    ds,
    variant_a: str,
    variant_b: str,
    variant_col: str = "event_type",
    val_col: str = "value",
    max_distinct: int = 2_000_000,
):
    """Nonparametric two-sample comparison: the Mann-Whitney U
    statistic (tie-corrected normal z) and the Kolmogorov-Smirnov D
    between two variants' metric distributions -- the A/B readout
    that, unlike Welch's t, needs no normality and resists outliers.

    Both statistics are functions of the distinct-value histogram
    only: per distinct cent value, the per-variant counts, cumulative
    counts and average ranks.  All rank/tie arithmetic runs in exact
    arbitrary-precision Python ints (the SQL mirror uses HUGEINT),
    and the float finish applies the same expression shape, so the
    sides agree bit-for-bit.  ``z`` is NULL at zero variance (all
    values tied).

    Scale shape: the ``_variant_counts`` fold (per value, both
    variants' counts); the folded histogram is METADATA-counted and only
    collected under ``max_distinct`` distinct values (the
    rank-family guard) -- above it the call raises with instructions
    to quantize the metric first, exactly like the dense_rank family.
    Rows with a null metric are excluded.
    """
    import math

    rows = _variant_counts(
        ds, variant_a, variant_b, variant_col, val_col, _cents,
        max_distinct, "rank_sum_test",
    )
    na = sum(r[1] for r in rows)
    nb = sum(r[2] for r in rows)
    if na == 0 or nb == 0:
        return pa.table(
            {
                "n_a": pa.array([na], pa.int64()),
                "n_b": pa.array([nb], pa.int64()),
                "u_a": pa.array([None], pa.float64()),
                "z": pa.array([None], pa.float64()),
                "ks_d": pa.array([None], pa.float64()),
            }
        )
    two_ua = 0
    tie = 0
    cumb = 0  # combined count strictly below v
    cuma_run = 0
    cumb_run = 0
    ks_d = 0.0
    for _, ca, cb in rows:
        t = ca + cb
        two_ua += ca * (2 * cumb + t + 1)
        tie += t * t * t - t
        cumb += t
        cuma_run += ca
        cumb_run += cb
        gap = abs(
            float(cuma_run) / float(na) - float(cumb_run) / float(nb)
        )
        if gap > ks_d:
            ks_d = gap
    u_a = float(two_ua - na * (na + 1)) / 2.0
    nn = na + nb
    mu = float(na) * float(nb) / 2.0
    var = (
        float(na * nb)
        * (float(nn + 1) - float(tie) / float(nn * (nn - 1)))
        / 12.0
        if nn > 1
        else 0.0
    )
    z = (u_a - mu) / math.sqrt(var) if var > 0 else None
    return pa.table(
        {
            "n_a": pa.array([na], pa.int64()),
            "n_b": pa.array([nb], pa.int64()),
            "u_a": pa.array([u_a], pa.float64()),
            "z": pa.array([z], pa.float64()),
            "ks_d": pa.array([ks_d], pa.float64()),
        }
    )


def late_events(
    ds,
    threshold_us: int = 3_600_000_000,
    id_col: str = "event_id",
    ts_col: str = "ts",
    day_us: int = 86_400_000_000,
    n_buckets: int = 64,
):
    """Watermark lateness accounting: replaying events in ARRIVAL
    order (``id_col``), the watermark is the running maximum event
    time seen so far; an event's lateness is ``watermark - its event
    time``.  Output: per event-time day, total events, events later
    than ``threshold_us``, and the worst lateness -- the
    out-of-orderness audit that sizes allowed-lateness windows before
    a streaming deployment.

    The running max is a GLOBAL sequential dependency, made
    distributed the same way ``interval_concurrency`` resolves global
    order statistics: arrival ids range-partition into ``n_buckets``
    contiguous buckets, a first tiny pass folds per-bucket max event
    times (<= n_buckets rows to the driver), exclusive prefix maxes
    broadcast, and the second pass computes every bucket's running
    max locally (one sort + ``maximum.accumulate``) seeded by its
    prefix.  Two streaming scans, integer microseconds end-to-end.
    """
    mn_id = int(ds.min(id_col))
    mx_id = int(ds.max(id_col))
    width = (mx_id - mn_id) // n_buckets + 1

    def bucketize(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).cast(pa.int64())
        rb = pc.divide(
            pc.subtract(ids, pa.scalar(mn_id, pa.int64())),
            pa.scalar(width, pa.int64()),
        )
        return pa.table(
            {
                "rb": rb,
                "i": ids,
                "t": b.column(ts_col).cast(pa.int64()),
            }
        )

    bucketed = ds.map_batches(bucketize, batch_format="pyarrow")

    h = fold(bucketed, lambda b: b, "rb", {"t": "max"})  # <= n_buckets rows
    bmax = dict(_rows(h, "rb", "t"))
    prefix = {}
    run = None
    for rb in sorted(bmax):
        prefix[rb] = run  # exclusive: max over all earlier buckets
        run = bmax[rb] if run is None else max(run, bmax[rb])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        rb = int(tbl.column("rb")[0].as_py())
        i = tbl.column("i").to_numpy(zero_copy_only=False)
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        order = np.argsort(i, kind="stable")
        t_s = t[order]
        wm = np.maximum.accumulate(t_s)
        if prefix.get(rb) is not None:
            wm = np.maximum(wm, np.int64(prefix[rb]))
        late = wm - t_s
        day = t_s // np.int64(day_us)
        days, inv = np.unique(day, return_inverse=True)
        n_ev = np.bincount(inv, minlength=len(days))
        n_late = np.bincount(
            inv,
            weights=(late > np.int64(threshold_us)),
            minlength=len(days),
        )
        mx_late = np.zeros(len(days), dtype=np.int64)
        np.maximum.at(mx_late, inv, late)
        return pa.table(
            {
                "day": pa.array(days, pa.int64()),
                "n_events": pa.array(n_ev.astype(np.int64), pa.int64()),
                "n_late": pa.array(n_late.astype(np.int64), pa.int64()),
                "max_late_us": pa.array(mx_late, pa.int64()),
            }
        )

    return fold(
        bucketed.groupby("rb").map_groups(per_bucket, batch_format="pyarrow"),
        lambda t: t,
        "day",
        {"n_events": "sum", "n_late": "sum", "max_late_us": "max"},
        collect=False,
    )


def chi2_contingency_2x2(ds, a_col: str = "a", b_col: str = "b"):
    """Exact 2x2 chi-square independence test between two boolean
    columns, plus the Yates-corrected statistic, the phi coefficient
    and the odds ratio -- the categorical counterpart of ``welch_ab``
    / ``rank_sum_test`` that answers "is conversion independent of
    the variant" from counts alone.

    The whole test is a function of four cell counts, so the
    distributed part is one per-block partial fold of
    ``(n11, n10, n01, n00)`` (ints, combine-order-exact) and the
    statistics are SINGLE float expressions of exact integers,
    mirrored verbatim in the SQL oracle:

        d    = n11*n00 - n10*n01            (exact int)
        chi2 = n*d^2 / (r1*r0*c1*c0)        (one float division)
        yates uses (2|d| - n) halves scaled by 4 to stay integral

    All products run in arbitrary-precision Python ints (HUGEINT on
    the SQL side), so 10^12-row inputs cannot overflow.  Rows with a
    null flag on either side are excluded (SQL boolean FILTER
    semantics).  No shuffle at all: partials stream, the driver folds
    four integers.
    """
    import math

    def project(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(b.column(a_col)), pc.is_valid(b.column(b_col))
        )
        t = b.filter(keep)
        a = t.column(a_col).cast(pa.bool_())
        bb = t.column(b_col).cast(pa.bool_())
        na = pc.invert(a)
        nb = pc.invert(bb)
        return pa.table(
            {
                c: pc.cast(pc.and_(x, y), pa.int64())
                for c, x, y in (
                    ("n11", a, bb), ("n10", a, nb), ("n01", na, bb),
                    ("n00", na, nb),
                )
            }
        )

    cells = ("n11", "n10", "n01", "n00")
    row = fold(ds, project, [], {c: "sum" for c in cells}).to_pylist()[0]
    n11, n10, n01, n00 = (int(row[c] or 0) for c in cells)
    n = n11 + n10 + n01 + n00
    r1, r0 = n11 + n10, n01 + n00
    c1, c0 = n11 + n01, n10 + n00
    den = r1 * r0 * c1 * c0
    d = n11 * n00 - n10 * n01
    if den > 0:
        chi2 = float(n * d * d) / float(den)
        phi = float(d) / math.sqrt(float(r1 * r0) * float(c1 * c0))
        hy = 2 * abs(d) - n  # doubled |d| - n/2 halves
        chi2_yates = (
            float(n * hy * hy) / float(4 * den) if hy > 0 else 0.0
        )
    else:
        chi2 = phi = chi2_yates = None
    odds = (
        float(n11 * n00) / float(n10 * n01) if n10 * n01 > 0 else None
    )
    return pa.table(
        {
            "n11": pa.array([n11], pa.int64()),
            "n10": pa.array([n10], pa.int64()),
            "n01": pa.array([n01], pa.int64()),
            "n00": pa.array([n00], pa.int64()),
            "chi2": pa.array([chi2], pa.float64()),
            "chi2_yates": pa.array([chi2_yates], pa.float64()),
            "phi": pa.array([phi], pa.float64()),
            "odds_ratio": pa.array([odds], pa.float64()),
        }
    )


def _joint_value_hist(
    ds, x_col: str, y_col: str, max_distinct: int, op_name: str
):
    """Fold the JOINT distinct-value histogram of two integer metric
    columns down to driver lists ``(xs, ys, ns)`` -- the shared
    reduction behind the rank-correlation family (``spearman_corr``,
    ``kendall_tau_b``).

    Per-block Arrow (x, y) count partials ride a single mixed
    pair-key hash bucket (a wrapping-int64 mix of the pair) so the
    fold groups on ONE small int key instead of a two-column
    sort-aggregate -- measured ~4x cheaper when the joint histogram is
    near row-count sized (continuous y).  The folded histogram is
    metadata-counted and only collected under ``max_distinct`` (the
    rank-family guard -- above it the call raises with quantize-first
    instructions).  Null on either side excludes the row.
    """

    def partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(b.column(x_col)), pc.is_valid(b.column(y_col))
        )
        t = b.filter(keep)
        g = (
            pa.table(
                {
                    "x": t.column(x_col).cast(pa.int64()),
                    "y": t.column(y_col).cast(pa.int64()),
                }
            )
            .group_by(["x", "y"])
            .aggregate([([], "count_all")])
        )
        xs_np = g.column("x").to_numpy(zero_copy_only=False)
        ys_np = g.column("y").to_numpy(zero_copy_only=False)
        mix = xs_np * np.int64(-7046029254386353131) + ys_np
        return pa.table(
            {
                "mix": pa.array(mix, pa.int64()),
                "x": g.column("x"),
                "y": g.column("y"),
                "n_part": g.column("count_all").cast(pa.int64()),
            }
        )

    def fold_bucket(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["x", "y"]).aggregate([("n_part", "sum")])
        return g.select(["x", "y", "n_part_sum"]).rename_columns(
            ["x", "y", "n"]
        )

    h = _collect(
        map_keyed(
            ds.map_batches(partial, batch_format="pyarrow"),
            fold_bucket,
            key="mix",
            n_buckets=64,
        ),
        ["x", "y", "n"],
        max_distinct,
        op_name,
    )
    return tuple(h.column(c).to_pylist() for c in ("x", "y", "n"))


def spearman_corr(
    ds,
    x_col: str = "x",
    y_col: str = "y",
    max_distinct: int = 2_000_000,
):
    """Exact tie-aware Spearman rank correlation between two integer
    metric columns: Pearson correlation over average ranks, computed
    entirely from the JOINT distinct-value histogram -- the monotone-
    association readout that, unlike Pearson on raw values, ignores
    outliers and nonlinearity.

    Average ranks with ties are half-integers; both sides work with
    DOUBLED ranks ``R(v) = 2*cum_before(v) + n(v) + 1`` so every
    moment (S_x, S_xx, S_xy, ...) is an exact integer --
    arbitrary-precision Python ints here, HUGEINT in the SQL mirror
    -- and the correlation is one float expression of exact ints
    (the doubling cancels):

        rho = (N*S_xy - S_x*S_y) /
              sqrt((N*S_xx - S_x^2) * (N*S_yy - S_y^2))

    Scale shape: per-block Arrow (x, y) count partials -> one
    groupby; the folded joint histogram is metadata-counted and only
    collected under ``max_distinct`` (the rank-family guard -- above
    it the call raises with quantize-first instructions).  Null on
    either side excludes the row.
    """
    import math

    xs, ys, ns = _joint_value_hist(
        ds, x_col, y_col, max_distinct, "spearman_corr"
    )
    if not ns:
        return pa.table(
            {
                "n": pa.array([0], pa.int64()),
                "nd_x": pa.array([0], pa.int64()),
                "nd_y": pa.array([0], pa.int64()),
                "rho": pa.array([None], pa.float64()),
            }
        )
    nx_map: dict = {}
    ny_map: dict = {}
    for x, y, c in zip(xs, ys, ns):
        nx_map[x] = nx_map.get(x, 0) + c
        ny_map[y] = ny_map.get(y, 0) + c

    def doubled_ranks(marg: dict) -> dict:
        out = {}
        cum = 0
        for v in sorted(marg):
            out[v] = 2 * cum + marg[v] + 1
            cum += marg[v]
        return out

    rx = doubled_ranks(nx_map)
    ry = doubled_ranks(ny_map)
    big_n = sum(ns)
    sx = sum(c * rx[x] for x, c in nx_map.items())
    sxx = sum(c * rx[x] * rx[x] for x, c in nx_map.items())
    sy = sum(c * ry[y] for y, c in ny_map.items())
    syy = sum(c * ry[y] * ry[y] for y, c in ny_map.items())
    sxy = sum(c * rx[x] * ry[y] for x, y, c in zip(xs, ys, ns))
    num = big_n * sxy - sx * sy
    dx = big_n * sxx - sx * sx
    dy = big_n * syy - sy * sy
    rho = (
        float(num) / math.sqrt(float(dx) * float(dy))
        if dx > 0 and dy > 0
        else None
    )
    return pa.table(
        {
            "n": pa.array([big_n], pa.int64()),
            "nd_x": pa.array([len(nx_map)], pa.int64()),
            "nd_y": pa.array([len(ny_map)], pa.int64()),
            "rho": pa.array([rho], pa.float64()),
        }
    )


def kendall_tau_b(
    ds,
    x_col: str = "x",
    y_col: str = "y",
    max_distinct: int = 2_000_000,
    max_grid: int = 4_000_000,
):
    """Exact tie-aware Kendall tau-b between two integer metric
    columns, computed entirely from the JOINT distinct-value
    histogram -- the pair-concordance counterpart of
    ``spearman_corr`` (tau penalizes each discordant PAIR, not rank
    displacement, so it is the robust choice for heavily tied
    ordinal metrics like quantity x discount).

    From the contingency grid, concordant / discordant pair counts
    are 2-D prefix-sum reads: for cell (i, j) with count c,

        C += c * P[<i, <j]        (both strictly smaller)
        D += c * (T[<i] - P[<i, <=j])   (x smaller, y larger)

    summed over unordered pairs exactly once.  The prefix grid holds
    row counts (fits int64 at any corpus size); the per-cell products
    accumulate in arbitrary-precision Python ints (HUGEINT in the SQL
    mirror, which states the same counts as a pairwise join over
    cells), and tau-b is ONE float expression of exact ints:

        tau_b = (C - D) / sqrt((n0 - t_x) * (n0 - t_y))

    with n0 = n(n-1)/2 and t_x / t_y the tie-pair counts from the
    margins.  C, D and the tie counts are emitted as DOUBLE on both
    sides (they exceed int64 at 10^12 rows; the cast is the identical
    round-to-nearest).

    Scale shape: the same single bucket-folded (x, y) histogram
    reduction as spearman (``_joint_value_hist``, rank-family
    ``max_distinct`` guard); the dense nx x ny prefix grid is
    additionally guarded by ``max_grid`` cells -- quantize first when
    both metrics are near-continuous.
    """
    import math

    xs, ys, ns = _joint_value_hist(
        ds, x_col, y_col, max_distinct, "kendall_tau_b"
    )
    if not ns:
        return pa.table(
            {
                "n": pa.array([0], pa.int64()),
                "conc": pa.array([None], pa.float64()),
                "disc": pa.array([None], pa.float64()),
                "ties_x": pa.array([None], pa.float64()),
                "ties_y": pa.array([None], pa.float64()),
                "tau_b": pa.array([None], pa.float64()),
            }
        )
    ux = {v: i for i, v in enumerate(sorted(set(xs)))}
    uy = {v: i for i, v in enumerate(sorted(set(ys)))}
    nx, ny = len(ux), len(uy)
    if nx * ny > max_grid:
        raise ValueError(
            f"kendall_tau_b: dense {nx}x{ny} contingency grid exceeds "
            f"max_grid={max_grid} cells; quantize the metrics first"
        )
    grid = np.zeros((nx, ny), dtype=np.int64)
    for x, y, c in zip(xs, ys, ns):
        grid[ux[x], uy[y]] += c
    # inclusive 2-D prefix sums; row totals for the "y larger" reads.
    # Counts (not pair products) only -- int64-safe at any scale.
    pref = grid.cumsum(axis=0).cumsum(axis=1)
    rows_cum = grid.sum(axis=1).cumsum()  # T[<=i]
    conc = 0
    disc = 0
    for x, y, c in zip(xs, ys, ns):
        i, j = ux[x], uy[y]
        below = int(pref[i - 1, j - 1]) if i > 0 and j > 0 else 0
        left_le = int(pref[i - 1, j]) if i > 0 else 0
        left_total = int(rows_cum[i - 1]) if i > 0 else 0
        conc += int(c) * below
        disc += int(c) * (left_total - left_le)
    n = sum(int(c) for c in ns)
    tx = grid.sum(axis=1)
    ty = grid.sum(axis=0)
    ties_x = sum(int(t) * (int(t) - 1) // 2 for t in tx)
    ties_y = sum(int(t) * (int(t) - 1) // 2 for t in ty)
    n0 = n * (n - 1) // 2
    dx, dy = n0 - ties_x, n0 - ties_y
    tau = (
        float(conc - disc) / math.sqrt(float(dx) * float(dy))
        if dx > 0 and dy > 0
        else None
    )
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "conc": pa.array([float(conc)], pa.float64()),
            "disc": pa.array([float(disc)], pa.float64()),
            "ties_x": pa.array([float(ties_x)], pa.float64()),
            "ties_y": pa.array([float(ties_y)], pa.float64()),
            "tau_b": pa.array([tau], pa.float64()),
        }
    )


def _cat_cells(ds, a_col: str, b_col: str, max_cells: int, op: str):
    """Fold the (string a, int64 b) contingency cells of a categorical
    pair down to a driver dict ``{(a, b): count}`` -- the shared
    reduction behind the r x c association family (``cramers_v``,
    ``theil_u``), in the ``mutual_info`` pattern: per-block Arrow
    group_by partials BOUNDED by the cell count (the stated contract
    is categorical columns -- cells = |A| x |B|, not rows), driver
    Counter fold, zero shuffles.  Null a maps to "" (SQL
    ``fill_null`` mirror states the same); null b excludes the row.
    Not on ``fold``: for so few cells its groupby shuffle costs more
    than the statistic (``cramers_action_dow`` 0.14 -> 0.22 s at
    sf0.01, one CPU).
    """
    from collections import Counter

    def partials(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b.column(b_col)))
        return (
            pa.table(
                {
                    "a": pc.fill_null(
                        t.column(a_col).cast(pa.string()), ""
                    ).combine_chunks(),
                    "b": t.column(b_col).cast(pa.int64()),
                }
            )
            .group_by(["a", "b"])
            .aggregate([([], "count_all")])
        )

    cells: Counter = Counter()
    for r in ds.map_batches(
        partials, batch_format="pyarrow"
    ).take_all():
        cells[(r["a"], r["b"])] += int(r["count_all"])
        if len(cells) > max_cells:
            raise ValueError(
                f"{op}: contingency exceeds max_cells={max_cells}; "
                "these are categorical-association statistics -- "
                "bucket the high-cardinality side first"
            )
    return cells


def cramers_v(
    ds,
    a_col: str = "a",
    b_col: str = "b",
    scale: int = 1_000_000,
    max_cells: int = 100_000,
):
    """r x c chi-square independence test + Cramer's V between a
    string category and an integer category -- the general-table
    extension of ``chi2_contingency_2x2`` (which only answers 2 x 2
    questions) and the normalized effect size [0, 1] that lets
    dashboards compare association strength across tables of
    different shapes.

    Exactness discipline (the ``mutual_info`` quantization): each
    observed cell's chi-square term is quantized to integer
    micro-units with the IDENTICAL expression tree on both sides,

        d      = o*n - ra*cb                     (exact int)
        term_q = floor(d_f*d_f / (racb_f * n_f) * scale)

    An absent cell (o = 0) still has a term, ra*cb/n.  The r*c
    expected counts sum to n, so all absent cells together contribute
    m/n with the exact int m = n*n - sum_observed(ra*cb), quantized
    once (no loop over the r*c grid):

        absent_q = floor(m_f / n_f * scale)

    so the total chi2 = (sum(term_q) + absent_q)/scale is an
    ORDER-FREE integer sum plus one float division, and
    V = sqrt(chi2 / (n*(min(r,c)-1))) is a single float expression of
    exact ints.  d*d and m run in arbitrary-precision Python ints here
    and HUGEINT in the mirror (exact to ~10^19-row corpora).

    Scale shape: one streaming pass of per-block cell partials
    bounded by |A| x |B| (``max_cells`` guard), driver fold, zero
    shuffles.  Output: one row per observed cell carrying its exact
    counts and term, with the table-level absent_q / chi2 / V repeated
    (the per-cell terms ARE the drill-down a reviewer asks for next).
    """
    import math

    cells = _cat_cells(ds, a_col, b_col, max_cells, "cramers_v")
    n = sum(cells.values())
    ra: dict = {}
    cb: dict = {}
    for (a, b), c in cells.items():
        ra[a] = ra.get(a, 0) + c
        cb[b] = cb.get(b, 0) + c
    r_cats, c_cats = len(ra), len(cb)
    rows = sorted(cells.items())
    term_l = []
    for (a, b), o in rows:
        d = o * n - ra[a] * cb[b]
        term_l.append(
            int(
                math.floor(
                    float(d)
                    * float(d)
                    / (float(ra[a] * cb[b]) * float(n))
                    * float(scale)
                )
            )
        )
    absent_q = 0
    if n > 0:
        m = n * n - sum(ra[a] * cb[b] for (a, b), _ in rows)
        absent_q = int(math.floor(float(m) / float(n) * float(scale)))
    sum_q = sum(term_l) + absent_q
    chi2 = float(sum_q) / float(scale) if n > 0 else None
    mink = min(r_cats, c_cats)
    v = (
        math.sqrt(
            float(sum_q) / (float(scale) * float(n * (mink - 1)))
        )
        if n > 0 and mink > 1
        else None
    )
    k = len(rows)
    return pa.table(
        {
            "a": pa.array([a for (a, _), _ in rows], pa.string()),
            "b": pa.array([b for (_, b), _ in rows], pa.int64()),
            "o": pa.array([o for _, o in rows], pa.int64()),
            "ra": pa.array([ra[a] for (a, _), _ in rows], pa.int64()),
            "cb": pa.array([cb[b] for (_, b), _ in rows], pa.int64()),
            "n": pa.array([n] * k, pa.int64()),
            "r_cats": pa.array([r_cats] * k, pa.int64()),
            "c_cats": pa.array([c_cats] * k, pa.int64()),
            "term_q": pa.array(term_l, pa.int64()),
            "absent_q": pa.array([absent_q] * k, pa.int64()),
            "chi2": pa.array([chi2] * k, pa.float64()),
            "v": pa.array([v] * k, pa.float64()),
        }
    )


def theil_u(
    ds,
    a_col: str = "a",
    b_col: str = "b",
    scale: int = 1_000_000,
    max_cells: int = 100_000,
):
    """Theil's uncertainty coefficient U(A|B) -- the DIRECTIONAL
    categorical association (how much knowing B reduces the entropy
    of A, normalized to [0, 1]) that chi-square family statistics
    cannot express: U is asymmetric, so it distinguishes "B predicts
    A" from "A predicts B".

    Integer micro-nat quantization (the ``mutual_info`` discipline),
    identical expression trees on both sides with ``math.log`` ==
    DuckDB ``ln``:

        q_a    = floor((ln(n_f) - ln(ra_f)) * scale)   per A margin
        q_cell = floor((ln(cb_f) - ln(o_f)) * scale)   per cell
        H(A)   = sum_a  ra * q_a      / (scale * n)
        H(A|B) = sum_c  o  * q_cell   / (scale * n)
        U(A|B) = (ha_q - hab_q) / ha_q   (one float division)

    Both numerator sums are ORDER-FREE exact integer folds
    (arbitrary-precision here, HUGEINT in the mirror), emitted as
    DOUBLE (they exceed int64 at ~10^11 rows; the cast is the
    identical round-to-nearest).  Scale shape: the shared
    ``_cat_cells`` reduction -- one streaming pass, cells bounded by
    |A| x |B|, zero shuffles; one row per observed cell with the
    table-level terms repeated.
    """
    import math

    cells = _cat_cells(ds, a_col, b_col, max_cells, "theil_u")
    n = sum(cells.values())
    ra: dict = {}
    cb: dict = {}
    for (a, b), c in cells.items():
        ra[a] = ra.get(a, 0) + c
        cb[b] = cb.get(b, 0) + c
    qa = {
        a: int(
            math.floor(
                (math.log(float(n)) - math.log(float(c)))
                * float(scale)
            )
        )
        for a, c in ra.items()
    }
    ha_q = sum(ra[a] * qa[a] for a in ra)
    rows = sorted(cells.items())
    qc_l = []
    for (a, b), o in rows:
        qc_l.append(
            int(
                math.floor(
                    (math.log(float(cb[b])) - math.log(float(o)))
                    * float(scale)
                )
            )
        )
    hab_q = sum(o * q for (_, o), q in zip(rows, qc_l))
    u = float(ha_q - hab_q) / float(ha_q) if ha_q > 0 else None
    k = len(rows)
    return pa.table(
        {
            "a": pa.array([a for (a, _), _ in rows], pa.string()),
            "b": pa.array([b for (_, b), _ in rows], pa.int64()),
            "o": pa.array([o for _, o in rows], pa.int64()),
            "ra": pa.array([ra[a] for (a, _), _ in rows], pa.int64()),
            "cb": pa.array([cb[b] for (_, b), _ in rows], pa.int64()),
            "n": pa.array([n] * k, pa.int64()),
            "q_cell": pa.array(qc_l, pa.int64()),
            "ha_q": pa.array([float(ha_q)] * k, pa.float64()),
            "hab_q": pa.array([float(hab_q)] * k, pa.float64()),
            "u": pa.array([u] * k, pa.float64()),
        }
    )


def ewma_series(
    ds,
    ts_col: str = "ts",
    cents_col: str = "cents",
    alpha: float = 0.25,
    bucket_us: int = 86_400_000_000,
    max_points: int = 2_000_000,
):
    """Exponentially weighted moving average over the bucketed metric
    series -- the recursive smoother (s_t = alpha*x_t +
    (1-alpha)*s_{t-1}) behind "smoothed daily revenue" dashboards,
    which ``decay_score``'s order-free decayed SUM cannot express
    (EWMA is a sequential recurrence, not an aggregate).

    Exactness: bucket totals fold as exact integer cents (per-block
    group_by partials -> one calendar-bounded groupby), and the
    recursion applies the IDENTICAL IEEE expression per step as the
    SQL mirror's recursive CTE (``alpha * x_f + (1-alpha) * s_prev``,
    anchored at s_1 = x_1_f), over buckets in ascending order with
    gaps skipped (present buckets only) on both sides -- so every
    emitted float is bit-equal.  Use a binary-exact alpha (0.25, 0.5)
    to keep the mirror literal-for-literal.

    Scale shape: shuffle volume = distinct buckets per block; the
    folded series is calendar-bounded (``max_points`` guard -- a
    century of days is ~36.5k rows) and the recursion is O(buckets)
    driver work, the irreducible sequential tail of any EWMA.
    """
    buckets, xs = _bucket_int_series(
        ds, ts_col, cents_col, bucket_us, max_points, "ewma_series"
    )
    ew = []
    s = None
    for x in xs:
        xf = float(x)
        s = xf if s is None else alpha * xf + (1.0 - alpha) * s
        ew.append(s)
    return pa.table(
        {
            "bucket": pa.array(buckets, pa.int64()),
            "x": pa.array(xs, pa.int64()),
            "ewma": pa.array(ew, pa.float64()),
        }
    )


def holt_linear(
    ds,
    ts_col: str = "ts",
    cents_col: str = "cents",
    alpha: float = 0.5,
    beta: float = 0.25,
    bucket_us: int = 7 * 86_400_000_000,
    max_points: int = 2_000_000,
):
    """Holt's linear (trend-corrected) exponential smoothing over the
    bucketed metric series, with the one-step-ahead forecast and its
    residual per bucket -- the level+trend extension of
    ``ewma_series`` that ``mase_windows``' seasonal-naive baseline is
    usually judged against:

        fitted_t = l_{t-1} + b_{t-1}
        l_t      = alpha*x_t + (1-alpha)*fitted_t
        b_t      = beta*(l_t - l_{t-1}) + (1-beta)*b_{t-1}

    anchored at l_1 = x_1_f, b_1 = x_2_f - x_1_f (standard two-point
    init; requires >= 2 buckets, raises below).  Same bit-exactness
    contract as ``ewma_series``: exact integer bucket cents, then the
    IDENTICAL IEEE expression per recursion step as the SQL mirror's
    recursive CTE (binary-exact alpha/beta keep the literals exact),
    present buckets in ascending order.  ``fitted`` / ``resid`` are
    NULL on the anchor bucket on both sides.

    Scale shape: identical to ``ewma_series`` -- one calendar-bounded
    groupby, O(buckets) sequential driver finish.
    """
    tbl = ewma_series(
        ds,
        ts_col=ts_col,
        cents_col=cents_col,
        alpha=alpha,
        bucket_us=bucket_us,
        max_points=max_points,
    )
    pts = list(
        zip(
            tbl.column("bucket").to_pylist(),
            tbl.column("x").to_pylist(),
        )
    )
    if len(pts) < 2:
        raise ValueError(
            "holt_linear: need at least 2 buckets for the two-point "
            "trend init"
        )
    buckets = [p[0] for p in pts]
    xs = [p[1] for p in pts]
    lvl, trd, fit, res = [], [], [], []
    l_prev = float(xs[0])
    b_prev = float(xs[1]) - float(xs[0])
    lvl.append(l_prev)
    trd.append(b_prev)
    fit.append(None)
    res.append(None)
    for x in xs[1:]:
        xf = float(x)
        fitted = l_prev + b_prev
        l_new = alpha * xf + (1.0 - alpha) * fitted
        b_new = beta * (l_new - l_prev) + (1.0 - beta) * b_prev
        lvl.append(l_new)
        trd.append(b_new)
        fit.append(fitted)
        res.append(xf - fitted)
        l_prev, b_prev = l_new, b_new
    return pa.table(
        {
            "bucket": pa.array(buckets, pa.int64()),
            "x": pa.array(xs, pa.int64()),
            "level": pa.array(lvl, pa.float64()),
            "trend": pa.array(trd, pa.float64()),
            "fitted": pa.array(fit, pa.float64()),
            "resid": pa.array(res, pa.float64()),
        }
    )


def _bucket_int_series(
    ds,
    ts_col: str,
    val_col: str,
    bucket_us: int,
    max_points: int,
    op: str,
    agg: str = "sum",
):
    """Fold the (time bucket, exact-int metric) series of a stream
    down to driver lists ``(buckets, xs)`` in ascending bucket order
    -- the shared reduction behind the bounded-series family
    (EWMA/Holt smoothing, Gumbel block maxima, Theil-Sen, lagged
    cross-correlation).  ``agg`` is ``sum``/``max``/``count`` --
    all combine-order-exact integer folds.  Shuffle volume =
    distinct buckets per block; the folded series is
    calendar-bounded (``max_points`` guard)."""
    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(ts_col)),
                pc.is_valid(b.column(val_col)),
            )
        )
        return pa.table(
            {
                "bucket": _window(t.column(ts_col), bucket_us),
                "x": t.column(val_col).cast(pa.int64()),
            }
        )

    h = fold(
        ds,
        project,
        "bucket",
        None if agg == "count" else {"x": "max" if agg == "max" else "sum"},
        limit=max_points,
        op=op,
        limit_name="max_points",
    )
    pts = sorted(_rows(h, *h.column_names))
    return [p[0] for p in pts], [p[1] for p in pts]


def gumbel_block_maxima(
    ds,
    ts_col: str = "ts",
    cents_col: str = "cents",
    bucket_us: int = 7 * 86_400_000_000,
    max_points: int = 2_000_000,
):
    """Extreme-value capacity readout: fit a Gumbel distribution to
    the weekly block maxima of the metric by method of moments --
    the standard "how big a spike should we provision for" analysis,
    which mean/quantile rollups cannot answer (they describe typical
    weeks, not record weeks).

        beta = sqrt(var) * (sqrt(6) / pi)
        mu   = mean - euler_gamma * beta

    Exactness: per-block per-bucket integer MAX partials fold to the
    bounded weekly-maxima series; the k / sum / sum-of-squares
    moments are exact ints (arbitrary precision here, HUGEINT in the
    mirror) and every emitted float (mean, unbiased var, mu, beta)
    is a single expression of those ints with runtime-computed
    ``sqrt(6)/pi`` / Euler-gamma-literal factors stated identically
    in the SQL mirror.  Requires >= 2 blocks (raises below --
    variance needs k > 1).  ``s_xx`` is emitted as DOUBLE (it
    exceeds int64 for cent maxima above ~3e9).
    """
    import math

    buckets, xs = _bucket_int_series(
        ds,
        ts_col,
        cents_col,
        bucket_us,
        max_points,
        "gumbel_block_maxima",
        agg="max",
    )
    k = len(xs)
    if k < 2:
        raise ValueError(
            "gumbel_block_maxima: need at least 2 blocks for the "
            "variance"
        )
    sx = sum(xs)
    sxx = sum(x * x for x in xs)
    mean = float(sx) / float(k)
    var = float(k * sxx - sx * sx) / float(k * (k - 1))
    beta = math.sqrt(var) * (math.sqrt(6.0) / math.pi)
    mu = mean - 0.5772156649015329 * beta
    return pa.table(
        {
            "k": pa.array([k], pa.int64()),
            "s_x": pa.array([float(sx)], pa.float64()),
            "s_xx": pa.array([float(sxx)], pa.float64()),
            "mean": pa.array([mean], pa.float64()),
            "var": pa.array([var], pa.float64()),
            "beta": pa.array([beta], pa.float64()),
            "mu": pa.array([mu], pa.float64()),
        }
    )


def daily_xcorr(
    ds_a,
    ds_b,
    ts_col: str = "ts",
    val_a: str = "cents",
    val_b: str = "cents",
    agg_a: str = "sum",
    agg_b: str = "count",
    max_lag: int = 7,
    bucket_us: int = 86_400_000_000,
    max_points: int = 2_000_000,
):
    """Lagged cross-correlation between two daily series (metric A on
    day d vs metric B on day d+lag, lag in [-max_lag, +max_lag]) --
    the lead/lag readout behind "does order revenue foreshadow event
    traffic" questions, which the single-series ``daily_acf`` cannot
    answer.

    Both series fold to bounded exact-int daily tables
    (``_bucket_int_series``); per lag, the Pearson r over the days
    present in BOTH series is one float expression of exact integer
    moments (k, s_x, s_y, s_xx, s_yy, s_xy -- arbitrary-precision
    here, HUGEINT in the SQL mirror's lag-unnested join):

        r = (k*s_xy - s_x*s_y) /
            sqrt((k*s_xx - s_x^2) * (k*s_yy - s_y^2))

    NULL when either side is constant on the overlap or the overlap
    has < 2 days.  Scale shape: two calendar-bounded groupbys, then
    O(lags x days) driver arithmetic."""
    import math

    ba, xa = _bucket_int_series(
        ds_a, ts_col, val_a, bucket_us, max_points, "daily_xcorr",
        agg=agg_a,
    )
    bb, xb = _bucket_int_series(
        ds_b, ts_col, val_b, bucket_us, max_points, "daily_xcorr",
        agg=agg_b,
    )
    a_map = dict(zip(ba, xa))
    b_map = dict(zip(bb, xb))
    lags, ks, rs = [], [], []
    for lag in range(-max_lag, max_lag + 1):
        k = sx = sy = sxx = syy = sxy = 0
        for d, x in a_map.items():
            y = b_map.get(d + lag)
            if y is None:
                continue
            k += 1
            sx += x
            sy += y
            sxx += x * x
            syy += y * y
            sxy += x * y
        dx = k * sxx - sx * sx
        dy = k * syy - sy * sy
        r = (
            float(k * sxy - sx * sy)
            / math.sqrt(float(dx) * float(dy))
            if k >= 2 and dx > 0 and dy > 0
            else None
        )
        lags.append(lag)
        ks.append(k)
        rs.append(r)
    return pa.table(
        {
            "lag": pa.array(lags, pa.int64()),
            "k": pa.array(ks, pa.int64()),
            "r": pa.array(rs, pa.float64()),
        }
    )


def theil_sen(
    ds,
    ts_col: str = "ts",
    cents_col: str = "cents",
    bucket_us: int = 86_400_000_000,
    max_points: int = 100_000,
):
    """Theil-Sen robust trend over the daily metric series: the
    median of all pairwise slopes, with the median-residual
    intercept -- the outlier-immune counterpart of ``ols_trend``
    (one rogue day moves OLS; it cannot move a pairwise median).

    The daily series folds to exact integer cents
    (``_bucket_int_series``); slopes are per-pair single IEEE
    divisions of exact ints, and both medians use the SAME even-count
    rule as DuckDB's ``median`` over doubles ((a+b)/2 of the two
    middle order statistics -- verified against quantile_cont), so
    the mirror's pairwise-join + median states bit-identical floats.
    Intercept = median over days of ``y_i - slope * day_i``.

    Scale shape: the O(days^2) pair enumeration runs on the driver
    over the CALENDAR-BOUNDED series (a decade of days = 13 M pairs;
    ``max_points`` guards the quadratic blowup) -- the corpus itself
    never leaves the cluster."""
    buckets, xs = _bucket_int_series(
        ds, ts_col, cents_col, bucket_us, max_points, "theil_sen"
    )
    n = len(xs)
    if n < 2:
        raise ValueError(
            "theil_sen: need at least 2 buckets for a slope"
        )
    d = np.asarray(buckets, dtype=np.int64)
    y = np.asarray(xs, dtype=np.int64)
    iu, ju = np.triu_indices(n, k=1)
    slopes = (y[ju] - y[iu]).astype(np.float64) / (
        d[ju] - d[iu]
    ).astype(np.float64)

    def median_duckdb(v: np.ndarray) -> float:
        v = np.sort(v)
        m = len(v)
        if m % 2:
            return float(v[m // 2])
        return (float(v[m // 2 - 1]) + float(v[m // 2])) / 2.0

    slope = median_duckdb(slopes)
    resid = y.astype(np.float64) - slope * d.astype(np.float64)
    intercept = median_duckdb(resid)
    return pa.table(
        {
            "n_days": pa.array([n], pa.int64()),
            "n_pairs": pa.array(
                [n * (n - 1) // 2], pa.int64()
            ),
            "slope": pa.array([slope], pa.float64()),
            "intercept": pa.array([intercept], pa.float64()),
        }
    )


def slo_burn_alerts(
    ds,
    err_type: str = "error",
    type_col: str = "event_type",
    ts_col: str = "ts",
    hour_us: int = 3_600_000_000,
    window_hours: int = 6,
    short_num: int = 1,
    short_den: int = 10,
    long_num: int = 1,
    long_den: int = 20,
    max_hours: int = 2_000_000,
):
    """Multi-window SLO burn-rate alerting: per hour, the error count
    and total, the trailing ``window_hours`` RANGE-window sums over
    hour VALUES (calendar hours, so gaps in traffic do not stretch
    the window), and an alert flag that fires only when BOTH the
    fast window (this hour's error rate > short_num/short_den) and
    the slow window (trailing rate > long_num/long_den) burn -- the
    standard two-window pager rule that ignores one-hour blips and
    slow drips alike.

    All comparisons are integer cross-multiplications
    (``e * den > num * n``), so the output is ints + bools --
    combine-order-exact and bit-identical to the SQL mirror's RANGE
    window.  Scale shape: one (hour) groupby of per-block partials
    (shuffle volume = distinct hours per block); the folded hourly
    table is metadata-counted and only collected under ``max_hours``
    (a century of hours is ~876k rows -- the table is bounded by the
    time span, never by event volume); the trailing sums resolve
    with two searchsorted prefix-diffs.
    """
    def project(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b.column(ts_col)))
        is_err = pc.cast(
            pc.equal(t.column(type_col), pa.scalar(err_type)),
            pa.int64(),
        )
        return pa.table(
            {
                "hour": _window(t.column(ts_col), hour_us),
                "e": pc.fill_null(is_err, 0),
                "n": _ones(t.num_rows),
            }
        )

    h = fold(
        ds, project, "hour", {"e": "sum", "n": "sum"}, limit=max_hours,
        op="slo_burn_alerts", limit_name="max_hours",
    ).sort_by("hour")
    hours, errs, tots = (
        np.asarray(h.column(c), np.int64) for c in ("hour", "e", "n")
    )
    ce = np.concatenate([[0], np.cumsum(errs)])
    cn = np.concatenate([[0], np.cumsum(tots)])
    # RANGE BETWEEN (window_hours-1) PRECEDING AND CURRENT ROW over
    # hour VALUES: first index with hour >= h - (window_hours - 1)
    lo = np.searchsorted(hours, hours - np.int64(window_hours - 1))
    hi = np.arange(1, len(hours) + 1)
    e_w = ce[hi] - ce[lo]
    n_w = cn[hi] - cn[lo]
    alert = (errs * np.int64(short_den) > np.int64(short_num) * tots) & (
        e_w * np.int64(long_den) > np.int64(long_num) * n_w
    )
    return pa.table(
        {
            "hour": pa.array(hours, pa.int64()),
            "n_events": pa.array(tots, pa.int64()),
            "n_errors": pa.array(errs, pa.int64()),
            "n_window": pa.array(n_w.astype(np.int64), pa.int64()),
            "e_window": pa.array(e_w.astype(np.int64), pa.int64()),
            "alert": pa.array(alert, pa.bool_()),
        }
    )


def dow_seasonality(
    ds,
    key_col: str = "event_type",
    ts_col: str = "ts",
    day_us: int = 86_400_000_000,
    max_days: int = 2_000_000,
):
    """Day-of-week seasonality profile per key: events per calendar
    day of that weekday, and the seasonality index -- the ratio of
    the key's per-day rate on that weekday to the key's overall
    per-day rate -- the traffic-shape audit run before picking
    maintenance windows or normalizing anomaly thresholds.

    Weekday is pure integer arithmetic on epoch microseconds
    (``dow = (epoch_day + 4) % 7``, 0 = Sunday), identical on both
    sides -- no timezone or locale functions involved.  Day counts
    per weekday come from the corpus's DISTINCT event days (bounded
    by the time span, guarded by ``max_days``), so partially-covered
    weeks weight correctly.  Both outputs are single float
    expressions of exact integers:

        events_per_day = n / nd
        season_idx     = (n * d_total) / (nd * n_key_total)

    Scale shape: one (key, dow) groupby of per-block count partials
    plus one (day) groupby for the distinct-day calendar; both folded
    tables are tiny (keys x 7 and span-days rows).
    """
    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(ts_col)),
                pc.is_valid(b.column(key_col)),
            )
        )
        return pa.table(
            {"k": t.column(key_col), "day": _window(t.column(ts_col), day_us)}
        )

    h = fold(
        ds, project, ["k", "day"], limit=max_days, op="dow_seasonality",
        limit_name="max_days",
    )
    per_kd: dict = {}
    days: set = set()
    for k, day, c in _rows(h, "k", "day", "n"):
        per_kd[(k, day)] = per_kd.get((k, day), 0) + c
        days.add(day)
    dow_days: dict = {}
    for day in days:
        dw = (day + 4) % 7
        dow_days[dw] = dow_days.get(dw, 0) + 1
    d_total = len(days)
    n_key: dict = {}
    n_kd: dict = {}
    for (k, day), c in per_kd.items():
        dw = (day + 4) % 7
        n_key[k] = n_key.get(k, 0) + c
        n_kd[(k, dw)] = n_kd.get((k, dw), 0) + c
    ks, dws, nev, ndy, epd, idx = [], [], [], [], [], []
    for (k, dw) in sorted(n_kd):
        n = n_kd[(k, dw)]
        nd = dow_days[dw]
        ks.append(k)
        dws.append(dw)
        nev.append(n)
        ndy.append(nd)
        epd.append(float(n) / float(nd))
        idx.append(float(n * d_total) / float(nd * n_key[k]))
    return pa.table(
        {
            "k": pa.array(ks, pa.string()),
            "dow": pa.array(dws, pa.int64()),
            "n_events": pa.array(nev, pa.int64()),
            "n_days": pa.array(ndy, pa.int64()),
            "events_per_day": pa.array(epd, pa.float64()),
            "season_idx": pa.array(idx, pa.float64()),
        }
    )


def last_touch_attribution(
    ds,
    conversion_type: str = "purchase",
    touch_types: tuple = ("click", "view"),
    window_us: int = 7 * 86_400 * 1_000_000,
    user_col: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "event_id",
    val_col: str = "value",
    n_buckets: int = 64,
):
    """Last-touch conversion attribution: every ``conversion_type``
    event is credited to the same user's most recent ``touch_types``
    event STRICTLY earlier and within ``window_us``; conversions with
    no such touch land in the ``'none'`` row.  Output per attributed
    touch type: conversion count and integer-cent value sum -- the
    channel-performance rollup of marketing analytics.

    Deterministic tie rule, mirrored in SQL (``ORDER BY t.ts DESC,
    t.event_id DESC``): latest touch timestamp wins, then the largest
    touch id.  Scale shape: conversions and touches are prefiltered
    and co-located by ONE user-hash bucket shuffle; inside a bucket
    one lexsort over (user, ts, id) and one ``searchsorted`` resolve
    every conversion's predecessor (the sort order makes "last row
    strictly before ts" exactly the (max ts, max id) touch); per-type
    partial (count, cents, valid) rows fold in one tiny groupby.
    ``sum_value_cents`` is NULL when no attributed conversion carried
    a value (SQL SUM semantics).
    """
    touch_list = list(touch_types)

    def project(b: pa.Table) -> pa.Table:
        et = b.column(type_col)
        keep = pc.and_(
            pc.or_(
                pc.equal(et, conversion_type),
                pc.is_in(et, value_set=pa.array(touch_list)),
            ),
            pc.is_valid(b.column(ts_col)),
        )
        t = b.filter(keep)
        users = t.column(user_col).combine_chunks().cast(pa.int64())
        return pa.table(
            {
                "u": users,
                "t": t.column(ts_col).cast(pa.int64()),
                "i": t.column(id_col).cast(pa.int64()),
                "et": t.column(type_col),
                "is_conv": pc.equal(t.column(type_col), conversion_type),
                "cents": _cents(t.column(val_col)),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(
            [("u", "ascending"), ("t", "ascending"), ("i", "ascending")]
        )
        u = tbl.column("u").to_numpy(zero_copy_only=False)
        ts = tbl.column("t").to_numpy(zero_copy_only=False)
        is_c = tbl.column("is_conv").to_numpy(zero_copy_only=False)
        et = tbl.column("et").to_numpy(zero_copy_only=False)
        cents = tbl.column("cents")
        n = len(u)
        empty = pa.table(
            {
                "attr_type": pa.array([], pa.string()),
                "n_conversions": pa.array([], pa.int64()),
                "v": pa.array([], pa.int64()),
                "nv": pa.array([], pa.int64()),
            }
        )
        if not n:
            return empty
        c_idx = np.flatnonzero(is_c)
        t_idx = np.flatnonzero(~is_c)
        if not len(c_idx):
            return empty
        attr = np.full(len(c_idx), "none", dtype=object)
        if len(t_idx):
            # composite (user, ts) axis over the touch rows; within
            # equal (u, ts) the lexsort leaves max id LAST, so the
            # predecessor row is exactly the (max ts, max id) touch
            t0 = int(ts.min())
            span = int(ts.max()) - t0 + 2
            uniq, seg = np.unique(u, return_inverse=True)
            if len(uniq) * span < (1 << 62):
                comp = seg.astype(np.int64) * span + (ts - t0)
                comp_t = comp[t_idx]
                pos = np.searchsorted(comp_t, comp[c_idx], "left")
                lo = np.searchsorted(
                    comp_t, seg[c_idx].astype(np.int64) * span, "left"
                )
                has = pos > lo
                cand = t_idx[np.maximum(pos - 1, 0)]
                ok = has & (
                    ts[c_idx] - ts[np.where(has, cand, 0)]
                    <= np.int64(window_us)
                ) & (ts[c_idx] > ts[np.where(has, cand, 0)])
                attr[ok] = et[cand[ok]]
            else:  # pathological span: per-user python walk
                starts = np.flatnonzero(
                    np.r_[True, u[1:] != u[:-1]]
                )
                ends = np.append(starts[1:], n)
                for s, e in zip(starts, ends):
                    local_t = [j for j in range(s, e) if not is_c[j]]
                    for k, i in enumerate(c_idx):
                        if not (s <= i < e):
                            continue
                        best = None
                        for j in local_t:
                            if ts[j] < ts[i] and ts[i] - ts[j] <= window_us:
                                best = j
                        if best is not None:
                            attr[np.flatnonzero(c_idx == i)[0]] = et[best]
        c_cents = cents.take(pa.array(c_idx, pa.int64()))
        return pa.table(
            {
                "attr_type": pa.array(list(attr), pa.string()),
                "n_conversions": _ones(len(c_idx)),
                "v": pc.fill_null(c_cents, 0),
                "nv": pc.cast(pc.is_valid(c_cents), pa.int64()),
            }
        )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "attr_type": b.column("attr_type"),
                "n_conversions": b.column("n_conversions"),
                "sum_value_cents": pc.if_else(
                    pc.greater(b.column("nv"), pa.scalar(0, pa.int64())),
                    b.column("v"),
                    pa.scalar(None, pa.int64()),
                ),
            }
        )

    return fold(
        map_keyed(
            ds.map_batches(project, batch_format="pyarrow"),
            per_bucket,
            key="u",
            n_buckets=n_buckets,
        ),
        lambda t: t,
        "attr_type",
        {"n_conversions": "sum", "v": "sum", "nv": "sum"},
        collect=False,
    ).map_batches(finish, batch_format="pyarrow")


def _ts_scalar_us(v):
    """Driver-side timestamp scalar -> exact integer epoch
    microseconds (never float .timestamp(): a microsecond fraction is
    not a dyadic rational, so the float round-trip can be off by 1)."""
    import datetime as _dt

    if isinstance(v, _dt.datetime):
        epoch = _dt.datetime(1970, 1, 1, tzinfo=v.tzinfo)
        delta = v - epoch
        return (
            delta.days * 86_400_000_000
            + delta.seconds * 1_000_000
            + delta.microseconds
        )
    return int(v)


def _mid_us(ds, ts_col):
    """Midpoint of the corpus's time span, in integer epoch
    microseconds: ``(min + max) // 2``."""
    from ray.data.aggregate import Max, Min

    span = ds.aggregate(Min(ts_col), Max(ts_col))
    return (
        _ts_scalar_us(span[f"min({ts_col})"])
        + _ts_scalar_us(span[f"max({ts_col})"])
    ) // 2


def _halves_counts(ds, ts_col, val_col, max_distinct, op):
    """The time-halves cents histogram of the drift family
    (``psi_drift``, ``js_divergence``): ``({cents: n}, {cents: n})``
    for the rows before and from the midpoint of the corpus's time
    span, null timestamps or metrics dropped.  Folded on (side,
    cents) under the rank-family ``max_distinct`` guard."""
    mid = _mid_us(ds, ts_col)

    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(ts_col)),
                pc.is_valid(b.column(val_col)),
            )
        )
        cur = pc.greater_equal(
            t.column(ts_col).cast(pa.int64()), pa.scalar(mid, pa.int64())
        )
        return pa.table({"cur": cur, "v": _cents(t.column(val_col))})

    h = fold(ds, project, ["cur", "v"], limit=max_distinct, op=op)
    ref: dict = {}
    cur: dict = {}
    for c, v, n in _rows(h, "cur", "v", "n"):
        (cur if c else ref)[v] = n
    return ref, cur


def psi_drift(
    ds,
    val_col: str = "value",
    ts_col: str = "ts",
    n_bins: int = 10,
    max_distinct: int = 2_000_000,
):
    """Population Stability Index drift profile: the corpus's time
    span splits at its midpoint into a REFERENCE and a CURRENT
    period; the reference's integer-cent value distribution defines
    ``n_bins`` percentile_disc decile edges, and each bin reports
    both periods' counts plus its PSI contribution

        (a/A - b/B) * ln((a*B) / (b*A))

    -- the model-monitoring readout (sum of contributions; PSI > 0.2
    is the classic retrain alarm) that, unlike the KS D, localizes
    WHERE the distribution moved.  The contribution is one float
    expression of four exact integers with libm ``ln`` (bit-identical
    to DuckDB's), NULL when a bin is empty on either side.

    Scale shape: one min/max ts aggregate picks the midpoint; one
    (side, cents) groupby of per-block count partials folds the two
    compressed distributions; the fold is metadata-counted and only
    collected under ``max_distinct`` (the rank-family guard).  Edges
    use the repo's percentile_disc rule: smallest value whose
    cumulative count reaches ``ceil(i*A/n_bins)`` (exact integer
    arithmetic).  Bin id = number of edges strictly below the value,
    so duplicate edges collapse bins identically on both sides.
    """
    import math

    ref_map, cur_map = _halves_counts(
        ds, ts_col, val_col, max_distinct, "psi_drift"
    )
    big_a = sum(ref_map.values())
    big_b = sum(cur_map.values())
    if big_a == 0 or big_b == 0:
        return pa.table(
            {
                "bin": pa.array([], pa.int64()),
                "n_ref": pa.array([], pa.int64()),
                "n_cur": pa.array([], pa.int64()),
                "psi_contrib": pa.array([], pa.float64()),
            }
        )
    # percentile_disc edges of the reference distribution
    edges = []
    ref_vals = sorted(ref_map)
    cums = np.cumsum([ref_map[v] for v in ref_vals])
    for i in range(1, n_bins):
        target = (i * big_a + n_bins - 1) // n_bins  # ceil(i*A/n)
        edges.append(ref_vals[int(np.searchsorted(cums, target))])
    edges_arr = np.array(edges, np.int64)  # ascending by construction
    bins_a: dict = {}
    bins_b: dict = {}
    for v, c in ref_map.items():
        k = int(np.searchsorted(edges_arr, v, "left"))  # edges < v
        bins_a[k] = bins_a.get(k, 0) + c
    for v, c in cur_map.items():
        k = int(np.searchsorted(edges_arr, v, "left"))
        bins_b[k] = bins_b.get(k, 0) + c
    out_bin, out_a, out_b, out_psi = [], [], [], []
    for k in sorted(set(bins_a) | set(bins_b)):
        a = bins_a.get(k, 0)
        b = bins_b.get(k, 0)
        out_bin.append(k)
        out_a.append(a)
        out_b.append(b)
        if a > 0 and b > 0:
            out_psi.append(
                (float(a) / float(big_a) - float(b) / float(big_b))
                * math.log(float(a * big_b) / float(b * big_a))
            )
        else:
            out_psi.append(None)
    return pa.table(
        {
            "bin": pa.array(out_bin, pa.int64()),
            "n_ref": pa.array(out_a, pa.int64()),
            "n_cur": pa.array(out_b, pa.int64()),
            "psi_contrib": pa.array(out_psi, pa.float64()),
        }
    )


def interarrival_fit(
    ds,
    type_col: str = "event_type",
    ts_col: str = "ts",
    n_buckets: int = 64,
    max_distinct: int = 2_000_000,
):
    """Exponential inter-arrival goodness-of-fit per key: the MLE
    mean gap (exact integer sum / count) and the one-sample KS
    statistic of the observed gap distribution against
    ``Exp(1/mean)`` -- the burstiness audit that says whether a
    stream is Poisson (KS small) or clumped/periodic (KS large),
    evaluated at both sides of every ECDF step.

    Gaps are successive differences of the per-key SORTED timestamp
    sequence -- a global order dependency, distributed with the
    ``late_events`` recipe: timestamps range-partition into
    ``n_buckets`` contiguous buckets, a first tiny pass folds
    per-(key, bucket) max timestamps (<= keys x buckets rows),
    exclusive prefix maxes per key broadcast, and each bucket then
    diffs its sorted local timestamps seeded by the key's prefix --
    exactly the LAG-over-sorted gaps, computed in two streaming
    scans.  The (key, gap) distinct histogram folds under the
    rank-family guard; the finish uses libm ``exp`` (bit-identical
    to DuckDB's) in the same expression tree as the SQL mirror, and
    the KS max is combine-order-exact.
    """
    import math

    mn_us = _ts_scalar_us(ds.min(ts_col))
    mx_us = _ts_scalar_us(ds.max(ts_col))
    width = (mx_us - mn_us) // n_buckets + 1

    def bucketize(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(ts_col)),
                pc.is_valid(b.column(type_col)),
            )
        )
        ts = t.column(ts_col).cast(pa.int64())
        rb = pc.divide(
            pc.subtract(ts, pa.scalar(mn_us, pa.int64())),
            pa.scalar(width, pa.int64()),
        )
        return pa.table(
            {"k": t.column(type_col), "rb": rb, "t": ts}
        )

    bucketed = ds.map_batches(bucketize, batch_format="pyarrow")

    bounds = fold(
        bucketed, lambda b: b, ["k", "rb"], {"t": "max"}
    )  # <= keys x n_buckets rows
    per_key: dict = {}
    for k, rb, t in _rows(bounds, "k", "rb", "t"):
        per_key.setdefault(k, {})[rb] = t
    prefix: dict = {}
    for k, m in per_key.items():
        run = None
        for rb in sorted(m):
            prefix[(k, rb)] = run  # last ts of earlier buckets
            run = m[rb] if run is None else max(run, m[rb])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        k = tbl.column("k")[0].as_py()
        rb = int(tbl.column("rb")[0].as_py())
        t = np.sort(tbl.column("t").to_numpy(zero_copy_only=False))
        pre = prefix.get((k, rb))
        if pre is not None:
            t = np.concatenate([[np.int64(pre)], t])
        gaps = np.diff(t) if len(t) > 1 else np.zeros(0, np.int64)
        return pa.table(
            {
                "k": pa.array([k] * len(gaps), pa.string()),
                "gap": pa.array(gaps, pa.int64()),
            }
        )

    h = fold(
        bucketed.groupby(["k", "rb"]).map_groups(
            per_bucket, batch_format="pyarrow"
        ),
        lambda t: t,
        ["k", "gap"],
        limit=max_distinct,
        op="interarrival_fit",
    )
    per: dict = {}
    for k, g, c in _rows(h, "k", "gap", "n"):
        per.setdefault(k, {})[g] = c
    ks_out, ng_out, sg_out, mg_out, d_out = [], [], [], [], []
    for k in sorted(per):
        hist = per[k]
        n = sum(hist.values())
        s = sum(g * c for g, c in hist.items())
        mean = float(s) / float(n)
        cum = 0
        d = 0.0
        for g in sorted(hist):
            c = hist[g]
            f_exp = 1.0 - math.exp(-(float(g) / mean))
            lo = abs(float(cum) / float(n) - f_exp)
            cum += c
            hi = abs(float(cum) / float(n) - f_exp)
            if lo > d:
                d = lo
            if hi > d:
                d = hi
        ks_out.append(k)
        ng_out.append(n)
        sg_out.append(s)
        mg_out.append(mean)
        d_out.append(d)
    return pa.table(
        {
            "event_type": pa.array(ks_out, pa.string()),
            "n_gaps": pa.array(ng_out, pa.int64()),
            "sum_gap_us": pa.array(sg_out, pa.int64()),
            "mean_gap_us": pa.array(mg_out, pa.float64()),
            "ks_d": pa.array(d_out, pa.float64()),
        }
    )


def hysteresis_alerts(
    ds,
    key_col: str = "event_type",
    ts_col: str = "ts",
    val_col: str = "value",
    hi: float = 100.0,
    lo: float = 40.0,
    n_buckets: int = 64,
):
    """Two-threshold (Schmitt-trigger) alerting per key: the alert
    state turns ON when value >= ``hi``, OFF when value < ``lo``, and
    HOLDS between the thresholds -- the debounced paging rule every
    monitoring stack uses so a metric oscillating around one threshold
    doesn't flap.  Reports, per key, the number of alerts fired
    (OFF->ON transitions), the number of samples spent in the ON
    state, and the sample count.

    The state recurrence is last_value(mark IGNORE NULLS) over the
    (ts, value)-ordered stream (mark = 1 / 0 / NULL per row), which
    makes it distributable with the repo's range-bucket prefix recipe
    (``late_events``): rows hash into n_buckets CONTIGUOUS time
    buckets, one grouped pass summarizes each (key, bucket) --
    first/last mark, counts split at the first mark, internal
    transitions -- and a keys x buckets driver fold threads the
    carried state through bucket order.  Rows before a bucket's first
    mark inherit the carried state; the first mark fires an alert only
    if the carried state was not already ON.  Ties in (ts, value)
    share a mark, so the fold is order-independent within ties --
    bit-identical to the SQL window mirror.
    """
    mn_us = _ts_scalar_us(ds.min(ts_col))
    mx_us = _ts_scalar_us(ds.max(ts_col))
    width = (mx_us - mn_us) // n_buckets + 1

    def bucketize(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.and_(
                    pc.is_valid(b.column(ts_col)),
                    pc.is_valid(b.column(key_col)),
                ),
                pc.is_valid(b.column(val_col)),
            )
        )
        ts = t.column(ts_col).cast(pa.int64())
        rb = pc.divide(
            pc.subtract(ts, pa.scalar(mn_us, pa.int64())),
            pa.scalar(width, pa.int64()),
        )
        return pa.table(
            {
                "k": t.column(key_col),
                "rb": rb,
                "t": ts,
                "v": t.column(val_col).cast(pa.float64()),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        k = tbl.column("k")[0].as_py()
        rb = int(tbl.column("rb")[0].as_py())
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        v = tbl.column("v").to_numpy(zero_copy_only=False)
        order = np.lexsort((v, t))
        vv = v[order]
        m = np.where(
            vv >= hi, np.int8(1), np.where(vv < lo, np.int8(0), np.int8(-1))
        )
        n_rows = len(m)
        idx = np.flatnonzero(m >= 0)
        if idx.size == 0:
            first_mark, last_mark = None, None
            unknown, n_on_known, alerts_internal = n_rows, 0, 0
        else:
            first = int(idx[0])
            unknown = first
            mm = m[first:]
            valid = mm >= 0
            pos = np.where(valid, np.arange(mm.size), -1)
            np.maximum.accumulate(pos, out=pos)
            st = mm[pos]  # pos >= 0: mm[0] is valid
            n_on_known = int((st == 1).sum())
            alerts_internal = int(
                ((st[1:] == 1) & (st[:-1] != 1)).sum()
            )
            first_mark = int(mm[0])
            last_mark = int(st[-1])
        return pa.table(
            {
                "k": pa.array([k], pa.string()),
                "rb": pa.array([rb], pa.int64()),
                "n_rows": pa.array([n_rows], pa.int64()),
                "unknown": pa.array([unknown], pa.int64()),
                "n_on_known": pa.array([n_on_known], pa.int64()),
                "alerts_internal": pa.array([alerts_internal], pa.int64()),
                "first_mark": pa.array([first_mark], pa.int8()),
                "last_mark": pa.array([last_mark], pa.int8()),
            }
        )

    rows = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby(["k", "rb"])
        .map_groups(per_bucket, batch_format="pyarrow")
        .take_all()
    )  # <= keys x n_buckets rows
    per_key: dict = {}
    for r in rows:
        per_key.setdefault(r["k"], {})[int(r["rb"])] = r
    out_k, out_n, out_on, out_alerts = [], [], [], []
    for k in sorted(per_key):
        seed = None  # carried state entering the next bucket
        n_rows = n_on = n_alerts = 0
        for rb in sorted(per_key[k]):
            r = per_key[k][rb]
            n_rows += int(r["n_rows"])
            n_on += int(r["n_on_known"])
            if seed == 1:
                n_on += int(r["unknown"])
            n_alerts += int(r["alerts_internal"])
            if r["first_mark"] is not None:
                if int(r["first_mark"]) == 1 and seed != 1:
                    n_alerts += 1
                seed = int(r["last_mark"])
        out_k.append(k)
        out_n.append(n_rows)
        out_on.append(n_on)
        out_alerts.append(n_alerts)
    return pa.table(
        {
            "event_type": pa.array(out_k, pa.string()),
            "n_rows": pa.array(out_n, pa.int64()),
            "n_on": pa.array(out_on, pa.int64()),
            "n_alerts": pa.array(out_alerts, pa.int64()),
        }
    )


def _key_windows(key_col, ts_col, window_us, mn_us):
    """Projection to ``(k, win)``: the key and the tumbling window
    ``(ts - mn_us) // window_us`` of each row with a non-null key and
    timestamp."""

    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(ts_col)),
                pc.is_valid(b.column(key_col)),
            )
        )
        win = pc.divide(
            pc.subtract(
                t.column(ts_col).cast(pa.int64()),
                pa.scalar(mn_us, pa.int64()),
            ),
            pa.scalar(window_us, pa.int64()),
        )
        return pa.table({"k": t.column(key_col), "win": win})

    return project


def _window_counts(
    ds, key_col, ts_col, window_us, max_distinct, op, mn_us=None
):
    """The sparse keyed window profile ``{key: {window: rows}}``,
    windows counted from the corpus's first timestamp (or ``mn_us``),
    folded under the ``max_distinct`` guard on (key, window) rows."""
    if mn_us is None:
        mn_us = _ts_scalar_us(ds.min(ts_col))
    h = fold(
        ds, _key_windows(key_col, ts_col, window_us, mn_us), ["k", "win"],
        limit=max_distinct, op=op,
    )
    per: dict = {}
    for k, w, c in _rows(h, "k", "win", "n"):
        per.setdefault(k, {})[w] = c
    return per


def fano_factor(
    ds,
    key_col: str = "event_type",
    ts_col: str = "ts",
    window_us: int = 21_600_000_000,
):
    """Burstiness index per key: the Fano factor (variance / mean) of
    per-tumbling-window event counts over the corpus's FULL observed
    span -- empty windows count as zeros, so a stream that fires all
    its events in one burst scores high even though its non-empty
    windows look uniform.  Fano == 1 is Poisson; > 1 over-dispersed
    (bursty); < 1 regular.

    Exact shape: windows over [min ts, max ts] globally (one tiny
    min/max aggregate); per-block (key, window) count partials fold
    through one bounded groupby (keys x windows rows); per key the
    population variance over ALL n windows reduces to the closed form

        fano = (n * sum(c^2) - (sum c)^2) / (n * sum c)

    where empty windows contribute nothing to either sum -- so the
    fold never materializes the zeros.  All sums are exact int64
    partials; the single float division happens once per key, in the
    same expression tree as the SQL mirror.
    """
    mn_us = _ts_scalar_us(ds.min(ts_col))
    mx_us = _ts_scalar_us(ds.max(ts_col))
    n_windows = (mx_us - mn_us) // window_us + 1

    def square(b: pa.Table) -> pa.Table:
        c = b.column("n")
        return pa.table({"k": b.column("k"), "s1": c, "s2": pc.multiply(c, c)})

    agg = fold(
        fold(
            ds, _key_windows(key_col, ts_col, window_us, mn_us), ["k", "win"],
            collect=False,
        ),
        square,
        "k",
        {"s1": "sum", "s2": "sum"},
    )  # one row per key
    out_k, out_nw, out_ev, out_f = [], [], [], []
    for k, s1, s2 in sorted(_rows(agg, "k", "s1", "s2")):
        out_k.append(k)
        out_nw.append(n_windows)
        out_ev.append(s1)
        # exact int arithmetic; ONE rounding at the float division
        out_f.append(
            float(n_windows * s2 - s1 * s1) / float(n_windows * s1)
        )
    return pa.table(
        {
            "event_type": pa.array(out_k, pa.string()),
            "n_windows": pa.array(out_nw, pa.int64()),
            "n_events": pa.array(out_ev, pa.int64()),
            "fano": pa.array(out_f, pa.float64()),
        }
    )


def changepoint_mean(
    ds,
    key_col: str = "event_type",
    ts_col: str = "ts",
    val_col: str = "value",
    n_buckets: int = 64,
):
    """Single changepoint per key (binary segmentation, first level):
    the split of the (ts, value)-ordered series that MINIMIZES the
    two-segment sum of squared errors -- equivalently maximizes

        g(i) = S1L(i)^2 / i  +  (S1 - S1L(i))^2 / (n - i)

    over left sizes i in [1, n-1] (total sum of squares is split-
    invariant, so only the means term moves).  Values quantize to
    integer cents, so every prefix sum is an exact int64 and g is ONE
    float expression of exact integers -- bit-identical to the SQL
    window mirror, including the (g DESC, i ASC) tie-break.

    Distribution is the range-bucket prefix recipe: a per-block
    partial folds (key, bucket) -> (count, sum) through a tiny
    groupby (keys x buckets rows), the driver prefix-scans it into
    carried (rows-before, sum-before) seeds plus per-key totals, and
    ONE grouped pass scans each bucket's sorted rows with vectorized
    cumsums, emitting only its local argmax candidate.  The int64
    square is exact below |S1| ~ 3e9 cents (guarded: falls back to a
    per-candidate exact-int loop above it).
    """
    mn_us = _ts_scalar_us(ds.min(ts_col))
    mx_us = _ts_scalar_us(ds.max(ts_col))
    width = (mx_us - mn_us) // n_buckets + 1

    def bucketize(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.and_(
                    pc.is_valid(b.column(ts_col)),
                    pc.is_valid(b.column(key_col)),
                ),
                pc.is_valid(b.column(val_col)),
            )
        )
        ts = t.column(ts_col).cast(pa.int64())
        rb = pc.divide(
            pc.subtract(ts, pa.scalar(mn_us, pa.int64())),
            pa.scalar(width, pa.int64()),
        )
        return pa.table(
            {
                "k": t.column(key_col),
                "rb": rb,
                "t": ts,
                "v": _cents(t.column(val_col)),
            }
        )

    bucketed = ds.map_batches(bucketize, batch_format="pyarrow")

    def counted(b: pa.Table) -> pa.Table:
        return b.append_column("n", _ones(b.num_rows))

    bounds = fold(
        bucketed, counted, ["k", "rb"], {"n": "sum", "v": "sum"}
    )  # <= keys x n_buckets rows
    per_key: dict = {}
    for k, rb, n, s1 in _rows(bounds, "k", "rb", "n", "v"):
        per_key.setdefault(k, {})[rb] = (n, s1)
    seeds: dict = {}
    totals: dict = {}
    for k, m in per_key.items():
        pre_n = pre_s = 0
        for rb in sorted(m):
            seeds[(k, rb)] = (pre_n, pre_s)
            pre_n += m[rb][0]
            pre_s += m[rb][1]
        totals[k] = (pre_n, pre_s)

    def per_bucket(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "k": pa.array([], pa.string()),
                "g": pa.array([], pa.float64()),
                "idx": pa.array([], pa.int64()),
                "split_t": pa.array([], pa.int64()),
                "s1l": pa.array([], pa.int64()),
            }
        )
        k = tbl.column("k")[0].as_py()
        rb = int(tbl.column("rb")[0].as_py())
        n_tot, s1_tot = totals[k]
        if n_tot < 2:
            return empty
        pre_n, pre_s = seeds[(k, rb)]
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        v = tbl.column("v").to_numpy(zero_copy_only=False)
        order = np.lexsort((v, t))
        t, v = t[order], v[order]
        nl = pre_n + 1 + np.arange(len(v), dtype=np.int64)
        s1l = pre_s + np.cumsum(v)
        keep = nl < n_tot  # left sizes 1..n-1 only
        nl, s1l, t = nl[keep], s1l[keep], t[keep]
        if len(nl) == 0:
            return empty
        s1r = s1_tot - s1l
        nr = n_tot - nl
        big = max(
            int(np.abs(s1l).max()), int(np.abs(s1r).max())
        )
        if big < 3_000_000_000:
            gl = (s1l * s1l).astype(np.float64) / nl.astype(
                np.float64
            )
            gr = (s1r * s1r).astype(np.float64) / nr.astype(
                np.float64
            )
            g = gl + gr
            j = int(np.argmax(g))  # first occurrence = smallest idx
            best = (float(g[j]), int(nl[j]), int(t[j]), int(s1l[j]))
        else:  # exact-int squares above the int64-square guard
            best = None
            for j in range(len(nl)):
                gg = float(int(s1l[j]) * int(s1l[j])) / float(
                    int(nl[j])
                ) + float(int(s1r[j]) * int(s1r[j])) / float(
                    int(nr[j])
                )
                if best is None or gg > best[0]:
                    best = (gg, int(nl[j]), int(t[j]), int(s1l[j]))
        return pa.table(
            {
                "k": pa.array([k], pa.string()),
                "g": pa.array([best[0]], pa.float64()),
                "idx": pa.array([best[1]], pa.int64()),
                "split_t": pa.array([best[2]], pa.int64()),
                "s1l": pa.array([best[3]], pa.int64()),
            }
        )

    cands = (
        bucketed.groupby(["k", "rb"])
        .map_groups(per_bucket, batch_format="pyarrow")
        .take_all()
    )  # <= keys x n_buckets candidate rows
    best: dict = {}
    for r in cands:
        k = r["k"]
        cur = (float(r["g"]), -int(r["idx"]))
        if k not in best or cur > (
            float(best[k]["g"]),
            -int(best[k]["idx"]),
        ):
            best[k] = r
    out_k, out_n, out_i, out_t, out_ml, out_mr, out_g = (
        [],
        [],
        [],
        [],
        [],
        [],
        [],
    )
    for k in sorted(best):
        r = best[k]
        n_tot, s1_tot = totals[k]
        i, s1l = int(r["idx"]), int(r["s1l"])
        out_k.append(k)
        out_n.append(n_tot)
        out_i.append(i)
        out_t.append(int(r["split_t"]))
        out_ml.append(float(s1l) / float(i))
        out_mr.append(float(s1_tot - s1l) / float(n_tot - i))
        out_g.append(float(r["g"]))
    return pa.table(
        {
            "event_type": pa.array(out_k, pa.string()),
            "n_rows": pa.array(out_n, pa.int64()),
            "split_n": pa.array(out_i, pa.int64()),
            "split_ts_us": pa.array(out_t, pa.int64()),
            "mean_left": pa.array(out_ml, pa.float64()),
            "mean_right": pa.array(out_mr, pa.float64()),
            "gstat": pa.array(out_g, pa.float64()),
        }
    )


def window_movers(
    ds,
    key_col: str = "event_type",
    ts_col: str = "ts",
    window_us: int = 21_600_000_000,
    max_distinct: int = 2_000_000,
):
    """Largest traffic jump per key: the maximum count increase
    between consecutive NON-EMPTY tumbling windows (LAG over the
    per-window counts, ordered by window id; ties broken by the
    earliest window) -- the "what spiked, and when" readout over a
    sparse activity profile.

    One bounded (key, window) count groupby (per-block partials fold
    inside the shuffle's map side); the sparse profile is metadata-
    counted against ``max_distinct`` (the rank-family guard) before
    the keys x windows driver scan picks each key's best step.  Keys
    with fewer than two active windows have no step and drop out,
    exactly like LAG's NULL first row in the SQL mirror.
    """
    per = _window_counts(
        ds, key_col, ts_col, window_us, max_distinct, "window_movers"
    )
    out = {
        "event_type": [],
        "win": [],
        "prev_win": [],
        "c_prev": [],
        "c_cur": [],
        "delta": [],
    }
    for k in sorted(per):
        wins = sorted(per[k])
        if len(wins) < 2:
            continue
        best = None
        for pw, w in zip(wins, wins[1:]):
            d = per[k][w] - per[k][pw]
            if best is None or d > best[0]:
                best = (d, w, pw)
        out["event_type"].append(k)
        out["win"].append(best[1])
        out["prev_win"].append(best[2])
        out["c_prev"].append(per[k][best[2]])
        out["c_cur"].append(per[k][best[1]])
        out["delta"].append(best[0])
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "win": pa.array(out["win"], pa.int64()),
            "prev_win": pa.array(out["prev_win"], pa.int64()),
            "c_prev": pa.array(out["c_prev"], pa.int64()),
            "c_cur": pa.array(out["c_cur"], pa.int64()),
            "delta": pa.array(out["delta"], pa.int64()),
        }
    )


def alert_cooldown(
    ds,
    key_col: str = "event_type",
    ts_col: str = "ts",
    cooldown_us: int = 345_600_000_000,
):
    """Cooldown-deduplicated alerts per key: the first event fires,
    then every later event is suppressed until ``cooldown_us`` has
    passed since the last FIRED alert -- the pager-throttling greedy
    whose recurrence (each emission depends on the previous emission,
    not on a fixed window) famously resists plain window SQL; the
    mirror is a recursive CTE.

    Distribution exploits the output bound, not an ordering trick:
    fired alerts are >= cooldown apart, so a key fires at most
    span/cooldown + 1 times.  Round 0 is one bounded per-key min
    aggregate; every later round broadcasts the per-key thresholds
    (last fired + cooldown) and streams ONE map_batches pass whose
    per-block partials fold driver-side (keys x blocks tiny rows) --
    all keys advance simultaneously, so the pass count is the MAX
    alert count over keys, not the sum.  The corpus never shuffles
    and never materializes.
    """
    import ray

    from .dedup import _cached_get

    def min_partial(b: pa.Table, thr=None) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(ts_col)),
                pc.is_valid(b.column(key_col)),
            )
        )
        tbl = pa.table(
            {
                "k": t.column(key_col),
                "t": t.column(ts_col).cast(pa.int64()),
            }
        )
        if thr is not None:
            ks, lim = _cached_get(thr)
            kmap = {k: i for i, k in enumerate(ks)}
            enc = pc.dictionary_encode(
                tbl.column("k").combine_chunks()
            )
            # Python loop over DISTINCT keys only, never over rows
            dmap = np.array(
                [
                    kmap.get(x, -1)
                    for x in enc.dictionary.to_pylist()
                ],
                np.int64,
            )
            idx = dmap[enc.indices.to_numpy(zero_copy_only=False)]
            tt = tbl.column("t").to_numpy(zero_copy_only=False)
            keep = (idx >= 0) & (tt >= lim[np.maximum(idx, 0)])
            tbl = tbl.filter(pa.array(keep))
        return tbl.group_by("k").aggregate([("t", "min")])

    def key_mins(parts) -> dict:
        out: dict = {}
        for tbl in parts.iter_batches(batch_format="pyarrow"):
            for k, t in zip(
                tbl.column("k").to_pylist(),
                tbl.column("t_min").to_pylist(),
            ):
                if t is not None and (k not in out or t < out[k]):
                    out[k] = int(t)
        return out

    fired: list = []
    last = key_mins(ds.map_batches(min_partial, batch_format="pyarrow"))
    idx = {k: 1 for k in last}
    for k in sorted(last):
        fired.append((k, 1, last[k]))
    while last:
        ks = sorted(last)
        lim = np.array(
            [last[k] + cooldown_us for k in ks], np.int64
        )
        ref = ray.put((ks, lim))
        nxt = key_mins(
            ds.map_batches(
                lambda b, _r=ref: min_partial(b, thr=_r),
                batch_format="pyarrow",
            )
        )
        last = {}
        for k in sorted(nxt):
            idx[k] += 1
            fired.append((k, idx[k], nxt[k]))
            last[k] = nxt[k]
    fired.sort()
    return pa.table(
        {
            "event_type": pa.array([f[0] for f in fired], pa.string()),
            "alert_idx": pa.array([f[1] for f in fired], pa.int64()),
            "alert_ts_us": pa.array(
                [f[2] for f in fired], pa.int64()
            ),
        }
    )


def mase_seasonal(
    ds,
    key_col: str = "event_type",
    ts_col: str = "ts",
    window_us: int = 21_600_000_000,
    period: int = 4,
    max_distinct: int = 2_000_000,
):
    """Seasonal-naive forecast accuracy per key: MASE of the
    per-window count series (windows over the corpus's full span,
    empty windows ZERO-FILLED) against the seasonal-naive forecast
    c[w - period] --

        MASE = (sae_seasonal / (n - period)) / (sae_naive / (n - 1))

    where sae_seasonal sums |c[w] - c[w-period]| and sae_naive sums
    the one-step |c[w] - c[w-1]| (the denominator every forecast
    benchmark scales by).  MASE < 1 means real periodicity at
    ``period`` windows.  Both sums are exact int64; the single float
    division uses the cross-multiplied exact integers.

    Scale shape: one bounded (key, window) count groupby; the sparse
    profile is metadata-counted against ``max_distinct`` before the
    keys x windows zero-filled driver scan (two np.abs diffs per
    key).
    """
    mn_us = _ts_scalar_us(ds.min(ts_col))
    mx_us = _ts_scalar_us(ds.max(ts_col))
    n_windows = (mx_us - mn_us) // window_us + 1
    per = _window_counts(
        ds, key_col, ts_col, window_us, max_distinct, "mase_seasonal", mn_us
    )
    if len(per) * n_windows > max_distinct:
        raise ValueError(
            f"mase_seasonal: zero-filled grid "
            f"{len(per)}x{n_windows} exceeds "
            f"max_distinct={max_distinct}; widen the window"
        )
    out_k, out_n, out_num, out_den, out_m = [], [], [], [], []
    for k in sorted(per):
        c = np.zeros(n_windows, np.int64)
        for w, v in per[k].items():
            c[w] = v
        num = (
            int(np.abs(c[period:] - c[:-period]).sum())
            if n_windows > period
            else None
        )
        den = (
            int(np.abs(c[1:] - c[:-1]).sum())
            if n_windows > 1
            else None
        )
        out_k.append(k)
        out_n.append(n_windows)
        out_num.append(num)
        out_den.append(den)
        if num is not None and den is not None and den > 0:
            out_m.append(
                float(num * (n_windows - 1))
                / float(den * (n_windows - period))
            )
        else:
            out_m.append(None)
    return pa.table(
        {
            "event_type": pa.array(out_k, pa.string()),
            "n_windows": pa.array(out_n, pa.int64()),
            "sae_seasonal": pa.array(out_num, pa.int64()),
            "sae_naive": pa.array(out_den, pa.int64()),
            "mase": pa.array(out_m, pa.float64()),
        }
    )


def ols_trend(
    ds,
    key_col: str = "event_type",
    ts_col: str = "ts",
    val_col: str = "value",
    day_us: int = 86_400_000_000,
):
    """Per-key least-squares trend of value (integer cents) against
    the DAY INDEX since the corpus start: slope, intercept and R^2
    from the closed-form normal equations

        slope = (n*Stv - St*Sv) / (n*St2 - St^2)

    -- the "is this metric drifting, and how fast" readout.  Time is
    quantized to days against the global min BEFORE any product, so
    every sufficient statistic (n, St, Sv, Stv, St2, Sv2) is an exact
    int64 per-block partial (epoch-microsecond regressors would
    overflow the squares); the driver finishes each key with Python
    big-int cross terms and ONE float conversion per factor --
    bit-identical to the SQL mirror's HUGEINT/DOUBLE tree.  Keys are
    bounded, so the fold is a tiny groupby.
    """
    mn_us = _ts_scalar_us(ds.min(ts_col))

    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.and_(
                    pc.is_valid(b.column(ts_col)),
                    pc.is_valid(b.column(key_col)),
                ),
                pc.is_valid(b.column(val_col)),
            )
        )
        day = pc.divide(
            pc.subtract(
                t.column(ts_col).cast(pa.int64()),
                pa.scalar(mn_us, pa.int64()),
            ),
            pa.scalar(day_us, pa.int64()),
        )
        v = _cents(t.column(val_col))
        tt = day.to_numpy(zero_copy_only=False)
        vv = v.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": t.column(key_col),
                "n": _ones(len(tt)),
                "st": day,
                "sv": v,
                "stv": pa.array(tt * vv, pa.int64()),
                "st2": pa.array(tt * tt, pa.int64()),
                "sv2": pa.array(vv * vv, pa.int64()),
            }
        )

    sums = ("n", "st", "sv", "stv", "st2", "sv2")
    agg = fold(
        ds, project, "k", {c: "sum" for c in sums}
    )  # one row per key
    out = {c: [] for c in (
        "event_type", "n", "slope_cents_per_day",
        "intercept_cents", "r2",
    )}
    for k, n, st, sv, stv, st2, sv2 in sorted(_rows(agg, "k", *sums)):
        num = n * stv - st * sv
        denx = n * st2 - st * st
        deny = n * sv2 - sv * sv
        out["event_type"].append(k)
        out["n"].append(n)
        if denx > 0:
            slope = float(num) / float(denx)
            out["slope_cents_per_day"].append(slope)
            out["intercept_cents"].append(
                (float(sv) - slope * float(st)) / float(n)
            )
        else:
            out["slope_cents_per_day"].append(None)
            out["intercept_cents"].append(None)
        if denx > 0 and deny > 0:
            out["r2"].append(
                float(num) * float(num)
                / (float(denx) * float(deny))
            )
        else:
            out["r2"].append(None)
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "n": pa.array(out["n"], pa.int64()),
            "slope_cents_per_day": pa.array(
                out["slope_cents_per_day"], pa.float64()
            ),
            "intercept_cents": pa.array(
                out["intercept_cents"], pa.float64()
            ),
            "r2": pa.array(out["r2"], pa.float64()),
        }
    )


def markov_entropy(
    ds,
    key_col: str = "user_id",
    ts_col: str = "ts",
    state_col: str = "event_type",
    scale: int = 1_000_000,
):
    """Conditional next-event entropy per state of the first-order
    Markov chain over keyed event sequences: for each from-state i,

        H(next | i) = -sum_j (c_ij / c_i) ln(c_ij / c_i)

    -- low entropy means the state's successor is predictable (a
    scripted flow); the uniform-over-states maximum means no
    sequential structure.  Rows with a null key/ts/state drop BEFORE
    pairing, so adjacency skips them exactly like the SQL mirror's
    filtered CTE.

    Exactness contract (the ``domain_kl`` micro-nat rule): each
    transition type contributes ``c_ij * floor((ln(c_ij) - ln(c_i))
    * scale)`` with libm ``ln`` -- exact int64 sums, one IEEE
    division per state for ``h_nats``.  The transition fold is
    ``transition_counts`` (key-hash bucket lexsort, |states|^2
    bounded output); the finish is driver-side over that tiny table.
    Assumes (key, ts) is unique per key (holds for the events
    corpus); equal-ts orderings would be ambiguous in SQL too.
    """
    import math

    def clean(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.and_(
                    pc.is_valid(b.column(key_col)),
                    pc.is_valid(b.column(ts_col)),
                ),
                pc.is_valid(b.column(state_col)),
            )
        )
        return pa.table(
            {
                key_col: t.column(key_col),
                ts_col: t.column(ts_col).cast(pa.int64()),
                state_col: t.column(state_col),
            }
        )

    trans = transition_counts(
        ds.map_batches(clean, batch_format="pyarrow"),
        key_col=key_col,
        order_col=ts_col,
        state_col=state_col,
    ).take_all()  # <= |states|^2 rows
    per: dict = {}
    for r in trans:
        per.setdefault(r["from_state"], {})[r["to_state"]] = int(
            r["n"]
        )
    out_f, out_n, out_hq, out_h = [], [], [], []
    for f in sorted(per):
        cf = sum(per[f].values())
        hq = -sum(
            n
            * math.floor(
                (math.log(float(n)) - math.log(float(cf)))
                * float(scale)
            )
            for n in per[f].values()
        )
        out_f.append(f)
        out_n.append(cf)
        out_hq.append(hq)
        out_h.append(float(hq) / float(scale * cf))
    return pa.table(
        {
            "from_state": pa.array(out_f, pa.string()),
            "n_from": pa.array(out_n, pa.int64()),
            "h_q": pa.array(out_hq, pa.int64()),
            "h_nats": pa.array(out_h, pa.float64()),
        }
    )


def bursty_users(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
    window_us: int = 21_600_000_000,
    min_events: int = 20,
    k: int = 50,
):
    """Burstiest users: per-user Fano factor of tumbling-window event
    counts over the corpus's full span (empty windows as zeros, the
    ``fano_factor`` statistic keyed by an UNBOUNDED column), top-k by
    (fano DESC, user ASC) among users with >= ``min_events`` events.

    Unlike ``fano_factor`` (bounded keys, driver finish) this stays
    entirely in the data plane: per-block (user, window) count
    partials -> one bounded-ish (user, window) groupby -> per-block
    per-user square partials -> one per-user groupby -> a vectorized
    finish that emits only per-block top-k candidates.  Empty windows
    never materialize (they move only the closed-form n), so the
    shuffle volume is the sparse activity profile, not users x
    windows.
    """
    mn_us = _ts_scalar_us(ds.min(ts_col))
    mx_us = _ts_scalar_us(ds.max(ts_col))
    n_windows = (mx_us - mn_us) // window_us + 1

    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(ts_col)),
                pc.is_valid(b.column(user_col)),
            )
        )
        win = pc.divide(
            pc.subtract(
                t.column(ts_col).cast(pa.int64()),
                pa.scalar(mn_us, pa.int64()),
            ),
            pa.scalar(window_us, pa.int64()),
        )
        return pa.table({"u": t.column(user_col).cast(pa.int64()), "win": win})

    def square(b: pa.Table) -> pa.Table:
        c = b.column("n")
        # checked: a >3e9-event window raises instead of wrapping the
        # square
        return pa.table(
            {"u": b.column("u"), "s1": c, "s2": pc.multiply_checked(c, c)}
        )

    def finish(b: pa.Table) -> pa.Table:
        u = b.column("u").to_numpy(zero_copy_only=False)
        s1 = b.column("s1").to_numpy(zero_copy_only=False)
        s2 = b.column("s2").to_numpy(zero_copy_only=False)
        keep = s1 >= min_events
        u, s1, s2 = u[keep], s1[keep], s2[keep]
        if len(u) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "fano": pa.array([], pa.float64()),
                }
            )
        # the cross terms n*s2 and s1*s1 wrap in int64; below the
        # magnitude guard the vectorized path is exact, above it the
        # finish falls back to Python big ints per user (matching
        # fano_factor's exact-int driver finish and the HUGEINT SQL
        # mirror) instead of silently overflowing
        ms1 = int(np.abs(s1).max())
        ms2 = int(np.abs(s2).max())
        if int(n_windows) * ms2 + ms1 * ms1 < 2**63:
            fano = (n_windows * s2 - s1 * s1).astype(
                np.float64
            ) / (n_windows * s1).astype(np.float64)
        else:
            nw = int(n_windows)
            fano = np.array(
                [
                    float(nw * int(b) - int(a) * int(a))
                    / float(nw * int(a))
                    for a, b in zip(s1.tolist(), s2.tolist())
                ],
                np.float64,
            )
        order = np.lexsort((u, -fano))[:k]
        return pa.table(
            {
                "user_id": pa.array(u[order], pa.int64()),
                "n_events": pa.array(s1[order], pa.int64()),
                "fano": pa.array(fano[order], pa.float64()),
            }
        )

    cands = (
        fold(
            fold(ds, project, ["u", "win"], collect=False),
            square,
            "u",
            {"s1": "sum", "s2": "sum"},
            collect=False,
        )
        .map_batches(finish, batch_format="pyarrow")
        .take_all()
    )
    cands.sort(key=lambda r: (-r["fano"], r["user_id"]))
    cands = cands[:k]
    return pa.table(
        {
            "user_id": pa.array(
                [r["user_id"] for r in cands], pa.int64()
            ),
            "n_events": pa.array(
                [r["n_events"] for r in cands], pa.int64()
            ),
            "fano": pa.array([r["fano"] for r in cands], pa.float64()),
        }
    )


def bot_regularity(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
    min_gaps: int = 20,
    k: int = 50,
    n_buckets: int = 64,
):
    """Most metronomic users: the coefficient of variation of each
    user's inter-event gaps (quantized to whole SECONDS so the sum of
    squares stays exact int64 at any span),

        cv = sqrt(n * S2 - S1^2) / S1

    ascending -- a human's gaps are heavy-tailed (cv >~ 1); a cron
    job or scripted bot pins cv near 0.  Top-k by (cv ASC, user ASC)
    among users with >= ``min_gaps`` gaps and a positive gap sum.

    Scale shape: users hash into buckets (a user's whole sequence
    lands in one group), one lexsort + diff inside the bucket forms
    every user's gaps vectorized, per-user exact sums finish locally
    and each bucket emits only its top-k candidates -- one shuffle,
    no driver fold beyond buckets x k rows.
    """

    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(ts_col)),
                pc.is_valid(b.column(user_col)),
            )
        )
        u = t.column(user_col).cast(pa.int64())
        return pa.table(
            {
                "u": u,
                "t": t.column(ts_col).cast(pa.int64()),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "n_gaps": pa.array([], pa.int64()),
                "cv": pa.array([], pa.float64()),
            }
        )
        u = tbl.column("u").to_numpy(zero_copy_only=False)
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        order = np.lexsort((t, u))
        u, t = u[order], t[order]
        same = u[1:] == u[:-1]
        gaps = (t[1:] - t[:-1]) // 1_000_000  # whole seconds
        gu = u[1:][same]
        gaps = gaps[same]
        if len(gaps) == 0:
            return empty
        # per-user exact sums via segmented reduction
        uniq, inv = np.unique(gu, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        # int64 scatter-adds (a float64 bincount would lose exactness
        # past 2^53); the squares and the n*s2 - s1^2 cross term wrap
        # in int64, so guard on pre-computable Python-int bounds
        # (per-user s2 <= n_gaps*big^2, s1^2 <= (n_gaps*big)^2) and
        # fall back to exact big-int arithmetic above them -- matching
        # changepoint_mean's guard and the HUGEINT SQL mirror
        big = int(np.abs(gaps).max())
        n_gaps_tot = len(gaps)
        bound = max(
            n_gaps_tot * big * big, (n_gaps_tot * big) ** 2
        )
        if bound < 2**62:
            s1 = np.zeros(len(uniq), np.int64)
            np.add.at(s1, inv, gaps)
            s2 = np.zeros(len(uniq), np.int64)
            np.add.at(s2, inv, gaps * gaps)
            keep = (n >= min_gaps) & (s1 > 0)
            uniq, n, s1, s2 = uniq[keep], n[keep], s1[keep], s2[keep]
            if len(uniq) == 0:
                return empty
            cv = np.sqrt(
                (n * s2 - s1 * s1).astype(np.float64)
            ) / s1.astype(np.float64)
        else:  # exact Python-int path above the int64 guard
            import math

            s1o = [0] * len(uniq)
            s2o = [0] * len(uniq)
            for i, g in zip(inv.tolist(), gaps.tolist()):
                s1o[i] += g
                s2o[i] += g * g
            rows = [
                (int(uniq[i]), int(n[i]), s1o[i], s2o[i])
                for i in range(len(uniq))
                if n[i] >= min_gaps and s1o[i] > 0
            ]
            if not rows:
                return empty
            uniq = np.array([r[0] for r in rows], np.int64)
            n = np.array([r[1] for r in rows], np.int64)
            s1 = np.array([float(r[2]) for r in rows], np.float64)
            cv = np.array(
                [
                    math.sqrt(float(r[1] * r[3] - r[2] * r[2]))
                    / float(r[2])
                    for r in rows
                ],
                np.float64,
            )
        order = np.lexsort((uniq, cv))[:k]
        return pa.table(
            {
                "user_id": pa.array(uniq[order], pa.int64()),
                "n_gaps": pa.array(n[order], pa.int64()),
                "cv": pa.array(cv[order], pa.float64()),
            }
        )

    cands = (
        map_keyed(
            ds.map_batches(project, batch_format="pyarrow"),
            per_bucket,
            key="u",
            n_buckets=n_buckets,
        )
        .take_all()
    )
    cands.sort(key=lambda r: (r["cv"], r["user_id"]))
    cands = cands[:k]
    return pa.table(
        {
            "user_id": pa.array(
                [r["user_id"] for r in cands], pa.int64()
            ),
            "n_gaps": pa.array(
                [r["n_gaps"] for r in cands], pa.int64()
            ),
            "cv": pa.array([r["cv"] for r in cands], pa.float64()),
        }
    )


def wilson_ctr(
    ds,
    user_col: str = "user_id",
    type_col: str = "event_type",
    pos_type: str = "click",
    neg_type: str = "view",
    min_n: int = 20,
    k: int = 50,
):
    """Wilson-score lower-bound click-through ranking per user: the
    95% lower confidence bound on clicks/(clicks+views),

        wlb = (p + z^2/2n - z*sqrt((p(1-p) + z^2/4n)/n)) / (1 + z^2/n)

    with z = 1.96 -- the "how do I rank small-sample rates without
    letting 1/1 beat 80/100" formula (Wilson 1927; the standard
    comment-ranking bound).  Counts are exact int64 partials; wlb is
    ONE float expression per user with the identical literal/op order
    as the SQL mirror, so the doubles match bitwise.  Top-k by
    (wlb DESC, user ASC) among users with n >= ``min_n``; per-block
    top-k candidates only.
    """
    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(user_col)),
                pc.is_valid(b.column(type_col)),
            )
        )
        return pa.table(
            {
                "u": t.column(user_col).cast(pa.int64()),
                "c": pc.cast(
                    pc.equal(t.column(type_col), pa.scalar(pos_type)),
                    pa.int64(),
                ),
                "v": pc.cast(
                    pc.equal(t.column(type_col), pa.scalar(neg_type)),
                    pa.int64(),
                ),
            }
        )

    def finish(b: pa.Table) -> pa.Table:
        u = b.column("u").to_numpy(zero_copy_only=False)
        c = b.column("c").to_numpy(zero_copy_only=False)
        v = b.column("v").to_numpy(zero_copy_only=False)
        n = c + v
        keep = n >= min_n
        u, c, v, n = u[keep], c[keep], v[keep], n[keep]
        if len(u) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "clicks": pa.array([], pa.int64()),
                    "views": pa.array([], pa.int64()),
                    "ctr": pa.array([], pa.float64()),
                    "wilson_lb": pa.array([], pa.float64()),
                }
            )
        nf = n.astype(np.float64)
        p = c.astype(np.float64) / nf
        # identical literal/op order as the SQL mirror
        wlb = (
            p
            + 1.96 * 1.96 / (2.0 * nf)
            - 1.96
            * np.sqrt((p * (1.0 - p) + 1.96 * 1.96 / (4.0 * nf)) / nf)
        ) / (1.0 + 1.96 * 1.96 / nf)
        order = np.lexsort((u, -wlb))[:k]
        return pa.table(
            {
                "user_id": pa.array(u[order], pa.int64()),
                "clicks": pa.array(c[order], pa.int64()),
                "views": pa.array(v[order], pa.int64()),
                "ctr": pa.array(p[order], pa.float64()),
                "wilson_lb": pa.array(wlb[order], pa.float64()),
            }
        )

    cands = (
        fold(ds, project, "u", {"c": "sum", "v": "sum"}, collect=False)
        .map_batches(finish, batch_format="pyarrow")
        .take_all()
    )
    cands.sort(key=lambda r: (-r["wilson_lb"], r["user_id"]))
    cands = cands[:k]
    cols = ("user_id", "clicks", "views", "ctr", "wilson_lb")
    types = (pa.int64(), pa.int64(), pa.int64(), pa.float64(),
             pa.float64())
    return pa.table(
        {
            c: pa.array([r[c] for r in cands], t)
            for c, t in zip(cols, types)
        }
    )


def target_encode(
    ds,
    cat_col: str = "event_type",
    val_col: str = "value",
    smoothing: int = 50,
):
    """Smoothed target (mean) encoding per category -- the leakage-
    averse feature-engineering standard: a category's encoding is its
    mean response shrunk toward the global mean by ``smoothing``
    pseudo-observations,

        enc = (sum_c + m * global_mean) / (n_c + m)

    so a 3-row category sits near the prior while a 10k-row one keeps
    its own mean.  Values quantize to integer cents; per-category and
    global sums are exact int64 partials from ONE bounded groupby;
    the encoding is one float expression with the same tree as the
    SQL mirror.
    """
    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(cat_col)),
                pc.is_valid(b.column(val_col)),
            )
        )
        return pa.table(
            {
                "cat": t.column(cat_col),
                "s": _cents(t.column(val_col)),
                "n": _ones(t.num_rows),
            }
        )

    agg = fold(ds, project, "cat", {"s": "sum", "n": "sum"})  # per category
    rows = sorted(_rows(agg, "cat", "s", "n"))
    sg = sum(r[1] for r in rows)
    ng = sum(r[2] for r in rows)
    if ng == 0:
        raise ValueError("target_encode: no rows")
    m = float(smoothing)
    gm = float(sg) / float(ng)
    out_c, out_n, out_s, out_e = [], [], [], []
    for cat, s, n in rows:
        out_c.append(cat)
        out_n.append(n)
        out_s.append(s)
        out_e.append((float(s) + m * gm) / (float(n) + m))
    return pa.table(
        {
            "category": pa.array(out_c, pa.string()),
            "n": pa.array(out_n, pa.int64()),
            "sum_cents": pa.array(out_s, pa.int64()),
            "enc_cents": pa.array(out_e, pa.float64()),
        }
    )


def time_to_convert(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    start_type: str = "signup",
    convert_type: str = "purchase",
    cohort_us: int = 604_800_000_000,
    day_us: int = 86_400_000_000,
    n_buckets: int = 64,
):
    """Per-user time from first ``start_type`` event to the first
    ``convert_type`` event AT OR AFTER it, bucketed into signup
    cohorts -- one (cohort_week, delta_days) row per converting
    user, the raw material for activation-latency curves.

    The "first purchase not before the signup" predicate couples the
    two minima, so blockwise partials can't finish it; users hash
    into buckets (a user's rows land in one group) and one
    vectorized pandas pass per bucket resolves both minima --
    the established user-sequence recipe, one shuffle of the
    type-prefiltered rows only.
    """
    mn_us = _ts_scalar_us(ds.min(ts_col))

    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.and_(
                    pc.is_valid(b.column(ts_col)),
                    pc.is_valid(b.column(user_col)),
                ),
                pc.is_in(
                    b.column(type_col),
                    value_set=pa.array([start_type, convert_type]),
                ),
            )
        )
        u = t.column(user_col).cast(pa.int64())
        return pa.table(
            {
                "u": u,
                "t": t.column(ts_col).cast(pa.int64()),
                "is_start": pc.equal(
                    t.column(type_col), pa.scalar(start_type)
                ),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        df = tbl.select(["u", "t", "is_start"]).to_pandas()
        s = df[df["is_start"]].groupby("u")["t"].min()
        conv = df[~df["is_start"]].merge(
            s.rename("s"), left_on="u", right_index=True
        )
        conv = conv[conv["t"] >= conv["s"]]
        if len(conv) == 0:
            return pa.table(
                {
                    "cohort_week": pa.array([], pa.int64()),
                    "delta_days": pa.array([], pa.int64()),
                }
            )
        p = conv.groupby("u").agg(p=("t", "min"), s=("s", "min"))
        cohort = (p["s"].to_numpy() - mn_us) // cohort_us
        delta = (p["p"].to_numpy() - p["s"].to_numpy()) // day_us
        return pa.table(
            {
                "cohort_week": pa.array(
                    cohort.astype(np.int64), pa.int64()
                ),
                "delta_days": pa.array(
                    delta.astype(np.int64), pa.int64()
                ),
            }
        )

    return map_keyed(
        ds.map_batches(project, batch_format="pyarrow"),
        per_bucket,
        key="u",
        n_buckets=n_buckets,
    )


def rfm_segments(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    val_col: str = "value",
    pos_type: str = "purchase",
    day_us: int = 86_400_000_000,
    max_distinct: int = 2_000_000,
):
    """RFM tercile segmentation: each user scores Recency (days since
    last event, vs corpus end), Frequency (event count) and Monetary
    (purchase cents); tercile edges per metric use the repo's
    percentile_disc rule (smallest value whose cumulative USER count
    reaches ceil(i*n/3)) over the metric's distinct-value histogram,
    and a user's bucket is the number of edges strictly below its
    value -- 27 possible (r, f, m) segments, reported with user
    counts.  The marketing-standard cohort cut, exact end to end.

    Scale shape: one bounded per-user groupby (Max/Count/Sum
    partials) materializes the user-profile table (distributed,
    spillable); ONE pass folds all three (metric, value) histograms
    together (guarded by ``max_distinct``, the rank-family rule);
    the 6 edges broadcast back into a stateless segment-assignment
    map and a 27-row groupby.
    """
    mx_us = _ts_scalar_us(ds.max(ts_col))

    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(ts_col)),
                pc.is_valid(b.column(user_col)),
            )
        )
        cents = pc.if_else(
            pc.and_(
                pc.equal(t.column(type_col), pa.scalar(pos_type)),
                pc.is_valid(t.column(val_col)),
            ),
            _cents(pc.fill_null(t.column(val_col).cast(pa.float64()), 0.0)),
            pa.scalar(0, pa.int64()),
        )
        return pa.table(
            {
                "u": t.column(user_col).cast(pa.int64()),
                "lt": t.column(ts_col).cast(pa.int64()),
                "f": _ones(t.num_rows),
                "m": cents,
            }
        )

    def metrics(b: pa.Table) -> pa.Table:
        r = pc.divide(
            pc.subtract(pa.scalar(mx_us, pa.int64()), b.column("lt")),
            pa.scalar(day_us, pa.int64()),
        )
        return b.select(["u", "f", "m"]).add_column(1, "r", r)

    prof = (
        fold(
            ds, project, "u", {"lt": "max", "f": "sum", "m": "sum"},
            collect=False,
        )
        .materialize()
        .map_batches(metrics, batch_format="pyarrow")
    )

    def metric_values(b: pa.Table) -> pa.Table:
        return pa.concat_tables(
            pa.table(
                {
                    "mid": pa.array(np.full(b.num_rows, mid, np.int64)),
                    "v": b.column(col).cast(pa.int64()),
                }
            )
            for mid, col in enumerate(("r", "f", "m"))
        )

    hist = fold(
        prof, metric_values, ["mid", "v"], limit=max_distinct,
        op="rfm_segments",
    )
    per: dict = {0: {}, 1: {}, 2: {}}
    for mid, v, c in _rows(hist, "mid", "v", "n"):
        per[mid][v] = c
    n_users = sum(per[0].values())
    edges = {}
    for mid in (0, 1, 2):
        vals = sorted(per[mid])
        cums = np.cumsum([per[mid][v] for v in vals])
        e = []
        for i in (1, 2):
            target = (i * n_users + 2) // 3  # ceil(i*n/3)
            e.append(vals[int(np.searchsorted(cums, target))])
        edges[mid] = np.array(e, np.int64)
    e_r, e_f, e_m = edges[0], edges[1], edges[2]

    def assign(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                f"{c}_bucket": pa.array(
                    np.searchsorted(
                        e, b.column(c).to_numpy(zero_copy_only=False), "left"
                    ),
                    pa.int64(),
                )
                for c, e in (("r", e_r), ("f", e_f), ("m", e_m))
            }
        )

    keys = ["r_bucket", "f_bucket", "m_bucket"]
    agg = fold(prof, assign, keys).sort_by([(k, "ascending") for k in keys])
    return agg.rename_columns(keys + ["n_users"])  # <= 27 rows


def bounce_rate(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
    gap_us: int = 172_800_000_000,
    n_buckets: int = 64,
):
    """Corpus bounce rate under the gap sessionization rule: a
    session starts at a user's first event or after a gap >
    ``gap_us``; a BOUNCE is a single-event session -- the engagement
    headline every web-analytics report opens with.

    One user-hash bucket shuffle (a user's sequence lands in one
    group); inside the bucket one lexsort + diff marks session
    starts, session sizes fall out of the start-index differences,
    and the bucket emits two exact integers.  Driver fold is
    blocks x 2 ints; the rate is ONE float division.
    """

    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(ts_col)),
                pc.is_valid(b.column(user_col)),
            )
        )
        u = t.column(user_col).cast(pa.int64())
        return pa.table(
            {
                "u": u,
                "t": t.column(ts_col).cast(pa.int64()),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        u = tbl.column("u").to_numpy(zero_copy_only=False)
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        order = np.lexsort((t, u))
        u, t = u[order], t[order]
        new_user = np.ones(len(u), bool)
        new_user[1:] = u[1:] != u[:-1]
        gap_break = np.zeros(len(u), bool)
        gap_break[1:] = (t[1:] - t[:-1]) > gap_us
        starts = np.flatnonzero(new_user | gap_break)
        sizes = np.diff(np.append(starts, len(u)))
        return pa.table(
            {
                "s_part": pa.array([len(starts)], pa.int64()),
                "b_part": pa.array(
                    [int((sizes == 1).sum())], pa.int64()
                ),
            }
        )

    n_sessions = n_bounced = 0
    for tbl in (
        map_keyed(
            ds.map_batches(project, batch_format="pyarrow"),
            per_bucket,
            key="u",
            n_buckets=n_buckets,
        )
        .iter_batches(batch_format="pyarrow")
    ):
        n_sessions += int(pc.sum(tbl.column("s_part")).as_py() or 0)
        n_bounced += int(pc.sum(tbl.column("b_part")).as_py() or 0)
    rate = (
        float(n_bounced) / float(n_sessions) if n_sessions else None
    )
    return pa.table(
        {
            "n_sessions": pa.array([n_sessions], pa.int64()),
            "n_bounced": pa.array([n_bounced], pa.int64()),
            "bounce_rate": pa.array([rate], pa.float64()),
        }
    )


def revenue_concentration(
    ds,
    key_col: str = "o_custkey",
    val_col: str = "o_totalprice",
    q: float = 0.99,
    max_distinct: int = 2_000_000,
):
    """Revenue concentration: what share of total revenue comes from
    the top (1-q) fraction of customers -- the 80/20 audit.  The
    threshold is the exact percentile_disc q-quantile of per-customer
    revenue (integer cents); the share counts every customer AT OR
    ABOVE it (ties included on both sides).

    One bounded per-customer groupby; the distinct-revenue histogram
    folds under the rank-family guard; threshold, top sum and total
    all come from that compressed histogram -- exact integers, one
    float division.
    """
    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(key_col)),
                pc.is_valid(b.column(val_col)),
            )
        )
        cents = pc.cast(
            pc.round(
                pc.multiply(
                    t.column(val_col).cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        )
        return pa.table({"k": t.column(key_col).cast(pa.int64()), "v": cents})

    per_key = fold(ds, project, "k", {"v": "sum"}, collect=False)
    h = fold(
        per_key, lambda b: b, "v", limit=max_distinct,
        op="revenue_concentration",
    )
    hist = dict(_rows(h, "v", "n"))
    n = sum(hist.values())
    if n == 0:
        raise ValueError("revenue_concentration: no customers")
    vals = sorted(hist)
    cums = np.cumsum([hist[v] for v in vals])
    target = int(np.ceil(q * n))  # percentile_disc rank
    thr = vals[int(np.searchsorted(cums, target))]
    total = sum(v * c for v, c in hist.items())
    top = sum(v * c for v, c in hist.items() if v >= thr)
    n_top = sum(c for v, c in hist.items() if v >= thr)
    return pa.table(
        {
            "n_customers": pa.array([n], pa.int64()),
            "n_top": pa.array([n_top], pa.int64()),
            "thr_cents": pa.array([thr], pa.int64()),
            "top_cents": pa.array([top], pa.int64()),
            "total_cents": pa.array([total], pa.int64()),
            "share": pa.array(
                [float(top) / float(total)], pa.float64()
            ),
        }
    )


def js_divergence(
    ds,
    val_col: str = "value",
    ts_col: str = "ts",
    scale: int = 1_000_000,
    max_distinct: int = 2_000_000,
):
    """Jensen-Shannon divergence between the first and second half of
    the corpus's time span over the integer-cent value distribution
    -- the SYMMETRIC, bounded (<= ln 2) drift score, the PSI/KS
    sibling that never blows up on empty bins.

        JS = 0.5*KL(P||M) + 0.5*KL(Q||M),  M = (P + Q) / 2

    Each KL term uses the repo's micro-nat rule with the rational
    ratio p_i/m_i = 2*a_i*B / (a_i*B + b_i*A): a bin contributes
    ``a_i * floor((ln(2*a_i*B) - ln(a_i*B + b_i*A)) * scale)`` --
    Python big-int log arguments, libm ``ln``, exact int64 sums, one
    float expression at the end.  The (side, cents) histogram folds
    under the rank-family guard, as in ``psi_drift``.
    """
    import math

    a_map, b_map = _halves_counts(
        ds, ts_col, val_col, max_distinct, "js_divergence"
    )
    big_a = sum(a_map.values())
    big_b = sum(b_map.values())
    if big_a == 0 or big_b == 0:
        raise ValueError("js_divergence: one side is empty")
    qa = qb = 0
    for v in set(a_map) | set(b_map):
        a = a_map.get(v, 0)
        b = b_map.get(v, 0)
        if a > 0:
            qa += a * math.floor(
                (
                    math.log(float(2 * a * big_b))
                    - math.log(float(a * big_b + b * big_a))
                )
                * float(scale)
            )
        if b > 0:
            qb += b * math.floor(
                (
                    math.log(float(2 * b * big_a))
                    - math.log(float(b * big_a + a * big_b))
                )
                * float(scale)
            )
    js = 0.5 * (float(qa) / float(scale * big_a)) + 0.5 * (
        float(qb) / float(scale * big_b)
    )
    return pa.table(
        {
            "n_ref": pa.array([big_a], pa.int64()),
            "n_cur": pa.array([big_b], pa.int64()),
            "js_q_ref": pa.array([qa], pa.int64()),
            "js_q_cur": pa.array([qb], pa.int64()),
            "js_nats": pa.array([js], pa.float64()),
        }
    )


def session_duration_quantiles(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
    gap_us: int = 172_800_000_000,
    qs=(0.5, 0.95),
    n_buckets: int = 64,
    max_distinct: int = 2_000_000,
):
    """Exact percentile_disc quantiles of gap-rule session DURATIONS
    (whole seconds, last event minus first) over every session in
    the corpus, plus the session count -- the dwell-time readout
    behind every engagement dashboard.

    Sessions resolve inside user-hash buckets (one lexsort + diff,
    as in ``bounce_rate``); each bucket emits its (duration, count)
    histogram partial, the global histogram folds under the
    rank-family guard, and the quantiles come from the compressed
    distribution -- bit-identical to SQL's discrete percentile.
    """
    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(ts_col)),
                pc.is_valid(b.column(user_col)),
            )
        )
        u = t.column(user_col).cast(pa.int64())
        return pa.table(
            {
                "u": u,
                "t": t.column(ts_col).cast(pa.int64()),
            }
        )

    def per_bucket(tbl: pa.Table) -> pa.Table:
        u = tbl.column("u").to_numpy(zero_copy_only=False)
        t = tbl.column("t").to_numpy(zero_copy_only=False)
        order = np.lexsort((t, u))
        u, t = u[order], t[order]
        new_user = np.ones(len(u), bool)
        new_user[1:] = u[1:] != u[:-1]
        gap_break = np.zeros(len(u), bool)
        gap_break[1:] = (t[1:] - t[:-1]) > gap_us
        starts = np.flatnonzero(new_user | gap_break)
        ends = np.append(starts[1:], len(u)) - 1
        dur = (t[ends] - t[starts]) // 1_000_000
        return pa.table({"d": pa.array(dur, pa.int64())})

    h = fold(
        map_keyed(
            ds.map_batches(project, batch_format="pyarrow"),
            per_bucket,
            key="u",
            n_buckets=n_buckets,
        ),
        lambda t: t,
        "d",
        limit=max_distinct,
        op="session_duration_quantiles",
    )
    hist = dict(_rows(h, "d", "n"))
    n = sum(hist.values())
    vals = sorted(hist)
    cums = np.cumsum([hist[v] for v in vals])
    out = {"n_sessions": pa.array([n], pa.int64())}
    for q in qs:
        target = int(np.ceil(q * n))
        v = vals[int(np.searchsorted(cums, target))]
        out[f"p{int(q * 100)}_secs"] = pa.array(
            [float(v)], pa.float64()
        )
    return pa.table(out)


def chapman_estimate(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
):
    """Chapman capture-recapture population estimate: treat the two
    halves of the corpus's time span as independent sightings and
    estimate the TRUE population (users who exist but may never have
    been observed) as

        N_hat = (n1 + 1) * (n2 + 1) / (m + 1) - 1

    (n1/n2 = distinct users per half, m = users seen in both) -- the
    ecology estimator that answers "how many users do we actually
    have, given incomplete logging".  Exact integer counts; N_hat is
    one float expression.

    Scale shape: per-block distinct (user, half) flag partials fold
    through one bounded per-user groupby (Max of each flag); the
    three totals are per-block integer sums -- no user id ever
    reaches the driver.
    """
    mid = _mid_us(ds, ts_col)

    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(ts_col)),
                pc.is_valid(b.column(user_col)),
            )
        )
        cur = pc.cast(
            pc.greater_equal(
                t.column(ts_col).cast(pa.int64()),
                pa.scalar(mid, pa.int64()),
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "u": t.column(user_col).cast(pa.int64()),
                "a": pc.subtract(pa.scalar(1, pa.int64()), cur),
                "b": cur,
            }
        )

    def both(b: pa.Table) -> pa.Table:
        return b.append_column("m", pc.multiply(b.column("a"), b.column("b")))

    users = fold(ds, project, "u", {"a": "max", "b": "max"}, collect=False)
    row = fold(users, both, [], {"a": "sum", "b": "sum", "m": "sum"})
    n1, n2, m = (int(row.column(c)[0].as_py() or 0) for c in ("a", "b", "m"))
    est = float((n1 + 1) * (n2 + 1)) / float(m + 1) - 1.0
    return pa.table(
        {
            "n_first": pa.array([n1], pa.int64()),
            "n_second": pa.array([n2], pa.int64()),
            "n_both": pa.array([m], pa.int64()),
            "chapman_n": pa.array([est], pa.float64()),
        }
    )


def dow_hour_counts(
    ds,
    ts_col: str = "ts",
):
    """Activity heatmap: event counts per (day-of-week, hour-of-day)
    in pure epoch arithmetic (1970-01-01 was a Thursday, so dow =
    (days + 4) % 7 with Sunday = 0) -- timezone-free and therefore
    bit-identical across engines, unlike calendar functions.  One
    bounded 7 x 24 groupby of per-block count partials.
    """
    day_us = 86_400_000_000
    hour_us = 3_600_000_000

    def project(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b.column(ts_col)))
        us = t.column(ts_col).cast(pa.int64())
        days = pc.divide(us, pa.scalar(day_us, pa.int64()))
        dow = pc.subtract(
            pc.add(days, pa.scalar(4, pa.int64())),
            pc.multiply(
                pc.divide(
                    pc.add(days, pa.scalar(4, pa.int64())),
                    pa.scalar(7, pa.int64()),
                ),
                pa.scalar(7, pa.int64()),
            ),
        )
        hour = pc.divide(
            pc.subtract(
                us, pc.multiply(days, pa.scalar(day_us, pa.int64()))
            ),
            pa.scalar(hour_us, pa.int64()),
        )
        return pa.table({"dow": dow, "hour": hour})

    return fold(ds, project, ["dow", "hour"], collect=False)


def anova_oneway(
    ds,
    group_col: str = "grp",
    cents_col: str = "cents",
    scale: int = 1_000_000,
    max_groups: int = 100_000,
):
    """One-way ANOVA F-test across the groups of an integer metric --
    the k-group generalization of ``welch_ab``'s two-sample question
    ("does the metric differ by event type at all"), with the eta^2
    effect size.

    Exactness discipline: per-group moments (n_g, s_g, ss_g) fold as
    exact integers; the between/within sums of squares are quantized
    to integer micro-units with truncating division (== DuckDB
    ``//`` on the same HUGEINT expressions),

        t_q   = (s_g^2 * scale) // n_g        per group
        ssb_q = sum(t_q) - (S^2 * scale) // N
        ssw_q = SS_total * scale - sum(t_q)

    so both are ORDER-FREE integer folds, and F / eta^2 are single
    float expressions of exact ints:

        F    = (ssb_q * (N - k)) / (ssw_q * (k - 1))
        eta2 = ssb_q / (ssb_q + ssw_q)

    (Arbitrary-precision here; the mirror's HUGEINT covers s_g^2 *
    scale to ~10^16-row groups.)  Output: one row per group carrying
    its exact moments with the table-level F / eta^2 repeated.
    Scale shape: per-block Arrow group partials -> one tiny groupby
    bounded by group count (``max_groups`` guard), driver finish.
    """
    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(group_col)),
                pc.is_valid(b.column(cents_col)),
            )
        )
        x = t.column(cents_col).cast(pa.int64())
        return pa.table(
            {
                "grp": t.column(group_col).cast(pa.string()),
                "s": x,
                "ss": pc.multiply(x, x),
                "n": _ones(len(t)),
            }
        )

    rows = fold(
        ds, project, "grp", {"s": "sum", "ss": "sum", "n": "sum"},
        limit=max_groups, op="anova_oneway", limit_name="max_groups",
    ).to_pylist()
    rows.sort(key=lambda r: r["grp"])
    k = len(rows)
    n_tot = sum(r["n"] for r in rows)
    s_tot = sum(r["s"] for r in rows)
    ss_tot = sum(r["ss"] for r in rows)
    t_sum = sum((r["s"] ** 2 * scale) // r["n"] for r in rows)
    ssb_q = t_sum - (s_tot * s_tot * scale) // n_tot if n_tot else 0
    ssw_q = ss_tot * scale - t_sum
    f_stat = (
        float(ssb_q * (n_tot - k)) / float(ssw_q * (k - 1))
        if ssw_q > 0 and k > 1
        else None
    )
    eta2 = (
        float(ssb_q) / float(ssb_q + ssw_q)
        if ssb_q + ssw_q > 0
        else None
    )
    return pa.table(
        {
            group_col: pa.array([r["grp"] for r in rows], pa.string()),
            "n_g": pa.array([r["n"] for r in rows], pa.int64()),
            "s_g": pa.array([float(r["s"]) for r in rows], pa.float64()),
            "ss_g": pa.array([float(r["ss"]) for r in rows], pa.float64()),
            "f_stat": pa.array([f_stat] * k, pa.float64()),
            "eta2": pa.array([eta2] * k, pa.float64()),
        }
    )


def event_seq_regex(
    ds,
    patterns,
    user_col: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "event_id",
):
    """MATCH_RECOGNIZE-lite sequence-pattern matching: encode every
    user's event history as a string of type initials (ordered by
    ``(ts, event_id)``) and count, per regex pattern, the users that
    match and the total non-overlapping match occurrences -- the
    "view..purchase funnel with arbitrary regex structure" readout
    that fixed-step funnel operators cannot express.

    Correctness contract: event-type initials must be distinct (the
    encoder raises otherwise); patterns are evaluated with
    non-overlapping leftmost scans on both sides (Python ``re`` here,
    RE2 ``regexp_extract_all`` in the mirror -- identical for the
    supported literal/class/star/plus constructs; keep patterns to
    that subset).  All outputs are exact integers.

    Scale shape: one ``groupby(user)`` shuffle; per-user state is
    that user's own history (the ``sessionize`` contract), regex
    scans are C-level per user, and the finish is a tiny per-pattern
    integer fold.
    """
    import re

    compiled = [(p, re.compile(p)) for p in patterns]

    def per_user(tbl: pa.Table) -> pa.Table:
        t = tbl.select([user_col, type_col, ts_col, id_col])
        df = t.to_pandas().sort_values([ts_col, id_col])
        types = df[type_col].astype(str)
        initials = types.str[:1]
        if initials.nunique() != types.nunique():
            raise ValueError(
                "event_seq_regex: event-type initials collide; pass "
                "distinct types"
            )
        seq = "".join(initials)
        pats, matched, n_m = [], [], []
        for p, rx in compiled:
            hits = rx.findall(seq)
            pats.append(p)
            matched.append(1 if hits else 0)
            n_m.append(len(hits))
        return pa.table(
            {
                "pattern": pa.array(pats, pa.string()),
                "n_users": pa.array(matched, pa.int64()),
                "n_matches": pa.array(n_m, pa.int64()),
            }
        )

    return fold(
        ds.groupby(user_col).map_groups(per_user, batch_format="pyarrow"),
        lambda t: t,
        "pattern",
        {"n_users": "sum", "n_matches": "sum"},
        collect=False,
    )


def interval_union_days(
    ds,
    key_col: str = "k",
    start_col: str = "a",
    end_col: str = "b",
):
    """Per-key interval-union sweep: merge each key's [start, end]
    day intervals (touching or overlapping spans coalesce -- a new
    span starts only when ``start > running_max_end + 1``) and
    report the span count and total covered days -- the classic
    "how many days was at least one shipment open" coverage readout
    that concurrency counters (``orders_in_flight``) cannot answer.

    All-integer: inclusive day spans sum as ``end - start + 1``
    exactly; the sweep is one lexsort by (start, end) + a running
    maximum per key, mirrored by the SQL window max-over-preceding
    islands formulation.  Rows with a null endpoint or ``end <
    start`` are excluded on both sides.

    Scale shape: one ``groupby(key)`` shuffle; per-key state is that
    key's own interval list (numpy lexsort + maximum.accumulate --
    no Python loop), the ``sessionize`` contract."""
    def per_key(tbl: pa.Table) -> pa.Table:
        a = tbl.column(start_col).to_numpy(zero_copy_only=False)
        b = tbl.column(end_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        run_max = np.maximum.accumulate(b)
        new_span = np.ones(len(a), bool)
        new_span[1:] = a[1:] > run_max[:-1] + 1
        starts = np.flatnonzero(new_span)
        ends = np.append(starts[1:], len(a)) - 1
        span_a = a[starts]
        span_b = run_max[ends]
        return pa.table(
            {
                key_col: tbl.column(key_col)[:1],
                "n_spans": pa.array([len(starts)], pa.int64()),
                "busy_days": pa.array(
                    [int((span_b - span_a + 1).sum())], pa.int64()
                ),
            }
        )

    def clean(btbl: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.is_valid(btbl.column(start_col)),
                pc.is_valid(btbl.column(end_col)),
            ),
            pc.greater_equal(
                btbl.column(end_col), btbl.column(start_col)
            ),
        )
        return btbl.filter(keep)

    return (
        ds.map_batches(clean, batch_format="pyarrow")
        .groupby(key_col)
        .map_groups(per_key, batch_format="pyarrow")
    )


def seasonal_strength(
    ds,
    ts_col: str = "ts",
    cents_col: str = "cents",
    period: int = 7,
    phase_offset: int = 4,
    bucket_us: int = 86_400_000_000,
    scale: int = 1_000,
    max_points: int = 2_000_000,
):
    """Seasonality-strength statistic (Hyndman's STL-feature shape):
    1 - Var(deseasonalized residual) / Var(series) over the daily
    metric, with the seasonal component estimated as the per-phase
    mean (phase = (day + offset) % period; offset 4 makes Sunday
    phase 0, as 1970-01-04 is a Sunday) -- the single-number answer
    to "HOW weekly is revenue", where ``dow_profile``/``acf_daily``
    only show the profile.

    Exactness: the daily series folds to exact integer cents; the
    per-day residual is quantized with the IDENTICAL expression tree
    both sides, ``r_q = floor((x_f - s_p_f / n_p_f) * scale)``, and
    the variance ratio finishes from exact integer moments of
    ``r_q`` and ``x * scale`` (arbitrary precision here, HUGEINT in
    the mirror):

        strength = 1 - (k*S_rr - S_r^2) / (k*S_xx - S_x^2)

    one float division.  Output: one row per phase with its exact
    count/total and mean, the series length and the table-level
    strength repeated.  Scale shape: one calendar-bounded groupby
    (``_bucket_int_series``), O(days) driver arithmetic.
    """
    import math

    buckets, xs = _bucket_int_series(
        ds, ts_col, cents_col, bucket_us, max_points,
        "seasonal_strength",
    )
    if len(xs) < 2:
        raise ValueError(
            "seasonal_strength: need at least 2 buckets"
        )
    n_p: dict = {}
    s_p: dict = {}
    for bkt, x in zip(buckets, xs):
        ph = (bkt + phase_offset) % period
        n_p[ph] = n_p.get(ph, 0) + 1
        s_p[ph] = s_p.get(ph, 0) + x
    k = len(xs)
    sr = srr = sx = sxx = 0
    for bkt, x in zip(buckets, xs):
        ph = (bkt + phase_offset) % period
        r_q = int(
            math.floor(
                (float(x) - float(s_p[ph]) / float(n_p[ph]))
                * float(scale)
            )
        )
        xq = x * scale
        sr += r_q
        srr += r_q * r_q
        sx += xq
        sxx += xq * xq
    num = k * srr - sr * sr
    den = k * sxx - sx * sx
    strength = 1.0 - float(num) / float(den) if den > 0 else None
    phases = sorted(n_p)
    return pa.table(
        {
            "phase": pa.array(phases, pa.int64()),
            "n_p": pa.array([n_p[p] for p in phases], pa.int64()),
            "s_p": pa.array(
                [float(s_p[p]) for p in phases], pa.float64()
            ),
            "phase_mean": pa.array(
                [float(s_p[p]) / float(n_p[p]) for p in phases],
                pa.float64(),
            ),
            "k": pa.array([k] * len(phases), pa.int64()),
            "strength": pa.array(
                [strength] * len(phases), pa.float64()
            ),
        }
    )


def monetary_unit_sample(
    ds,
    key_col: str = "k",
    cents_col: str = "c",
    n_samples: int = 500,
    n_ranges: int = 4096,
):
    """Monetary-unit (dollar-unit / PPS systematic) sampling: walk
    the cumulative cents of the key-ordered population and select
    every record that straddles a multiple of the sampling interval
    ``T = total_cents // n_samples`` -- the audit-sampling standard
    where selection probability is proportional to monetary value
    and every item larger than T is selected with certainty
    (``n_hits`` counts how many interval marks a big item covers).

    All-integer and deterministic: hits are ``cum // T -
    (cum - c) // T`` over the exact inclusive prefix sums in key
    order, mirrored by the SQL window cumsum.

    Scale shape: a distributed prefix sum in the
    ``_global_value_offsets`` style -- key-range buckets (keys //
    R, R from the max key over ``n_ranges`` ranges), per-range cent
    totals fold to range-start offsets on the driver (O(ranges)
    state), then each range group locally sorts its own keys and
    emits its straddling records.  Three streaming passes over two
    pruned columns; the population never materializes.
    """
    def clean(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(key_col)),
                pc.is_valid(b.column(cents_col)),
            )
        )
        return pa.table(
            {
                "k": t.column(key_col).cast(pa.int64()),
                "c": t.column(cents_col).cast(pa.int64()),
            }
        )

    base = ds.map_batches(clean, batch_format="pyarrow")
    agg = fold(base, lambda b: b, [], {"k": "max", "c": "sum"})
    max_k, total = (int(agg.column(c)[0].as_py() or 0) for c in ("k", "c"))
    t_interval = total // n_samples
    if t_interval <= 0:
        raise ValueError(
            "monetary_unit_sample: total cents below n_samples"
        )
    r_width = max_k // n_ranges + 1

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column(
            "rb",
            pc.divide(
                b.column("k"), pa.scalar(r_width, pa.int64())
            ),
        )

    totals = fold(base, tag, "rb", {"c": "sum"}).sort_by("rb")  # <= n_ranges
    starts: dict = {}
    run = 0
    for rb, c in _rows(totals, "rb", "c"):
        starts[rb] = run
        run += c

    def pick(tbl: pa.Table) -> pa.Table:
        rb = int(tbl.column("rb")[0].as_py())
        k = tbl.column("k").to_numpy(zero_copy_only=False)
        c = tbl.column("c").to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, c = k[order], c[order]
        cum = starts[rb] + np.cumsum(c)
        hits = cum // t_interval - (cum - c) // t_interval
        sel = hits > 0
        return pa.table(
            {
                "orderkey": pa.array(k[sel], pa.int64()),
                "cents": pa.array(c[sel], pa.int64()),
                "n_hits": pa.array(hits[sel], pa.int64()),
            }
        )

    return (
        base.map_batches(tag, batch_format="pyarrow")
        .groupby("rb")
        .map_groups(pick, batch_format="pyarrow")
    )


def rolling_quantile_breaches(
    ds,
    ts_col: str = "ts",
    cents_col: str = "cents",
    q: float = 0.95,
    window: int = 28,
    bucket_us: int = 86_400_000_000,
    max_points: int = 2_000_000,
):
    """Rolling-quantile anomaly days: flag every day whose metric
    exceeds the discrete ``q``-quantile of the trailing ``window``
    CALENDAR days (RANGE frame -- absent days do not stretch the
    window), the robust self-calibrating threshold that a fixed
    z-score rule gets wrong under fat tails.

    All-integer: daily cents fold exactly; the window quantile is
    percentile_disc (smallest value with cumulative count >=
    ceil(q*n) over the sorted window -- an ACTUAL element, so the
    breach comparison is int vs int), matching DuckDB's windowed
    ``quantile_disc`` rule.  Days with an empty trailing window
    cannot breach (SQL NULL comparison semantics).  Output: the
    breaching days with their value, threshold and window size.

    Scale shape: one calendar-bounded groupby
    (``_bucket_int_series``); the rolling scan is O(days x window)
    driver arithmetic over the bounded series.
    """
    import bisect

    buckets, xs = _bucket_int_series(
        ds, ts_col, cents_col, bucket_us, max_points,
        "rolling_quantile_breaches",
    )
    out_b, out_x, out_p, out_n = [], [], [], []
    for i, (b, x) in enumerate(zip(buckets, xs)):
        j0 = bisect.bisect_left(buckets, b - window)
        j1 = i  # buckets are strictly increasing: window ends at i-1
        n = j1 - j0
        if n == 0:
            continue
        w = sorted(xs[j0:j1])
        target = max(1, int(np.ceil(q * n)))
        p = w[target - 1]
        if x > p:
            out_b.append(b)
            out_x.append(x)
            out_p.append(p)
            out_n.append(n)
    return pa.table(
        {
            "bucket": pa.array(out_b, pa.int64()),
            "x": pa.array(out_x, pa.int64()),
            "p_hi": pa.array(out_p, pa.int64()),
            "n_window": pa.array(out_n, pa.int64()),
        }
    )


def nelson_aalen_hazard(
    ds,
    user_col: str = "user_id",
    ts_col: str = "ts",
    day_us: int = 86_400_000_000,
    n_buckets: int = 64,
):
    """Nelson-Aalen cumulative hazard over the same right-censored
    user activity spans as :func:`km_retention`: ``H(t) = sum_{t' <=
    t} d/n`` with its classic variance estimate ``sum d/n^2`` -- the
    additive counterpart of the KM product, preferred when hazard
    INCREMENTS (how much churn risk each tenure day adds) are the
    readout rather than survival levels.

    Shares the ``_user_span_hist`` fold (user-hash bucket span
    resolution, calendar-bounded histogram); both running sums
    accumulate ``CAST(d AS DOUBLE)/n`` terms in ascending-duration
    order, matching the SQL window sum frame -- the ``km_retention``
    sequential-accumulation contract.
    """
    rows = _user_span_hist(ds, user_col, ts_col, day_us, n_buckets)
    from collections import defaultdict

    deaths = defaultdict(int)
    totals = defaultdict(int)
    for r in rows:
        totals[r["dur"]] += r["n"]
        if not r["cens"]:
            deaths[r["dur"]] += r["n"]
    durs = sorted(totals)
    total_users = sum(totals.values())
    out_d, out_death, out_risk, out_h, out_v = [], [], [], [], []
    seen_before = 0
    haz = 0.0
    var = 0.0
    for t in durs:
        at_risk = total_users - seen_before
        seen_before += totals[t]
        d = deaths.get(t, 0)
        if d == 0:
            continue
        haz = haz + float(d) / float(at_risk)
        var = var + float(d) / (
            float(at_risk) * float(at_risk)
        )
        out_d.append(t)
        out_death.append(d)
        out_risk.append(at_risk)
        out_h.append(haz)
        out_v.append(var)
    return pa.table(
        {
            "dur": pa.array(out_d, pa.int64()),
            "deaths": pa.array(out_death, pa.int64()),
            "at_risk": pa.array(out_risk, pa.int64()),
            "na_hazard": pa.array(out_h, pa.float64()),
            "na_var": pa.array(out_v, pa.float64()),
        }
    )


def mahalanobis_outliers(
    ds,
    x_col: str = "x",
    y_col: str = "y",
    id_cols: tuple = ("k1", "k2"),
    top_k: int = 20,
):
    """Bivariate Mahalanobis outliers: the ``top_k`` rows by
    covariance-aware distance from the (x, y) centroid -- the
    multivariate outlier readout that per-column z-scores miss (a
    point can be ordinary on each axis and wildly off the
    correlation ridge).

    With exact integer moments (n, S_x, S_y, S_xx, S_yy, S_xy;
    arbitrary-precision driver fold) and u = x*n - S_x,
    v = y*n - S_y, the population-covariance distance reduces to

        d^2 = (c*u^2 - 2b*u*v + a*v^2) / (a*c - b^2)

    with a = n*S_xx - S_x^2 etc. -- evaluated per row in ONE
    identical float expression on both sides (all operands are exact
    ints below 2^53 at any realistic metric range; the denominator
    is a positive constant, so the ranking is the numerator's and
    ties break by id).  Requires a non-degenerate covariance
    (raises when a*c == b^2).

    Scale shape: one integer moment pass, one scoring pass, one
    global (d2 DESC, ids) sort cut to ``top_k``.
    """
    def moments(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(x_col)),
                pc.is_valid(b.column(y_col)),
            )
        )
        x = t.column(x_col).cast(pa.int64())
        y = t.column(y_col).cast(pa.int64())
        return pa.table(
            {
                "n": pa.array([len(t)], pa.int64()),
                "sx": pa.array(
                    [pc.sum(x, min_count=0).as_py() or 0], pa.int64()
                ),
                "sy": pa.array(
                    [pc.sum(y, min_count=0).as_py() or 0], pa.int64()
                ),
                "sxx": pa.array(
                    [
                        pc.sum(
                            pc.multiply(x, x), min_count=0
                        ).as_py()
                        or 0
                    ],
                    pa.int64(),
                ),
                "syy": pa.array(
                    [
                        pc.sum(
                            pc.multiply(y, y), min_count=0
                        ).as_py()
                        or 0
                    ],
                    pa.int64(),
                ),
                "sxy": pa.array(
                    [
                        pc.sum(
                            pc.multiply(x, y), min_count=0
                        ).as_py()
                        or 0
                    ],
                    pa.int64(),
                ),
            }
        )

    parts = ds.map_batches(
        moments, batch_format="pyarrow"
    ).take_all()
    n = sum(int(r["n"]) for r in parts)
    sx = sum(int(r["sx"]) for r in parts)
    sy = sum(int(r["sy"]) for r in parts)
    sxx = sum(int(r["sxx"]) for r in parts)
    syy = sum(int(r["syy"]) for r in parts)
    sxy = sum(int(r["sxy"]) for r in parts)
    a = n * sxx - sx * sx
    bb = n * sxy - sx * sy
    c = n * syy - sy * sy
    dd = a * c - bb * bb
    if dd <= 0:
        raise ValueError(
            "mahalanobis_outliers: degenerate covariance"
        )
    a_f, b_f, c_f = float(a), float(bb), float(c)
    dd_f, n_f = float(dd), float(n)
    sx_f, sy_f = float(sx), float(sy)

    def score(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(x_col)),
                pc.is_valid(b.column(y_col)),
            )
        )
        x = (
            t.column(x_col)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        y = (
            t.column(y_col)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        u = x * n_f - sx_f
        v = y * n_f - sy_f
        d2 = (c_f * u * u - 2.0 * b_f * u * v + a_f * v * v) / dd_f
        # per-block top-k prune: the global top-k is a subset of the
        # union of per-block top-ks, so the sort below moves
        # top_k * blocks rows, never the corpus
        kk = min(top_k, len(d2))
        id_arrs = tuple(
            t.column(ic)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            for ic in reversed(id_cols)
        )
        sel = np.lexsort(id_arrs + (-d2,))[:kk]
        idx = pa.array(sel, pa.int64())
        cols = {ic: t.column(ic).take(idx) for ic in id_cols}
        cols[x_col] = t.column(x_col).take(idx)
        cols[y_col] = t.column(y_col).take(idx)
        cols["d2"] = pa.array(d2[sel], pa.float64())
        return pa.table(cols)

    return (
        ds.map_batches(score, batch_format="pyarrow")
        .sort(
            ["d2"] + list(id_cols),
            descending=[True] + [False] * len(id_cols),
        )
        .limit(top_k)
    )


def cooks_outliers(
    ds,
    x_col: str = "x",
    y_col: str = "y",
    id_cols: tuple = ("k1", "k2"),
    top_k: int = 20,
):
    """Regression-influence outliers: the ``top_k`` rows by Cook's
    distance under the simple OLS fit y ~ x -- the diagnostics
    readout that separates "far from the line" (large residual) from
    "bends the line" (residual x leverage), which plain residual
    ranking conflates.

    From exact integer moments (``mahalanobis_outliers`` pattern)
    with S_xx = n*sum(x^2) - sum(x)^2 etc.:

        b    = S_xy / S_xx            a   = (S_y - b*S_x) / n
        s^2  = ((S_yy - S_xy^2/S_xx) / n) / (n - 2)
        h_i  = 1/n + (x*n - S_x)^2 / (n * S_xx)
        D_i  = e_i^2 * h_i / (2 * s^2 * (1 - h_i)^2)

    -- every per-row operation is ONE identical float expression of
    exact ints on both sides, and ties break by id.  Requires
    n > 2 and non-constant x (raises otherwise).

    Scale shape: one integer moment pass, one scoring pass, one
    global (cook DESC, ids) sort cut to ``top_k``.
    """
    def moments(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(x_col)),
                pc.is_valid(b.column(y_col)),
            )
        )
        x = t.column(x_col).cast(pa.int64())
        y = t.column(y_col).cast(pa.int64())

        def s(arr):
            return pc.sum(arr, min_count=0).as_py() or 0

        return pa.table(
            {
                "n": pa.array([len(t)], pa.int64()),
                "sx": pa.array([s(x)], pa.int64()),
                "sy": pa.array([s(y)], pa.int64()),
                "sxx": pa.array([s(pc.multiply(x, x))], pa.int64()),
                "syy": pa.array([s(pc.multiply(y, y))], pa.int64()),
                "sxy": pa.array([s(pc.multiply(x, y))], pa.int64()),
            }
        )

    parts = ds.map_batches(
        moments, batch_format="pyarrow"
    ).take_all()
    n = sum(int(r["n"]) for r in parts)
    sx = sum(int(r["sx"]) for r in parts)
    sy = sum(int(r["sy"]) for r in parts)
    sxx = sum(int(r["sxx"]) for r in parts)
    syy = sum(int(r["syy"]) for r in parts)
    sxy = sum(int(r["sxy"]) for r in parts)
    cxx = n * sxx - sx * sx
    cxy = n * sxy - sx * sy
    cyy = n * syy - sy * sy
    if n <= 2 or cxx <= 0:
        raise ValueError(
            "cooks_outliers: need n > 2 and non-constant x"
        )
    n_f, sx_f, sy_f = float(n), float(sx), float(sy)
    cxx_f, cxy_f, cyy_f = float(cxx), float(cxy), float(cyy)
    b_f = cxy_f / cxx_f
    a_f = (sy_f - b_f * sx_f) / n_f
    s2 = ((cyy_f - (cxy_f * cxy_f) / cxx_f) / n_f) / (n_f - 2.0)

    def score(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(x_col)),
                pc.is_valid(b.column(y_col)),
            )
        )
        x = (
            t.column(x_col)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        y = (
            t.column(y_col)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        e = y - (a_f + b_f * x)
        u = x * n_f - sx_f
        h = 1.0 / n_f + (u * u) / (n_f * cxx_f)
        cook = (
            e * e * h / (2.0 * s2 * ((1.0 - h) * (1.0 - h)))
        )
        # per-block top-k prune (the mahalanobis_outliers shape):
        # the sort moves top_k * blocks rows, never the corpus
        kk = min(top_k, len(cook))
        id_arrs = tuple(
            t.column(ic)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            for ic in reversed(id_cols)
        )
        sel = np.lexsort(id_arrs + (-cook,))[:kk]
        idx = pa.array(sel, pa.int64())
        cols = {ic: t.column(ic).take(idx) for ic in id_cols}
        cols[x_col] = t.column(x_col).take(idx)
        cols[y_col] = t.column(y_col).take(idx)
        cols["cook"] = pa.array(cook[sel], pa.float64())
        return pa.table(cols)

    return (
        ds.map_batches(score, batch_format="pyarrow")
        .sort(
            ["cook"] + list(id_cols),
            descending=[True] + [False] * len(id_cols),
        )
        .limit(top_k)
    )


def partial_corr(
    ds,
    x_col: str = "x",
    y_col: str = "y",
    z_col: str = "z",
):
    """Partial correlation r(x, y | z): the x-y association with the
    confounder z regressed out of BOTH sides -- the one-line answer
    to "does quantity still track price once discount is held
    fixed", which the pairwise correlation matrix cannot give.

        r_ab      = C_ab / sqrt(C_aa * C_bb)
        r_xy.z    = (r_xy - r_xz*r_yz) /
                    sqrt((1 - r_xz^2) * (1 - r_yz^2))

    with C_ab = n*S_ab - S_a*S_b from exact integer moments
    (arbitrary-precision driver fold; HUGEINT in the mirror) and the
    identical float expression tree both sides.  NULL on degenerate
    marginals.  Scale shape: ONE streaming moment pass, zero
    shuffles, one-row output.
    """
    import math

    def moments(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.is_valid(b.column(x_col)),
                pc.is_valid(b.column(y_col)),
            ),
            pc.is_valid(b.column(z_col)),
        )
        t = b.filter(keep)
        x = t.column(x_col).cast(pa.int64())
        y = t.column(y_col).cast(pa.int64())
        z = t.column(z_col).cast(pa.int64())

        def s(arr):
            return pc.sum(arr, min_count=0).as_py() or 0

        return pa.table(
            {
                "n": pa.array([len(t)], pa.int64()),
                "sx": pa.array([s(x)], pa.int64()),
                "sy": pa.array([s(y)], pa.int64()),
                "sz": pa.array([s(z)], pa.int64()),
                "sxx": pa.array([s(pc.multiply(x, x))], pa.int64()),
                "syy": pa.array([s(pc.multiply(y, y))], pa.int64()),
                "szz": pa.array([s(pc.multiply(z, z))], pa.int64()),
                "sxy": pa.array([s(pc.multiply(x, y))], pa.int64()),
                "sxz": pa.array([s(pc.multiply(x, z))], pa.int64()),
                "syz": pa.array([s(pc.multiply(y, z))], pa.int64()),
            }
        )

    parts = ds.map_batches(
        moments, batch_format="pyarrow"
    ).take_all()

    def tot(k):
        return sum(int(r[k]) for r in parts)

    n = tot("n")
    sx, sy, sz = tot("sx"), tot("sy"), tot("sz")
    sxx, syy, szz = tot("sxx"), tot("syy"), tot("szz")
    sxy, sxz, syz = tot("sxy"), tot("sxz"), tot("syz")
    cxx, cyy, czz = (
        n * sxx - sx * sx,
        n * syy - sy * sy,
        n * szz - sz * sz,
    )
    cxy, cxz, cyz = (
        n * sxy - sx * sy,
        n * sxz - sx * sz,
        n * syz - sy * sz,
    )

    def corr(cab, caa, cbb):
        if caa <= 0 or cbb <= 0:
            return None
        return float(cab) / math.sqrt(float(caa) * float(cbb))

    r_xy = corr(cxy, cxx, cyy)
    r_xz = corr(cxz, cxx, czz)
    r_yz = corr(cyz, cyy, czz)
    rp = None
    if None not in (r_xy, r_xz, r_yz):
        den = (1.0 - r_xz * r_xz) * (1.0 - r_yz * r_yz)
        if den > 0.0:
            rp = (r_xy - r_xz * r_yz) / math.sqrt(den)
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "r_xy": pa.array([r_xy], pa.float64()),
            "r_xz": pa.array([r_xz], pa.float64()),
            "r_yz": pa.array([r_yz], pa.float64()),
            "r_partial": pa.array([rp], pa.float64()),
        }
    )


def sprt_stream(
    ds,
    variant_a: str = "click",
    variant_b: str = "view",
    p0: float = 0.45,
    p1: float = 0.55,
    alpha: float = 0.05,
    scale: int = 1_000_000,
    type_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "event_id",
    n_buckets: int = 64,
):
    """Wald's sequential probability ratio test replayed over the
    event stream: walking click/view exposures in (ts, id) order,
    accumulate the Bernoulli log-likelihood-ratio step (is the
    click share p1 rather than p0?) and stop at the FIRST crossing
    of the +/- ln((1-alpha)/alpha) bounds -- the always-valid
    sequential decision that a fixed-horizon z-test cannot give
    ("peeking" at it inflates alpha; the SPRT is built for peeking).

    Integer-exact: the two step constants and the threshold are
    micro-nat-quantized lns of float ratios (identical expression
    both sides), so the walk is an INTEGER running sum and the
    crossing test is int vs int.  Output: one row -- exposures seen
    at the decision, the llr value, and
    ``accept_h1``/``accept_h0``/``continue``.

    Scale shape: the global running sum distributes like
    ``late_events``' watermark: contiguous ts-range buckets, a tiny
    per-bucket (sum, count) fold to the driver, exclusive prefix
    broadcast, then each bucket finds its local first crossing with
    its entering offset; the driver keeps the earliest.  Two
    streaming scans.
    """
    import math

    q1 = int(math.floor(math.log(p1 / p0) * float(scale)))
    q0 = int(
        math.floor(math.log((1.0 - p1) / (1.0 - p0)) * float(scale))
    )
    thr = int(
        math.floor(math.log((1.0 - alpha) / alpha) * float(scale))
    )

    def keep(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.is_in(
                b.column(type_col),
                value_set=pa.array([variant_a, variant_b]),
            )
        )
        return pa.table(
            {
                "ts": t.column(ts_col).cast(pa.int64()),
                "i": t.column(id_col).cast(pa.int64()),
                "step": pc.if_else(
                    pc.equal(
                        t.column(type_col), pa.scalar(variant_a)
                    ),
                    pa.scalar(q1, pa.int64()),
                    pa.scalar(q0, pa.int64()),
                ),
            }
        )

    base = ds.map_batches(keep, batch_format="pyarrow").materialize()
    mn_ts = int(base.min("ts"))
    mx_ts = int(base.max("ts"))
    width = (mx_ts - mn_ts) // n_buckets + 1

    def bucketize(b: pa.Table) -> pa.Table:
        rb = pc.divide(
            pc.subtract(
                b.column("ts"), pa.scalar(mn_ts, pa.int64())
            ),
            pa.scalar(width, pa.int64()),
        )
        return b.append_column("rb", pc.cast(rb, pa.int64()))

    bucketed = base.map_batches(bucketize, batch_format="pyarrow")

    def counted(b: pa.Table) -> pa.Table:
        return b.append_column("n", _ones(b.num_rows))

    rows = fold(bucketed, counted, "rb", {"step": "sum", "n": "sum"})
    pre_sum: dict = {}
    pre_cnt: dict = {}
    s_run = 0
    c_run = 0
    for rb, s, c in sorted(_rows(rows, "rb", "step", "n")):
        pre_sum[rb] = s_run
        pre_cnt[rb] = c_run
        s_run += s
        c_run += c
    total_n, total_llr = c_run, s_run

    def find_local(tbl: pa.Table) -> pa.Table:
        rb = int(tbl.column("rb")[0].as_py())
        ts = tbl.column("ts").to_numpy(zero_copy_only=False)
        i = tbl.column("i").to_numpy(zero_copy_only=False)
        st = tbl.column("step").to_numpy(zero_copy_only=False)
        order = np.lexsort((i, ts))
        cum = np.cumsum(st[order]) + np.int64(pre_sum[rb])
        hit = np.flatnonzero((cum >= thr) | (cum <= -thr))
        if len(hit) == 0:
            return pa.table(
                {
                    "n": pa.array([], pa.int64()),
                    "llr_q": pa.array([], pa.int64()),
                }
            )
        j = int(hit[0])
        return pa.table(
            {
                "n": pa.array(
                    [pre_cnt[rb] + j + 1], pa.int64()
                ),
                "llr_q": pa.array([int(cum[j])], pa.int64()),
            }
        )

    cands = (
        bucketed.groupby("rb")
        .map_groups(find_local, batch_format="pyarrow")
        .take_all()
    )
    if cands:
        win = min(cands, key=lambda r: int(r["n"]))
        n_seen, llr = int(win["n"]), int(win["llr_q"])
        decision = "accept_h1" if llr >= thr else "accept_h0"
    else:
        n_seen, llr, decision = total_n, total_llr, "continue"
    return pa.table(
        {
            "n": pa.array([n_seen], pa.int64()),
            "llr_q": pa.array([llr], pa.int64()),
            "decision": pa.array([decision], pa.string()),
        }
    )


def wasserstein_1d(
    ds,
    variant_a: str = "click",
    variant_b: str = "view",
    type_col: str = "event_type",
    val_col: str = "v",
    max_distinct: int = 2_000_000,
):
    """Exact 1-D Wasserstein-1 (earth mover's) distance between two
    variants' integer metric distributions: the area between the two
    CDFs -- the drift metric that, unlike KS's max gap or PSI's
    binned divergence, weighs HOW FAR mass moved, in metric units.

    From the distinct-value histogram:

        W1 = sum_i |cumA_i * n_b - cumB_i * n_a| * (v_{i+1} - v_i)
             / (n_a * n_b)

    -- the numerator folds as exact arbitrary-precision ints
    (HUGEINT in the mirror), one float division at the end.  Scale
    shape: per-block (value, per-variant count) partials -> one
    value groupby bounded by distinct metric values (rank-family
    ``max_distinct`` guard), ascending driver scan.
    """
    rows = _variant_counts(
        ds, variant_a, variant_b, type_col, val_col,
        lambda c: c.cast(pa.int64()), max_distinct, "wasserstein_1d",
    )
    na = sum(r[1] for r in rows)
    nb = sum(r[2] for r in rows)
    num = 0
    ca = cb = 0
    for i, (v, a, b) in enumerate(rows[:-1]):
        ca += a
        cb += b
        num += abs(ca * nb - cb * na) * (rows[i + 1][0] - v)
    w1 = (
        float(num) / float(na * nb) if na > 0 and nb > 0 else None
    )
    return pa.table(
        {
            "n_a": pa.array([na], pa.int64()),
            "n_b": pa.array([nb], pa.int64()),
            "w1_num": pa.array([float(num)], pa.float64()),
            "w1": pa.array([w1], pa.float64()),
        }
    )


def hill_tail_index(
    ds,
    cents_col: str = "c",
    k: int = 500,
    scale: int = 1_000_000,
):
    """Hill estimator of the heavy-tail index over the metric's top
    ``k`` order statistics x_(1) >= ... >= x_(k), with the next one,
    x_(k+1), as the threshold (the textbook form: the threshold is
    not one of the k summed log-excesses, so none is zero by
    construction):

        alpha = k / sum_{i<=k} (ln(x_(i)) - ln(x_(k+1)))

    -- the tail-heaviness readout behind capacity and risk sizing
    (alpha < 2: variance may not exist; ``gumbel_block_maxima``
    models block extremes, Hill models the whole upper tail).

    Exactness: the top k+1 values are exact ints via per-block
    top-(k+1) partials + one bounded sort; each ln quantizes to
    integer micro-nats with the identical libm expression
    (``floor(ln(x_f) * scale)``), so the denominator is an exact
    integer difference and alpha is ONE float division
    (``k*scale / (S - k*lnq_(k+1))``, S the top k's sum).  Requires
    k+1 values with x_(k+1) > 0 and a nonzero denominator (raises
    otherwise).  Output: ``k``, the threshold ``x_k1`` = x_(k+1),
    ``s_lnq`` = S and ``alpha``.

    Scale shape: per-block top-(k+1) candidate prune, driver finish
    bounded by k.
    """
    import math

    def part(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b.column(cents_col)))
        x = (
            t.column(cents_col)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        kk = min(k + 1, len(x))
        if kk == 0:
            return pa.table({"x": pa.array([], pa.int64())})
        sel = np.argpartition(-x, kk - 1)[:kk]
        return pa.table({"x": pa.array(x[sel], pa.int64())})

    vals = sorted(
        (
            int(r["x"])
            for r in ds.map_batches(
                part, batch_format="pyarrow"
            ).take_all()
        ),
        reverse=True,
    )[: k + 1]
    if len(vals) <= k or vals[-1] <= 0:
        raise ValueError(
            "hill_tail_index: need k+1 positive tail values"
        )
    lnq = [
        int(math.floor(math.log(float(x)) * float(scale)))
        for x in vals
    ]
    s = sum(lnq[:k])
    den = s - k * lnq[k]
    if den <= 0:
        raise ValueError("hill_tail_index: degenerate tail")
    alpha = float(k * scale) / float(den)
    return pa.table(
        {
            "k": pa.array([k], pa.int64()),
            "x_k1": pa.array([vals[k]], pa.int64()),
            "s_lnq": pa.array([s], pa.int64()),
            "alpha": pa.array([alpha], pa.float64()),
        }
    )


def vda_effect(
    ds,
    variant_a: str = "click",
    variant_b: str = "view",
    type_col: str = "event_type",
    val_col: str = "v",
    max_distinct: int = 2_000_000,
):
    """Vargha-Delaney A effect size (the common-language
    "probability of superiority"): P(a > b) + P(a = b)/2 over all
    cross-variant pairs -- the scale-free companion to
    ``rank_sum_test``'s significance readout (U says WHETHER the
    distributions differ; A says HOW OFTEN a exceeds b), plus the
    rank-biserial correlation r = 2A - 1.

    From the distinct-value histogram with exact integers: the
    DOUBLED pair count ``num2 = sum_v na_v * (2*cb_below_v + nb_v)``
    stays integral through ties (arbitrary precision here, HUGEINT
    in the mirror), and A is ONE float division
    ``num2 / (2*na*nb)``.  Scale shape: the ``wasserstein_1d``
    value-histogram fold (rank-family ``max_distinct`` guard).
    """
    rows = _variant_counts(
        ds, variant_a, variant_b, type_col, val_col,
        lambda c: c.cast(pa.int64()), max_distinct, "vda_effect",
    )
    na = sum(r[1] for r in rows)
    nb = sum(r[2] for r in rows)
    num2 = 0
    cb = 0
    for _, a, b in rows:
        num2 += a * (2 * cb + b)
        cb += b
    a_stat = (
        float(num2) / float(2 * na * nb)
        if na > 0 and nb > 0
        else None
    )
    r_rb = 2.0 * a_stat - 1.0 if a_stat is not None else None
    return pa.table(
        {
            "n_a": pa.array([na], pa.int64()),
            "n_b": pa.array([nb], pa.int64()),
            "num2": pa.array([float(num2)], pa.float64()),
            "vda_a": pa.array([a_stat], pa.float64()),
            "r_rb": pa.array([r_rb], pa.float64()),
        }
    )
