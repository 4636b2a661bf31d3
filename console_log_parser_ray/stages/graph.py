"""Graph operators over edge tables.

The reference engine has no graph operators; this module adds the one
a training-data pipeline most often needs beyond connected components
(which live in ``stages/dedup.py`` as duplicate-graph clustering):
link-analysis centrality (PageRank) over a large edge table -- the
standard importance prior for crawl frontiers and document-graph
weighting.

Exactness contract: ranks are INTEGER-QUANTIZED (micro-units of a
fixed ``quantum`` of total rank mass) and the damping factor is a
rational ``damp_num/damp_den``, so every iteration is pure int64
arithmetic -- sums are order-free, the result is bit-identical on any
partitioning, and the DuckDB oracle spells the same floor-division
expressions in unrolled CTEs.  No float ever enters the fixpoint.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Sum

from ..sources.cache import map_keyed


def pagerank(
    edges,
    iterations: int = 3,
    n_buckets: int = 64,
    quantum: int = 10**12,
    damp_num: int = 85,
    damp_den: int = 100,
    max_broadcast_nodes: int = 5_000_000,
):
    """Integer-quantized PageRank over a directed edge table
    ``(src, dst)`` (int64 node ids, rows need not be distinct --
    parallel edges count twice, matching the SQL mirror).

    Per iteration: ``r'(v) = base + (damp_num * S_v) // damp_den``
    with ``S_v = sum over in-edges (u, v) of r(u) // outdeg(u)`` and
    ``base = ((damp_den - damp_num) * quantum) // (damp_den * n)`` --
    the classic ``(1-d)/n + d * sum`` update with every division a
    floor over non-negative int64.

    CONTRACT: every node must appear as both a source and a
    destination (outdeg >= 1 and indeg >= 1) -- symmetrized
    (undirected) graphs satisfy this by construction; for general
    digraphs, pre-drop or self-loop dangling nodes.  A node with no
    in-edges would silently leave the rank vector after the first
    groupby.

    Scale shape (size-adaptive, the repo's usual two-path recipe):
    outdegrees come from per-block partial counts + one tiny
    ``groupby(src)``.  Up to ``max_broadcast_nodes`` nodes, the rank
    AND degree vectors broadcast once per iteration via ``ray.put``
    (two sorted int64 arrays) and each iteration is ONE stateless
    streaming pass over the materialized edge table -- per-block
    Arrow ``group_by`` partials of integer contributions, driver-
    folded with ``np.add.at`` -- zero shuffles after setup (the
    k-means / Misra-Gries partial-fold pattern; int64 sums are
    order-free so the result is bit-identical to the join path).
    Above the cap, the degree column is attached through ONE
    co-partitioned ``hash_join`` (materialized once) and each
    iteration is one co-partitioned join of the ``(node, r)`` vector
    against the edges plus one ``groupby(dst)`` sum -- nothing ever
    collects to the driver but the node count, at the price of one
    edge-table shuffle per iteration (the standard distributed-
    PageRank trade; at cluster scale you would keep the edge table
    hash-partitioned on src and co-locate the rank vector).
    """
    from console_log_parser_ray.stages.relational import hash_join

    def deg_partial(b: pa.Table) -> pa.Table:
        agg = (
            pa.table({"src": b.column("src").cast(pa.int64())})
            .append_column("one", pa.array(np.ones(len(b), np.int64)))
            .group_by("src")
            .aggregate([("one", "sum")])
        )
        return pa.table(
            {
                "node": agg.column("src"),
                "n_part": agg.column("one_sum").cast(pa.int64()),
            }
        )

    deg = (
        edges.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("n_part"))
        .rename_columns({"sum(n_part)": "deg"})
        .materialize()
    )
    n_nodes = deg.count()
    if n_nodes == 0:
        raise ValueError("pagerank: empty edge table")
    r0 = quantum // n_nodes
    base = ((damp_den - damp_num) * quantum) // (damp_den * n_nodes)

    edge_schema = pa.schema(
        [("src", pa.int64()), ("dst", pa.int64())]
    )
    deg_schema = pa.schema([("node", pa.int64()), ("deg", pa.int64())])
    rank_schema = pa.schema([("node", pa.int64()), ("r", pa.int64())])

    def cast_edges(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": b.column("src").cast(pa.int64()),
                "dst": b.column("dst").cast(pa.int64()),
            }
        )

    if n_nodes <= max_broadcast_nodes:
        import ray

        node_arr = []
        deg_arr = []
        for b in deg.iter_batches(batch_format="pyarrow"):
            node_arr.append(b.column("node").to_numpy(zero_copy_only=False))
            deg_arr.append(b.column("deg").to_numpy(zero_copy_only=False))
        nodes = np.concatenate(node_arr)
        order = np.argsort(nodes, kind="stable")
        nodes = nodes[order]
        deg_vec = np.concatenate(deg_arr)[order]
        r_vec = np.full(n_nodes, r0, np.int64)
        # materialize the (possibly lazily deduped) edge table once;
        # each iteration is then pure map tasks over cached blocks
        edges_cast = edges.map_batches(
            cast_edges, batch_format="pyarrow"
        ).materialize()

        for _ in range(iterations):
            ref = ray.put((nodes, deg_vec, r_vec))

            def contrib_partial(b: pa.Table) -> pa.Table:
                nd, dg, rv = ray.get(ref)
                src = b.column("src").to_numpy(zero_copy_only=False)
                idx = np.searchsorted(nd, src)
                c = rv[idx] // dg[idx]
                part = pa.table(
                    {
                        "dst": b.column("dst"),
                        "c": pa.array(c, pa.int64()),
                    }
                ).group_by("dst").aggregate([("c", "sum")])
                return part

            s_vec = np.zeros(n_nodes, np.int64)
            for b in (
                edges_cast.map_batches(
                    contrib_partial, batch_format="pyarrow"
                ).iter_batches(batch_format="pyarrow")
            ):
                di = np.searchsorted(
                    nodes, b.column("dst").to_numpy(zero_copy_only=False)
                )
                np.add.at(
                    s_vec,
                    di,
                    b.column("c_sum").to_numpy(zero_copy_only=False),
                )
            r_vec = base + (damp_num * s_vec) // damp_den

        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "rank_q": pa.array(r_vec, pa.int64()),
                }
            )
        )

    edges_deg = (
        hash_join(
            edges.map_batches(cast_edges, batch_format="pyarrow"),
            deg,
            on="src",
            right_on="node",
            n_buckets=n_buckets,
            left_schema=edge_schema,
            right_schema=deg_schema,
        )
        # drop the joined key copy: the per-iteration join brings its
        # own "node" column and names must not collide
        .map_batches(
            lambda b: b.select(["src", "dst", "deg"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    ed_schema = pa.schema(
        [("src", pa.int64()), ("dst", pa.int64()), ("deg", pa.int64())]
    )

    def seed(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": b.column("node"),
                "r": pa.array(
                    np.full(len(b), r0, np.int64), pa.int64()
                ),
            }
        )

    rank = deg.map_batches(seed, batch_format="pyarrow")

    def contrib(b: pa.Table) -> pa.Table:
        r = b.column("r").to_numpy(zero_copy_only=False)
        d = b.column("deg").to_numpy(zero_copy_only=False)
        return pa.table(
            {"dst": b.column("dst"), "c": pa.array(r // d, pa.int64())}
        )

    def damp(b: pa.Table) -> pa.Table:
        s = b.column("sum(c)").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": b.column("dst"),
                "r": pa.array(
                    base + (damp_num * s) // damp_den, pa.int64()
                ),
            }
        )

    for _ in range(iterations):
        joined = hash_join(
            edges_deg,
            rank,
            on="src",
            right_on="node",
            n_buckets=n_buckets,
            left_schema=ed_schema,
            right_schema=rank_schema,
        )
        rank = (
            joined.map_batches(contrib, batch_format="pyarrow")
            .groupby("dst")
            .aggregate(Sum("c"))
            .map_batches(damp, batch_format="pyarrow")
            .materialize()
        )

    return rank.rename_columns({"r": "rank_q"})


def symmetric_edges(ds, a_col: str, b_col: str, b_offset: int = 0):
    """Distinct undirected edges from a two-column relation, emitted
    in both directions (the symmetrization that gives ``pagerank`` its
    outdeg/indeg >= 1 contract).  ``b_offset`` shifts the second
    column's id space so two key domains (e.g. suppliers and parts)
    cannot collide as node ids.

    In-batch dedup first, then the bounded hash-bucket distinct of
    ``distinct_rows`` -- the shuffle carries one row per distinct pair
    per block; the 2x direction expansion happens after dedup,
    block-locally.
    """
    from console_log_parser_ray.stages.dedup import distinct_rows

    def project(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "a": b.column(a_col).cast(pa.int64()),
                "b": b.column(b_col).cast(pa.int64()),
            }
        )
        return t.group_by(["a", "b"]).aggregate([])

    def both_ways(b: pa.Table) -> pa.Table:
        a = b.column("a").to_numpy(zero_copy_only=False)
        bb = b.column("b").to_numpy(zero_copy_only=False) + b_offset
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, bb]), pa.int64()),
                "dst": pa.array(np.concatenate([bb, a]), pa.int64()),
            }
        )

    pairs = distinct_rows(
        ds.map_batches(project, batch_format="pyarrow"), ["a", "b"]
    )
    return pairs.map_batches(both_ways, batch_format="pyarrow")


def cooccur_pair_edges(
    ds,
    group_col: str,
    item_col: str,
    n_buckets: int = 64,
):
    """Distinct unordered co-occurrence edges: one ``(a, b)`` row
    (``a < b``, int64) per pair of items sharing at least one group
    (parts in an order, tokens in a doc, users in a session) -- the
    standard projection of a bipartite membership table onto an item
    graph.

    CONTRACT: item ids in ``[0, 2^31)`` so a pair packs into one
    int64 for the dedup bucket key.  Pair volume is
    ``sum over groups of C(group_size, 2)`` -- bound group size
    upstream for heavy-tailed memberships.

    Scale shape: one group-hash bucket shuffle (a group's rows all
    land in one bucket; the in-bucket self-merge is a vectorized
    pandas merge per bucket, dispatch bounded by bucket count), then
    one pair-key-hash bucket shuffle for the global distinct -- no
    driver collect, no broadcast.
    """
    def project(b: pa.Table) -> pa.Table:
        g = b.column(group_col).cast(pa.int64())
        return pa.table(
            {
                "g": g,
                "i": b.column(item_col).cast(pa.int64()),
            }
        )

    def pairs_in_bucket(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        df = (
            tbl.select(["g", "i"]).to_pandas().drop_duplicates()
        )
        m = df.merge(df, on="g")
        m = m[m["i_x"] < m["i_y"]]
        out = m[["i_x", "i_y"]].drop_duplicates()
        a = pa.array(out["i_x"].to_numpy(dtype="int64"), pa.int64())
        b_ = pa.array(out["i_y"].to_numpy(dtype="int64"), pa.int64())
        key = pc.bit_wise_or(
            pc.shift_left(a, pa.scalar(32, pa.int64())), b_
        )
        return pa.table({"key": key, "a": a, "b": b_})

    def distinct_in_bucket(tbl: pa.Table) -> pa.Table:
        df = tbl.select(["a", "b"]).to_pandas().drop_duplicates()
        return pa.table(
            {
                "a": pa.array(df["a"].to_numpy(dtype="int64")),
                "b": pa.array(df["b"].to_numpy(dtype="int64")),
            }
        )

    pairs = map_keyed(
        ds.map_batches(project, batch_format="pyarrow"),
        pairs_in_bucket,
        key="g",
        n_buckets=n_buckets,
    )
    return map_keyed(
        pairs, distinct_in_bucket, key="key", n_buckets=n_buckets
    )


def triangle_counts(
    edges,
    n_buckets: int = 64,
    max_broadcast_edges: int = 20_000_000,
):
    """Per-node triangle participation counts over a DISTINCT
    undirected edge table ``(a, b)`` with ``a < b`` (int64 node ids in
    ``[0, 2^31)``): for every node, how many triangles contain it --
    the local clustering signal of graph analytics.

    Exact enumeration via the classic plan, with the ordered edge
    orientation making each triangle count exactly once: wedges
    ``x < y < z`` come from joining edges on the shared middle vertex
    (``e1.b = e2.a``); a wedge is a triangle iff its packed ``(x, z)``
    key is an edge.

    Scale shape: the edge table is MATERIALIZED once (it feeds both
    wedge-join sides and the closing membership test -- without this,
    a lazy upstream edge build would re-execute per consumer) and
    metadata-counted.  The wedge join is the co-partitioned
    ``hash_join`` (one bucket shuffle, Acero per bucket).  The close
    is size-adaptive, the repo's usual two-path recipe: at or under
    ``max_broadcast_edges`` the sorted packed edge keys broadcast once
    via ``ray.put`` (8 bytes/edge -- 160 MB at 20M edges) and every
    wedge closes BATCH-LOCALLY with one ``searchsorted``, so the
    wedge table (the big side, sum over nodes of C(degree, 2) rows)
    never shuffles again; above the cap it falls back to a packed-key
    co-partitioned semi join.  Per-node counts are per-block partials
    + one small groupby.  For heavy-tailed degree distributions, cap
    or sample high-degree nodes upstream.
    """
    import pyarrow.compute as pc

    import ray

    from ray.data.aggregate import Sum

    from .relational import hash_join
    from .dedup import _cached_get

    edges = edges.materialize()
    n_edges = edges.count()

    sch_xy = pa.schema([("x", pa.int64()), ("y", pa.int64())])
    sch_yz = pa.schema([("wy", pa.int64()), ("z", pa.int64())])

    def as_xy(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "x": b.column("a").cast(pa.int64()),
                "y": b.column("b").cast(pa.int64()),
            }
        )

    def as_yz(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "wy": b.column("a").cast(pa.int64()),
                "z": b.column("b").cast(pa.int64()),
            }
        )

    wedges = hash_join(
        edges.map_batches(as_xy, batch_format="pyarrow"),
        edges.map_batches(as_yz, batch_format="pyarrow"),
        on="y",
        right_on="wy",
        how="inner",
        n_buckets=n_buckets,
        left_schema=sch_xy,
        right_schema=sch_yz,
    )

    def pack_wedge(b: pa.Table) -> pa.Table:
        x = b.column("x").cast(pa.int64())
        z = b.column("z").cast(pa.int64())
        key = pc.bit_wise_or(
            pc.shift_left(x, pa.scalar(32, pa.int64())), z
        )
        return pa.table(
            {"key": key, "x": x, "y": b.column("y").cast(pa.int64()),
             "z": z}
        )

    def pack_edge(b: pa.Table) -> pa.Table:
        a = b.column("a").cast(pa.int64())
        bb = b.column("b").cast(pa.int64())
        return pa.table(
            {
                "ekey": pc.bit_wise_or(
                    pc.shift_left(a, pa.scalar(32, pa.int64())), bb
                )
            }
        )

    if n_edges <= max_broadcast_edges:
        # broadcast close: sorted packed keys ship once, the wedge
        # table (the big side) never shuffles again
        ep = edges.map_batches(
            pack_edge, batch_format="pyarrow"
        ).to_pandas()
        ekeys = np.sort(ep["ekey"].to_numpy(dtype="int64"))
        ref = ray.put(ekeys)

        def close_local(b: pa.Table) -> pa.Table:
            keys = _cached_get(ref)
            t = pack_wedge(b)
            if len(keys) == 0:
                return t.slice(0, 0)
            k = t.column("key").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(keys, k)
            hit = (pos < len(keys)) & (
                keys[np.minimum(pos, len(keys) - 1)] == k
            )
            return t.filter(pa.array(hit))

        closed = wedges.map_batches(
            close_local, batch_format="pyarrow"
        )
    else:
        sch_w = pa.schema(
            [("key", pa.int64()), ("x", pa.int64()),
             ("y", pa.int64()), ("z", pa.int64())]
        )
        sch_e = pa.schema([("ekey", pa.int64())])
        closed = hash_join(
            wedges.map_batches(pack_wedge, batch_format="pyarrow"),
            edges.map_batches(pack_edge, batch_format="pyarrow"),
            on="key",
            right_on="ekey",
            how="semi",
            n_buckets=n_buckets,
            left_schema=sch_w,
            right_schema=sch_e,
        )

    def node_partials(b: pa.Table) -> pa.Table:
        nodes = pa.chunked_array(
            [b.column("x"), b.column("y"), b.column("z")]
        ).combine_chunks()
        g = (
            pa.table({"node": nodes})
            .group_by(["node"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "node": g.column("node"),
                "n_part": g.column("count_all").cast(pa.int64()),
            }
        )

    agg = (
        closed.map_batches(node_partials, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("n_part"))
    )

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": b.column("node"),
                "n_tri": b.column("sum(n_part)").cast(pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow")


def khop_reach(
    edges,
    seeds,
    k: int = 3,
    max_nodes: int = 5_000_000,
):
    """Minimum-hop labels for every node within ``k`` hops of a seed
    set over an undirected DISTINCT edge table ``(a, b)`` -- the
    bounded-depth BFS of graph exploration (crawl frontier expansion,
    blast-radius analysis).  Output: one ``(node, hop)`` row per
    reached node (seeds at hop 0), ``hop`` = the minimum hop count.

    Scale shape: broadcast-frontier BFS (the PageRank partial-fold
    recipe).  The edge table MATERIALIZES once and is scanned once
    per hop; the frontier/visited sets are bounded by NODE count
    (guarded by ``max_nodes``), broadcast per hop via ``ray.put``
    (sorted int64 arrays); each scan emits per-block DISTINCT new
    neighbors only, so the driver fold per hop is bounded by new
    nodes, never edges.  k passes, zero shuffles.
    """
    import ray

    from .dedup import _cached_get

    edges = edges.materialize()
    visited = np.unique(np.asarray(sorted(seeds), dtype=np.int64))
    if len(visited) == 0:
        return pa.table(
            {
                "node": pa.array([], pa.int64()),
                "hop": pa.array([], pa.int64()),
            }
        )
    out_nodes = [visited]
    out_hops = [np.zeros(len(visited), dtype=np.int64)]
    frontier = visited
    for hop in range(1, k + 1):
        if len(frontier) == 0:
            break
        ref = ray.put((frontier, visited))

        def expand(b: pa.Table) -> pa.Table:
            fr, vis = _cached_get(ref)
            a = b.column("a").cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
            bb = b.column("b").cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
            hits = np.concatenate(
                [
                    bb[_sorted_member(a, fr)],
                    a[_sorted_member(bb, fr)],
                ]
            )
            hits = np.unique(hits)
            hits = hits[~_sorted_member(hits, vis)]
            return pa.table({"n": pa.array(hits, pa.int64())})

        new = edges.map_batches(
            expand, batch_format="pyarrow"
        ).to_pandas()
        frontier = np.unique(new["n"].to_numpy(dtype="int64"))
        if len(frontier) == 0:
            break
        visited = np.union1d(visited, frontier)
        if len(visited) > max_nodes:
            raise ValueError(
                f"khop_reach: visited set {len(visited)} exceeds "
                f"max_nodes={max_nodes}"
            )
        out_nodes.append(frontier)
        out_hops.append(np.full(len(frontier), hop, dtype=np.int64))
    return pa.table(
        {
            "node": pa.array(np.concatenate(out_nodes), pa.int64()),
            "hop": pa.array(np.concatenate(out_hops), pa.int64()),
        }
    )


def _sorted_member(values, sorted_arr):
    """Boolean membership of ``values`` in a SORTED int64 array --
    one searchsorted, no hash set."""
    if len(sorted_arr) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_arr, values)
    pos = np.minimum(pos, len(sorted_arr) - 1)
    return sorted_arr[pos] == values


def clustering_coefficients(
    edges,
    n_buckets: int = 64,
    max_broadcast_edges: int = 20_000_000,
):
    """Per-node local clustering coefficient over a DISTINCT
    undirected edge table ``(a, b)`` with ``a < b``:
    ``cc = 2 * n_tri / (degree * (degree - 1))`` -- how close each
    node's neighborhood is to a clique, the standard community-
    structure signal on top of ``triangle_counts``.

    Degrees fold from per-block partial counts of both edge
    endpoints (one node-keyed groupby, shuffle volume = distinct
    nodes per block); triangles come from ``triangle_counts`` (same
    edge table, same broadcast/semi-join close).  The two per-node
    tables -- both bounded by NODE count, not edge count -- meet in
    one co-partitioned LEFT ``hash_join`` (nodes without triangles
    keep cc = 0), and the coefficient is a single float expression
    of exact integers, mirrored verbatim in SQL.  Degree-1 nodes get
    a NULL coefficient (undefined neighborhood).
    """
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from .relational import hash_join

    edges = edges.materialize()

    def degree_partials(b: pa.Table) -> pa.Table:
        nodes = pa.chunked_array(
            [b.column("a").combine_chunks(), b.column("b").combine_chunks()]
        )
        g = (
            pa.table({"node": nodes})
            .group_by(["node"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "node": g.column("node"),
                "d_part": g.column("count_all").cast(pa.int64()),
            }
        )

    def rename_deg(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": b.column("node"),
                "degree": b.column("sum(d_part)").cast(pa.int64()),
            }
        )

    degrees = (
        edges.map_batches(degree_partials, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("d_part"))
        .map_batches(rename_deg, batch_format="pyarrow")
    )
    tris = triangle_counts(
        edges,
        n_buckets=n_buckets,
        max_broadcast_edges=max_broadcast_edges,
    )
    joined = hash_join(
        degrees,
        tris,
        on="node",
        n_buckets=n_buckets,
        how="left",
        left_schema=pa.schema(
            [("node", pa.int64()), ("degree", pa.int64())]
        ),
        right_schema=pa.schema(
            [("node", pa.int64()), ("n_tri", pa.int64())]
        ),
    )

    def finish(b: pa.Table) -> pa.Table:
        d = b.column("degree").to_numpy(zero_copy_only=False)
        t = pc.fill_null(b.column("n_tri"), 0).to_numpy(
            zero_copy_only=False
        )
        den = d * (d - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cc = (2.0 * t.astype(np.float64)) / den.astype(np.float64)
        cc_col = pc.if_else(
            pa.array(d >= 2, pa.bool_()),
            pa.array(np.where(d >= 2, cc, 0.0), pa.float64()),
            pa.scalar(None, pa.float64()),
        )
        return pa.table(
            {
                "node": b.column("node"),
                "degree": pa.array(d, pa.int64()),
                "n_tri": pa.array(t.astype(np.int64), pa.int64()),
                "cc": cc_col,
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def degree_assortativity(edges, max_distinct: int = 2_000_000):
    """Degree assortativity coefficient of an undirected graph
    (Newman 2002): the Pearson correlation of endpoint degrees over
    the DIRECTED edge list (each undirected edge contributes both
    orientations) --

        r = (M*Sxy - Sx^2) / (M*Sx2 - Sx^2)

    (x and y are interchangeable by symmetry).  r > 0: hubs attach
    to hubs (social-style); r < 0: hubs attach to leaves
    (dependency/co-purchase-style).

    Scale shape: degrees fold through one bounded endpoint groupby
    (node count, metadata-guarded against ``max_distinct``) and
    broadcast once as a sorted (nodes, degs) pair; every edge block
    then resolves both endpoint degrees with two searchsorted gathers
    and emits ONE exact-int64 partial row; the driver folds blocks
    with Python big-int cross terms and one float division.  Edges
    never shuffle.
    """
    import ray

    from ray.data.aggregate import Count

    from .dedup import _cached_get

    # two consumers (degree fold, partial pass) -- materialize the
    # edge build once instead of re-running its shuffles per pass
    edges = edges.materialize()

    def ends(b: pa.Table) -> pa.Table:
        a = b.column("a").combine_chunks().cast(pa.int64())
        bb = b.column("b").combine_chunks().cast(pa.int64())
        return pa.table(
            {"n": pa.concat_arrays([a, bb])}
        )

    deg_ds = (
        edges.map_batches(ends, batch_format="pyarrow")
        .groupby("n")
        .aggregate(Count())
        .materialize()
    )
    n_nodes = deg_ds.count()
    if n_nodes > max_distinct:
        raise ValueError(
            f"degree_assortativity: {n_nodes} nodes exceed "
            f"max_distinct={max_distinct}"
        )
    rows = deg_ds.take_all()
    nodes = np.array(sorted(int(r["n"]) for r in rows), np.int64)
    degs = np.zeros(len(nodes), np.int64)
    for r in rows:
        degs[np.searchsorted(nodes, int(r["n"]))] = int(r["count()"])
    ref = ray.put((nodes, degs))

    def part(b: pa.Table, _r=ref) -> pa.Table:
        nd, dg = _cached_get(_r)
        a = b.column("a").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        bb = b.column("b").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        da = dg[np.searchsorted(nd, a)]
        db = dg[np.searchsorted(nd, bb)]
        return pa.table(
            {
                "m": pa.array([2 * len(a)], pa.int64()),
                "sx": pa.array([int((da + db).sum())], pa.int64()),
                "sxy": pa.array(
                    [2 * int((da * db).sum())], pa.int64()
                ),
                "sx2": pa.array(
                    [int((da * da).sum() + (db * db).sum())],
                    pa.int64(),
                ),
            }
        )

    m = sx = sxy = sx2 = 0
    for tbl in edges.map_batches(
        part, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        for i in range(tbl.num_rows):
            m += int(tbl.column("m")[i].as_py())
            sx += int(tbl.column("sx")[i].as_py())
            sxy += int(tbl.column("sxy")[i].as_py())
            sx2 += int(tbl.column("sx2")[i].as_py())
    num = m * sxy - sx * sx
    den = m * sx2 - sx * sx
    r = float(num) / float(den) if den > 0 else None
    return pa.table(
        {
            "n_directed_edges": pa.array([m], pa.int64()),
            "sum_deg": pa.array([sx], pa.int64()),
            "sum_xy": pa.array([sxy], pa.int64()),
            "sum_x2": pa.array([sx2], pa.int64()),
            "assortativity": pa.array([r], pa.float64()),
        }
    )


def pair_count_partials(tbl: pa.Table) -> pa.Table:
    """The per-group-bucket kernel of :func:`association_rules`: fold
    one GROUP-COMPLETE (g, i) membership table into its pair-count
    partials plus sentinel rows ((i, -1) = per-item distinct-group
    count, (-1, -1) = distinct-group count), each with its packed
    ``(a, b)`` pair key for the fold's exchange.

    Module-level so callers with already-group-partitioned storage
    (e.g. the conversation-complete enriched-transcripts cache) can
    build partials with one task per file and hand them to
    ``association_rules(partials=...)``, skipping the group-hash
    shuffle entirely.  Every g in ``tbl`` must have ALL its rows
    present -- that is the partial-exactness condition.
    """
    df = tbl.select(["g", "i"]).to_pandas().drop_duplicates()
    if (df["i"] < 0).any():
        raise ValueError(
            "association_rules: item ids must be >= 0"
        )
    m = df.merge(df, on="g")
    m = m[m["i_x"] < m["i_y"]]
    c = m.groupby(["i_x", "i_y"], sort=False).size()
    idx = c.index
    ic = df.groupby("i", sort=False).size()
    a = np.concatenate(
        [
            idx.get_level_values(0).to_numpy(dtype="int64"),
            ic.index.to_numpy(dtype="int64"),
            [-1],
        ]
    )
    b = np.concatenate(
        [
            idx.get_level_values(1).to_numpy(dtype="int64"),
            np.full(len(ic), -1, np.int64),
            [-1],
        ]
    )
    cnt = np.concatenate(
        [
            c.to_numpy(dtype="int64"),
            ic.to_numpy(dtype="int64"),
            [df["g"].nunique()],
        ]
    )
    packed = a * np.int64(4_294_967_296) + b
    return pa.table(
        {
            "packed": pa.array(packed, pa.int64()),
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
            "c_part": pa.array(cnt, pa.int64()),
        }
    )


def association_rules(
    ds,
    group_col: str,
    item_col: str,
    min_support: int = 2,
    k: int = 50,
    n_buckets: int = 64,
    max_distinct: int = 2_000_000,
    partials=None,
):
    """Market-basket association rules over a (group, item)
    membership table: for every unordered item pair with
    co-occurrence support >= ``min_support``,

        conf(a->b) = c_ab / c_a        (directed confidences)
        lift       = n_groups * c_ab / (c_a * c_b)

    top-k by (lift DESC, a, b) -- lift > 1 means the pair co-occurs
    more than independence predicts.  All counts are exact distinct-
    group integers; conf/lift are one float expression each from
    exact int products (the SQL mirror uses the same HUGEINT ->
    DOUBLE tree).

    Scale shape: groups hash into buckets (a group's rows land in ONE
    bucket), so the in-bucket self-merge emits per-bucket PAIR COUNT
    partials (not distinct edges -- this is the counting sibling of
    ``cooccur_pair_edges``) that fold through one (a, b) groupby;
    per-item distinct-group counts fold the same way (bounded by item
    count, metadata-guarded, broadcast once); n_groups is one
    distinct-group count.  The support filter prunes the pair table
    before the broadcast-finish, which emits only per-block top-k
    candidates.
    """
    import ray

    from ray.data.aggregate import Count, Sum

    from .dedup import _cached_get

    def project(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.is_valid(b.column(group_col)),
                pc.is_valid(b.column(item_col)),
            )
        )
        g = t.column(group_col).cast(pa.int64())
        d = (
            pa.table({"g": g, "i": t.column(item_col).cast(pa.int64())})
            .group_by(["g", "i"])
            .aggregate([([], "count_all")])
        )
        return d.select(["g", "i"])

    # single consumer (the group-hash exchange) -- keep the projection
    # streaming.  ``partials`` short-circuits the whole group-hash
    # exchange: a caller whose storage is already group-partitioned
    # passes a Dataset of pair_count_partials tables instead.
    proj = None if partials is not None else ds.map_batches(
        project, batch_format="pyarrow"
    )

    # ONE bucketed pass emits the per-bucket PAIR-COUNT partials
    # and, as sentinel rows, the per-item distinct-group count
    # partials plus the bucket's distinct-group total: a group lives
    # in exactly one bucket, so all three are exact partials, and a
    # single (a, b) groupby folds them together -- two all-to-alls
    # total (the group exchange and this fold) instead of four, since
    # Ray's fixed per-shuffle cost dominates at this output size.
    # Sentinels: (i, -1) = item count, (-1, -1) = group count; item
    # ids must be >= 0.
    def fold_pairs(tbl: pa.Table) -> pa.Table:
        g = (
            tbl.select(["a", "b", "c_part"])
            .group_by(["a", "b"])
            .aggregate([("c_part", "sum")])
        )
        return pa.table(
            {
                "a": g.column("a"),
                "b": g.column("b"),
                "sum(c_part)": g.column("c_part_sum").cast(
                    pa.int64()
                ),
            }
        )

    # pair-key-hash bucket fold (one all-to-all, dispatch bounded by
    # bucket count) -- measured 4x cheaper than a two-column
    # sort-aggregate at the same row count
    parts = (
        partials
        if partials is not None
        else map_keyed(
            proj, pair_count_partials, key="g", n_buckets=n_buckets
        )
    )
    folded = map_keyed(
        parts, fold_pairs, key="packed", n_buckets=n_buckets
    ).materialize()

    def sentinels(b: pa.Table) -> pa.Table:
        return b.filter(
            pc.less(b.column("b"), pa.scalar(0, pa.int64()))
        )

    rows = folded.map_batches(
        sentinels, batch_format="pyarrow"
    ).take_all()  # items + 1 rows, bounded
    n_items = len(rows) - 1
    if n_items > max_distinct:
        raise ValueError(
            f"association_rules: {n_items} items exceed "
            f"max_distinct={max_distinct}"
        )
    n_groups = sum(
        int(r["sum(c_part)"]) for r in rows if int(r["a"]) < 0
    )
    if n_groups == 0:
        raise ValueError("association_rules: no groups")
    rows = [r for r in rows if int(r["a"]) >= 0]
    items = np.array(sorted(int(r["a"]) for r in rows), np.int64)
    icounts = np.zeros(len(items), np.int64)
    for r in rows:
        icounts[np.searchsorted(items, int(r["a"]))] = int(
            r["sum(c_part)"]
        )
    ref = ray.put((items, icounts, n_groups))

    def finish(b: pa.Table, _r=ref) -> pa.Table:
        its, ics, ng = _cached_get(_r)
        b = b.filter(
            pc.greater_equal(
                b.column("b"), pa.scalar(0, pa.int64())
            )
        )  # sentinel rows are not pairs
        cab = b.column("sum(c_part)").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        keep = cab >= min_support
        if not keep.any():
            return pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "support": pa.array([], pa.int64()),
                    "conf_ab": pa.array([], pa.float64()),
                    "conf_ba": pa.array([], pa.float64()),
                    "lift": pa.array([], pa.float64()),
                }
            )
        a = b.column("a").to_numpy(zero_copy_only=False)[keep]
        bb = b.column("b").to_numpy(zero_copy_only=False)[keep]
        cab = cab[keep]
        ca = ics[np.searchsorted(its, a)]
        cb = ics[np.searchsorted(its, bb)]
        lift = (ng * cab).astype(np.float64) / (ca * cb).astype(
            np.float64
        )
        order = np.lexsort((bb, a, -lift))[:k]
        return pa.table(
            {
                "a": pa.array(a[order], pa.int64()),
                "b": pa.array(bb[order], pa.int64()),
                "support": pa.array(cab[order], pa.int64()),
                "conf_ab": pa.array(
                    cab[order].astype(np.float64)
                    / ca[order].astype(np.float64),
                    pa.float64(),
                ),
                "conf_ba": pa.array(
                    cab[order].astype(np.float64)
                    / cb[order].astype(np.float64),
                    pa.float64(),
                ),
                "lift": pa.array(lift[order], pa.float64()),
            }
        )

    cands = folded.map_batches(
        finish, batch_format="pyarrow"
    ).take_all()
    cands.sort(key=lambda r: (-r["lift"], r["a"], r["b"]))
    cands = cands[:k]
    cols = ("a", "b", "support", "conf_ab", "conf_ba", "lift")
    types = (
        pa.int64(),
        pa.int64(),
        pa.int64(),
        pa.float64(),
        pa.float64(),
        pa.float64(),
    )
    return pa.table(
        {
            c: pa.array([r[c] for r in cands], t)
            for c, t in zip(cols, types)
        }
    )
