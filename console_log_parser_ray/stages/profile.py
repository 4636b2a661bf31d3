"""Data-quality profiling over arbitrary tables.

One operator: ``profile_table`` -- per-column row / null / exact
distinct counts, the schema-on-read health check a pipeline runs
before trusting a new 100 TB drop.  Output is one row per COLUMN, so
the driver-side assembly is bounded by schema width, never data size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.cache import map_keyed


def profile_table(ds, columns: list[str] | None = None, n_buckets: int = 64):
    """Per-column profile: ``(col_name, n_rows, n_nulls, n_distinct)``
    as a small pandas DataFrame (one row per column -- the ONLY
    driver-side materialization, bounded by schema width).

    ``n_distinct`` is exact and excludes nulls (SQL ``count(DISTINCT
    col)`` semantics).  Values of every type are compared through
    their Arrow string cast, which is injective per column (Arrow
    renders floats with shortest-round-trip digits); ``-0.0`` vs
    ``0.0`` is the one documented divergence from SQL numeric
    equality.

    Scale shape: the counts pass ships one partial row per column per
    block.  The distinct pass melts each block to per-column DISTINCT
    (col, value) pairs FIRST (an in-task Arrow group_by -- repeated
    values never leave the block), then buckets by a value hash alone,
    so every occurrence of a value lands in one bucket and the
    per-bucket second dedup is globally exact; the final groupby sums
    ``n_buckets x n_cols`` tiny partials.  Nothing driver-side ever
    sees a value.
    """
    import pandas as pd

    from ray.data.aggregate import Sum

    cols = list(columns) if columns else list(ds.schema().names)

    def count_partials(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "col_name": pa.array(cols, pa.string()),
                "n_part": pa.array(
                    [b.num_rows] * len(cols), pa.int64()
                ),
                "null_part": pa.array(
                    [b.column(c).null_count for c in cols], pa.int64()
                ),
            }
        )

    def melt_distinct(b: pa.Table) -> pa.Table:
        names, vals = [], []
        for c in cols:
            v = pc.cast(b.column(c).combine_chunks(), pa.string())
            v = v.drop_null().unique()
            names.append(
                pa.array(np.full(len(v), c, dtype=object), pa.string())
            )
            vals.append(v)
        name_col = pa.concat_arrays(names)
        val_col = pa.concat_arrays(vals)
        return pa.table(
            {
                "col_name": name_col,
                "v": val_col,
            }
        )

    def distinct_in_bucket(tbl: pa.Table) -> pa.Table:
        d = tbl.group_by(["col_name", "v"]).aggregate([])
        part = d.group_by("col_name").aggregate([("v", "count")])
        return pa.table(
            {
                "col_name": part.column("col_name"),
                "d_part": part.column("v_count").cast(pa.int64()),
            }
        )

    counts = (
        ds.map_batches(count_partials, batch_format="pyarrow")
        .groupby("col_name")
        .aggregate(Sum("n_part"), Sum("null_part"))
        .to_pandas()
        .rename(
            columns={
                "sum(n_part)": "n_rows",
                "sum(null_part)": "n_nulls",
            }
        )
    )
    distinct = (
        map_keyed(
            ds.map_batches(melt_distinct, batch_format="pyarrow"),
            distinct_in_bucket,
            key="v",
            n_buckets=n_buckets,
        )
        .groupby("col_name")
        .aggregate(Sum("d_part"))
        .to_pandas()
        .rename(columns={"sum(d_part)": "n_distinct"})
    )
    out = counts.merge(distinct, on="col_name", how="left")
    out["n_distinct"] = (
        out["n_distinct"].fillna(0).astype("int64")
    )  # an all-null column never reaches the distinct pass
    return out.sort_values("col_name").reset_index(drop=True)


def constraint_report(
    ds,
    not_null: tuple = (),
    positive: tuple = (),
    unique: tuple = (),
    fk: tuple = (),
    n_buckets: int = 64,
):
    """Declarative data-quality gate: evaluate constraint specs over a
    table and return ``(constraint, n_violations)`` -- the contract
    check a pipeline runs before promoting a new drop.  Constraint
    kinds and their exact SQL meanings:

    - ``not_null``: column names; violation = NULL value.
    - ``positive``: column names; violation = NULL or ``value <= 0``.
    - ``unique``: column names; violations = ``count(col) -
      count(DISTINCT col)`` (null rows are not counted -- SQL
      ``count(DISTINCT)`` semantics).
    - ``fk``: ``(col, ref_ds, ref_col)`` triples; violation = a
      non-null value absent from the reference column.

    Scale shape: row-level checks are per-block vectorized predicate
    sums (one partial row per constraint per block, one tiny groupby).
    ``unique`` reuses the value-hash bucket dedup of
    ``profile_table`` (repeated values never leave their block).
    ``fk`` runs the per-block DISTINCT values of the child column
    through a value-hash bucket groupby against the reference side's
    distinct values (both sides bucket on the same hash, missing keys
    weighted by their child occurrence counts) -- no broadcast, no
    driver collect.
    """
    import pandas as pd

    from ray.data.aggregate import Sum

    parts = []

    row_checks = [("not_null:" + c, c, "null") for c in not_null]
    row_checks += [("positive:" + c, c, "pos") for c in positive]
    if row_checks:

        def row_partials(b: pa.Table) -> pa.Table:
            names, viol = [], []
            for label, c, kind in row_checks:
                col = b.column(c)
                if kind == "null":
                    n = col.null_count
                else:
                    n = col.null_count + pc.sum(
                        pc.if_else(
                            pc.less_equal(
                                pc.fill_null(
                                    col.cast(pa.float64()), 1.0
                                ),
                                0.0,
                            ),
                            1,
                            0,
                        )
                    ).as_py()
                names.append(label)
                viol.append(int(n))
            return pa.table(
                {
                    "constraint": pa.array(names, pa.string()),
                    "v_part": pa.array(viol, pa.int64()),
                }
            )

        parts.append(
            ds.map_batches(row_partials, batch_format="pyarrow")
            .groupby("constraint")
            .aggregate(Sum("v_part"))
            .to_pandas()
            .rename(columns={"sum(v_part)": "n_violations"})
        )

    for c in unique:

        def mk_unique(col):
            def partial(b: pa.Table) -> pa.Table:
                v = b.column(col).combine_chunks().drop_null()
                g = (
                    pa.table({"v": v.cast(pa.int64())})
                    .group_by(["v"])
                    .aggregate([([], "count_all")])
                )
                return pa.table(
                    {
                        "v": g.column("v"),
                        "n": g.column("count_all").cast(pa.int64()),
                    }
                )

            def per_bucket(tbl: pa.Table) -> pa.Table:
                g = tbl.group_by(["v"]).aggregate([("n", "sum")])
                dup = pc.sum(
                    pc.subtract(
                        g.column("n_sum"),
                        pa.scalar(1, pa.int64()),
                    )
                ).as_py()
                return pa.table(
                    {"d_part": pa.array([int(dup or 0)], pa.int64())}
                )

            return partial, per_bucket

        pfn, bfn = mk_unique(c)
        dups = (
            map_keyed(
                ds.map_batches(pfn, batch_format="pyarrow"),
                bfn,
                key="v",
                n_buckets=n_buckets,
            )
            .sum("d_part")
        )
        parts.append(
            pd.DataFrame(
                {
                    "constraint": ["unique:" + c],
                    "n_violations": [int(dups or 0)],
                }
            )
        )

    for c, ref_ds, ref_c in fk:

        def mk_fk(col, rcol):
            def child_partial(b: pa.Table) -> pa.Table:
                v = b.column(col).combine_chunks().drop_null()
                g = (
                    pa.table({"v": v.cast(pa.int64())})
                    .group_by(["v"])
                    .aggregate([([], "count_all")])
                )
                return pa.table(
                    {
                        "v": g.column("v"),
                        "n": g.column("count_all").cast(pa.int64()),
                        "is_ref": pa.array(
                            np.zeros(g.num_rows, dtype=bool)
                        ),
                    }
                )

            def ref_partial(b: pa.Table) -> pa.Table:
                v = (
                    b.column(rcol)
                    .combine_chunks()
                    .drop_null()
                    .unique()
                )
                return pa.table(
                    {
                        "v": v.cast(pa.int64()),
                        "n": pa.array(
                            np.zeros(len(v), dtype=np.int64)
                        ),
                        "is_ref": pa.array(
                            np.ones(len(v), dtype=bool)
                        ),
                    }
                )

            def per_bucket(tbl: pa.Table) -> pa.Table:
                df = tbl.select(["v", "n", "is_ref"]).to_pandas()
                ref_vals = set(df.loc[df["is_ref"], "v"])
                child = df[~df["is_ref"]]
                missing = child[~child["v"].isin(ref_vals)]
                return pa.table(
                    {
                        "d_part": pa.array(
                            [int(missing["n"].sum())], pa.int64()
                        )
                    }
                )

            return child_partial, ref_partial, per_bucket

        cfn, rfn, bfn = mk_fk(c, ref_c)
        both = [
            ds.map_batches(cfn, batch_format="pyarrow"),
            ref_ds.map_batches(rfn, batch_format="pyarrow"),
        ]
        miss = map_keyed(both, bfn, key="v", n_buckets=n_buckets).sum(
            "d_part"
        )
        parts.append(
            pd.DataFrame(
                {
                    "constraint": ["fk:" + c],
                    "n_violations": [int(miss or 0)],
                }
            )
        )

    out = pd.concat(parts, ignore_index=True)
    return out.sort_values("constraint").reset_index(drop=True)


def benford_digits(ds, val_col: str):
    """Benford's-law first-digit screen over a positive currency
    column: observed count and share per leading digit 1..9 of the
    integer cents, the Benford expectation ``log10(1 + 1/d)``, and
    each digit's chi-square contribution -- the classic
    fabricated-data / ingestion-bug smoke alarm.

    Exactness: digits come from the decimal string of the exact
    integer cents (never float log10, whose rounding at powers of
    ten differs across libms); counts fold from per-block integer
    partials; the float columns finish from exact integers with the
    same expression shape as the SQL mirror.  Values with cents < 1
    are excluded (no leading digit).

    Scale shape: one 9-row groupby over per-block partials; the
    driver sees only the 9-row digit histogram.
    """

    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.floor(
                pc.multiply(
                    b.column(val_col).cast(pa.float64()),
                    pa.scalar(100.0, pa.float64()),
                )
            ),
            pa.int64(),
        )
        cents = pc.drop_null(cents)
        cents = cents.filter(pc.greater_equal(cents, 1))
        digit = pc.cast(
            pc.utf8_slice_codeunits(
                pc.cast(cents, pa.string()), 0, 1
            ),
            pa.int64(),
        )
        g = (
            pa.table({"digit": digit})
            .group_by("digit")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "digit": g.column("digit"),
                "n_part": g.column("count_all").cast(pa.int64()),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("digit")
        .aggregate(Sum("n_part"))
        .take_all()
    )
    hist = sorted(
        (int(r["digit"]), int(r["sum(n_part)"])) for r in rows
    )
    total = sum(n for _, n in hist)
    digits, ns, shares, ps, chi2 = [], [], [], [], []
    for d, n in hist:
        p = float(np.log10(1.0 + 1.0 / d))
        e = float(total) * p
        digits.append(d)
        ns.append(n)
        shares.append(float(n) / float(total))
        ps.append(p)
        chi2.append((float(n) - e) * (float(n) - e) / e)
    return pa.table(
        {
            "digit": pa.array(digits, pa.int64()),
            "n": pa.array(ns, pa.int64()),
            "share": pa.array(shares, pa.float64()),
            "benford_p": pa.array(ps, pa.float64()),
            "chi2_term": pa.array(chi2, pa.float64()),
        }
    )
