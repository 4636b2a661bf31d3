"""Random-seed differential sweep: re-run the window / aggregate /
session / rank operator families against fresh adversarial random
tables (heavy ties, tiny vocabularies, interleaved users) and compare
every result to DuckDB — the same oracles the committed differential
tests pin on ONE seed each, swept across arbitrarily many.

This is the deep-check companion to ``tools/check_contract.py`` (which
pins the fixed testdata tables): run it before a release to shake out
seed-dependent edge cases without growing the pytest wall time.

Usage: python tools/seed_sweep.py [seed ...]   (defaults to 10 seeds)

Exit 0 = every comparison equal.  Each seed covers 125 comparison groups:
  - event_gaps / running totals / rolling sums / global row_number +
    ntile / transition counts   (window family)
  - distinct-count per group / HLL approx-distinct (bit-exact mirror) /
    audience overlap / MAD flags /
    duplicated k-token spans    (aggregate family)
  - sessionize / as-of join / two-step funnel / top-k per group
  - dense_rank and filter_top_quantile on BOTH cardinality paths
    (collected histogram AND the forced above-``max_distinct``
    data-plane fallback, same SQL oracle)
  - token_stats / fingerprint / ngram_topk / idf_rarity /
    rarest_token / rep_signals / decontaminate / exact_dedup /
    corpus line_dedup
    (text family, random multi-line corpora with empty docs, planted
    duplicates, unicode + punctuation tokens)
  - postings / bm25 (bitwise-exact float) / hash_embed /
    bpe_pairs / token_budget
                                (retrieval + quota family)
  - hash_join inner/left/semi/anti / interval range-count join /
    heavy hitters (skewed) / per-group discrete quantiles / pivot
    counts / hopping windows    (relational + sketch family)
  - minhash planted recall / simhash banding == brute hamming /
    embedding near-dups == numpy all-pairs (+ IVF recall) /
    deterministic k-means == numpy Lloyd's / SemDeDup == numpy
    cluster + cosine prune / exact kNN == numpy
                                (dedup + similarity family)
  - 12 fresh synthetic conversations: generator ground truth ==
    in-process reference oracle == engine scan, per turn
    (transcript family)
  - JSON field extraction / ordered collect_list / context-window
    chunking / sequence packing / domain mixing / shard placement /
    deterministic sampling / groupby aggregates / tumbling windows /
    per-user gap quantization   (misc projection + export family)
  - ROLLUP subtotals / percent_rank+cume_dist on BOTH cardinality
    paths (bit-exact doubles) / per-user gap-fill / last-writer-wins
    compaction                  (OLAP + CDC family)
  - SCD2 lead intervals / event-time RANGE rolling sums (3 windows) /
    FULL OUTER join with null keys / FastSS ED<=1 fuzzy join /
    co-occurrence top-k / table profiling / per-group regression
    (bit-exact moments) / snapshot diff (null-safe compare) /
    LAG-throttle (2 windows) / weighted sampling (md5 PRF, 2 k's) /
    CUBE with data-null keys (GROUPING bitmask) / interpolated
    percentile_cont (bit-exact lerp) / cohort retention /
    exact kNN graph + class centroids (quantized ints == numpy) / MERGE upsert
    (random change batch == sequential apply) / boolean-AND retrieval /
    salted skew join == unsalted (4 join types) / session-path
    mining (string_agg mirror, 2 gaps)
                                (round-4 CDC + fuzzy family)
  - new-vs-returning / daily ACF / Benford digits / quota
    allocation (null groups) / weighted median / vocab growth /
    Welch A/B / KM retention   (growth + quality family)
  - integer PageRank == python int reference / unigram + bigram LM
    logprob / vocab OOV / priority dedup / TWAP / token entropy / domain KL / PMI collocations / split assignment / vocab overlap / per-key categorical entropy /
    KMV bottom-k sketch         (round-4 graph + LM family)
  - log template mining / multiline record stitching / error-burst
    islands / decayed engagement scores (bit-exact division) /
    numeric band self-join (negatives) / co-occurrence triangle
    counts               (round-4b log-pipeline + graph family)
  - per-group Gini / phrase search / MLM masking (md5 PRF) /
    interpolation join (bit-exact lerp) / interval concurrency /
    k-hop BFS min-hop     (round-4c resample + graph family)
"""

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for p in (
    REPO,
    os.path.join(REPO, "tests"),
    os.path.join(REPO, "tools"),
    "/root/reference",
):
    if p not in sys.path:
        sys.path.insert(0, p)
# Ray workers resolve the package relative to the driver cwd
os.chdir(REPO)

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import ray

failures = []


def check(name, seed, mine_df, ref_df, keys, vals):
    if len(mine_df) == 0 and len(ref_df) == 0:
        return  # both empty (an empty Ray result may carry no schema)
    mine = mine_df.sort_values(keys).reset_index(drop=True)
    ref = ref_df.sort_values(keys).reset_index(drop=True)
    ok = len(mine) == len(ref)
    if ok:
        for c in vals:
            a, b = mine[c], ref[c]
            if a.dtype.kind == "f" or b.dtype.kind == "f":
                if not (
                    ((a - b).abs().fillna(0) < 1e-9).all()
                    and (a.isna() == b.isna()).all()
                ):
                    ok = False
                    break
            elif a.dtype.kind == "b" or b.dtype.kind == "b":
                if a.astype(bool).tolist() != b.astype(bool).tolist():
                    ok = False
                    break
            elif a.dtype.kind == "M" or b.dtype.kind == "M":
                # NaT maps to the same int64 sentinel on both sides
                av = a.to_numpy(dtype="datetime64[ns]").astype(np.int64)
                bv = b.to_numpy(dtype="datetime64[ns]").astype(np.int64)
                if not (av == bv).all():
                    ok = False
                    break
            elif a.dtype.kind in "OU" or b.dtype.kind in "OU":
                if a.astype(str).tolist() != b.astype(str).tolist():
                    ok = False
                    break
            else:
                if not pd.Series(a).astype("Int64").equals(
                    pd.Series(b).astype("Int64")
                ):
                    ok = False
                    break
    if not ok:
        failures.append((name, seed))
        print(f"FAIL {name} seed={seed}", flush=True)


def window_family(seed):
    import test_window_differential as twd

    tbl = twd._random_events(seed)
    for fn in (
        twd.test_event_gaps_random,
        twd.test_running_totals_random,
        twd.test_rolling_sum_random,
        twd.test_global_rank_and_ntile_random,
        twd.test_transition_counts_random,
    ):
        try:
            fn(ray, tbl)
        except Exception as e:  # noqa: BLE001
            failures.append((fn.__name__, seed))
            print(f"FAIL {fn.__name__} seed={seed}: {e!r}"[:300], flush=True)


def aggregate_family(seed):
    from console_log_parser_ray.stages.events import (
        audience_overlap,
        distinct_count_per_group,
        mad_outlier_flags,
    )
    from console_log_parser_ray.stages.textan import dup_spans

    rng = np.random.default_rng(seed)
    n = 3000
    ev = pa.table(
        {
            "event_type": pa.array(rng.choice(["a", "b", "c", "d"], n)),
            "user_id": pa.array(rng.integers(1, 80, n).astype(np.int64)),
        }
    )
    con = duckdb.connect()
    con.register("events", ev)

    ds = distinct_count_per_group(
        ray.data.from_arrow(ev).repartition(9), n_buckets=16
    )
    ref = dict(
        con.execute(
            "SELECT event_type, COUNT(DISTINCT user_id) FROM events "
            "GROUP BY event_type"
        ).fetchall()
    )
    mine = {r["event_type"]: r["n_distinct"] for r in ds.take_all()}
    if mine != ref:
        failures.append(("distinct_count", seed))
        print(f"FAIL distinct_count seed={seed}", flush=True)

    # HLL sketch: bit-exact vs the same DuckDB mirror the driver runs
    import importlib

    from console_log_parser_ray.stages.events import (
        approx_distinct_per_group,
    )

    hll_sql = importlib.import_module("__ray_entry__").oracle_sql()[
        "approx_distinct_users"
    ]
    hll_mine = {
        r["event_type"]: (
            r["inv_sum_scaled"],
            r["n_zero_regs"],
            r["est"],
        )
        for r in approx_distinct_per_group(
            ray.data.from_arrow(ev).repartition(9), n_kb=4
        ).take_all()
    }
    hll_ref = {
        r[0]: (r[1], r[2], r[3]) for r in con.execute(hll_sql).fetchall()
    }
    if hll_mine != hll_ref:
        failures.append(("approx_distinct", seed))
        print(f"FAIL approx_distinct seed={seed}", flush=True)

    df = audience_overlap(
        ray.data.from_arrow(ev).repartition(9),
        categories=("a", "b", "c", "d"),
        n_buckets=16,
    )
    ref = {
        (a, b): c
        for a, b, c in con.execute(
            "WITH d AS (SELECT DISTINCT event_type, user_id FROM events) "
            "SELECT x.event_type, y.event_type, count(*) FROM d x "
            "JOIN d y ON x.user_id = y.user_id "
            "AND x.event_type < y.event_type GROUP BY 1, 2"
        ).fetchall()
    }
    mine = {(r.type_a, r.type_b): r.n_both for r in df.itertuples()}
    if mine != ref:
        failures.append(("audience_overlap", seed))
        print(f"FAIL audience_overlap seed={seed}", flush=True)

    vals = np.concatenate(
        [rng.integers(90, 111, 500), rng.integers(0, 1000, 30)]
    ).astype(np.int64)
    mt = pa.table(
        {
            "doc_id": pa.array(np.arange(len(vals), dtype=np.int64)),
            "n_chars": pa.array(vals),
        }
    )
    con2 = duckdb.connect()
    con2.register("documents", mt)
    ds = mad_outlier_flags(
        ray.data.from_arrow(mt).repartition(9),
        value_col="n_chars",
        id_col="doc_id",
        k=3,
    )
    ref = dict(
        con2.execute(
            "WITH med AS (SELECT quantile_disc(n_chars, 0.5) AS m "
            "FROM documents), "
            "mad AS (SELECT quantile_disc("
            "abs(n_chars - (SELECT m FROM med)), 0.5) AS d "
            "FROM documents) "
            "SELECT doc_id, abs(n_chars - (SELECT m FROM med)) "
            "> 3 * (SELECT d FROM mad) FROM documents"
        ).fetchall()
    )
    mine = {r["doc_id"]: r["is_outlier"] for r in ds.take_all()}
    if mine != ref:
        failures.append(("mad_flags", seed))
        print(f"FAIL mad_flags seed={seed}", flush=True)

    vocab = ["w%d" % i for i in range(9)]
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 12))) for _ in range(120)
    ]
    dt = pa.table(
        {
            "doc_id": pa.array(np.arange(1, 121, dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    con3 = duckdb.connect()
    con3.register("documents", dt)
    ds = dup_spans(ray.data.from_arrow(dt).repartition(9), k=3, n_buckets=16)
    ref = {
        d: (ns, nd)
        for d, ns, nd in con3.execute(
            "WITH t AS (SELECT doc_id, "
            "regexp_extract_all(text, '\\S+') AS tk FROM documents), "
            "s AS (SELECT doc_id, tk, len(tk) AS n FROM t "
            "WHERE len(tk) >= 3), "
            "g AS (SELECT doc_id, tk, "
            "unnest(generate_series(0, n - 3)) AS i FROM s), "
            "d AS (SELECT DISTINCT doc_id, "
            "array_to_string(tk[i+1 : i+3], ' ') AS span FROM g), "
            "df AS (SELECT span, count(*) AS df FROM d GROUP BY span) "
            "SELECT d.doc_id, count(*), "
            "CAST(count(*) FILTER (WHERE df.df >= 2) AS BIGINT) "
            "FROM d JOIN df USING (span) GROUP BY d.doc_id"
        ).fetchall()
    }
    mine = {
        r["doc_id"]: (r["n_spans"], r["n_dup_spans"]) for r in ds.take_all()
    }
    if mine != ref:
        failures.append(("dup_spans", seed))
        print(f"FAIL dup_spans seed={seed}", flush=True)


def session_rank_family(seed):
    from console_log_parser_ray.stages.events import (
        asof_join_events_orders,
        filter_top_quantile,
        funnel_two_step,
        sessionize,
        topk_per_group,
    )
    from console_log_parser_ray.stages.relational import dense_rank

    rng = np.random.default_rng(seed)
    n, n_users = 2500, 41
    # coarse stamps -> heavy ties AND real gaps around the 1800 s
    # sessionize threshold
    ev = pa.table(
        {
            "event_id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "user_id": pa.array(
                rng.integers(1, n_users + 1, n).astype(np.int64)
            ),
            "ts": pa.array(
                rng.integers(0, 6, n).astype(np.int64) * 1_700_000_000,
                pa.timestamp("us"),
            ),
            "event_type": pa.array(
                rng.choice(
                    ["signup", "purchase", "click", "view", "error"], n
                )
            ),
        }
    )
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(1, 1501, dtype=np.int64)),
            "lang": pa.array(
                rng.choice(["en", "de", "fr", "ja", "pt"], 1500)
            ),
            "n_chars": pa.array(rng.integers(0, 40, 1500).astype(np.int64)),
        }
    )
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(1, 901, dtype=np.int64)),
            "o_custkey": pa.array(
                rng.integers(1, n_users + 1, 900).astype(np.int64)
            ),
            "o_orderdate": pa.array(
                rng.integers(0, 8, 900).astype(np.int64) * 1_500_000_000,
                pa.timestamp("us"),
            ),
            "o_totalprice": pa.array(
                np.floor(rng.uniform(0, 9000, 900) * 100) / 100.0,
                pa.float64(),
            ),
        }
    )
    con = duckdb.connect()
    con.register("events", ev)
    con.register("documents", docs)
    con.register("orders", orders)

    mine = sessionize(
        ray.data.from_arrow(ev).repartition(7), n_buckets=16
    ).to_pandas()
    ref = con.execute(
        "WITH flagged AS ("
        "  SELECT user_id, event_id, epoch_us(ts) AS tus, "
        "  CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER "
        "  (PARTITION BY user_id ORDER BY ts, event_id) > 1800000000 "
        "  THEN 1 ELSE 0 END AS new_sess FROM events), "
        "sessions AS ("
        "  SELECT user_id, tus, CAST(sum(new_sess) OVER ("
        "  PARTITION BY user_id ORDER BY tus, event_id "
        "  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id "
        "  FROM flagged) "
        "SELECT user_id, session_id, count(*) AS n_events, "
        "min(tus) AS start_ts FROM sessions GROUP BY 1, 2"
    ).fetchdf()
    check(
        "sessionize", seed, mine, ref,
        ["user_id", "session_id"], ["n_events", "start_ts"],
    )

    mine = (
        asof_join_events_orders(
            ray.data.from_arrow(ev).repartition(7),
            ray.data.from_arrow(orders).repartition(5),
            n_buckets=16,
        )
        .select_columns(["event_id", "last_orderkey"])
        .to_pandas()
    )
    ref = con.execute(
        "SELECT e.event_id, ("
        "  SELECT o.o_orderkey FROM orders o "
        "  WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts "
        "  ORDER BY o.o_orderdate DESC, o.o_orderkey DESC LIMIT 1"
        ") AS last_orderkey FROM events e"
    ).fetchdf()
    check("asof", seed, mine, ref, ["event_id"], ["last_orderkey"])

    mine = funnel_two_step(
        ray.data.from_arrow(
            ev.select(["user_id", "ts", "event_type"])
        ).repartition(7),
        first_ev="signup",
        second_ev="purchase",
        n_buckets=16,
    ).to_pandas()
    ref = con.execute(
        "WITH s AS (SELECT user_id, min(epoch_us(ts)) AS first_us "
        "FROM events WHERE event_type = 'signup' GROUP BY user_id) "
        "SELECT s.user_id, s.first_us, "
        "(SELECT min(epoch_us(e.ts)) FROM events e "
        " WHERE e.user_id = s.user_id AND e.event_type = 'purchase' "
        " AND epoch_us(e.ts) >= s.first_us) AS second_us, "
        "coalesce((SELECT min(epoch_us(e.ts)) FROM events e "
        " WHERE e.user_id = s.user_id AND e.event_type = 'purchase' "
        " AND epoch_us(e.ts) >= s.first_us) - s.first_us "
        " <= 604800000000, FALSE) AS converted "
        "FROM s"
    ).fetchdf()
    check(
        "funnel", seed, mine, ref,
        ["user_id"], ["first_us", "second_us", "converted"],
    )

    mine = topk_per_group(
        ray.data.from_arrow(docs).repartition(7), "lang", "n_chars", k=3
    ).to_pandas()
    ref = con.execute(
        "SELECT doc_id, lang, n_chars FROM documents "
        "QUALIFY row_number() OVER "
        "(PARTITION BY lang ORDER BY n_chars DESC, doc_id) <= 3"
    ).fetchdf()
    check(
        "topk_per_group", seed, mine, ref, ["doc_id"], ["lang", "n_chars"]
    )

    ref = con.execute(
        "SELECT doc_id, lang, n_chars, "
        "CAST(dense_rank() OVER "
        "(PARTITION BY lang ORDER BY n_chars DESC) AS BIGINT) AS rnk "
        "FROM documents"
    ).fetchdf()
    for label, kw in [
        ("dense_rank", {}),
        ("dense_rank_big", {"max_distinct": 10}),
    ]:
        mine = dense_rank(
            ray.data.from_arrow(docs).repartition(7),
            "lang",
            "n_chars",
            descending=True,
            n_buckets=16,
            **kw,
        ).to_pandas()
        check(label, seed, mine, ref, ["doc_id"], ["n_chars", "rnk"])

    dd = docs.select(["doc_id", "n_chars"])
    ref = con.execute(
        "SELECT doc_id, n_chars FROM documents "
        "WHERE n_chars >= "
        "(SELECT quantile_disc(n_chars, 0.9) FROM documents)"
    ).fetchdf()
    for label, kw in [
        ("top_quantile", {}),
        ("top_quantile_big", {"max_distinct": 10}),
    ]:
        mine = filter_top_quantile(
            ray.data.from_arrow(dd).repartition(7),
            value_col="n_chars",
            q=0.9,
            **kw,
        ).to_pandas()
        check(label, seed, mine, ref, ["doc_id"], ["n_chars"])


def text_family(seed):
    """The round-4 Arrow-token-tape rewrite targets: token stats,
    fingerprints, n-gram/DF signals, line-repetition signals,
    decontamination and exact dedup on a random multi-line corpus with
    empty docs, duplicate texts, unicode and punctuation tokens."""
    from console_log_parser_ray.stages.dedup import exact_dedup
    from console_log_parser_ray.stages.events import deterministic_sample
    from console_log_parser_ray.stages.textan import (
        decontaminate,
        fingerprint,
        idf_rarity,
        ngram_topk,
        rarest_token,
        rep_signals,
        token_stats,
    )

    rng = np.random.default_rng(seed)
    vocab = np.array(
        ["w%d" % i for i in range(8)] + ["héllo", "a.b!", "x,y", "§7"]
    )
    n_docs = 150

    def mk_text():
        lines = [
            " ".join(rng.choice(vocab, rng.integers(0, 9)))
            for _ in range(rng.integers(0, 7))
        ]
        return "\n".join(lines)

    texts = [mk_text() for _ in range(n_docs)]
    # planted exact duplicates and empty docs
    for _ in range(20):
        i, j = rng.integers(0, n_docs, 2)
        texts[i] = texts[j]
    for i in rng.integers(0, n_docs, 5):
        texts[i] = ""
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(1, n_docs + 1, dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    con = duckdb.connect()
    con.register("documents", docs)
    dds = lambda: ray.data.from_arrow(docs).repartition(7)  # noqa: E731

    mine = token_stats(dds()).to_pandas()
    ref = con.execute(
        "SELECT doc_id, "
        "len(regexp_extract_all(text, '\\S+')) AS n_tokens, "
        "len(regexp_extract_all(text, "
        "'[A-Za-z]+|[0-9]+|[^A-Za-z0-9\\s]')) AS n_pieces, "
        "length(text) AS n_chars FROM documents"
    ).fetchdf()
    check(
        "token_stats", seed, mine, ref,
        ["doc_id"], ["n_tokens", "n_pieces", "n_chars"],
    )

    mine = fingerprint(dds()).to_pandas()
    mine["fingerprint"] = mine["fingerprint"].astype("uint64")
    ref = con.execute(
        "SELECT doc_id, CAST(list_reduce("
        "  list_prepend(CAST(0 AS HUGEINT),"
        "    list_transform("
        "      regexp_extract_all(array_to_string("
        "        regexp_extract_all(text, '\\S+'), ' '), '.'),"
        "      c -> CAST(unicode(c) AS HUGEINT))),"
        "  (h, c) -> (h * 1000003 + c) % 2305843009213693951"
        ") AS UBIGINT) AS fingerprint FROM documents"
    ).fetchdf()
    a = mine.sort_values("doc_id")["fingerprint"].tolist()
    b = ref.sort_values("doc_id")["fingerprint"].tolist()
    if a != b:
        failures.append(("fingerprint", seed))
        print(f"FAIL fingerprint seed={seed}", flush=True)

    mine = ngram_topk(dds().select_columns(["text"]), n=3, k=20).to_pandas()
    ref = con.execute(
        "WITH toks AS (SELECT regexp_extract_all(text, '\\S+') AS tk "
        "FROM documents), "
        "g AS (SELECT unnest(list_transform("
        "generate_series(1, len(tk) - 2), "
        "i -> concat_ws(' ', tk[i], tk[i+1], tk[i+2]))) AS ngram "
        "FROM toks WHERE len(tk) >= 3) "
        "SELECT ngram, CAST(count(*) AS BIGINT) AS n FROM g "
        "GROUP BY ngram ORDER BY n DESC, ngram LIMIT 20"
    ).fetchdf()
    check("ngram_topk", seed, mine, ref, ["ngram"], ["n"])

    mine = idf_rarity(dds()).to_pandas()
    ref = con.execute(
        "WITH toks AS (SELECT doc_id, "
        "unnest(regexp_extract_all(text, '\\S+')) AS tok "
        "FROM documents), "
        "occ AS (SELECT doc_id, tok, count(*) AS n_occ FROM toks "
        "GROUP BY doc_id, tok), "
        "df AS (SELECT tok, count(*) AS df FROM occ GROUP BY tok) "
        "SELECT o.doc_id, CAST(sum(o.n_occ) AS BIGINT) AS n_tokens, "
        "CAST(sum(o.n_occ * d.df) AS BIGINT) AS sum_df, "
        "CAST(count(*) FILTER (WHERE d.df = 1) AS BIGINT) AS n_hapax "
        "FROM occ o JOIN df d USING (tok) GROUP BY o.doc_id"
    ).fetchdf()
    check(
        "idf_rarity", seed, mine, ref,
        ["doc_id"], ["n_tokens", "sum_df", "n_hapax"],
    )

    mine = rarest_token(dds()).to_pandas()
    ref = con.execute(
        "WITH toks AS (SELECT doc_id, "
        "unnest(regexp_extract_all(text, '\\S+')) AS tok "
        "FROM documents), "
        "occ AS (SELECT DISTINCT doc_id, tok FROM toks), "
        "df AS (SELECT tok, count(*) AS df FROM occ GROUP BY tok) "
        "SELECT o.doc_id, o.tok AS rare_tok, d.df AS rare_df "
        "FROM occ o JOIN df d USING (tok) "
        "QUALIFY row_number() OVER "
        "(PARTITION BY o.doc_id ORDER BY d.df, o.tok) = 1"
    ).fetchdf()
    check(
        "rarest_token", seed, mine, ref,
        ["doc_id"], ["rare_tok", "rare_df"],
    )

    mine = rep_signals(dds()).to_pandas()
    ref = con.execute(
        "WITH lines AS (SELECT doc_id, unnest(string_split(text, "
        "  chr(10))) AS line FROM documents), "
        "nz AS (SELECT doc_id, line FROM lines WHERE line <> ''), "
        "per_line AS (SELECT doc_id, line, count(*) AS c FROM nz "
        "  GROUP BY doc_id, line), "
        "agg AS (SELECT doc_id, sum(c) AS n, count(*) AS d, "
        "  max(c) AS t FROM per_line GROUP BY doc_id) "
        "SELECT doc.doc_id, "
        "CAST(coalesce(agg.n, 0) AS BIGINT) AS n_lines, "
        "coalesce((agg.n - agg.d) * 1.0 / agg.n, 0.0) AS dup_line_frac, "
        "coalesce(agg.t * 1.0 / agg.n, 0.0) AS top_line_frac "
        "FROM documents doc LEFT JOIN agg USING (doc_id)"
    ).fetchdf()
    check(
        "rep_signals", seed, mine, ref,
        ["doc_id"], ["n_lines", "dup_line_frac", "top_line_frac"],
    )

    bench = deterministic_sample(dds(), rate_pct=5)
    mine = decontaminate(dds(), bench, n=5).to_pandas()
    ref = con.execute(
        "WITH bench AS (SELECT text FROM documents "
        "  WHERE ((doc_id & 2147483647) * 2654435761) % 4294967296 "
        "  < 214748364), "
        "bt AS (SELECT regexp_extract_all(text, '\\S+') AS tk "
        "  FROM bench), "
        "bg AS (SELECT DISTINCT ng AS ngram FROM ("
        "  SELECT unnest(list_transform(generate_series(1, len(tk)-4), "
        "    i -> concat_ws(' ', tk[i], tk[i+1], tk[i+2], tk[i+3], "
        "    tk[i+4]))) AS ng FROM bt WHERE len(tk) >= 5)), "
        "dt AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS tk "
        "  FROM documents), "
        "dg AS (SELECT DISTINCT doc_id, ng AS ngram FROM ("
        "  SELECT doc_id, unnest(list_transform("
        "    generate_series(1, len(tk)-4), "
        "    i -> concat_ws(' ', tk[i], tk[i+1], tk[i+2], tk[i+3], "
        "    tk[i+4]))) AS ng FROM dt WHERE len(tk) >= 5)), "
        "hits AS (SELECT dg.doc_id, count(*) AS n_hits FROM dg "
        "  JOIN bg USING (ngram) GROUP BY dg.doc_id) "
        "SELECT d.doc_id, CAST(coalesce(h.n_hits, 0) AS BIGINT) "
        "AS n_hits, coalesce(h.n_hits, 0) > 0 AS contaminated "
        "FROM documents d LEFT JOIN hits h USING (doc_id)"
    ).fetchdf()
    check(
        "decontaminate", seed, mine, ref,
        ["doc_id"], ["n_hits", "contaminated"],
    )

    def shift(b):
        import pyarrow.compute as pc

        return b.set_column(
            b.schema.get_field_index("doc_id"),
            "doc_id",
            pc.add(b.column("doc_id"), 1_000_000),
        )

    doubled = dds().union(
        dds().map_batches(shift, batch_format="pyarrow")
    )
    mine = sorted(
        r["doc_id"]
        for r in exact_dedup(doubled).select_columns(["doc_id"]).take_all()
    )
    ref = sorted(
        r
        for (r,) in con.execute(
            "WITH all_docs AS (SELECT doc_id, text FROM documents "
            "UNION ALL SELECT doc_id + 1000000, text FROM documents) "
            "SELECT min(doc_id) FROM all_docs GROUP BY text"
        ).fetchall()
    )
    if mine != ref:
        failures.append(("dedup_exact", seed))
        print(f"FAIL dedup_exact seed={seed}", flush=True)

    from console_log_parser_ray.stages.textan import ngram_rep_signals

    # n-gram repetition fractions: the tiny vocabulary guarantees
    # heavy within-doc gram repetition at every n
    mine = ngram_rep_signals(dds()).to_pandas()
    ref = con.execute(
        "WITH dt AS (SELECT doc_id, regexp_extract_all(text, '\\S+') "
        "  AS tk FROM documents), "
        "g2 AS (SELECT doc_id, unnest(list_transform("
        "  generate_series(1, len(tk)-1), i -> concat_ws(' ', tk[i], "
        "  tk[i+1]))) AS g FROM dt WHERE len(tk) >= 2), "
        "c2 AS (SELECT doc_id, g, count(*) AS c FROM g2 "
        "  GROUP BY doc_id, g), "
        "a2 AS (SELECT doc_id, sum(c) AS n, count(*) AS d, "
        "  max(c) AS t FROM c2 GROUP BY doc_id), "
        "g3 AS (SELECT doc_id, unnest(list_transform("
        "  generate_series(1, len(tk)-2), i -> concat_ws(' ', tk[i], "
        "  tk[i+1], tk[i+2]))) AS g FROM dt WHERE len(tk) >= 3), "
        "c3 AS (SELECT doc_id, g, count(*) AS c FROM g3 "
        "  GROUP BY doc_id, g), "
        "a3 AS (SELECT doc_id, sum(c) AS n, count(*) AS d, "
        "  max(c) AS t FROM c3 GROUP BY doc_id), "
        "g4 AS (SELECT doc_id, unnest(list_transform("
        "  generate_series(1, len(tk)-3), i -> concat_ws(' ', tk[i], "
        "  tk[i+1], tk[i+2], tk[i+3]))) AS g FROM dt "
        "  WHERE len(tk) >= 4), "
        "c4 AS (SELECT doc_id, g, count(*) AS c FROM g4 "
        "  GROUP BY doc_id, g), "
        "a4 AS (SELECT doc_id, sum(c) AS n, count(*) AS d, "
        "  max(c) AS t FROM c4 GROUP BY doc_id) "
        "SELECT d.doc_id, "
        "CAST(coalesce(a2.n, 0) AS BIGINT) AS n_grams_2, "
        "coalesce((a2.n - a2.d) * 1.0 / a2.n, 0.0) AS dup_2gram_frac, "
        "coalesce(a2.t * 1.0 / a2.n, 0.0) AS top_2gram_frac, "
        "CAST(coalesce(a3.n, 0) AS BIGINT) AS n_grams_3, "
        "coalesce((a3.n - a3.d) * 1.0 / a3.n, 0.0) AS dup_3gram_frac, "
        "coalesce(a3.t * 1.0 / a3.n, 0.0) AS top_3gram_frac, "
        "CAST(coalesce(a4.n, 0) AS BIGINT) AS n_grams_4, "
        "coalesce((a4.n - a4.d) * 1.0 / a4.n, 0.0) AS dup_4gram_frac, "
        "coalesce(a4.t * 1.0 / a4.n, 0.0) AS top_4gram_frac "
        "FROM documents d LEFT JOIN a2 USING (doc_id) "
        "LEFT JOIN a3 USING (doc_id) LEFT JOIN a4 USING (doc_id)"
    ).fetchdf()
    check(
        "ngram_rep", seed, mine, ref,
        ["doc_id"],
        [
            "n_grams_2", "dup_2gram_frac", "top_2gram_frac",
            "n_grams_3", "dup_3gram_frac", "top_3gram_frac",
            "n_grams_4", "dup_4gram_frac", "top_4gram_frac",
        ],
    )

    from console_log_parser_ray.stages.dedup import line_dedup

    # corpus-level duplicate-line removal: the tiny vocabulary makes
    # cross-doc repeated lines (and whole-line collisions) common, the
    # planted duplicate texts guarantee fully-banned docs
    mine = line_dedup(
        dds(), min_df=2, n_buckets=int(rng.integers(1, 9))
    ).to_pandas()
    ref = con.execute(
        "WITH lines AS (SELECT doc_id, unnest(ls) AS line, "
        "  unnest(generate_series(1, len(ls))) AS li "
        "  FROM (SELECT doc_id, string_split(text, chr(10)) AS ls "
        "    FROM documents)), "
        "df AS (SELECT line, count(DISTINCT doc_id) AS d FROM lines "
        "  WHERE line <> '' GROUP BY line), "
        "banned AS (SELECT line FROM df WHERE d >= 2), "
        "kept AS (SELECT l.doc_id, l.li, l.line FROM lines l "
        "  WHERE l.line = '' OR l.line NOT IN "
        "    (SELECT line FROM banned)), "
        "agg AS (SELECT doc_id, string_agg(line, chr(10) ORDER BY li) "
        "  AS clean_text, count(*) AS n_kept FROM kept "
        "  GROUP BY doc_id), "
        "tot AS (SELECT doc_id, count(*) AS n FROM lines "
        "  GROUP BY doc_id) "
        "SELECT d.doc_id, coalesce(a.clean_text, '') AS clean_text, "
        "CAST(t.n - coalesce(a.n_kept, 0) AS BIGINT) AS n_removed "
        "FROM documents d JOIN tot t USING (doc_id) "
        "LEFT JOIN agg a USING (doc_id)"
    ).fetchdf()
    check(
        "line_dedup", seed, mine, ref,
        ["doc_id"], ["clean_text", "n_removed"],
    )


def search_family(seed):
    """Retrieval + quota family: capped inverted index, BM25 keyword
    scoring (bit-exact float expression tree) and the per-group
    token-budget gate on a random corpus with empty/null texts,
    unicode tokens and non-contiguous shuffled doc ids."""
    from console_log_parser_ray.stages.export import token_budget
    from console_log_parser_ray.stages.search import (
        bm25_keyword,
        bm25_oracle_sql,
        postings,
    )

    rng = np.random.default_rng(seed ^ 0x5EA2C4)
    vocab = np.array(
        ["w%d" % i for i in range(56)] + ["héllo", "a.b!", "x,y", "§7"]
    )
    # zipf-weighted draws spread document frequencies from ~2 to
    # ~n_docs, so any random df band selects a non-trivial slice
    zw = 1.0 / np.arange(1, len(vocab) + 1)
    zw /= zw.sum()
    n_docs = 160
    ids = rng.permutation(np.arange(3, 4003, 25, dtype=np.int64))[
        :n_docs
    ]
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 30), p=zw))
        for _ in range(n_docs)
    ]
    texts[0] = ""
    texts[1] = None
    texts[2] = "  \t "
    tbl = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "lang": pa.array(
                rng.choice(["en", "de", "zh"], n_docs).tolist()
            ),
            "text": pa.array(texts, pa.string()),
        }
    )
    con = duckdb.connect()
    con.register("documents", tbl)

    def dds():
        return ray.data.from_arrow(tbl).repartition(
            int(rng.integers(2, 9))
        )

    k = int(rng.integers(2, 7))
    min_df = int(rng.integers(1, 4))
    max_df = int(rng.integers(20, 120))
    mine = postings(
        dds(), k=k, min_df=min_df, max_df=max_df,
        n_buckets=int(rng.integers(1, 9)),
    ).to_pandas()
    ref = con.execute(
        "WITH raw AS (SELECT doc_id, "
        "unnest(regexp_extract_all(coalesce(text, ''), '\\S+')) AS tok "
        "FROM documents), "
        "toks AS (SELECT DISTINCT doc_id, tok FROM raw), "
        "df AS (SELECT tok, count(*) AS df FROM toks GROUP BY tok), "
        "r AS (SELECT tok, doc_id, row_number() OVER "
        "(PARTITION BY tok ORDER BY doc_id) AS rn FROM toks) "
        "SELECT d.tok, CAST(d.df AS BIGINT) AS df, "
        "string_agg(CAST(r.doc_id AS VARCHAR), ',' ORDER BY r.doc_id) "
        "AS posting FROM df d JOIN r USING (tok) "
        f"WHERE r.rn <= {k} AND d.df BETWEEN {min_df} AND {max_df} "
        "GROUP BY d.tok, d.df"
    ).fetchdf()
    check("postings", seed, mine, ref, ["tok"], ["df", "posting"])

    terms = tuple(rng.choice(vocab, 3, replace=False)) + ("absent!",)
    mine = bm25_keyword(dds(), terms).to_pandas()
    sql = bm25_oracle_sql(terms).replace(
        "regexp_extract_all(text",
        "regexp_extract_all(coalesce(text, '')",
    )
    ref = con.execute(sql).fetchdf()
    # exact bitwise equality for the IEEE-mirrored score column, not
    # the check() tolerance: compare the raw bit patterns as integers
    mine["score"] = mine["score"].to_numpy().view(np.int64)
    ref["score"] = ref["score"].to_numpy().view(np.int64)
    check(
        "bm25", seed, mine, ref,
        ["doc_id"], ["n_hits", "dl", "score"],
    )

    from console_log_parser_ray.stages.search import hash_embed

    hd = int(rng.integers(4, 40))
    mine = hash_embed(dds(), dim=hd).to_pandas()
    ref = con.execute(
        "WITH raw AS (SELECT doc_id, "
        "unnest(regexp_extract_all(coalesce(text, ''), '\\S+')) AS tok "
        "FROM documents), "
        "m AS (SELECT doc_id, "
        f"('0x' || substr(md5(tok), 1, 8))::BIGINT % {hd} AS dim, "
        "CASE WHEN ('0x' || substr(md5(tok), 9, 1))::BIGINT < 8 "
        "THEN 1 ELSE -1 END AS s FROM raw) "
        "SELECT doc_id, dim, CAST(sum(s) AS BIGINT) AS weight "
        "FROM m GROUP BY doc_id, dim HAVING sum(s) <> 0"
    ).fetchdf()
    check(
        "hash_embed", seed, mine, ref,
        ["doc_id", "dim"], ["weight"],
    )

    from console_log_parser_ray.stages.textan import bpe_pairs

    bk = int(rng.integers(5, 40))
    mine = pd.DataFrame(
        [
            (r["pair"], r["n"])
            for r in bpe_pairs(dds(), k=bk).take_all()
        ],
        columns=["pair", "n"],
    )
    ref = con.execute(
        "WITH toks AS (SELECT "
        "unnest(regexp_extract_all(coalesce(text, ''), '\\S+')) "
        "AS tok FROM documents), "
        "idx AS (SELECT tok, "
        "unnest(generate_series(1, length(tok) - 1)) AS i FROM toks), "
        "p AS (SELECT substr(tok, CAST(i AS INTEGER), 2) AS pair "
        "FROM idx), "
        "c AS (SELECT pair, count(*) AS n FROM p GROUP BY pair) "
        "SELECT pair, CAST(n AS BIGINT) AS n FROM c "
        f"ORDER BY n DESC, pair LIMIT {bk}"
    ).fetchdf()
    check("bpe_pairs", seed, mine, ref, ["pair"], ["n"])

    budget = int(rng.integers(30, 400))
    mine = token_budget(
        dds(), budget=budget, n_buckets=int(rng.integers(1, 9))
    ).to_pandas()
    ref = con.execute(
        "WITH t AS (SELECT doc_id, lang, "
        "len(regexp_extract_all(coalesce(text, ''), '\\S+')) "
        "AS n_tokens, "
        "((doc_id & 2147483647) * 2654435761) % 4294967296 AS h "
        "FROM documents), "
        "c AS (SELECT doc_id, lang, n_tokens, "
        "sum(n_tokens) OVER (PARTITION BY lang ORDER BY h, doc_id) "
        "AS cum FROM t) "
        "SELECT doc_id, lang, CAST(n_tokens AS BIGINT) AS n_tokens, "
        f"CAST(cum AS BIGINT) AS cum_tokens FROM c WHERE cum <= {budget}"
    ).fetchdf()
    check(
        "token_budget", seed, mine, ref,
        ["doc_id"], ["lang", "n_tokens", "cum_tokens"],
    )


def relational_family(seed):
    """Joins, interval join, heavy hitters, quantiles, pivot and
    hopping windows on random skewed tables."""
    from console_log_parser_ray.stages.events import (
        group_quantiles,
        hopping_window_agg,
        pivot_counts,
    )
    from console_log_parser_ray.stages.relational import (
        hash_join,
        range_count_join,
    )
    from console_log_parser_ray.stages.sketch import heavy_hitters

    rng = np.random.default_rng(seed)
    n, n_users = 3000, 60
    # Zipf-ish skew + one planted hot user for the heavy-hitter bound
    uid = rng.zipf(1.4, n).astype(np.int64) % n_users + 1
    uid[rng.integers(0, n, n // 10)] = 7
    ev = pa.table(
        {
            "event_id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "user_id": pa.array(uid),
            "ts": pa.array(
                rng.integers(0, 40, n).astype(np.int64) * 400_000_000_000,
                pa.timestamp("us"),
            ),
            "event_type": pa.array(
                rng.choice(
                    ["click", "error", "purchase", "signup", "view"], n
                )
            ),
            "value": pa.array(
                np.floor(rng.uniform(-50, 50, n) * 100) / 100.0,
                pa.float64(),
            ),
        }
    )
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(1, 801, dtype=np.int64)),
            "o_custkey": pa.array(
                rng.integers(1, n_users + 21, 800).astype(np.int64)
            ),
            "o_orderdate": pa.array(
                rng.integers(0, 40, 800).astype(np.int64) * 400_000_000_000,
                pa.timestamp("us"),
            ),
        }
    )
    cust = pa.table(
        {
            "c_custkey": pa.array(
                np.arange(1, n_users + 31, dtype=np.int64)
            ),
            "c_nationkey": pa.array(
                rng.integers(0, 25, n_users + 30).astype(np.int64)
            ),
        }
    )
    con = duckdb.connect()
    con.register("events", ev)
    con.register("orders", orders)
    con.register("customer", cust)
    cds = lambda: ray.data.from_arrow(cust).repartition(5)  # noqa: E731
    ods = lambda: ray.data.from_arrow(orders).repartition(5)  # noqa: E731
    eds = lambda: ray.data.from_arrow(ev).repartition(7)  # noqa: E731

    for how, sql in [
        (
            "inner",
            "SELECT c.c_custkey, c.c_nationkey, o.o_orderkey, "
            "o.o_orderdate FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey",
        ),
        (
            "left",
            "SELECT c.c_custkey, c.c_nationkey, o.o_orderkey, "
            "o.o_orderdate FROM customer c "
            "LEFT JOIN orders o ON c.c_custkey = o.o_custkey",
        ),
    ]:
        mine = hash_join(
            cds(), ods(), on="c_custkey", right_on="o_custkey",
            how=how, n_buckets=16,
        ).to_pandas()
        ref = con.execute(sql).fetchdf()
        check(
            f"hash_join_{how}", seed, mine, ref,
            ["c_custkey", "o_orderkey"],
            ["c_nationkey", "o_orderdate"],
        )

    for how, pred in [("semi", "EXISTS"), ("anti", "NOT EXISTS")]:
        mine = hash_join(
            cds(), ods(), on="c_custkey", right_on="o_custkey",
            how=how, n_buckets=16,
        ).to_pandas()
        ref = con.execute(
            "SELECT c_custkey, c_nationkey FROM customer c "
            f"WHERE {pred} (SELECT 1 FROM orders "
            "WHERE o_custkey = c.c_custkey)"
        ).fetchdf()
        check(
            f"hash_join_{how}", seed, mine, ref,
            ["c_custkey"], ["c_nationkey"],
        )

    week_us = 7 * 86400 * 1_000_000

    def add_end(b):
        import pyarrow.compute as pc

        start = b.column("o_orderdate").cast(pa.int64())
        return b.append_column(
            "o_end", pc.add(start, pa.scalar(week_us, pa.int64()))
        )

    mine = range_count_join(
        ods().map_batches(add_end, batch_format="pyarrow"),
        eds().select_columns(["user_id", "ts"]),
        on="o_custkey",
        right_on="user_id",
        start_col="o_orderdate",
        end_col="o_end",
        ts_col="ts",
        keep_cols=["o_orderkey"],
        n_buckets=16,
    ).to_pandas()
    ref = con.execute(
        "SELECT o.o_orderkey, CAST(count(e.user_id) AS BIGINT) "
        "AS n_events FROM orders o LEFT JOIN events e "
        "ON e.user_id = o.o_custkey "
        "AND e.ts >= o.o_orderdate "
        "AND e.ts < o.o_orderdate + INTERVAL 7 DAY "
        "GROUP BY o.o_orderkey"
    ).fetchdf()
    check(
        "range_count_join", seed, mine, ref, ["o_orderkey"], ["n_events"]
    )

    k = 20
    mine = heavy_hitters(
        eds().select_columns(["user_id"]), "user_id", k=k
    ).to_pandas()
    ref = con.execute(
        "SELECT user_id, count(*) AS n FROM events GROUP BY user_id "
        f"HAVING count(*) * {k} > (SELECT count(*) FROM events)"
    ).fetchdf()
    if len(ref) == 0:
        raise RuntimeError("heavy-hitter oracle empty; adjust skew")
    check("heavy_hitters", seed, mine, ref, ["user_id"], ["n"])

    mine = group_quantiles(
        eds().select_columns(["event_type", "value"]),
        "event_type",
        "value",
        qs=(0.5, 0.95),
    ).to_pandas()
    ref = con.execute(
        "SELECT event_type, "
        "percentile_disc(0.5) WITHIN GROUP (ORDER BY value) AS p50, "
        "percentile_disc(0.95) WITHIN GROUP (ORDER BY value) AS p95 "
        "FROM events GROUP BY event_type"
    ).fetchdf()
    check(
        "group_quantiles", seed, mine, ref, ["event_type"], ["p50", "p95"]
    )

    mine = pivot_counts(
        eds().select_columns(["user_id", "event_type"]),
        "user_id",
        "event_type",
        categories=("click", "error", "purchase", "signup", "view"),
    ).to_pandas()
    ref = con.execute(
        "SELECT user_id, "
        "count(*) FILTER (WHERE event_type = 'click') AS n_click, "
        "count(*) FILTER (WHERE event_type = 'error') AS n_error, "
        "count(*) FILTER (WHERE event_type = 'purchase') AS n_purchase, "
        "count(*) FILTER (WHERE event_type = 'signup') AS n_signup, "
        "count(*) FILTER (WHERE event_type = 'view') AS n_view "
        "FROM events GROUP BY user_id"
    ).fetchdf()
    check(
        "pivot_counts", seed, mine, ref,
        ["user_id"],
        ["n_click", "n_error", "n_purchase", "n_signup", "n_view"],
    )

    mine = hopping_window_agg(
        eds().select_columns(["event_type", "ts", "value"])
    ).to_pandas()
    ref = con.execute(
        "WITH x AS (SELECT event_type, value, "
        "unnest(generate_series(epoch_us(ts) // 900000000 - 3, "
        'epoch_us(ts) // 900000000)) AS "window" FROM events) '
        'SELECT event_type, "window", count(*) AS n, '
        "max(value) AS value_max FROM x GROUP BY 1, 2"
    ).fetchdf()
    check(
        "hopping_window", seed, mine, ref,
        ["event_type", "window"], ["n", "value_max"],
    )


def dedup_family(seed):
    """MinHash planted-pair recall, SimHash banding vs brute-force
    hamming, embedding near-dups vs a numpy all-pairs reference, and
    exact kNN vs numpy -- seeded fresh each run."""
    from console_log_parser_ray.stages.dedup import (
        _simhash64,
        embedding_near_dups,
        minhash_near_dups,
        ngram_jaccard,
        simhash_near_dups,
    )
    from console_log_parser_ray.stages.similarity import knn_bruteforce

    rng = np.random.default_rng(seed)

    # --- minhash: planted ~0.8-jaccard pairs must be recovered
    vocab = [f"w{i}" for i in range(5000)]
    texts, ids = [], []
    for i in range(60):
        toks = [vocab[x] for x in rng.integers(0, len(vocab), 80)]
        texts.append(" ".join(toks))
        ids.append(i)
        toks2 = [t for j, t in enumerate(toks) if j % 20 != 0]
        texts.append(" ".join(toks2))
        ids.append(i + 1000)
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    got = {
        (r["doc_a"], r["doc_b"])
        for r in minhash_near_dups(
            ray.data.from_arrow(tbl), threshold=0.5
        ).take_all()
    }
    planted = {(i, i + 1000) for i in range(60)}
    textmap = dict(zip(ids, texts))
    recall = len(got & planted) / len(planted)
    fps = [
        (a, b)
        for a, b in got
        if ngram_jaccard(textmap[a], textmap[b]) < 0.5
    ]
    if recall < 0.95 or fps:
        failures.append(("minhash", seed))
        print(f"FAIL minhash seed={seed} recall={recall} fps={fps[:3]}",
              flush=True)

    # --- simhash banding == brute-force hamming<=3 (full recall is a
    # pigeonhole guarantee, not probabilistic)
    svocab = np.array([f"t{i}" for i in range(40)])
    stexts = [
        " ".join(rng.choice(svocab, 30)) for _ in range(150)
    ]
    # planted low-hamming neighbors: copy with one token changed
    for i in range(0, 150, 10):
        t = stexts[i].split()
        t[rng.integers(0, 30)] = "t0"
        stexts[min(i + 1, 149)] = " ".join(t)
    st = pa.table(
        {
            "doc_id": pa.array(np.arange(150, dtype=np.int64)),
            "text": pa.array(stexts),
        }
    )
    sigs = [_simhash64(t) for t in stexts]
    brute = set()
    for i in range(150):
        for j in range(i + 1, 150):
            if bin(sigs[i] ^ sigs[j]).count("1") <= 3:
                brute.add((i, j))
    mine = {
        (r["doc_a"], r["doc_b"])
        for r in simhash_near_dups(
            ray.data.from_arrow(st), max_hamming=3
        ).take_all()
    }
    if mine != brute:
        failures.append(("simhash_pairs", seed))
        print(f"FAIL simhash_pairs seed={seed}", flush=True)

    # --- embedding near-dups: brute == numpy all-pairs; IVF subset
    centers = rng.normal(size=(6, 12)) * 4
    base = np.concatenate(
        [c + rng.normal(size=(40, 12)) * 0.5 for c in centers]
    )
    noise = rng.normal(size=base.shape)
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    dup = base + 0.02 * np.linalg.norm(base, axis=1, keepdims=True) * noise
    vids = list(range(len(base))) + [i + 10_000 for i in range(len(dup))]
    mat = np.concatenate([base, dup])
    vt = pa.table(
        {
            "vec_id": pa.array(vids, pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in mat]),
        }
    )
    nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = nm @ nm.T
    ref_pairs = set()
    thr = 0.99
    for i in range(len(vids)):
        for j in range(i + 1, len(vids)):
            if sims[i, j] >= thr:
                a, b = sorted((vids[i], vids[j]))
                ref_pairs.add((a, b))
    ds = ray.data.from_arrow(vt)
    brute_pairs = {
        (r["doc_a"], r["doc_b"])
        for r in embedding_near_dups(
            ds, threshold=thr, method="brute"
        ).take_all()
    }
    if brute_pairs != ref_pairs or not ref_pairs:
        failures.append(("embed_brute", seed))
        print(f"FAIL embed_brute seed={seed}", flush=True)
    ivf = {
        (r["doc_a"], r["doc_b"])
        for r in embedding_near_dups(
            ds, threshold=thr, n_clusters=6, n_probe=2
        ).take_all()
    }
    if not (ivf <= brute_pairs) or (
        brute_pairs and len(ivf & brute_pairs) / len(brute_pairs) < 0.98
    ):
        failures.append(("embed_ivf", seed))
        print(f"FAIL embed_ivf seed={seed}", flush=True)

    # --- deterministic Lloyd's k-means vs a numpy reference (same
    # seeding rule: vectors of the k smallest ids; same tie/empty
    # semantics)
    from console_log_parser_ray.stages.similarity import kmeans_clusters

    kvecs = rng.normal(size=(120, 8)).astype(np.float64)
    kids = rng.permutation(10_000)[:120].astype(np.int64)
    ktbl = pa.table(
        {
            "vec_id": pa.array(kids),
            "embedding": pa.array([list(map(float, v)) for v in kvecs]),
        }
    )
    kk, n_assign = 5, 2
    mine_map = {
        r["vec_id"]: r["cluster"]
        for r in kmeans_clusters(
            ray.data.from_arrow(ktbl).repartition(7), k=kk,
            n_assign=n_assign,
        ).take_all()
    }
    order = np.argsort(kids)
    cents = kvecs[order[:kk]].copy()
    assign = None
    for it in range(n_assign):
        d2 = ((kvecs[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        if it < n_assign - 1:
            for j in range(kk):
                m = assign == j
                if m.any():
                    cents[j] = kvecs[m].mean(axis=0)
    ref_map = dict(zip(kids.tolist(), assign.tolist()))
    if mine_map != ref_map:
        failures.append(("kmeans", seed))
        print(f"FAIL kmeans seed={seed}", flush=True)

    # --- SemDeDup vs the same numpy reference + per-cluster cosine
    # prune (planted copies guarantee removals; random normals in
    # 8-dim also produce organic high-cosine pairs at tau=0.8)
    from console_log_parser_ray.stages.similarity import semdedup

    cp = kids % 3 == 0
    svecs = np.concatenate([kvecs, kvecs[cp]])
    sids = np.concatenate([kids, kids[cp] + 100_000])
    stbl = pa.table(
        {
            "vec_id": pa.array(sids),
            "embedding": pa.array([list(map(float, v)) for v in svecs]),
        }
    )
    tau = 0.8
    mine_sd = {
        r["vec_id"]: (r["cluster"], r["keep"])
        for r in semdedup(
            ray.data.from_arrow(stbl).repartition(7), k=kk,
            n_assign=n_assign, tau=tau,
        ).take_all()
    }
    order = np.argsort(sids)
    cents = svecs[order[:kk]].copy()
    assign = None
    for it in range(n_assign):
        d2 = ((svecs[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        if it < n_assign - 1:
            for j in range(kk):
                m = assign == j
                if m.any():
                    cents[j] = svecs[m].mean(axis=0)
    norm = np.linalg.norm(svecs, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    sn = svecs / norm
    ref_sd = {}
    for j in range(kk):
        m = np.flatnonzero(assign == j)
        m = m[np.argsort(sids[m])]
        sims = sn[m] @ sn[m].T
        removed = np.tril(sims >= tau, -1).any(axis=1)
        for i, r in zip(m, removed):
            ref_sd[int(sids[i])] = (int(assign[i]), not bool(r))
    if mine_sd != ref_sd:
        failures.append(("semdedup", seed))
        print(f"FAIL semdedup seed={seed}", flush=True)

    # --- exact kNN vs numpy
    kmat = rng.normal(size=(200, 16)).astype(np.float32)
    kt = pa.table(
        {
            "vec_id": pa.array(range(200), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in kmat]),
        }
    )
    q_ids = [0, 1, 2]
    res = knn_bruteforce(
        ray.data.from_arrow(kt), (q_ids, kmat[:3].tolist()), k=5
    ).take_all()
    qn = kmat[:3] / np.linalg.norm(kmat[:3], axis=1, keepdims=True)
    mn = kmat / np.linalg.norm(kmat, axis=1, keepdims=True)
    ksims = qn @ mn.T
    for qi in q_ids:
        want = set(np.argsort(-ksims[qi])[:5].tolist())
        got = {r["vec_id"] for r in res if r["query_id"] == qi}
        if got != want:
            failures.append(("knn", seed))
            print(f"FAIL knn seed={seed} q={qi}", flush=True)
            break


def transcript_family(seed):
    """Three-way agreement on fresh synthetic conversations: generator
    ground truth == in-process reference oracle == engine scan, per
    turn (clean text, role, command, cmd_count, in_vim).  The
    transcript-domain analog of the DuckDB sweeps; needs
    /root/reference on sys.path (skipped with a notice if absent)."""
    try:
        from refbridge import run_reference
    except ImportError:
        print("transcript family skipped: /root/reference not available")
        return
    from console_log_parser_ray.sources.synth import gen_conversation
    from console_log_parser_ray.stages.scan import (
        _fast_hints,
        scan_conversation,
    )

    for ci in range(12):
        turns = gen_conversation(ci, seed=seed, mean_turns=40)
        lines = [(t.text + "\n").encode() for t in turns]
        oracle = run_reference(lines)
        texts = [t.text for t in turns]
        hints = _fast_hints(pa.chunked_array([pa.array(texts)]))
        cols, _ = scan_conversation(
            "c", texts, list(range(len(texts))), [0] * len(texts),
            hints=hints,
        )
        for i, t in enumerate(turns):
            if not (
                t.clean == oracle.per_line[i]
                and cols["clean_text"][i] == t.clean
                and cols["role"][i] == t.role
                and cols["cmd_count"][i] == t.cmd
                and cols["in_vim"][i] == t.in_vim
                and cols["command"][i] == t.command
            ):
                failures.append(("transcript", seed))
                print(
                    f"FAIL transcript seed={seed} conv={ci} turn={i}",
                    flush=True,
                )
                return


def misc_family(seed):
    """The projection / export / sampling shapes: JSON field
    extraction, ordered collect_list, context-window chunking,
    sequence packing, domain mixing, shard placement, deterministic
    sampling, groupby aggregates, tumbling windows, and per-user gap
    quantization."""
    from console_log_parser_ray.sources.asciinema import quantize_gaps
    from console_log_parser_ray.stages.events import (
        deterministic_sample,
        extract_json_int,
        tumbling_window_agg,
        user_history,
    )
    from console_log_parser_ray.stages.export import (
        mix_domains,
        pack_sequences,
        shard_assignments,
    )
    from console_log_parser_ray.stages.textan import chunk_documents
    from ray.data.aggregate import Count, Max, Min

    rng = np.random.default_rng(seed)
    n, n_users = 2500, 41
    kvals = rng.integers(-500, 500, n)
    props = [
        (
            '{"k": %d, "x": "y"}' % kvals[i]
            if i % 3 != 0
            else '{"x": "y"}'
        )
        for i in range(n)
    ]
    ev = pa.table(
        {
            "event_id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "user_id": pa.array(
                rng.integers(1, n_users + 1, n).astype(np.int64)
            ),
            "ts": pa.array(
                rng.integers(0, 5000, n).astype(np.int64) * 173_000,
                pa.timestamp("us"),
            ),
            "event_type": pa.array(
                rng.choice(
                    ["click", "error", "purchase", "signup", "view"], n
                )
            ),
            "value": pa.array(
                np.floor(rng.uniform(-50, 50, n) * 100) / 100.0,
                pa.float64(),
            ),
            "props": pa.array(props),
        }
    )
    vocab = np.array(["w%d" % i for i in range(30)])
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 90)))
        for _ in range(200)
    ]
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(1, 201, dtype=np.int64)),
            "text": pa.array(texts),
            "source": pa.array(
                ["src%d" % i for i in rng.integers(0, 8, 200)]
            ),
        }
    )
    con = duckdb.connect()
    con.register("events", ev)
    con.register("documents", docs)
    eds = lambda: ray.data.from_arrow(ev).repartition(7)  # noqa: E731
    dds = lambda: ray.data.from_arrow(docs).repartition(7)  # noqa: E731

    mine = extract_json_int(
        eds().select_columns(["event_id", "props"]), col="props", key="k"
    ).to_pandas()
    ref = con.execute(
        "SELECT event_id, TRY_CAST(NULLIF(regexp_extract(props, "
        "'\"k\":\\s*(-?\\d+)', 1), '') AS BIGINT) AS k FROM events"
    ).fetchdf()
    check("props_extract", seed, mine, ref, ["event_id"], ["k"])

    mine = user_history(
        eds().select_columns(
            ["event_id", "user_id", "ts", "event_type"]
        ),
        k=3,
    ).to_pandas()
    ref = con.execute(
        "SELECT user_id, array_to_string("
        "list(event_type ORDER BY ts, event_id)[1:3], ',') "
        "AS first_k, count(*) AS n_events "
        "FROM events GROUP BY user_id"
    ).fetchdf()
    check(
        "user_history", seed, mine, ref,
        ["user_id"], ["first_k", "n_events"],
    )

    mine = chunk_documents(
        dds().select_columns(["doc_id", "text"]), size=32, overlap=8
    ).to_pandas()
    ref = con.execute(
        "WITH t AS (SELECT doc_id, "
        "  regexp_extract_all(text, '\\S+') AS tk FROM documents), "
        "s AS (SELECT doc_id, tk, len(tk) AS n FROM t "
        "  WHERE len(tk) > 0), "
        "c AS (SELECT doc_id, tk, n, "
        "  unnest(generate_series(0, (n-1)//24)) AS chunk_idx "
        "  FROM s) "
        "SELECT doc_id, chunk_idx, "
        "len(tk[chunk_idx*24+1 : chunk_idx*24+32]) AS n_chunk_tokens, "
        "array_to_string(tk[chunk_idx*24+1 : chunk_idx*24+32], ' ') "
        "  AS chunk_text FROM c"
    ).fetchdf()
    check(
        "chunk_docs", seed, mine, ref,
        ["doc_id", "chunk_idx"], ["n_chunk_tokens", "chunk_text"],
    )

    mine = pack_sequences(
        dds().select_columns(["doc_id", "text"]), budget=512, n_shards=16
    ).to_pandas()
    ref = con.execute(
        "WITH t AS (SELECT doc_id, "
        "  ((doc_id & 2147483647) * 2654435761) "
        "  % 4294967296 % 16 AS shard, "
        "  len(regexp_extract_all(text, '\\S+')) AS n_tokens "
        "  FROM documents), "
        "c AS (SELECT doc_id, shard, n_tokens, "
        "  sum(n_tokens) OVER (PARTITION BY shard ORDER BY doc_id "
        "  ROWS UNBOUNDED PRECEDING) AS cum FROM t) "
        "SELECT doc_id, shard, n_tokens, "
        "CAST((cum - n_tokens) // 512 AS BIGINT) AS pack_id FROM c"
    ).fetchdf()
    check(
        "pack_sequences", seed, mine, ref,
        ["doc_id"], ["shard", "n_tokens", "pack_id"],
    )

    mine = mix_domains(
        dds().select_columns(["doc_id", "source"]),
        weight_fn=lambda s: int(s[3:]) % 4 + 1,
    ).to_pandas()
    ref = con.execute(
        "WITH b AS (SELECT source, count(*) AS n, "
        "  CAST(source[4:] AS BIGINT) % 4 + 1 AS wt "
        "  FROM documents GROUP BY source), "
        "m AS (SELECT n AS mn, wt AS mw FROM b "
        "  ORDER BY n * 1.0 / wt, source LIMIT 1), "
        "th AS (SELECT source, (4294967296 * (SELECT mn FROM m) "
        "  * wt) // ((SELECT mw FROM m) * n) AS thr FROM b) "
        "SELECT d.doc_id, d.source FROM documents d "
        "JOIN th USING (source) "
        "WHERE ((doc_id & 2147483647) * 2654435761) "
        "% 4294967296 < thr"
    ).fetchdf()
    check("mix_domains", seed, mine, ref, ["doc_id"], ["source"])

    mine = shard_assignments(
        dds().select_columns(["doc_id"]), n_shards=16
    ).to_pandas()
    ref = con.execute(
        "SELECT doc_id, ((doc_id & 2147483647) * 2654435761) "
        "% 4294967296 % 16 AS shard FROM documents"
    ).fetchdf()
    check("shard_assign", seed, mine, ref, ["doc_id"], ["shard"])

    mine = deterministic_sample(dds(), rate_pct=10).select_columns(
        ["doc_id"]
    ).to_pandas()
    ref = con.execute(
        "SELECT doc_id FROM documents "
        "WHERE ((doc_id & 2147483647) * 2654435761) % 4294967296 "
        "< 429496729"
    ).fetchdf()
    check("sample_docs", seed, mine, ref, ["doc_id"], [])

    mine = (
        eds()
        .groupby("event_type")
        .aggregate(Count(), Min("value"), Max("value"))
        .rename_columns(
            {"count()": "n", "min(value)": "vmin", "max(value)": "vmax"}
        )
        .to_pandas()
    )
    ref = con.execute(
        "SELECT event_type, count(*) AS n, min(value) AS vmin, "
        "max(value) AS vmax FROM events GROUP BY event_type"
    ).fetchdf()
    check(
        "events_agg", seed, mine, ref,
        ["event_type"], ["n", "vmin", "vmax"],
    )

    mine = tumbling_window_agg(eds()).to_pandas()
    ref = con.execute(
        "SELECT event_type, epoch_us(ts) // 3600000000 AS window, "
        "count(*) AS n, max(value) AS value_max "
        "FROM events GROUP BY 1, 2"
    ).fetchdf()
    check(
        "tumbling_window", seed, mine, ref,
        ["event_type", "window"], ["n", "value_max"],
    )

    # per-user gap quantization (reference frame-gap table semantics)
    def per_user(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(
            [("ts", "ascending"), ("event_id", "ascending")]
        )
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        if len(ts) < 2:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "gap_q": pa.array([], pa.float64()),
                }
            )
        gaps = np.diff(ts) / 1e6
        q = quantize_gaps(gaps)
        return pa.table(
            {
                "event_id": tbl.column("event_id").slice(1),
                "gap_q": pa.array(q, pa.float64()),
            }
        )

    mine = (
        eds()
        .select_columns(["event_id", "user_id", "ts"])
        .groupby("user_id")
        .map_groups(per_user, batch_format="pyarrow")
        .to_pandas()
    )
    ref = con.execute(
        "WITH g AS (SELECT event_id, "
        "(epoch_us(ts) - lag(epoch_us(ts)) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id)) / 1000000.0 "
        "AS gap FROM events) "
        "SELECT event_id, CAST(CASE "
        "WHEN gap >= 4 THEN 4 WHEN gap >= 2 THEN 2 "
        "WHEN gap >= 1 THEN 1 WHEN gap >= 0.5 THEN 0.5 "
        "WHEN gap >= 0.3 THEN 0.3 WHEN gap >= 0.18 THEN 0.18 "
        "WHEN gap >= 0.1 THEN 0.1 WHEN gap >= 0.03 THEN 0.03 "
        "ELSE gap END AS DOUBLE) AS gap_q "
        "FROM g WHERE gap IS NOT NULL"
    ).fetchdf()
    check("quantize_gaps", seed, mine, ref, ["event_id"], ["gap_q"])


def olap_family(seed):
    """ROLLUP subtotals, percent_rank/cume_dist (both cardinality
    paths), per-user gap-fill and last-writer-wins compaction on
    random skewed tables -- heavy ties, singleton groups, ts
    collisions."""
    from console_log_parser_ray.stages.events import (
        gapfill_user_windows,
        latest_state,
    )
    from console_log_parser_ray.stages.relational import (
        rank_fractions_per_group,
        rollup_agg,
    )

    rng = np.random.default_rng(seed + 13)
    n = 2500
    tbl = pa.table(
        {
            "a": pa.array(rng.choice(["x", "y", "z"], n)),
            "b": pa.array(rng.choice(["p", "q", "r", "s"], n)),
            "v": pa.array(
                np.floor(rng.uniform(-40, 40, n) * 100) / 100.0,
                pa.float64(),
            ),
        }
    )
    con = duckdb.connect()
    con.register("t", tbl)
    mine = rollup_agg(
        ray.data.from_arrow(tbl).repartition(6), ["a", "b"], "v"
    ).to_pandas()
    ref = con.execute(
        "SELECT a, b, CAST(count(*) AS BIGINT) AS n_rows, "
        "CAST(sum(CAST(floor(v * 100) AS BIGINT)) AS BIGINT) "
        "AS sum_cents FROM t GROUP BY ROLLUP(a, b)"
    ).fetchdf()
    # NULL subtotal keys: stringify so the sort key is total
    mine[["a", "b"]] = mine[["a", "b"]].astype(str)
    ref[["a", "b"]] = ref[["a", "b"]].astype(str)
    check("rollup", seed, mine, ref, ["a", "b"], ["n_rows", "sum_cents"])

    # rank fractions: small vocab of values -> massive ties; one
    # singleton group planted (percent_rank 0.0 / cume_dist 1.0)
    m = 1200
    frame = pd.DataFrame(
        {
            "doc_id": np.arange(1, m + 1, dtype=np.int64),
            "g": rng.choice(["de", "en", "fr", "ja"], m),
            "v": rng.integers(0, 25, m).astype(np.int64),
        }
    )
    frame.loc[m - 1, "g"] = "singleton"
    ft = pa.Table.from_pandas(frame, preserve_index=False)
    con.register("docs", ft)
    ref = con.execute(
        "SELECT doc_id, g, v, percent_rank() OVER w AS pct_rank, "
        "cume_dist() OVER w AS cume_dist FROM docs "
        "WINDOW w AS (PARTITION BY g ORDER BY v)"
    ).fetchdf()
    for label, cap in (("small", 10 ** 6), ("big", 1)):
        mine = rank_fractions_per_group(
            ray.data.from_arrow(ft).repartition(5),
            "g",
            "v",
            max_distinct=cap,
            n_buckets=16,
        ).to_pandas()
        check(
            f"rank_fractions_{label}", seed, mine, ref,
            ["doc_id"], ["g", "v", "pct_rank", "cume_dist"],
        )

    # gap-fill: clustered events leave real gaps; window ids from a
    # coarse 400s bucket over a small ts range
    k = 1800
    ev = pa.table(
        {
            "user_id": pa.array(
                rng.integers(1, 40, k).astype(np.int64)
            ),
            "ts": pa.array(
                (rng.zipf(1.3, k).astype(np.int64) % 90)
                * 400_000_000_000
                + rng.integers(0, 1000, k).astype(np.int64),
                pa.timestamp("us"),
            ),
        }
    )
    con.register("events", ev)
    mine = gapfill_user_windows(
        ray.data.from_arrow(ev).repartition(7),
        window_us=3_600_000_000,
        n_buckets=16,
    ).to_pandas()
    ref = con.execute(
        "WITH w AS (SELECT user_id, epoch_us(ts) // 3600000000 AS "
        "window_id FROM events), "
        "c AS (SELECT user_id, window_id, count(*) AS n FROM w "
        "GROUP BY 1, 2), "
        "b AS (SELECT user_id, min(window_id) AS lo, max(window_id) "
        "AS hi FROM c GROUP BY 1), "
        "g AS (SELECT user_id, unnest(generate_series(lo, hi)) AS "
        "window_id FROM b) "
        "SELECT g.user_id, g.window_id, CAST(coalesce(c.n, 0) AS "
        "BIGINT) AS n_events FROM g LEFT JOIN c USING "
        "(user_id, window_id)"
    ).fetchdf()
    check(
        "gapfill", seed, mine, ref,
        ["user_id", "window_id"], ["n_events"],
    )

    # latest_state: few keys, many writers, planted exact (ts, key)
    # collisions so the id tie-break decides
    j = 2000
    ts = rng.integers(0, 50, j).astype(np.int64) * 1_000_000
    st = pa.table(
        {
            "user_id": pa.array(rng.integers(1, 12, j).astype(np.int64)),
            "event_type": pa.array(rng.choice(["c", "v", "p"], j)),
            "event_id": pa.array(
                rng.permutation(np.arange(1, j + 1)).astype(np.int64)
            ),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(
                np.floor(rng.uniform(0, 9, j) * 100) / 100.0,
                pa.float64(),
            ),
        }
    )
    con.register("st", st)
    mine = latest_state(
        ray.data.from_arrow(st).repartition(8), n_buckets=16
    ).to_pandas()
    ref = con.execute(
        "SELECT user_id, event_type, event_id, ts, value FROM st "
        "QUALIFY row_number() OVER (PARTITION BY user_id, event_type "
        "ORDER BY ts DESC, event_id DESC) = 1"
    ).fetchdf()
    check(
        "latest_state", seed, mine, ref,
        ["user_id", "event_type"], ["event_id", "ts", "value"],
    )


def cdc_fuzzy_family(seed):
    """Round-4 additions: SCD2 intervals (lead), event-time RANGE
    rolling sums, FULL OUTER join (nulls on both sides), FastSS ED<=1
    fuzzy self-join, co-occurrence top-k, and table profiling --
    random skewed tables with ts collisions, null keys and tiny
    alphabets."""
    from console_log_parser_ray.stages.dedup import fuzzy_pairs_ed1
    from console_log_parser_ray.stages.events import (
        rolling_time_sum,
        scd2_intervals,
    )
    from console_log_parser_ray.stages.profile import profile_table
    from console_log_parser_ray.stages.relational import hash_join
    from console_log_parser_ray.stages.textan import cooccur_topk

    rng = np.random.default_rng(seed + 29)
    n = 2000
    ev = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "user_id": pa.array(
                rng.integers(0, 25, n).astype(np.int64)
            ),
            "event_type": pa.array(rng.choice(["a", "b", "c"], n)),
            # coarse grid -> plenty of exact ts collisions (peers)
            "ts": pa.array(
                (rng.integers(0, 400, n) * 250).astype(np.int64),
                pa.timestamp("us"),
            ),
            "value": pa.array(
                rng.integers(0, 2000, n) / 100.0, pa.float64()
            ),
        }
    )
    con = duckdb.connect()
    con.register("ev", ev)
    eds = ray.data.from_arrow(ev).repartition(5)

    mine = scd2_intervals(eds, n_buckets=8).to_pandas()
    ref = con.execute(
        "SELECT user_id, event_type, event_id, ts AS valid_from, "
        "lead(ts) OVER (PARTITION BY user_id, event_type "
        "ORDER BY ts, event_id) AS valid_to FROM ev"
    ).fetchdf()
    check(
        "scd2_intervals", seed, mine, ref,
        ["event_id"], ["user_id", "event_type", "valid_from", "valid_to"],
    )

    for w in (1, 999, 100000):
        mine = rolling_time_sum(
            eds, window_us=w, n_buckets=8
        ).to_pandas()
        ref = con.execute(
            "SELECT event_id, user_id, ts, CAST(sum(CAST(floor(value "
            "* 100) AS BIGINT)) OVER (PARTITION BY user_id ORDER BY "
            f"ts RANGE BETWEEN {w} PRECEDING AND CURRENT ROW) AS "
            "BIGINT) AS win_cents FROM (SELECT event_id, user_id, "
            "epoch_us(ts) AS ts, value FROM ev)"
        ).fetchdf()
        mine["ts"] = mine["ts"].astype("int64")
        check(
            f"rolling_time_sum_w{w}", seed, mine, ref,
            ["event_id"], ["user_id", "ts", "win_cents"],
        )

    # FULL OUTER with null keys on both sides and partial overlap
    nl, nr = 600, 500
    lk = rng.integers(0, 120, nl).astype(np.float64)
    rk = rng.integers(60, 200, nr).astype(np.float64)
    lk[rng.random(nl) < 0.05] = np.nan
    rk[rng.random(nr) < 0.05] = np.nan
    left = pa.table(
        {
            "k": pa.array(
                [None if np.isnan(x) else int(x) for x in lk],
                pa.int64(),
            ),
            "lv": pa.array(np.arange(nl, dtype=np.int64)),
        }
    )
    right = pa.table(
        {
            "rk": pa.array(
                [None if np.isnan(x) else int(x) for x in rk],
                pa.int64(),
            ),
            "rv": pa.array(np.arange(nr, dtype=np.int64) + 10000),
        }
    )
    con.register("l", left)
    con.register("r", right)
    mine = hash_join(
        ray.data.from_arrow(left).repartition(4),
        ray.data.from_arrow(right).repartition(3),
        on="k",
        right_on="rk",
        how="outer",
        n_buckets=8,
    ).to_pandas()
    ref = con.execute(
        "SELECT coalesce(l.k, r.rk) AS k, l.lv, r.rv FROM l "
        "FULL OUTER JOIN r ON l.k = r.rk"
    ).fetchdf()
    check(
        "full_outer_join", seed, mine, ref,
        ["k", "lv", "rv"], ["k", "lv", "rv"],
    )

    # ED<=1 fuzzy join on a tiny alphabet (dense near-miss space)
    m = 300
    strs = [
        "".join(rng.choice(list("abc"), size=rng.integers(0, 5)))
        for _ in range(m)
    ]
    st = pa.table(
        {
            "doc_id": pa.array(np.arange(m, dtype=np.int64)),
            "text": pa.array(strs, pa.string()),
        }
    )
    con.register("s", st)
    mine = fuzzy_pairs_ed1(
        ray.data.from_arrow(st).repartition(4), n_buckets=8
    ).to_pandas()
    ref = con.execute(
        "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
        "CAST(levenshtein(a.text, b.text) AS BIGINT) AS dist "
        "FROM s a JOIN s b ON a.doc_id < b.doc_id "
        "WHERE levenshtein(a.text, b.text) <= 1"
    ).fetchdf()
    check(
        "fuzzy_pairs_ed1", seed, mine, ref,
        ["id_a", "id_b"], ["dist"],
    )

    # co-occurrence over a small vocab with boundary ties
    docs = [
        " ".join(rng.choice([f"t{i}" for i in range(18)],
                            size=rng.integers(0, 10)))
        for _ in range(250)
    ] + [""]
    dt = pa.table(
        {
            "doc_id": pa.array(
                np.arange(len(docs), dtype=np.int64)
            ),
            "text": pa.array(docs, pa.string()),
        }
    )
    con.register("documents", dt)
    mine = cooccur_topk(
        ray.data.from_arrow(dt).repartition(3),
        vocab_size=8,
        k=15,
        n_buckets=4,
    ).to_pandas()
    ref = con.execute(
        "WITH tk AS (SELECT doc_id, unnest(regexp_extract_all("
        "coalesce(text, ''), '\\S+')) AS t FROM documents), "
        "tok AS (SELECT DISTINCT doc_id, t FROM tk), "
        "df AS (SELECT t, count(*) AS df FROM tok GROUP BY t), "
        "vocab AS (SELECT t FROM df ORDER BY df DESC, t LIMIT 8), "
        "p AS (SELECT a.t AS token_a, b.t AS token_b, count(*) AS n "
        "FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND a.t < b.t "
        "WHERE a.t IN (SELECT t FROM vocab) AND b.t IN "
        "(SELECT t FROM vocab) GROUP BY 1, 2) "
        "SELECT token_a, token_b, CAST(n AS BIGINT) AS n_docs FROM p "
        "ORDER BY n_docs DESC, token_a, token_b LIMIT 15"
    ).fetchdf()
    # top-k is ordered on both sides; compare positionally
    mp = mine.reset_index(drop=True)
    rp = ref.reset_index(drop=True)
    ok = len(mp) == len(rp) and (
        len(mp) == 0 or mp.equals(rp.astype(mp.dtypes.to_dict()))
    )
    if not ok:
        failures.append(("cooccur_topk", seed))
        print(f"FAIL cooccur_topk seed={seed}", flush=True)

    # profile: mixed types, null stripes, an all-null column
    p = 800
    prof = pa.table(
        {
            "i": pa.array(
                [None if x < 0 else int(x)
                 for x in rng.integers(-2, 40, p)],
                pa.int64(),
            ),
            "s": pa.array(
                [None if x < 0 else f"v{int(x)}"
                 for x in rng.integers(-1, 12, p)],
                pa.string(),
            ),
            "f": pa.array(
                rng.integers(0, 60, p) / 8.0, pa.float64()
            ),
            "z": pa.array([None] * p, pa.float64()),
        }
    )
    con.register("pt", prof)
    mine = profile_table(
        ray.data.from_arrow(prof).repartition(5), n_buckets=4
    )
    ref = con.execute(
        " UNION ALL ".join(
            f"SELECT '{c}' AS col_name, CAST(count(*) AS BIGINT) AS "
            f"n_rows, CAST(count(*) - count({c}) AS BIGINT) AS "
            f"n_nulls, CAST(count(DISTINCT {c}) AS BIGINT) AS "
            f"n_distinct FROM pt"
            for c in ("i", "s", "f", "z")
        )
    ).fetchdf()
    check(
        "profile_table", seed, mine, ref,
        ["col_name"], ["n_rows", "n_nulls", "n_distinct"],
    )

    # per-group regression: exact moments + bit-exact IEEE finish
    from console_log_parser_ray.stages.export import weighted_sample
    from console_log_parser_ray.stages.events import throttle_events
    from console_log_parser_ray.stages.relational import (
        group_regression,
        snapshot_diff,
    )

    rt = pa.table(
        {
            "g": pa.array(rng.choice(["p", "q", "r"], 1500)),
            "x": pa.array(
                rng.integers(1, 20, 1500).astype(np.float64)
            ),
            "y": pa.array(
                rng.integers(0, 5000, 1500) / 100.0, pa.float64()
            ),
        }
    )
    con.register("rt", rt)
    mine = group_regression(
        ray.data.from_arrow(rt).repartition(5),
        group_col="g", x_col="x", y_col="y",
    ).to_pandas()
    slope_sql = (
        "(CAST(n_obs AS DOUBLE) * CAST(sxy AS DOUBLE) - "
        "CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE)) / "
        "(CAST(n_obs AS DOUBLE) * CAST(sxx AS DOUBLE) - "
        "CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))"
    )
    ref = con.execute(
        "WITH m AS (SELECT g, CAST(count(*) AS BIGINT) AS n_obs, "
        "CAST(sum(CAST(floor(x) AS BIGINT)) AS BIGINT) AS sx, "
        "CAST(sum(CAST(floor(y * 100) AS BIGINT)) AS BIGINT) AS sy, "
        "CAST(sum(CAST(floor(x) AS BIGINT) * CAST(floor(x) AS BIGINT)) "
        "AS BIGINT) AS sxx, "
        "CAST(sum(CAST(floor(x) AS BIGINT) * CAST(floor(y * 100) AS "
        "BIGINT)) AS BIGINT) AS sxy FROM rt GROUP BY 1), "
        f"m2 AS (SELECT *, {slope_sql} AS slope FROM m) "
        "SELECT g, n_obs, sx, sy, sxx, sxy, slope, "
        "(CAST(sy AS DOUBLE) - slope * CAST(sx AS DOUBLE)) / "
        "CAST(n_obs AS DOUBLE) AS intercept FROM m2"
    ).fetchdf()
    check(
        "group_regression", seed, mine, ref, ["g"],
        ["n_obs", "sx", "sy", "sxx", "sxy", "slope", "intercept"],
    )

    # snapshot diff: random overlap, null payload stripes on both
    # sides (engine equality is null-safe -> IS NOT DISTINCT FROM)
    ks = rng.permutation(400)
    ov = pa.table(
        {
            "k": pa.array(ks[:300].astype(np.int64)),
            "v": pa.array(
                [None if x < 0 else int(x)
                 for x in rng.integers(-2, 10, 300)],
                pa.int64(),
            ),
        }
    )
    nv = pa.table(
        {
            "k": pa.array(ks[100:].astype(np.int64)),
            "v": pa.array(
                [None if x < 0 else int(x)
                 for x in rng.integers(-2, 10, 300)],
                pa.int64(),
            ),
        }
    )
    con.register("oldsnap", ov)
    con.register("newsnap", nv)
    mine = snapshot_diff(
        ray.data.from_arrow(ov).repartition(4),
        ray.data.from_arrow(nv).repartition(3),
        key="k", compare_cols=["v"], n_buckets=8,
    ).to_pandas()
    ref = con.execute(
        "SELECT coalesce(o.k, n.k) AS k, CASE "
        "WHEN n.k IS NULL THEN 'removed' "
        "WHEN o.k IS NULL THEN 'added' "
        "WHEN o.v IS NOT DISTINCT FROM n.v THEN 'same' "
        "ELSE 'changed' END AS status, o.v AS v_old, n.v AS v_new "
        "FROM oldsnap o FULL OUTER JOIN newsnap n ON o.k = n.k"
    ).fetchdf()
    check(
        "snapshot_diff", seed, mine, ref, ["k"],
        ["status", "v_old", "v_new"],
    )

    # LAG-throttle with heavy ts collisions
    for w in (0, 500):
        mine = throttle_events(eds, window_us=w, n_buckets=8).to_pandas()
        ref = con.execute(
            "SELECT event_id, user_id, event_type, ts FROM ("
            "SELECT event_id, user_id, event_type, ts, "
            "lag(epoch_us(ts)) OVER (PARTITION BY user_id, event_type "
            "ORDER BY ts, event_id) AS prev FROM ev) "
            f"WHERE prev IS NULL OR epoch_us(ts) - prev > {w}"
        ).fetchdf()
        check(
            f"throttle_w{w}", seed, mine, ref, ["event_id"],
            ["user_id", "event_type", "ts"],
        )

    # weighted sample: md5-PRF chain, zero weights, k > corpus
    wt = pa.table(
        {
            "doc_id": pa.array(
                rng.permutation(5000)[:600].astype(np.int64)
            ),
            "n_chars": pa.array(
                rng.integers(0, 300, 600).astype(np.int64)
            ),
        }
    )
    con.register("wt", wt)
    for kk in (40, 5000):
        mine = weighted_sample(
            ray.data.from_arrow(wt).repartition(4), k=kk
        ).to_pandas()
        ref = con.execute(
            "SELECT doc_id, n_chars, "
            "(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, "
            "13))::BIGINT AS DOUBLE) / 4503599627370496.0) * "
            "(CAST(n_chars AS DOUBLE) + 1.0) AS score FROM wt "
            f"ORDER BY score DESC, doc_id LIMIT {kk}"
        ).fetchdf()
        # ordered top-k: compare positionally (scores bit-exact)
        mp = mine.reset_index(drop=True)
        rp = ref.reset_index(drop=True)
        if not (len(mp) == len(rp) and (mp["doc_id"] == rp["doc_id"]).all()
                and (mp["score"] == rp["score"]).all()):
            failures.append((f"weighted_sample_k{kk}", seed))
            print(f"FAIL weighted_sample_k{kk} seed={seed}", flush=True)

    # CUBE with data-null keys vs DuckDB GROUPING bitmask
    from console_log_parser_ray.stages.relational import cube_agg

    na = rng.choice(["x", "y", "z"], 1000).astype(object)
    na[rng.random(1000) < 0.12] = None
    ct = pa.table(
        {
            "a": pa.array(list(na), pa.string()),
            "b": pa.array(rng.choice(["p", "q"], 1000)),
            "v": pa.array(
                np.floor(rng.uniform(-30, 30, 1000) * 100) / 100.0,
                pa.float64(),
            ),
        }
    )
    con.register("ct", ct)
    mine = cube_agg(
        ray.data.from_arrow(ct).repartition(4),
        keys=["a", "b"], value_col="v",
    ).to_pandas()
    ref = con.execute(
        "SELECT a, b, CAST(GROUPING(a, b) AS BIGINT) AS grouping_id, "
        "CAST(count(*) AS BIGINT) AS n_rows, "
        "CAST(sum(CAST(floor(v * 100) AS BIGINT)) AS BIGINT) AS "
        "sum_cents FROM ct GROUP BY CUBE(a, b)"
    ).fetchdf()
    mine[["a", "b"]] = mine[["a", "b"]].astype(str)
    ref[["a", "b"]] = ref[["a", "b"]].astype(str)
    check(
        "cube_agg", seed, mine, ref, ["a", "b", "grouping_id"],
        ["n_rows", "sum_cents"],
    )

    # interpolated quantiles: same IEEE lerp in SQL over order stats
    from console_log_parser_ray.stages.events import (
        quantile_cont_per_group,
    )

    mine = quantile_cont_per_group(
        eds.select_columns(["event_type", "value"]),
        group_col="event_type", value_col="value", qs=(0.5, 0.9),
    ).to_pandas()
    ref = con.execute(
        "WITH v AS (SELECT event_type, CAST(floor(value * 100) AS "
        "BIGINT) AS c FROM ev), "
        "r AS (SELECT event_type, c, row_number() OVER (PARTITION BY "
        "event_type ORDER BY c) AS rn, count(*) OVER (PARTITION BY "
        "event_type) AS n FROM v), "
        "p AS (SELECT event_type, max(n) AS n, "
        "max(CASE WHEN rn = CAST(floor(CAST(n - 1 AS DOUBLE) * 0.5) "
        "AS BIGINT) + 1 THEN c END) AS lo50, "
        "max(CASE WHEN rn = CAST(ceil(CAST(n - 1 AS DOUBLE) * 0.5) "
        "AS BIGINT) + 1 THEN c END) AS hi50, "
        "max(CASE WHEN rn = CAST(floor(CAST(n - 1 AS DOUBLE) * 0.9) "
        "AS BIGINT) + 1 THEN c END) AS lo90, "
        "max(CASE WHEN rn = CAST(ceil(CAST(n - 1 AS DOUBLE) * 0.9) "
        "AS BIGINT) + 1 THEN c END) AS hi90 FROM r GROUP BY 1) "
        "SELECT event_type, CAST(lo50 AS DOUBLE) + (CAST(hi50 AS "
        "DOUBLE) - CAST(lo50 AS DOUBLE)) * (CAST(n - 1 AS DOUBLE) * "
        "0.5 - floor(CAST(n - 1 AS DOUBLE) * 0.5)) AS p50_cents, "
        "CAST(lo90 AS DOUBLE) + (CAST(hi90 AS DOUBLE) - CAST(lo90 AS "
        "DOUBLE)) * (CAST(n - 1 AS DOUBLE) * 0.9 - floor(CAST(n - 1 "
        "AS DOUBLE) * 0.9)) AS p90_cents FROM p"
    ).fetchdf()
    check(
        "quantile_cont", seed, mine, ref, ["event_type"],
        ["p50_cents", "p90_cents"],
    )

    # cohort retention: distinct-activity triangle on the same events
    from console_log_parser_ray.stages.events import cohort_retention

    mine = cohort_retention(
        eds.select_columns(["user_id", "ts"]),
        window_us=25_000, n_buckets=8,
    ).to_pandas()
    ref = con.execute(
        "WITH w AS (SELECT DISTINCT user_id, epoch_us(ts) // 25000 "
        "AS win FROM ev), "
        "c AS (SELECT user_id, min(win) AS cohort FROM w GROUP BY 1) "
        "SELECT c.cohort, w.win, CAST(count(*) AS BIGINT) AS n_users "
        "FROM w JOIN c USING (user_id) GROUP BY 1, 2"
    ).fetchdf()
    check(
        "cohort_retention", seed, mine, ref,
        ["cohort", "win"], ["n_users"],
    )

    # exact kNN graph vs numpy brute force on quantized integers
    from console_log_parser_ray.stages.similarity import knn_graph

    nv = 80
    emb = rng.uniform(-1, 1, (nv, 12)).astype(np.float32)
    et = pa.table(
        {
            "vec_id": pa.array(np.arange(nv, dtype=np.int64)),
            "embedding": pa.array(
                [list(map(float, v)) for v in emb],
                pa.list_(pa.float32()),
            ),
        }
    )
    qm = np.floor(emb.astype(np.float64) * 1000)
    sc = qm @ qm.T
    np.fill_diagonal(sc, -np.inf)
    want = set()
    for i in range(nv):
        idx = np.lexsort((np.arange(nv), -sc[i]))[:6]
        for j in idx:
            want.add((i, int(j), sc[i][j]))
    got = {
        (r["vec_id"], r["neighbor_id"], r["dot"])
        for r in knn_graph(
            ray.data.from_arrow(et).repartition(3), k=6
        ).take_all()
    }
    if got != want:
        failures.append(("knn_graph", seed))
        print(f"FAIL knn_graph seed={seed}", flush=True)

    # per-class centroids: exact integer sums == numpy reference
    from console_log_parser_ray.stages.similarity import class_centroids

    cl = rng.integers(0, 5, nv).astype(np.int64)
    ct2 = pa.table(
        {
            "label": pa.array(cl),
            "embedding": et.column("embedding"),
        }
    )
    qq = np.floor(emb.astype(np.float64) * 1000)
    wantc = {}
    for lab in np.unique(cl):
        sub = qq[cl == lab]
        for dim in range(sub.shape[1]):
            sv = float(sub[:, dim].sum())
            wantc[(int(lab), dim + 1)] = (
                len(sub), int(sv), sv / float(len(sub))
            )
    gotc = {
        (int(r["label"]), int(r["dim"])): (
            r["n_obs"], r["sum_q"], r["mean_q"]
        )
        for r in class_centroids(
            ray.data.from_arrow(ct2).repartition(3)
        ).take_all()
    }
    if gotc != wantc:
        failures.append(("class_centroids", seed))
        print(f"FAIL class_centroids seed={seed}", flush=True)

    # MERGE: random change batch vs a pandas reference apply
    from console_log_parser_ray.stages.events import merge_upsert

    bk = rng.permutation(300)[:200].astype(np.int64)
    mb = pa.table(
        {
            "k": pa.array(bk),
            "v": pa.array(rng.integers(0, 100, 200).astype(np.int64)),
        }
    )
    ck = rng.integers(0, 320, 150).astype(np.int64)
    ops = rng.choice(["u", "d"], 150)
    cv = rng.integers(100, 200, 150).astype(np.int64)
    mc = pa.table(
        {
            "k": pa.array(ck),
            "v": pa.array(cv),
            "op": pa.array(ops),
            "change_seq": pa.array(
                np.arange(1, 151, dtype=np.int64)
            ),
        }
    )
    state = {int(k): int(v) for k, v in zip(bk, mb.column("v").to_pylist())}
    for k, o, v in zip(ck, ops, cv):
        if o == "d":
            state.pop(int(k), None)
        else:
            state[int(k)] = int(v)
    got = {
        int(r["k"]): int(r["v"])
        for r in merge_upsert(
            ray.data.from_arrow(mb).repartition(4),
            ray.data.from_arrow(mc).repartition(3),
            key_cols=["k"], n_buckets=8,
        ).take_all()
    }
    if got != state:
        failures.append(("merge_upsert", seed))
        print(f"FAIL merge_upsert seed={seed}", flush=True)

    # boolean-AND retrieval vs the tokenized SQL membership mirror
    from console_log_parser_ray.stages.search import bool_search

    terms = [f"t{i}" for i in rng.choice(18, size=2, replace=False)]
    mine = bool_search(
        ray.data.from_arrow(dt).repartition(3), terms=terms
    ).to_pandas()
    cond = " AND ".join(
        f"doc_id IN (SELECT doc_id FROM dtok WHERE t = '{t}')"
        for t in terms
    )
    ref = con.execute(
        "WITH dtok AS (SELECT doc_id, unnest(regexp_extract_all("
        "coalesce(text, ''), '\\S+')) AS t FROM documents) "
        f"SELECT doc_id FROM documents WHERE {cond}"
    ).fetchdf()
    check("bool_search", seed, mine, ref, ["doc_id"], ["doc_id"])

    # salted skew join == unsalted (Zipf-hot left key, null keys)
    from console_log_parser_ray.stages.relational import hash_join as _hj

    hotk = np.where(
        rng.random(700) < 0.6, 3, rng.integers(0, 30, 700)
    ).astype(np.float64)
    hotk[rng.random(700) < 0.03] = np.nan
    sl = pa.table(
        {
            "k": pa.array(
                [None if np.isnan(x) else int(x) for x in hotk],
                pa.int64(),
            ),
            "lv": pa.array(np.arange(700, dtype=np.int64)),
        }
    )
    sr = pa.table(
        {
            "rk": pa.array(
                [None if x < 0 else int(x)
                 for x in rng.integers(-2, 35, 60)],
                pa.int64(),
            ),
            "rv": pa.array(np.arange(60, dtype=np.int64)),
        }
    )
    slds = ray.data.from_arrow(sl).repartition(4)
    srds = ray.data.from_arrow(sr).repartition(2)
    for how in ("inner", "left", "semi", "anti"):
        plain = _hj(
            slds, srds, on="k", right_on="rk", how=how, n_buckets=8
        ).to_pandas()
        salted = _hj(
            slds, srds, on="k", right_on="rk", how=how, n_buckets=8,
            salt=5,
        ).to_pandas()
        cc = list(plain.columns)
        a = plain.sort_values(cc).reset_index(drop=True)
        bb = salted.sort_values(cc).reset_index(drop=True)
        if not a.equals(bb):
            failures.append((f"salted_join_{how}", seed))
            print(f"FAIL salted_join_{how} seed={seed}", flush=True)

    # session-path mining vs the string_agg mirror (2 gaps)
    from console_log_parser_ray.stages.events import top_paths

    for gp in (400, 40_000):
        mine = top_paths(
            eds.select_columns(
                ["user_id", "ts", "event_id", "event_type"]
            ),
            gap_us=gp, k=20, n_buckets=8,
        ).to_pandas()
        ref = con.execute(
            "WITH s AS (SELECT user_id, event_type, ts, event_id, "
            "CASE WHEN lag(epoch_us(ts)) OVER w IS NULL OR "
            f"epoch_us(ts) - lag(epoch_us(ts)) OVER w > {gp} THEN 1 "
            "ELSE 0 END AS ns FROM ev WINDOW w AS (PARTITION BY "
            "user_id ORDER BY ts, event_id)), "
            "s2 AS (SELECT *, SUM(ns) OVER (PARTITION BY user_id "
            "ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) AS sid "
            "FROM s), "
            "p AS (SELECT user_id, sid, string_agg(event_type, '>' "
            "ORDER BY ts, event_id) AS path FROM s2 GROUP BY 1, 2) "
            "SELECT path, CAST(count(*) AS BIGINT) AS n_sessions "
            "FROM p GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 20"
        ).fetchdf()
        mp = mine.reset_index(drop=True)
        rp = ref.reset_index(drop=True)
        if not (len(mp) == len(rp) and
                (mp["path"] == rp["path"]).all() and
                (mp["n_sessions"] == rp["n_sessions"]).all()):
            failures.append((f"top_paths_g{gp}", seed))
            print(f"FAIL top_paths_g{gp} seed={seed}", flush=True)


def graph_lm_family(seed):
    """Round-4 closing additions: integer-quantized PageRank (vs a
    pure-Python integer reference on a random symmetric graph),
    unigram-LM logprob quality scores, vocabulary/OOV coverage, and
    cross-source priority dedup (each vs DuckDB on a random
    multi-source corpus with planted duplicates)."""
    from console_log_parser_ray.stages.dedup import exact_dedup_priority
    from console_log_parser_ray.stages.graph import pagerank
    from console_log_parser_ray.stages.events import time_weighted_avg
    from console_log_parser_ray.stages.textan import (
        bigram_logprob,
        unigram_logprob,
        vocab_oov,
    )

    rng = np.random.default_rng(seed)

    # --- pagerank: random symmetric multigraph, python int reference
    pairs = set()
    while len(pairs) < 120:
        a, b = rng.integers(0, 30, 2)
        if a != b:
            pairs.add((int(a), int(b)))
    edges = [e for p_ in pairs for e in (p_, p_[::-1])]
    eds = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([e[0] for e in edges], pa.int64()),
                "dst": pa.array([e[1] for e in edges], pa.int64()),
            }
        )
    ).repartition(5)
    from collections import defaultdict

    deg = defaultdict(int)
    for s, _ in edges:
        deg[s] += 1
    n = len(deg)
    r = {u: 10**12 // n for u in deg}
    base = (15 * 10**12) // (100 * n)
    for _ in range(3):
        acc = defaultdict(int)
        for u, v in edges:
            acc[v] += r[u] // deg[u]
        r = {v: base + (85 * sv) // 100 for v, sv in acc.items()}
    mine = pagerank(eds, iterations=3, n_buckets=13).to_pandas()
    ref = pd.DataFrame(
        {"node": list(r), "rank_q": [r[k] for k in r]}
    )
    check("pagerank", seed, mine, ref, ["node"], ["rank_q"])

    # --- shared random multi-source corpus
    vocab = np.array(
        ["t%d" % i for i in range(12)] + ["ünïc", "x!y", "9.9"]
    )
    n_docs = 120

    def mk_text():
        return " ".join(rng.choice(vocab, rng.integers(0, 25)))

    texts = [mk_text() for _ in range(n_docs)]
    for _ in range(15):
        i, j = rng.integers(0, n_docs, 2)
        texts[i] = texts[j]
    for i in rng.integers(0, n_docs, 4):
        texts[i] = ""
    sources = rng.choice(["s0", "s1", "s2", "s3"], n_docs)
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(1, n_docs + 1, dtype=np.int64)),
            "source": pa.array(sources),
            "text": pa.array(texts),
        }
    )
    con = duckdb.connect()
    con.register("documents", docs)
    dds = lambda: ray.data.from_arrow(docs).repartition(7)  # noqa: E731

    mine = unigram_logprob(dds(), n_buckets=9).to_pandas()
    ref = con.execute(
        "WITH toks AS (SELECT doc_id, "
        "unnest(regexp_extract_all(text, '\\S+')) AS tok "
        "FROM documents), "
        "occ AS (SELECT doc_id, tok, count(*) AS n_occ FROM toks "
        "GROUP BY doc_id, tok), "
        "cnt AS (SELECT tok, CAST(sum(n_occ) AS BIGINT) AS c FROM occ "
        "GROUP BY tok), "
        "tot AS (SELECT CAST(sum(n_occ) AS BIGINT) AS ct FROM occ), "
        "lp AS (SELECT tok, CAST(floor((ln(CAST(c AS DOUBLE)) - "
        "ln(CAST((SELECT ct FROM tot) AS DOUBLE))) * 1000000.0) "
        "AS BIGINT) AS lp FROM cnt) "
        "SELECT o.doc_id, CAST(sum(o.n_occ) AS BIGINT) AS n_tokens, "
        "CAST(sum(o.n_occ * l.lp) AS BIGINT) AS logprob_q, "
        "CAST(sum(o.n_occ * l.lp) AS DOUBLE) / "
        "CAST(1000000 * sum(o.n_occ) AS DOUBLE) AS avg_logprob "
        "FROM occ o JOIN lp l USING (tok) GROUP BY o.doc_id"
    ).fetchdf()
    check(
        "unigram_logprob", seed, mine, ref,
        ["doc_id"], ["n_tokens", "logprob_q", "avg_logprob"],
    )

    v = int(rng.integers(3, 10))
    mine = vocab_oov(dds(), vocab_size=v, n_buckets=9).to_pandas()
    ref = con.execute(
        "WITH toks AS (SELECT doc_id, "
        "unnest(regexp_extract_all(text, '\\S+')) AS tok "
        "FROM documents), "
        "cnt AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok), "
        "vocab AS (SELECT tok FROM cnt QUALIFY "
        f"row_number() OVER (ORDER BY c DESC, tok) <= {v}) "
        "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens, "
        "CAST(count(*) FILTER (WHERE tok NOT IN "
        "(SELECT tok FROM vocab)) AS BIGINT) AS n_oov, "
        "CAST(count(*) FILTER (WHERE tok NOT IN "
        "(SELECT tok FROM vocab)) AS DOUBLE) / "
        "CAST(count(*) AS DOUBLE) AS oov_rate "
        "FROM toks GROUP BY doc_id"
    ).fetchdf()
    check(
        "vocab_oov", seed, mine, ref,
        ["doc_id"], ["n_tokens", "n_oov", "oov_rate"],
    )

    mine = exact_dedup_priority(
        dds(), priority=("s2", "s0"), n_shuffle_buckets=8
    ).to_pandas()
    ref = con.execute(
        "SELECT * FROM documents QUALIFY row_number() OVER "
        "(PARTITION BY text ORDER BY CASE source "
        "WHEN 's2' THEN 0 WHEN 's0' THEN 1 ELSE 2 END, doc_id) = 1"
    ).fetchdf()
    check(
        "dedup_priority", seed, mine, ref,
        ["doc_id"], ["source", "text"],
    )

    mine = bigram_logprob(dds(), n_buckets=9).to_pandas()
    ref = con.execute(
        "WITH toks AS (SELECT doc_id, "
        "regexp_extract_all(text, '\\S+') AS tk FROM documents), "
        "big AS (SELECT doc_id, "
        "unnest(list_transform(generate_series(1, len(tk)-1), "
        "i -> tk[i])) AS w1, "
        "unnest(list_transform(generate_series(1, len(tk)-1), "
        "i -> tk[i+1])) AS w2 FROM toks WHERE len(tk) >= 2), "
        "occ AS (SELECT doc_id, w1, w2, count(*) AS n_occ FROM big "
        "GROUP BY ALL), "
        "c2 AS (SELECT w1, w2, CAST(sum(n_occ) AS BIGINT) AS c "
        "FROM occ GROUP BY w1, w2), "
        "c1 AS (SELECT w1, CAST(sum(c) AS BIGINT) AS c1 FROM c2 "
        "GROUP BY w1), "
        "lp AS (SELECT a.w1, a.w2, CAST(floor((ln(CAST(a.c AS DOUBLE)) "
        "- ln(CAST(b.c1 AS DOUBLE))) * 1000000.0) AS BIGINT) AS lp "
        "FROM c2 a JOIN c1 b ON a.w1 = b.w1) "
        "SELECT o.doc_id, CAST(sum(o.n_occ) AS BIGINT) AS n_bigrams, "
        "CAST(sum(o.n_occ * l.lp) AS BIGINT) AS logprob2_q, "
        "CAST(sum(o.n_occ * l.lp) AS DOUBLE) / "
        "CAST(1000000 * sum(o.n_occ) AS DOUBLE) AS avg_logprob2 "
        "FROM occ o JOIN lp l ON o.w1 = l.w1 AND o.w2 = l.w2 "
        "GROUP BY o.doc_id"
    ).fetchdf()
    check(
        "bigram_logprob", seed, mine, ref,
        ["doc_id"], ["n_bigrams", "logprob2_q", "avg_logprob2"],
    )

    # --- TWAP over a random event stream with ts ties and singletons
    n_ev = 400
    ev = pa.table(
        {
            "event_id": pa.array(
                np.arange(1, n_ev + 1, dtype=np.int64)
            ),
            "user_id": pa.array(
                rng.integers(1, 40, n_ev).astype(np.int64)
            ),
            "ts": pa.array(
                rng.integers(0, 50, n_ev).astype("datetime64[us]")
                .astype("datetime64[us]")
            ),
            "value": pa.array(rng.uniform(-5, 5, n_ev)),
        }
    )
    # microsecond-scale ties are the adversarial case; also spread
    # some events over wide gaps
    wide = rng.integers(0, n_ev, 50)
    tsv = ev.column("ts").to_numpy(zero_copy_only=False).copy()
    tsv[wide] = tsv[wide] + np.timedelta64(10**9, "us")
    ev = ev.set_column(2, "ts", pa.array(tsv))
    con2 = duckdb.connect()
    con2.register("events", ev)
    mine = time_weighted_avg(
        ray.data.from_arrow(ev).repartition(6), n_buckets=7
    ).to_pandas()
    ref = con2.execute(
        "WITH e AS (SELECT user_id, epoch_us(ts) AS us, event_id, "
        "CAST(floor(value * 100) AS BIGINT) AS cents FROM events), "
        "iv AS (SELECT user_id, cents, "
        "(lead(us) OVER w - us) // 1000 AS dt_ms FROM e "
        "WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)), "
        "agg AS (SELECT user_id, CAST(count(dt_ms) AS BIGINT) AS "
        "n_intervals, CAST(sum(cents * dt_ms) AS BIGINT) AS "
        "weighted_cents_ms, CAST(sum(dt_ms) AS BIGINT) AS span_ms "
        "FROM iv WHERE dt_ms IS NOT NULL GROUP BY user_id) "
        "SELECT user_id, n_intervals, weighted_cents_ms, span_ms, "
        "CASE WHEN span_ms > 0 THEN CAST(weighted_cents_ms AS DOUBLE) "
        "/ CAST(100 * span_ms AS DOUBLE) END AS twap "
        "FROM agg WHERE n_intervals > 0"
    ).fetchdf()
    check(
        "twap", seed, mine, ref,
        ["user_id"],
        ["n_intervals", "weighted_cents_ms", "span_ms", "twap"],
    )

    # --- per-document token entropy over the shared corpus
    from console_log_parser_ray.stages.textan import token_entropy

    mine = token_entropy(dds()).to_pandas()
    ref = con.execute(
        "WITH toks AS (SELECT doc_id, "
        "unnest(regexp_extract_all(text, '\\S+')) AS tok "
        "FROM documents), "
        "occ AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS c "
        "FROM toks GROUP BY doc_id, tok), "
        "tot AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n "
        "FROM occ GROUP BY doc_id) "
        "SELECT o.doc_id, t.n AS n_tokens, "
        "CAST(sum(o.c * CAST(floor((ln(CAST(t.n AS DOUBLE)) - "
        "ln(CAST(o.c AS DOUBLE))) * 1000000.0) AS BIGINT)) AS BIGINT) "
        "AS entropy_q, "
        "CAST(sum(o.c * CAST(floor((ln(CAST(t.n AS DOUBLE)) - "
        "ln(CAST(o.c AS DOUBLE))) * 1000000.0) AS BIGINT)) AS DOUBLE) "
        "/ CAST(1000000 * t.n AS DOUBLE) AS avg_entropy "
        "FROM occ o JOIN tot t USING (doc_id) GROUP BY o.doc_id, t.n"
    ).fetchdf()
    check(
        "token_entropy", seed, mine, ref,
        ["doc_id"], ["n_tokens", "entropy_q", "avg_entropy"],
    )

    # --- KMV bottom-k sketch over the TWAP event stream's user ids
    from console_log_parser_ray.stages.sketch import kmv_distinct

    mine = kmv_distinct(
        ray.data.from_arrow(ev).repartition(6), "user_id", k=20
    ).to_pandas()
    ref = con2.execute(
        "WITH h AS (SELECT DISTINCT ('0x' || "
        "substr(md5(CAST(user_id AS VARCHAR)), 1, 15))::BIGINT AS h "
        "FROM events WHERE user_id IS NOT NULL), "
        "r AS (SELECT h, CAST(row_number() OVER (ORDER BY h) "
        "AS BIGINT) AS rank FROM h ORDER BY h LIMIT 20) "
        "SELECT rank, h, CAST((CAST(rank - 1 AS HUGEINT) * "
        "CAST(1152921504606846976 AS HUGEINT)) // CAST(h AS HUGEINT) "
        "AS BIGINT) AS est FROM r ORDER BY rank"
    ).fetchdf()
    check("kmv_distinct", seed, mine, ref, ["rank"], ["h", "est"])

    # --- per-class KL divergence over the shared multi-source corpus
    from console_log_parser_ray.stages.textan import domain_kl

    mine = domain_kl(dds(), n_buckets=9).to_pandas()
    ref = con.execute(
        "WITH toks AS (SELECT source, "
        "unnest(regexp_extract_all(text, '\\S+')) AS tok "
        "FROM documents), "
        "ct AS (SELECT source, tok, CAST(count(*) AS BIGINT) AS c_ct "
        "FROM toks GROUP BY source, tok), "
        "cc AS (SELECT source, CAST(sum(c_ct) AS BIGINT) AS c_c "
        "FROM ct GROUP BY source), "
        "t AS (SELECT tok, CAST(sum(c_ct) AS BIGINT) AS c_t "
        "FROM ct GROUP BY tok), "
        "tot AS (SELECT CAST(sum(c_ct) AS BIGINT) AS c FROM ct) "
        "SELECT ct.source, cc.c_c AS n_tokens, "
        "CAST(sum(ct.c_ct * CAST(floor((ln(CAST(ct.c_ct AS DOUBLE)) "
        "- ln(CAST(cc.c_c AS DOUBLE)) - ln(CAST(t.c_t AS DOUBLE)) + "
        "ln(CAST((SELECT c FROM tot) AS DOUBLE))) * 1000000.0) "
        "AS BIGINT)) AS BIGINT) AS kl_q, "
        "CAST(sum(ct.c_ct * CAST(floor((ln(CAST(ct.c_ct AS DOUBLE)) "
        "- ln(CAST(cc.c_c AS DOUBLE)) - ln(CAST(t.c_t AS DOUBLE)) + "
        "ln(CAST((SELECT c FROM tot) AS DOUBLE))) * 1000000.0) "
        "AS BIGINT)) AS DOUBLE) / CAST(1000000 * cc.c_c AS DOUBLE) "
        "AS kl_nats "
        "FROM ct JOIN cc USING (source) JOIN t USING (tok) "
        "GROUP BY ct.source, cc.c_c"
    ).fetchdf()
    check(
        "domain_kl", seed, mine, ref,
        ["source"], ["n_tokens", "kl_q", "kl_nats"],
    )

    # --- PMI collocations over the shared corpus (low min_count so
    # random pairs clear it)
    from console_log_parser_ray.stages.textan import pmi_topk

    mine = pmi_topk(
        dds(), k=15, min_count=2, n_buckets=7
    ).to_pandas()
    ref = con.execute(
        "WITH toks AS (SELECT doc_id, "
        "regexp_extract_all(text, '\\S+') AS tk FROM documents), "
        "uni AS (SELECT unnest(tk) AS tok FROM toks), "
        "c1 AS (SELECT tok, CAST(count(*) AS BIGINT) AS c FROM uni "
        "GROUP BY tok), "
        "n1 AS (SELECT CAST(count(*) AS BIGINT) AS n FROM uni), "
        "big AS (SELECT unnest(list_transform("
        "generate_series(1, len(tk)-1), i -> tk[i])) AS w1, "
        "unnest(list_transform(generate_series(1, len(tk)-1), "
        "i -> tk[i+1])) AS w2 FROM toks WHERE len(tk) >= 2), "
        "c2 AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS c "
        "FROM big GROUP BY w1, w2), "
        "n2 AS (SELECT CAST(count(*) AS BIGINT) AS n FROM big), "
        "p AS (SELECT c2.w1, c2.w2, c2.c AS c2, "
        "CAST(floor((ln(CAST(c2.c AS DOUBLE)) - "
        "ln(CAST((SELECT n FROM n2) AS DOUBLE)) - "
        "ln(CAST(a.c AS DOUBLE)) - ln(CAST(b.c AS DOUBLE)) + "
        "ln(CAST((SELECT n FROM n1) AS DOUBLE)) + "
        "ln(CAST((SELECT n FROM n1) AS DOUBLE))) * 1000000.0) "
        "AS BIGINT) AS pmi_q "
        "FROM c2 JOIN c1 a ON c2.w1 = a.tok "
        "JOIN c1 b ON c2.w2 = b.tok WHERE c2.c >= 2) "
        "SELECT w1, w2, c2, pmi_q FROM p QUALIFY "
        "row_number() OVER (ORDER BY pmi_q DESC, w1, w2) <= 15 "
        "ORDER BY pmi_q DESC, w1, w2"
    ).fetchdf()
    if len(mine) != len(ref) or not (
        (mine["w1"].values == ref["w1"].values).all()
        and (mine["w2"].values == ref["w2"].values).all()
        and (mine["c2"].values == ref["c2"].values).all()
        and (mine["pmi_q"].values == ref["pmi_q"].values).all()
    ):
        failures.append(("pmi_topk", seed))
        print(f"FAIL pmi_topk seed={seed}", flush=True)

    # --- md5-PRF split assignment over the shared corpus ids
    from console_log_parser_ray.stages.export import split_assign

    mine = split_assign(dds()).to_pandas()
    ref = con.execute(
        "SELECT doc_id, CAST(('0x' || substr(md5(CAST(doc_id AS "
        "VARCHAR)), 1, 13))::BIGINT AS DOUBLE) / 4503599627370496.0 "
        "AS u, "
        "CASE WHEN ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, "
        "13))::BIGINT / 4503599627370496.0 < 0.9 THEN 'train' "
        "WHEN ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, "
        "13))::BIGINT / 4503599627370496.0 < 0.95 THEN 'val' "
        "ELSE 'test' END AS split FROM documents"
    ).fetchdf()
    check("split_assign", seed, mine, ref, ["doc_id"], ["u", "split"])

    # --- pairwise vocabulary Jaccard over the shared corpus
    from console_log_parser_ray.stages.textan import vocab_overlap

    mine = vocab_overlap(dds(), n_buckets=9).to_pandas()
    ref = con.execute(
        "WITH toks AS (SELECT DISTINCT source, "
        "unnest(regexp_extract_all(text, '\\S+')) AS tok "
        "FROM documents), "
        "sz AS (SELECT source, CAST(count(*) AS BIGINT) AS n "
        "FROM toks GROUP BY source), "
        "i AS (SELECT a.source AS src_a, b.source AS src_b, "
        "CAST(count(*) AS BIGINT) AS n_common FROM toks a "
        "JOIN toks b ON a.tok = b.tok AND a.source < b.source "
        "GROUP BY 1, 2) "
        "SELECT i.src_a, i.src_b, i.n_common, "
        "sa.n + sb.n - i.n_common AS n_union, "
        "CAST(i.n_common AS DOUBLE) / "
        "CAST(sa.n + sb.n - i.n_common AS DOUBLE) AS jaccard "
        "FROM i JOIN sz sa ON i.src_a = sa.source "
        "JOIN sz sb ON i.src_b = sb.source"
    ).fetchdf()
    check(
        "vocab_overlap", seed, mine, ref,
        ["src_a", "src_b"], ["n_common", "n_union", "jaccard"],
    )

    # --- per-key categorical entropy over the TWAP event stream
    from console_log_parser_ray.stages.events import group_entropy

    ev2 = ev.append_column(
        "event_type",
        pa.array(
            rng.choice(["v", "c", "b"], ev.num_rows), pa.string()
        ),
    )
    mine = group_entropy(
        ray.data.from_arrow(ev2).repartition(6), n_buckets=7
    ).to_pandas()
    con3 = duckdb.connect()
    con3.register("events", ev2)
    ref = con3.execute(
        "WITH c AS (SELECT user_id, event_type, "
        "CAST(count(*) AS BIGINT) AS c FROM events GROUP BY 1, 2), "
        "t AS (SELECT user_id, CAST(sum(c) AS BIGINT) AS n "
        "FROM c GROUP BY 1) "
        "SELECT c.user_id, t.n AS n_events, "
        "CAST(sum(c.c * CAST(floor((ln(CAST(t.n AS DOUBLE)) - "
        "ln(CAST(c.c AS DOUBLE))) * 1000000.0) AS BIGINT)) AS BIGINT) "
        "AS entropy_q, "
        "CAST(sum(c.c * CAST(floor((ln(CAST(t.n AS DOUBLE)) - "
        "ln(CAST(c.c AS DOUBLE))) * 1000000.0) AS BIGINT)) AS DOUBLE) "
        "/ CAST(1000000 * t.n AS DOUBLE) AS entropy_nats "
        "FROM c JOIN t USING (user_id) GROUP BY c.user_id, t.n"
    ).fetchdf()
    check(
        "group_entropy", seed, mine, ref,
        ["user_id"], ["n_events", "entropy_q", "entropy_nats"],
    )


def pareto_setsim_family(seed):
    """Skyline / streaks / correlation matrix / set-similarity join
    vs DuckDB on adversarial random tables (heavy ties, planted
    duplicates, planted near-copies)."""
    rng = np.random.default_rng(seed)

    # --- 2-D skyline vs the declarative NOT EXISTS definition
    from console_log_parser_ray.stages.relational import skyline_2d

    n = 800
    sky_tbl = pa.table(
        {
            "rid": pa.array(np.arange(n, dtype=np.int64)),
            "x": pa.array(
                rng.integers(0, 25, n).astype(np.int64)
            ),
            "y": pa.array(
                rng.integers(0, 25, n).astype(np.int64)
            ),
        }
    )
    mine = skyline_2d(
        ray.data.from_arrow(sky_tbl).repartition(6), "x", "y"
    ).to_pandas()
    con = duckdb.connect()
    con.register("pts", sky_tbl)
    ref = con.execute(
        "SELECT rid, x, y FROM pts o WHERE NOT EXISTS ("
        "SELECT 1 FROM pts p WHERE p.x >= o.x AND p.y <= o.y "
        "AND (p.x > o.x OR p.y < o.y))"
    ).fetchdf()
    check("skyline_2d", seed, mine, ref, ["rid"], ["x", "y"])

    # --- gaps-and-islands streaks over integer-µs timestamps
    from console_log_parser_ray.stages.events import activity_streaks

    day_us = 86_400_000_000
    m = 4000
    st_tbl = pa.table(
        {
            "user_id": pa.array(
                rng.integers(0, 60, m).astype(np.int64)
            ),
            "ts": pa.array(
                rng.integers(0, 30, m).astype(np.int64) * day_us
                + rng.integers(0, day_us, m)
            ),
        }
    )
    mine = activity_streaks(
        ray.data.from_arrow(st_tbl).repartition(5), n_buckets=7
    ).to_pandas()
    con.register("sev", st_tbl)
    ref = con.execute(
        "WITH d AS (SELECT DISTINCT user_id, ts // 86400000000 AS "
        "day FROM sev), "
        "i AS (SELECT user_id, day, day - row_number() OVER "
        "(PARTITION BY user_id ORDER BY day) AS island FROM d), "
        "s AS (SELECT user_id, island, CAST(count(*) AS BIGINT) AS "
        "len FROM i GROUP BY 1, 2) "
        "SELECT user_id, CAST(sum(len) AS BIGINT) AS n_active_days, "
        "CAST(count(*) AS BIGINT) AS n_streaks, "
        "CAST(max(len) AS BIGINT) AS longest_streak "
        "FROM s GROUP BY user_id"
    ).fetchdf()
    check(
        "activity_streaks", seed, mine, ref,
        ["user_id"], ["n_active_days", "n_streaks", "longest_streak"],
    )

    # --- exact-moment correlation matrix (bit-exact doubles)
    from console_log_parser_ray.stages.relational import corr_matrix

    p = 6000
    ca = rng.normal(5, 2, p)
    cb = -1.5 * ca + rng.normal(0, 0.5, p)
    cc = rng.uniform(0, 9, p)
    cm_tbl = pa.table(
        {"a": pa.array(ca), "b": pa.array(cb), "c": pa.array(cc)}
    )
    mine = corr_matrix(
        ray.data.from_arrow(cm_tbl).repartition(5),
        ["a", "b", "c"],
        [100, 100, 100],
    ).to_pandas()
    con.register("cm", cm_tbl)
    rows = []
    cols3 = ["a", "b", "c"]
    for i in range(3):
        for j in range(i + 1, 3):
            rows.append(
                f"SELECT '{cols3[i]}' AS col_x, '{cols3[j]}' AS "
                f"col_y, n, (CAST(n AS DOUBLE) * CAST(ss{i}_{j} AS "
                f"DOUBLE) - CAST(s{i} AS DOUBLE) * CAST(s{j} AS "
                f"DOUBLE)) / (sqrt(CAST(n AS DOUBLE) * CAST(ss{i}_{i}"
                f" AS DOUBLE) - CAST(s{i} AS DOUBLE) * CAST(s{i} AS "
                f"DOUBLE)) * sqrt(CAST(n AS DOUBLE) * CAST(ss{j}_{j} "
                f"AS DOUBLE) - CAST(s{j} AS DOUBLE) * CAST(s{j} AS "
                f"DOUBLE))) AS corr FROM mo"
            )
    sums = ["CAST(count(*) AS BIGINT) AS n"]
    for i in range(3):
        sums.append(f"sum(v{i}) AS s{i}")
        for j in range(i, 3):
            sums.append(f"sum(v{i} * v{j}) AS ss{i}_{j}")
    qcols = ", ".join(
        f"CAST(floor({c} * 100) AS BIGINT) AS v{i}"
        for i, c in enumerate(cols3)
    )
    ref = con.execute(
        f"WITH q AS (SELECT {qcols} FROM cm), "
        f"mo AS (SELECT {', '.join(sums)} FROM q) "
        + " UNION ALL ".join(rows)
    ).fetchdf()
    mine_s = mine.sort_values(["col_x", "col_y"]).reset_index(drop=True)
    ref_s = ref.sort_values(["col_x", "col_y"]).reset_index(drop=True)
    if not (
        mine_s["corr"].tolist() == ref_s["corr"].tolist()
        and mine_s["n"].tolist() == ref_s["n"].tolist()
    ):
        failures.append(("corr_matrix", seed))
        print(f"FAIL corr_matrix seed={seed}", flush=True)

    # --- exact set-similarity join vs all-pairs ground truth
    from console_log_parser_ray.stages.dedup import setsim_join

    vocab = np.array([f"t{i}" for i in range(200)])
    texts, ids = [], []
    for i in range(90):
        lo, hi = (40, 70) if i < 30 else (5, 40)
        texts.append(
            " ".join(vocab[rng.integers(0, 200, rng.integers(lo, hi))])
        )
        ids.append(i)
    for i in range(30):
        toks = texts[i].split()
        q = len(toks) // 2
        texts.append(" ".join(toks[:q] + toks[q + 1 :]))
        ids.append(1000 + i)
    ss_tbl = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    thr = [0.6, 0.9][seed % 2]
    mine = setsim_join(
        ray.data.from_arrow(ss_tbl).repartition(4),
        thr,
        n_df_buckets=7,
        n_pair_buckets=11,
    ).to_pandas()
    con.register("ssdocs", ss_tbl)
    ref = con.execute(
        "WITH base AS (SELECT doc_id, regexp_extract_all(text, "
        "'\\S+') AS toks FROM ssdocs), "
        "idx AS (SELECT doc_id, toks, unnest(generate_series(1, "
        "greatest(len(toks) - 2, 0))) AS i FROM base), "
        "win AS (SELECT doc_id, toks[i] || ' ' || toks[i+1] || ' ' "
        "|| toks[i+2] AS shingle FROM idx), "
        "short AS (SELECT doc_id, array_to_string(toks, ' ') AS "
        "shingle FROM base WHERE len(toks) > 0 AND len(toks) < 3), "
        "d AS (SELECT DISTINCT doc_id, shingle FROM "
        "(SELECT * FROM win UNION ALL SELECT * FROM short)), "
        "sz AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS sn "
        "FROM d GROUP BY 1), "
        "i2 AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
        "CAST(count(*) AS BIGINT) AS n_inter FROM d a JOIN d b "
        "USING (shingle) WHERE a.doc_id < b.doc_id GROUP BY 1, 2) "
        "SELECT doc_a, doc_b, n_inter, "
        "sa.sn + sb.sn - n_inter AS n_union, "
        "CAST(n_inter AS DOUBLE) / "
        "CAST(sa.sn + sb.sn - n_inter AS DOUBLE) AS jaccard "
        "FROM i2 JOIN sz sa ON doc_a = sa.doc_id "
        "JOIN sz sb ON doc_b = sb.doc_id "
        "WHERE CAST(n_inter AS DOUBLE) / "
        f"CAST(sa.sn + sb.sn - n_inter AS DOUBLE) >= {thr}"
    ).fetchdf()
    check(
        "setsim_join", seed, mine, ref,
        ["doc_a", "doc_b"], ["n_inter", "n_union", "jaccard"],
    )

    # same oracle, corpus-scale join path forced (caps at 0): pins
    # both sides of the size-adaptive plan on every seed
    mine = setsim_join(
        ray.data.from_arrow(ss_tbl).repartition(4),
        thr,
        n_df_buckets=7,
        n_pair_buckets=11,
        max_broadcast_shingles=0,
        broadcast_pair_limit=0,
    ).to_pandas()
    check(
        "setsim_join_joinpath", seed, mine, ref,
        ["doc_a", "doc_b"], ["n_inter", "n_union", "jaccard"],
    )


def nearest_mi_family(seed):
    """Nearest-in-time join + categorical PMI vs DuckDB on random
    tie-heavy tables."""
    rng = np.random.default_rng(seed + 17)

    from console_log_parser_ray.stages.events import nearest_event_join

    n = 5000
    ev_tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "user_id": pa.array(
                rng.integers(0, 80, n).astype(np.int64)
            ),
            "event_type": pa.array(
                rng.choice(["purchase", "click", "view"], n)
            ),
            "ts": pa.array(
                rng.integers(0, 20_000, n).astype(np.int64)
            ),
        }
    )
    mine = nearest_event_join(
        ray.data.from_arrow(ev_tbl).repartition(6), n_buckets=7
    ).to_pandas()
    con = duckdb.connect()
    con.register("nev", ev_tbl)
    ref = con.execute(
        "WITH a AS (SELECT event_id, user_id, ts FROM nev "
        "WHERE event_type = 'purchase'), "
        "c AS (SELECT event_id, user_id, ts FROM nev "
        "WHERE event_type = 'click'), "
        "j AS (SELECT a.event_id AS anchor_id, a.user_id, "
        "a.ts AS anchor_ts, c.event_id AS near_id, c.ts AS near_ts, "
        "CAST(abs(a.ts - c.ts) AS BIGINT) AS gap_us, "
        "row_number() OVER (PARTITION BY a.event_id "
        "ORDER BY abs(a.ts - c.ts), c.ts, c.event_id) AS rn "
        "FROM a JOIN c USING (user_id)) "
        "SELECT anchor_id, user_id, anchor_ts, near_id, near_ts, "
        "gap_us FROM j WHERE rn = 1"
    ).fetchdf()
    check(
        "nearest_event_join", seed, mine, ref,
        ["anchor_id"],
        ["user_id", "anchor_ts", "near_id", "near_ts", "gap_us"],
    )

    from console_log_parser_ray.stages.textan import mutual_info

    m = 4000
    mx = rng.choice(["a", "b", "c", "d"], m)
    my = np.where(
        rng.random(m) < 0.6,
        np.char.add("s_", mx),
        rng.choice(["s_a", "s_b", "s_c", "s_d"], m),
    )
    mi_tbl = pa.table(
        {
            "lang": pa.array(list(mx), pa.string()),
            "source": pa.array(list(my), pa.string()),
        }
    )
    mine = mutual_info(
        ray.data.from_arrow(mi_tbl).repartition(5)
    ).to_pandas()
    con.register("midocs", mi_tbl)
    ref = con.execute(
        "WITH c AS (SELECT lang, source, CAST(count(*) AS BIGINT) "
        "AS c_xy FROM midocs GROUP BY 1, 2), "
        "mx AS (SELECT lang, CAST(sum(c_xy) AS BIGINT) AS c_x "
        "FROM c GROUP BY 1), "
        "my AS (SELECT source, CAST(sum(c_xy) AS BIGINT) AS c_y "
        "FROM c GROUP BY 1), "
        "t AS (SELECT CAST(sum(c_xy) AS BIGINT) AS n FROM c) "
        "SELECT c.lang, c.source, c.c_xy, mx.c_x, my.c_y, t.n, "
        "CAST(floor((ln(CAST(c.c_xy AS DOUBLE)) + "
        "ln(CAST(t.n AS DOUBLE)) - ln(CAST(mx.c_x AS DOUBLE)) - "
        "ln(CAST(my.c_y AS DOUBLE))) * 1000000.0) AS BIGINT) AS "
        "pmi_q FROM c JOIN mx USING (lang) "
        "JOIN my USING (source) CROSS JOIN t"
    ).fetchdf()
    check(
        "mutual_info", seed, mine, ref,
        ["lang", "source"], ["c_xy", "c_x", "c_y", "n", "pmi_q"],
    )


def funnel_steps_family(seed):
    """k-step ordered funnel vs DuckDB nested correlated subqueries
    on a random tie-heavy event stream."""
    rng = np.random.default_rng(seed + 29)

    from console_log_parser_ray.stages.events import funnel_steps

    n = 6000
    ev_tbl = pa.table(
        {
            "user_id": pa.array(
                rng.integers(0, 150, n).astype(np.int64)
            ),
            "ts": pa.array(
                rng.integers(0, 700, n).astype(np.int64)
            ),
            "event_type": pa.array(
                rng.choice(["a", "b", "c", "x"], n)
            ),
        }
    )
    window = int(rng.integers(50, 400))
    mine = funnel_steps(
        ray.data.from_arrow(ev_tbl).repartition(6),
        ["a", "b", "c"],
        window_us=window,
        n_buckets=7,
    ).to_pandas()
    con = duckdb.connect()
    con.register("fev", ev_tbl)
    ref = con.execute(
        "WITH s1 AS (SELECT user_id, min(ts) AS s1_us FROM fev "
        "WHERE event_type = 'a' GROUP BY user_id), "
        "s2 AS (SELECT s1.user_id, s1.s1_us, "
        "(SELECT min(e.ts) FROM fev e WHERE e.user_id = s1.user_id "
        " AND e.event_type = 'b' AND e.ts >= s1.s1_us) AS s2_us "
        "FROM s1), "
        "s3 AS (SELECT s2.user_id, s2.s1_us, s2.s2_us, "
        "CASE WHEN s2.s2_us IS NULL THEN NULL ELSE "
        "(SELECT min(e.ts) FROM fev e WHERE e.user_id = s2.user_id "
        " AND e.event_type = 'c' AND e.ts >= s2.s2_us) END AS s3_us "
        "FROM s2) "
        "SELECT user_id, s1_us, s2_us, s3_us, "
        f"coalesce(s3_us - s1_us <= {window}, FALSE) AS converted "
        "FROM s3"
    ).fetchdf()
    check(
        "funnel_steps", seed, mine, ref,
        ["user_id"], ["s1_us", "s2_us", "s3_us", "converted"],
    )


def log_pipeline_family(seed):
    """Round-4b log-analytics + graph + band-join operators vs DuckDB
    on fresh random inputs: template mining, multiline stitching,
    burst islands, decayed scores, band self-join, triangle counts."""
    rng = np.random.default_rng(seed + 71)

    from console_log_parser_ray.stages.events import (
        decay_score,
        error_bursts,
    )
    from console_log_parser_ray.stages.graph import (
        cooccur_pair_edges,
        triangle_counts,
    )
    from console_log_parser_ray.stages.relational import band_join
    from console_log_parser_ray.stages.textan import (
        log_templates,
        stitch_multiline,
    )

    # --- random multi-line log corpus
    shapes = [
        "ERROR conn %d refused from 10.0.%d.%d",
        "INFO user u%d logged in sess 0x%x",
        "WARN disk %d%% full on /dev/sd%d",
        "  at frame %d of stack",
        "\tcaused by 0x%04x",
        "",
    ]
    docs = []
    for _ in range(130):
        lines = []
        for _ in range(rng.integers(0, 9)):
            import re as _re

            s = shapes[rng.integers(0, len(shapes))]
            n_args = len(_re.findall(r"%(?:\d+)?[dx]", s))
            args = tuple(
                int(rng.integers(0, 3000)) for _ in range(n_args)
            )
            lines.append(s % args if args else s)
        docs.append("\n".join(lines))
    docs[0], docs[1] = "", None
    dt = pa.table({"text": pa.array(docs, pa.string())})
    dt2 = dt.append_column(
        "doc_id", pa.array(np.arange(len(docs), dtype=np.int64))
    )
    con = duckdb.connect()
    con.register("documents", dt2)
    uu = (
        "\\b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}"
        "-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\\b"
    )
    k = int(rng.integers(5, 25))
    mine = log_templates(
        ray.data.from_arrow(dt).repartition(7), k=k
    ).to_pandas()
    ref = con.execute(
        "WITH lines AS (SELECT unnest(string_split("
        "  coalesce(text, ''), chr(10))) AS line FROM documents), "
        "nz AS (SELECT line FROM lines WHERE line <> ''), "
        "m AS (SELECT line, regexp_replace(regexp_replace("
        "regexp_replace(line, '0x[0-9a-fA-F]+', '<HEX>', 'g'), "
        f"'{uu}', '<UUID>', 'g'), "
        "'[0-9]+', '<N>', 'g') AS template FROM nz) "
        "SELECT template, CAST(count(*) AS BIGINT) AS n, "
        "min(line) AS example FROM m GROUP BY template "
        f"ORDER BY n DESC, template LIMIT {k}"
    ).fetchdf()
    check(
        "log_templates", seed, mine, ref,
        ["template"], ["n", "example"],
    )

    mine = stitch_multiline(
        ray.data.from_arrow(dt2).repartition(7)
    ).to_pandas()
    ref = con.execute(
        "WITH lines AS (SELECT doc_id, unnest(ls) AS line, "
        "  unnest(generate_series(1, len(ls))) AS li "
        "  FROM (SELECT doc_id, string_split(coalesce(text, ''), "
        "    chr(10)) AS ls FROM documents)), "
        "m AS (SELECT doc_id, li, line, CASE WHEN "
        "  regexp_matches(line, '^[\\t ]') THEN 0 ELSE 1 END "
        "  AS st FROM lines), "
        "r AS (SELECT doc_id, li, line, CAST(sum(st) OVER ("
        "  PARTITION BY doc_id ORDER BY li "
        "  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS rec_idx FROM m) "
        "SELECT doc_id, rec_idx, string_agg(line, chr(10) "
        "ORDER BY li) AS rec_text, CAST(count(*) AS BIGINT) "
        "AS n_lines FROM r GROUP BY doc_id, rec_idx"
    ).fetchdf()
    check(
        "stitch_multiline", seed, mine, ref,
        ["doc_id", "rec_idx"], ["rec_text", "n_lines"],
    )

    # --- burst islands + decayed scores on a random event stream
    n = 2500
    ts = rng.integers(0, 3000, n).astype(np.int64) * 1_000_000
    ev = pa.table(
        {
            "user_id": pa.array(
                rng.integers(1, 40, n).astype(np.int64)
            ),
            "ts": pa.array(ts, pa.timestamp("us")),
            "event_type": pa.array(
                rng.choice(["error", "click"], n, p=[0.6, 0.4])
            ),
            "value": pa.array(
                np.floor(rng.uniform(-30, 300, n) * 100) / 100.0,
                pa.float64(),
            ),
        }
    )
    con.register("events", ev)
    win = int(rng.integers(20, 200)) * 1_000_000
    thr = int(rng.integers(2, 6))
    mine = error_bursts(
        ray.data.from_arrow(ev).repartition(7),
        window_us=win,
        threshold=thr,
    ).to_pandas()
    ref = con.execute(
        f"WITH w AS (SELECT epoch_us(ts) // {win} AS w, "
        "  CAST(count(*) AS BIGINT) AS n FROM events "
        "  WHERE event_type = 'error' GROUP BY 1), "
        f"hot AS (SELECT w, n FROM w WHERE n >= {thr}), "
        "isl AS (SELECT w, n, w - row_number() OVER (ORDER BY w) "
        "  AS grp FROM hot), "
        "b AS (SELECT grp, min(w) AS w_start, max(w) AS w_end, "
        "  CAST(count(*) AS BIGINT) AS n_windows, "
        "  CAST(sum(n) AS BIGINT) AS total_events, "
        "  max(n) AS peak_events FROM isl GROUP BY grp) "
        "SELECT CAST(row_number() OVER (ORDER BY w_start) AS BIGINT) "
        "AS burst_id, w_start, w_end, n_windows, total_events, "
        "peak_events FROM b"
    ).fetchdf()
    check(
        "error_bursts", seed, mine, ref,
        ["burst_id"],
        ["w_start", "w_end", "n_windows", "total_events",
         "peak_events"],
    )

    t_ref = int(rng.integers(1000, 4000)) * 1_000_000
    hl = int(rng.integers(50, 500)) * 1_000_000
    mh = int(rng.integers(5, 25))
    mine = decay_score(
        ray.data.from_arrow(ev).repartition(7),
        t_ref_us=t_ref,
        half_life_us=hl,
        max_halvings=mh,
    ).to_pandas()
    ref = con.execute(
        "WITH q AS (SELECT user_id, "
        "CAST(floor(value * 100) AS BIGINT) * "
        f"(CAST(1 AS BIGINT) << CAST({mh} - least(greatest("
        f"({t_ref} - epoch_us(ts)) // {hl}, 0), {mh}) AS INTEGER)) "
        "AS contrib FROM events) "
        "SELECT user_id, CAST(count(*) AS BIGINT) AS n_events, "
        "CAST(sum(contrib) AS BIGINT) AS decayed_q, "
        "CAST(sum(contrib) AS BIGINT) / (100.0 * "
        f"(CAST(1 AS BIGINT) << {mh})) AS decay_score "
        "FROM q GROUP BY user_id"
    ).fetchdf()
    check(
        "decay_score", seed, mine, ref,
        ["user_id"], ["n_events", "decayed_q", "decay_score"],
    )

    # --- band self-join on random (negative-inclusive) values
    bt = pa.table(
        {
            "id": pa.array(np.arange(1, 501, dtype=np.int64)),
            "v": pa.array(
                rng.integers(-2000, 2000, 500).astype(np.int64)
            ),
        }
    )
    con.register("bt", bt)
    eps = int(rng.integers(5, 80))
    bds = lambda: ray.data.from_arrow(bt).repartition(5)  # noqa: E731
    mine_p = sorted(
        (r["id_a"], r["id_b"])
        for r in band_join(
            bds(), bds(), "v", "id", "v", "id",
            eps_q=eps, n_buckets=16, antisym=True,
        ).take_all()
    )
    ref_p = sorted(
        con.execute(
            "SELECT a.id, b.id FROM bt a JOIN bt b "
            f"ON abs(a.v - b.v) <= {eps} AND a.id < b.id"
        ).fetchall()
    )
    if mine_p != ref_p:
        failures.append(("band_join", seed))
        print(f"FAIL band_join seed={seed}", flush=True)

    # --- triangle counts over a random co-occurrence graph
    mt = pa.table(
        {
            "grp": pa.array(
                rng.integers(0, 120, 900).astype(np.int64)
            ),
            "item": pa.array(
                rng.integers(0, 80, 900).astype(np.int64)
            ),
        }
    )
    con.register("mt", mt)
    edges = cooccur_pair_edges(
        ray.data.from_arrow(mt).repartition(5), "grp", "item",
        n_buckets=16,
    )
    mine_t = {
        r["node"]: r["n_tri"]
        for r in triangle_counts(edges, n_buckets=16).take_all()
    }
    ref_t = dict(
        con.execute(
            "WITH e AS (SELECT DISTINCT m1.item AS a, m2.item AS b "
            "  FROM mt m1 JOIN mt m2 ON m1.grp = m2.grp "
            "  AND m1.item < m2.item), "
            "tri AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z "
            "  FROM e e1 JOIN e e2 ON e1.b = e2.a "
            "  JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b) "
            "SELECT node, CAST(count(*) AS BIGINT) FROM ("
            "  SELECT x AS node FROM tri UNION ALL SELECT y FROM tri "
            "  UNION ALL SELECT z FROM tri) GROUP BY node"
        ).fetchall()
    )
    if mine_t != ref_t:
        failures.append(("triangle_counts", seed))
        print(f"FAIL triangle_counts seed={seed}", flush=True)


def resample_graph_family(seed):
    """Round-4c operators vs DuckDB on fresh random inputs: per-group
    Gini, phrase search, MLM masking, interpolation join, interval
    concurrency, k-hop BFS."""
    rng = np.random.default_rng(seed + 101)

    from console_log_parser_ray.stages.events import (
        gini_by_group,
        interp_join,
        interval_concurrency,
    )
    from console_log_parser_ray.stages.graph import khop_reach
    from console_log_parser_ray.stages.textan import (
        mlm_mask,
        phrase_search,
    )

    con = duckdb.connect()

    # --- Gini on tie-heavy groups
    n = 1500
    gt = pa.table(
        {
            "g": pa.array(
                list(rng.choice(["a", "b", "c", "d"], n)), pa.string()
            ),
            "value": pa.array(
                np.floor(rng.uniform(0, 200, n) * 100) / 100.0,
                pa.float64(),
            ),
        }
    )
    con.register("gt", gt)
    mine = gini_by_group(
        ray.data.from_arrow(gt).repartition(6), "g", "value",
        n_buckets=8,
    ).to_pandas()
    ref = con.execute(
        "WITH c AS (SELECT g, CAST(floor(value * 100) AS BIGINT) "
        "AS v FROM gt), "
        "r AS (SELECT g, v, row_number() OVER (PARTITION BY g "
        "ORDER BY v) AS i FROM c), "
        "a AS (SELECT g, CAST(count(*) AS BIGINT) AS n, "
        "CAST(sum(v) AS BIGINT) AS s, "
        "CAST(sum(i * v) AS BIGINT) AS iv FROM r GROUP BY g) "
        "SELECT g, n, s AS sum_q, 2 * iv - (n + 1) * s AS gini_num, "
        "n * s AS gini_den, (2 * iv - (n + 1) * s) / (1.0 * n * s) "
        "AS gini FROM a"
    ).fetchdf()
    check(
        "gini_by_group", seed, mine, ref,
        ["g"], ["n", "sum_q", "gini_num", "gini_den", "gini"],
    )

    # --- phrase search + MLM mask on a random tiny-vocab corpus
    vocab = np.array(["p", "q", "r", "s"])
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 20)))
        for _ in range(120)
    ]
    texts[0], texts[1] = "", None
    dt = pa.table(
        {
            "doc_id": pa.array(np.arange(120, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )
    con.register("documents", dt)
    mine_p = {
        r["doc_id"]: r["n_hits"]
        for r in phrase_search(
            ray.data.from_arrow(dt).repartition(6), "p q"
        ).take_all()
    }
    ref_p = dict(
        con.execute(
            "WITH t AS (SELECT doc_id, regexp_extract_all("
            "coalesce(text, ''), '\\S+') AS tk FROM documents), "
            "g AS (SELECT doc_id, unnest(list_transform("
            "generate_series(1, len(tk) - 1), "
            "i -> concat_ws(' ', tk[i], tk[i+1]))) AS gram FROM t "
            "WHERE len(tk) >= 2) "
            "SELECT doc_id, CAST(count(*) AS BIGINT) FROM g "
            "WHERE gram = 'p q' GROUP BY doc_id"
        ).fetchall()
    )
    if mine_p != ref_p:
        failures.append(("phrase_search", seed))
        print(f"FAIL phrase_search seed={seed}", flush=True)

    rate = int(rng.integers(5, 60))
    mine = mlm_mask(
        ray.data.from_arrow(dt).repartition(6), rate_pct=rate
    ).to_pandas()
    ref = con.execute(
        "WITH t AS (SELECT doc_id, regexp_extract_all("
        "coalesce(text, ''), '\\S+') AS tk FROM documents), "
        "tok AS (SELECT doc_id, unnest(tk) AS tok, "
        "unnest(generate_series(1, len(tk))) AS j FROM t), "
        "m AS (SELECT doc_id, j, tok, "
        "('0x' || substr(md5(doc_id || ':' || j), 1, 8))::BIGINT "
        f"% 100 < {rate} AS is_m FROM tok), "
        "agg AS (SELECT doc_id, "
        "string_agg(CASE WHEN is_m THEN '<MASK>' ELSE tok END, ' ' "
        "ORDER BY j) AS corrupted, "
        "coalesce(string_agg(CASE WHEN is_m THEN tok END, '|' "
        "ORDER BY j), '') AS labels, "
        "CAST(count(*) FILTER (WHERE is_m) AS BIGINT) AS n_masked "
        "FROM m GROUP BY doc_id) "
        "SELECT d.doc_id, coalesce(a.corrupted, '') AS corrupted, "
        "coalesce(a.labels, '') AS labels, "
        "CAST(coalesce(a.n_masked, 0) AS BIGINT) AS n_masked "
        "FROM documents d LEFT JOIN agg a USING (doc_id)"
    ).fetchdf()
    check(
        "mlm_mask", seed, mine, ref,
        ["doc_id"], ["corrupted", "labels", "n_masked"],
    )

    # --- interpolation join with ties and event-less users
    ne, nq, nu = 1500, 400, 40
    ev = pa.table(
        {
            "user_id": pa.array(
                rng.integers(1, nu + 1, ne).astype(np.int64)
            ),
            "ts": pa.array(
                rng.integers(0, 25, ne).astype(np.int64)
                * 1_000_000_000,
                pa.timestamp("us"),
            ),
            "value": pa.array(
                np.floor(rng.uniform(-30, 30, ne) * 100) / 100.0,
                pa.float64(),
            ),
            "event_id": pa.array(
                np.arange(1, ne + 1, dtype=np.int64)
            ),
        }
    )
    q = pa.table(
        {
            "o_orderkey": pa.array(
                np.arange(1, nq + 1, dtype=np.int64)
            ),
            "o_custkey": pa.array(
                rng.integers(1, nu + 9, nq).astype(np.int64)
            ),
            "o_orderdate": pa.array(
                rng.integers(-2, 27 * 10**9, nq).astype(np.int64),
                pa.timestamp("us"),
            ),
        }
    )
    con.register("events", ev)
    con.register("orders", q)
    mine = interp_join(
        ray.data.from_arrow(q).repartition(4),
        ray.data.from_arrow(ev).repartition(6),
        n_buckets=8,
    ).to_pandas()
    ref = con.execute(
        "WITH p AS (SELECT o.o_orderkey, "
        "epoch_us(o.o_orderdate) AS tq, "
        "(SELECT epoch_us(e.ts) FROM events e WHERE e.user_id = "
        "o.o_custkey AND e.ts <= o.o_orderdate ORDER BY e.ts DESC, "
        "e.event_id DESC LIMIT 1) AS tp, "
        "(SELECT e.value FROM events e WHERE e.user_id = "
        "o.o_custkey AND e.ts <= o.o_orderdate ORDER BY e.ts DESC, "
        "e.event_id DESC LIMIT 1) AS vp, "
        "(SELECT epoch_us(e.ts) FROM events e WHERE e.user_id = "
        "o.o_custkey AND e.ts >= o.o_orderdate ORDER BY e.ts ASC, "
        "e.event_id ASC LIMIT 1) AS tn, "
        "(SELECT e.value FROM events e WHERE e.user_id = "
        "o.o_custkey AND e.ts >= o.o_orderdate ORDER BY e.ts ASC, "
        "e.event_id ASC LIMIT 1) AS vn FROM orders o) "
        "SELECT o_orderkey, tp AS t_prev_us, vp AS v_prev, "
        "tn AS t_next_us, vn AS v_next, "
        "CASE WHEN tp IS NOT NULL AND tn IS NOT NULL AND tp <> tn "
        "THEN vp + (vn - vp) * (CAST(tq - tp AS DOUBLE) / "
        "CAST(tn - tp AS DOUBLE)) "
        "WHEN tp IS NOT NULL THEN vp "
        "WHEN tn IS NOT NULL THEN vn ELSE NULL END AS v_interp "
        "FROM p"
    ).fetchdf()
    check(
        "interp_join", seed, mine, ref,
        ["o_orderkey"],
        ["t_prev_us", "v_prev", "t_next_us", "v_next", "v_interp"],
    )

    # --- interval concurrency with boundary ties
    ni = 800
    s = (rng.integers(-40, 200, ni) * 10_000_000).astype(np.int64)
    d = (rng.integers(1, 30, ni) * 10_000_000).astype(np.int64)
    iv = pa.table(
        {
            "iid": pa.array(np.arange(1, ni + 1, dtype=np.int64)),
            "s_us": pa.array(s, pa.int64()),
            "e_us": pa.array(s + d, pa.int64()),
        }
    )
    con.register("iv", iv)
    mine_c = {
        r["iid"]: r["n_active"]
        for r in interval_concurrency(
            ray.data.from_arrow(iv).repartition(5),
            id_col="iid",
            start_col="s_us",
            end_col="e_us",
            bucket_us=int(rng.integers(3, 40)) * 10_000_000,
        ).take_all()
    }
    ref_c = dict(
        con.execute(
            "WITH b AS (SELECT iid, s_us AS t, 1 AS is_start FROM iv "
            "UNION ALL SELECT iid, e_us, 0 FROM iv), "
            "w AS (SELECT iid, t, is_start, "
            "count(*) FILTER (WHERE is_start = 1) OVER (ORDER BY t "
            "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) "
            "AS c_s, "
            "count(*) FILTER (WHERE is_start = 0) OVER (ORDER BY t "
            "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) "
            "AS c_e FROM b) "
            "SELECT iid, CAST(c_s - c_e AS BIGINT) FROM w "
            "WHERE is_start = 1"
        ).fetchall()
    )
    if mine_c != ref_c:
        failures.append(("interval_concurrency", seed))
        print(f"FAIL interval_concurrency seed={seed}", flush=True)

    # --- k-hop BFS on a random sparse graph
    a = rng.integers(0, 300, 700)
    b_ = rng.integers(0, 300, 700)
    m = a < b_
    e = np.unique(np.stack([a[m], b_[m]], axis=1), axis=0)
    et = pa.table(
        {
            "a": pa.array(e[:, 0], pa.int64()),
            "b": pa.array(e[:, 1], pa.int64()),
        }
    )
    con.register("e", et)
    seeds_k = sorted(
        int(x) for x in rng.choice(300, 3, replace=False)
    )
    kk = int(rng.integers(1, 4))
    mine_t = khop_reach(
        ray.data.from_arrow(et).repartition(5), seeds_k, k=kk
    )
    md = dict(
        zip(
            mine_t.column("node").to_pylist(),
            mine_t.column("hop").to_pylist(),
        )
    )
    seed_list = ",".join(str(x) for x in seeds_k)
    ref_t = dict(
        con.execute(
            "WITH RECURSIVE sym AS (SELECT a, b FROM e "
            "UNION ALL SELECT b, a FROM e), "
            "r(node, hop) AS ("
            f"SELECT unnest([{seed_list}]::BIGINT[]), 0 "
            "UNION SELECT sym.b, r.hop + 1 FROM r "
            f"JOIN sym ON sym.a = r.node WHERE r.hop < {kk}) "
            "SELECT node, CAST(min(hop) AS BIGINT) FROM r "
            "GROUP BY node"
        ).fetchall()
    )
    if md != ref_t:
        failures.append(("khop_reach", seed))
        print(f"FAIL khop_reach seed={seed}", flush=True)


def growth_quality_family(seed):
    """Round-4d operators vs DuckDB on fresh random inputs: daily
    new-vs-returning, daily-series ACF, Benford digit screen,
    largest-remainder quota allocation."""
    rng = np.random.default_rng(seed + 131)

    from console_log_parser_ray.stages.events import (
        acf_daily,
        new_vs_returning,
    )
    from console_log_parser_ray.stages.export import quota_alloc
    from console_log_parser_ray.stages.profile import benford_digits

    con = duckdb.connect()
    day_us = 86_400_000_000

    # --- new vs returning on a random multi-day stream
    n, nu = 2500, int(rng.integers(10, 80))
    ev = pa.table(
        {
            "user_id": pa.array(
                rng.integers(1, nu + 1, n).astype(np.int64)
            ),
            "ts": pa.array(
                rng.integers(0, 15 * day_us, n).astype(np.int64),
                pa.timestamp("us"),
            ),
        }
    )
    con.register("events", ev)
    mine = new_vs_returning(
        ray.data.from_arrow(ev).repartition(6), n_buckets=8
    ).to_pandas()
    ref = con.execute(
        "WITH p AS (SELECT DISTINCT epoch_us(ts) // 86400000000 "
        "AS day, user_id FROM events), "
        "f AS (SELECT user_id, min(day) AS fday FROM p GROUP BY 1) "
        "SELECT p.day, CAST(count(*) AS BIGINT) AS n_active, "
        "CAST(count(*) FILTER (WHERE f.fday = p.day) AS BIGINT) "
        "AS n_new, "
        "CAST(count(*) FILTER (WHERE f.fday < p.day) AS BIGINT) "
        "AS n_returning FROM p JOIN f USING (user_id) GROUP BY p.day"
    ).fetchdf()
    check(
        "new_vs_returning", seed, mine, ref,
        ["day"], ["n_active", "n_new", "n_returning"],
    )

    # --- ACF over the same stream (missing days possible)
    lag = int(rng.integers(2, 8))
    mine = acf_daily(
        ray.data.from_arrow(ev).repartition(6), max_lag=lag
    ).to_pandas()
    ref = con.execute(
        "WITH d AS (SELECT epoch_us(ts) // 86400000000 AS day, "
        "CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1), "
        f"l AS (SELECT unnest(generate_series(1, {lag})) AS lag), "
        "p AS (SELECT l.lag, a.n AS x, b.n AS y FROM l "
        "CROSS JOIN d a JOIN d b ON b.day = a.day + l.lag), "
        "m AS (SELECT lag, CAST(count(*) AS BIGINT) AS m, "
        "sum(CAST(x AS HUGEINT)) AS sx, sum(CAST(y AS HUGEINT)) AS sy, "
        "sum(CAST(x AS HUGEINT) * y) AS sxy, "
        "sum(CAST(x AS HUGEINT) * x) AS sxx, "
        "sum(CAST(y AS HUGEINT) * y) AS syy FROM p GROUP BY 1) "
        "SELECT l.lag, CAST(coalesce(m.m, 0) AS BIGINT) AS n_pairs, "
        "CASE WHEN m.m > 1 AND m.m * m.sxx - m.sx * m.sx > 0 "
        "AND m.m * m.syy - m.sy * m.sy > 0 THEN "
        "CAST(m.m * m.sxy - m.sx * m.sy AS DOUBLE) / "
        "sqrt(CAST(m.m * m.sxx - m.sx * m.sx AS DOUBLE) * "
        "CAST(m.m * m.syy - m.sy * m.sy AS DOUBLE)) ELSE NULL END "
        "AS acf FROM l LEFT JOIN m USING (lag)"
    ).fetchdf()
    check(
        "acf_daily", seed, mine, ref, ["lag"], ["n_pairs", "acf"]
    )

    # --- Benford on log-uniform prices with nulls and sub-cent rows
    m = 3000
    vals = 10.0 ** rng.uniform(-3, 5, m)
    vals = np.floor(vals * 100) / 100.0
    v = vals.astype(object)
    v[rng.random(m) < 0.03] = None
    ot = pa.table({"o_totalprice": pa.array(list(v), pa.float64())})
    con.register("orders", ot)
    mine = benford_digits(
        ray.data.from_arrow(ot).repartition(6), "o_totalprice"
    ).to_pandas()
    ref = con.execute(
        "WITH c AS (SELECT CAST(floor(o_totalprice * 100) AS BIGINT) "
        "AS cents FROM orders WHERE o_totalprice IS NOT NULL), "
        "h AS (SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) "
        "AS BIGINT) AS digit, CAST(count(*) AS BIGINT) AS n FROM c "
        "WHERE cents >= 1 GROUP BY 1), "
        "t AS (SELECT sum(n) AS tot FROM h), "
        "b AS (SELECT digit, n, "
        "CAST(n AS DOUBLE) / CAST(tot AS DOUBLE) AS share, "
        "log10(1.0 + 1.0 / digit) AS benford_p, "
        "CAST(tot AS DOUBLE) * log10(1.0 + 1.0 / digit) AS e "
        "FROM h, t) "
        "SELECT digit, n, share, benford_p, "
        "(CAST(n AS DOUBLE) - e) * (CAST(n AS DOUBLE) - e) / e "
        "AS chi2_term FROM b"
    ).fetchdf()
    check(
        "benford_digits", seed, mine, ref,
        ["digit"], ["n", "share", "benford_p", "chi2_term"],
    )

    # --- quota allocation on skewed groups with a null group
    k = 2000
    groups = np.array(
        ["web", "book", "code", "wiki", "chat", "rare"], dtype=object
    )
    g = groups[
        np.minimum(rng.geometric(0.4, k) - 1, len(groups) - 1)
    ].astype(object)
    g[rng.random(k) < 0.01] = None
    dt = pa.table({"source": pa.array(list(g), pa.string())})
    con.register("documents", dt)
    budget = int(rng.integers(50, 4000))
    mine = quota_alloc(
        ray.data.from_arrow(dt).repartition(6),
        budget=budget,
        group_col="source",
    ).to_pandas()
    ref = con.execute(
        "WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n "
        "FROM documents GROUP BY 1), "
        f"t AS (SELECT source, n, CAST({budget} AS HUGEINT) * n AS q, "
        "sum(n) OVER () AS tot FROM c), "
        "b AS (SELECT source, n, CAST(q // tot AS BIGINT) AS base, "
        "q % tot AS rem FROM t), "
        "r AS (SELECT source, n, base, rem, row_number() OVER ("
        "ORDER BY rem DESC, source) AS rk, "
        "sum(base) OVER () AS basesum FROM b) "
        "SELECT source, n AS n_docs, CAST(base + CASE WHEN "
        f"rk <= {budget} - basesum THEN 1 ELSE 0 END AS BIGINT) "
        "AS alloc FROM r"
    ).fetchdf()
    mine["source"] = mine["source"].fillna("<null>")
    ref["source"] = ref["source"].fillna("<null>")
    check(
        "quota_alloc", seed, mine, ref,
        ["source"], ["n_docs", "alloc"],
    )
    if int(mine["alloc"].sum()) != budget:
        failures.append(("quota_alloc_sum", seed))
        print(f"FAIL quota_alloc_sum seed={seed}", flush=True)

    # --- weighted median on tie-heavy values, null group/value/weight
    from console_log_parser_ray.stages.events import (
        km_retention,
        weighted_median_per_group,
        welch_ab,
    )
    from console_log_parser_ray.stages.textan import vocab_growth

    n = 2500
    g = np.array(["a", "b", "c"], dtype=object)[
        rng.integers(0, 3, n)
    ].astype(object)
    g[rng.random(n) < 0.02] = None
    v = np.floor(rng.uniform(0, 25, n)).astype(object)
    v[rng.random(n) < 0.02] = None
    w = (np.floor(rng.uniform(0.5, 300, n) * 100) / 100.0).astype(
        object
    )
    w[rng.random(n) < 0.02] = None
    wt = pa.table(
        {
            "g": pa.array(list(g), pa.string()),
            "v": pa.array(list(v), pa.float64()),
            "w": pa.array(list(w), pa.float64()),
        }
    )
    con.register("wt", wt)
    mine = weighted_median_per_group(
        ray.data.from_arrow(wt).repartition(6), "g", "v", "w",
        n_buckets=8,
    ).to_pandas()
    ref = con.execute(
        "WITH c AS (SELECT g, v, CAST(floor(w * 100) AS BIGINT) AS w "
        "FROM wt WHERE v IS NOT NULL AND w IS NOT NULL), "
        "a AS (SELECT g, v, CAST(sum(w) AS BIGINT) AS wv FROM c "
        "GROUP BY 1, 2), "
        "r AS (SELECT g, v, wv, CAST(sum(wv) OVER (PARTITION BY g "
        "ORDER BY v ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cw, "
        "CAST(sum(wv) OVER (PARTITION BY g) AS BIGINT) AS tw FROM a) "
        "SELECT g, max(tw) AS total_w_cents, "
        "min(CASE WHEN 2 * cw >= tw THEN v END) AS wmedian FROM r "
        "GROUP BY 1"
    ).fetchdf()
    mine["g"] = mine["g"].fillna("<null>")
    ref["g"] = ref["g"].fillna("<null>")
    check(
        "weighted_median", seed, mine, ref,
        ["g"], ["total_w_cents", "wmedian"],
    )

    # --- vocab growth on a random tiny-vocab corpus
    vocab = np.array(["pp", "qq", "rr", "ss", "tt"])
    texts = [
        " ".join(rng.choice(vocab, rng.integers(0, 18)))
        for _ in range(110)
    ]
    texts[0], texts[1] = "", None
    vt = pa.table(
        {
            "doc_id": pa.array(np.arange(110, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )
    con.register("vg_documents", vt)
    ncp = int(rng.integers(4, 12))
    mine = vocab_growth(
        ray.data.from_arrow(vt).repartition(6),
        n_checkpoints=ncp,
        n_buckets=8,
    ).to_pandas()
    ref = con.execute(
        "WITH t AS (SELECT doc_id, unnest(regexp_extract_all("
        "coalesce(text, ''), '\\S+')) AS tok FROM vg_documents), "
        "f AS (SELECT tok, min(doc_id) AS fd FROM t GROUP BY 1), "
        "mx AS (SELECT max(doc_id) AS m FROM vg_documents), "
        f"c AS (SELECT k, (k * m) // {ncp} AS ckd FROM "
        f"(SELECT unnest(generate_series(1, {ncp})) AS k), mx) "
        "SELECT c.k, c.ckd AS ck_doc, "
        "(SELECT CAST(count(*) AS BIGINT) FROM t "
        "WHERE doc_id <= c.ckd) AS n_tokens, "
        "(SELECT CAST(count(*) AS BIGINT) FROM f "
        "WHERE fd <= c.ckd) AS n_types FROM c"
    ).fetchdf()
    check(
        "vocab_growth", seed, mine, ref,
        ["k"], ["ck_doc", "n_tokens", "n_types"],
    )

    # --- Welch A/B on drifted variants
    n = 3000
    day_us = 86_400_000_000
    vv = np.array(["A", "B", "zz"], dtype=object)[
        rng.choice([0, 0, 1, 1, 2], n)
    ]
    ts2 = rng.integers(0, 10 * day_us, n).astype(np.int64)
    vals = np.floor(rng.uniform(1, 60, n) * 100) / 100.0
    vals[(vv == "B") & (ts2 > 5 * day_us)] += 25.0
    vo = vals.astype(object)
    vo[rng.random(n) < 0.02] = None
    at = pa.table(
        {
            "event_type": pa.array(list(vv), pa.string()),
            "ts": pa.array(ts2, pa.timestamp("us")),
            "value": pa.array(list(vo), pa.float64()),
        }
    )
    con.register("ab_events", at)
    mine = welch_ab(
        ray.data.from_arrow(at).repartition(6),
        variant_a="A",
        variant_b="B",
    ).to_pandas()
    ref = con.execute(
        "WITH c AS (SELECT epoch_us(ts) // 86400000000 AS day, "
        "event_type AS v, CAST(floor(value * 100) AS BIGINT) AS x "
        "FROM ab_events WHERE event_type IN ('A', 'B') "
        "AND value IS NOT NULL), "
        "a AS (SELECT day, v, CAST(count(*) AS BIGINT) AS n, "
        "sum(CAST(x AS HUGEINT)) AS sx, "
        "sum(CAST(x AS HUGEINT) * x) AS sxx FROM c GROUP BY 1, 2), "
        "j AS (SELECT a.day, a.n AS na, a.sx AS sxa, a.sxx AS sxxa, "
        "b.n AS nb, b.sx AS sxb, b.sxx AS sxxb FROM a JOIN a b "
        "ON a.day = b.day AND a.v = 'A' AND b.v = 'B'), "
        "w AS (SELECT day, na, nb, "
        "CAST(sxa AS DOUBLE) / CAST(na AS DOUBLE) AS ma, "
        "CAST(sxb AS DOUBLE) / CAST(nb AS DOUBLE) AS mb, "
        "CASE WHEN na > 1 THEN CAST(na * sxxa - sxa * sxa AS DOUBLE) "
        "/ CAST(na * (na - 1) AS DOUBLE) END AS va, "
        "CASE WHEN nb > 1 THEN CAST(nb * sxxb - sxb * sxb AS DOUBLE) "
        "/ CAST(nb * (nb - 1) AS DOUBLE) END AS vb FROM j) "
        "SELECT day, na AS n_a, nb AS n_b, ma / 100.0 AS mean_a, "
        "mb / 100.0 AS mean_b, CASE WHEN va IS NOT NULL "
        "AND vb IS NOT NULL AND va / na + vb / nb > 0 THEN "
        "(ma - mb) / sqrt(va / na + vb / nb) END AS t_stat FROM w"
    ).fetchdf()
    check(
        "welch_ab", seed, mine, ref,
        ["day"], ["n_a", "n_b", "mean_a", "mean_b", "t_stat"],
    )

    # --- KM retention on sparse random spans
    rows_u, rows_t = [], []
    for u in range(1, 120):
        start = int(rng.integers(0, 20))
        span = int(rng.integers(0, 20 - start + 1))
        for d in np.concatenate(
            [[start, start + span],
             rng.integers(start, start + span + 1, 3)]
        ):
            rows_u.append(u)
            rows_t.append(int(d) * day_us + int(rng.integers(0, day_us)))
    kt = pa.table(
        {
            "user_id": pa.array(rows_u, pa.int64()),
            "ts": pa.array(
                np.array(rows_t, dtype=np.int64), pa.timestamp("us")
            ),
        }
    )
    con.register("km_events", kt)
    mine = km_retention(
        ray.data.from_arrow(kt).repartition(6), n_buckets=8
    ).to_pandas()
    ref = con.execute(
        "WITH e AS (SELECT user_id, epoch_us(ts) // 86400000000 "
        "AS day FROM km_events), "
        "u AS (SELECT user_id, min(day) AS f, max(day) AS l FROM e "
        "GROUP BY 1), "
        "mx AS (SELECT max(day) AS m FROM e), "
        "d AS (SELECT l - f AS dur, CASE WHEN l = m THEN 1 ELSE 0 END "
        "AS cens FROM u, mx), "
        "h AS (SELECT dur, CAST(count(*) FILTER (WHERE cens = 0) "
        "AS BIGINT) AS deaths, CAST(count(*) AS BIGINT) AS total "
        "FROM d GROUP BY 1), "
        "r AS (SELECT dur, deaths, CAST((SELECT sum(h2.total) FROM "
        "h h2 WHERE h2.dur >= h.dur) AS BIGINT) AS at_risk FROM h "
        "WHERE deaths > 0) "
        "SELECT dur, deaths, at_risk, product(1.0 - "
        "CAST(deaths AS DOUBLE) / CAST(at_risk AS DOUBLE)) "
        "OVER (ORDER BY dur ROWS UNBOUNDED PRECEDING) AS survival "
        "FROM r"
    ).fetchdf()
    check(
        "km_retention", seed, mine, ref,
        ["dur"], ["deaths", "at_risk", "survival"],
    )



def stats_quality_family(seed):
    """Round-4e operators vs DuckDB on fresh random inputs: 2x2
    chi-square, Spearman rank correlation, SLO burn alerts,
    day-of-week seasonality, Flesch readability, split leakage."""
    rng = np.random.default_rng(seed + 151)

    from console_log_parser_ray.stages.events import (
        chi2_contingency_2x2,
        dow_seasonality,
        slo_burn_alerts,
        spearman_corr,
    )
    from console_log_parser_ray.stages.export import split_leakage
    from console_log_parser_ray.stages.textan import readability_scores

    con = duckdb.connect()

    # --- 2x2 chi-square on planted-association booleans with nulls
    n = 2000
    a = rng.random(n) < rng.uniform(0.2, 0.8)
    b = rng.random(n) < np.where(a, 0.65, 0.35)
    ao, bo = a.astype(object), b.astype(object)
    ao[rng.random(n) < 0.04] = None
    bo[rng.random(n) < 0.04] = None
    flags = pa.table(
        {
            "a": pa.array(list(ao), pa.bool_()),
            "b": pa.array(list(bo), pa.bool_()),
        }
    )
    con.register("flags", flags)
    mine = chi2_contingency_2x2(
        ray.data.from_arrow(flags).repartition(5)
    ).to_pandas()
    ref = con.execute(
        "WITH c AS (SELECT a, b FROM flags WHERE a IS NOT NULL "
        "AND b IS NOT NULL), "
        "f AS (SELECT CAST(count(*) FILTER (WHERE a AND b) AS BIGINT) "
        "AS n11, CAST(count(*) FILTER (WHERE a AND NOT b) AS BIGINT) "
        "AS n10, CAST(count(*) FILTER (WHERE NOT a AND b) AS BIGINT) "
        "AS n01, CAST(count(*) FILTER (WHERE NOT a AND NOT b) "
        "AS BIGINT) AS n00 FROM c), "
        "g AS (SELECT n11, n10, n01, n00, n11 + n10 + n01 + n00 AS n, "
        "n11 + n10 AS r1, n01 + n00 AS r0, n11 + n01 AS c1, "
        "n10 + n00 AS c0, CAST(n11 AS HUGEINT) * n00 - "
        "CAST(n10 AS HUGEINT) * n01 AS d FROM f), "
        "h AS (SELECT *, CAST(r1 AS HUGEINT) * r0 * c1 * c0 AS den "
        "FROM g) "
        "SELECT n11, n10, n01, n00, "
        "CASE WHEN den > 0 THEN CAST(CAST(n AS HUGEINT) * d * d "
        "AS DOUBLE) / CAST(den AS DOUBLE) END AS chi2, "
        "CASE WHEN den > 0 THEN (CASE WHEN 2 * abs(d) - n > 0 THEN "
        "CAST(CAST(n AS HUGEINT) * (2 * abs(d) - n) * (2 * abs(d) - n) "
        "AS DOUBLE) / CAST(4 * den AS DOUBLE) ELSE 0.0 END) END "
        "AS chi2_yates, "
        "CASE WHEN den > 0 THEN CAST(d AS DOUBLE) / "
        "sqrt(CAST(CAST(r1 AS HUGEINT) * r0 AS DOUBLE) * "
        "CAST(CAST(c1 AS HUGEINT) * c0 AS DOUBLE)) END AS phi, "
        "CASE WHEN CAST(n10 AS HUGEINT) * n01 > 0 THEN "
        "CAST(CAST(n11 AS HUGEINT) * n00 AS DOUBLE) / "
        "CAST(CAST(n10 AS HUGEINT) * n01 AS DOUBLE) END AS odds_ratio "
        "FROM h"
    ).fetchdf()
    check(
        "chi2_2x2", seed, mine, ref,
        ["n11"], ["n10", "n01", "n00", "chi2", "chi2_yates", "phi",
                  "odds_ratio"],
    )

    # --- Spearman on a tie-heavy monotone-plus-noise pair with nulls
    m = 2500
    x = rng.integers(0, 50, m)
    y = 2 * x + rng.integers(-30, 30, m)
    xo, yo = x.astype(object), y.astype(object)
    xo[rng.random(m) < 0.03] = None
    yo[rng.random(m) < 0.03] = None
    xy = pa.table(
        {
            "x": pa.array(list(xo), pa.int64()),
            "y": pa.array(list(yo), pa.int64()),
        }
    )
    con.register("xy", xy)
    mine = spearman_corr(
        ray.data.from_arrow(xy).repartition(6)
    ).to_pandas()
    ref = con.execute(
        "WITH c AS (SELECT x, y FROM xy WHERE x IS NOT NULL "
        "AND y IS NOT NULL), "
        "h AS (SELECT x, y, CAST(count(*) AS BIGINT) AS n FROM c "
        "GROUP BY 1, 2), "
        "mx AS (SELECT x, CAST(sum(n) AS BIGINT) AS nx FROM h "
        "GROUP BY 1), "
        "rx AS (SELECT x, nx, CAST(2 * coalesce(sum(nx) OVER ("
        "ORDER BY x ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING"
        "), 0) + nx + 1 AS BIGINT) AS r FROM mx), "
        "my AS (SELECT y, CAST(sum(n) AS BIGINT) AS ny FROM h "
        "GROUP BY 1), "
        "ry AS (SELECT y, ny, CAST(2 * coalesce(sum(ny) OVER ("
        "ORDER BY y ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING"
        "), 0) + ny + 1 AS BIGINT) AS r FROM my), "
        "s AS (SELECT CAST(sum(n) AS HUGEINT) AS nn FROM h), "
        "sx AS (SELECT sum(CAST(nx AS HUGEINT) * r) AS v1, "
        "sum(CAST(nx AS HUGEINT) * r * r) AS v2, "
        "CAST(count(*) AS BIGINT) AS nd FROM rx), "
        "sy AS (SELECT sum(CAST(ny AS HUGEINT) * r) AS v1, "
        "sum(CAST(ny AS HUGEINT) * r * r) AS v2, "
        "CAST(count(*) AS BIGINT) AS nd FROM ry), "
        "sxy AS (SELECT sum(CAST(h.n AS HUGEINT) * rx.r * ry.r) AS v "
        "FROM h JOIN rx USING (x) JOIN ry USING (y)) "
        "SELECT CAST(s.nn AS BIGINT) AS n, sx.nd AS nd_x, "
        "sy.nd AS nd_y, CASE WHEN s.nn * sx.v2 - sx.v1 * sx.v1 > 0 "
        "AND s.nn * sy.v2 - sy.v1 * sy.v1 > 0 THEN "
        "CAST(s.nn * sxy.v - sx.v1 * sy.v1 AS DOUBLE) / "
        "sqrt(CAST(s.nn * sx.v2 - sx.v1 * sx.v1 AS DOUBLE) * "
        "CAST(s.nn * sy.v2 - sy.v1 * sy.v1 AS DOUBLE)) END AS rho "
        "FROM s, sx, sy, sxy"
    ).fetchdf()
    check("spearman", seed, mine, ref, ["n"], ["nd_x", "nd_y", "rho"])

    # --- SLO burn over gappy hours with a planted burst
    k = 4000
    hours = rng.choice(np.arange(0, 240, dtype=np.int64), k)
    hours = hours[(hours % int(rng.integers(7, 15)) != 0)]
    kinds = np.where(
        rng.random(len(hours)) < np.where(hours % 40 < 2, 0.6, 0.03),
        "error", "ok",
    )
    ev = pa.table(
        {
            "event_type": pa.array(list(kinds), pa.string()),
            "ts": pa.array(
                hours * 3_600_000_000 + 11, pa.timestamp("us")
            ),
        }
    )
    con.register("sev", ev)
    mine = slo_burn_alerts(
        ray.data.from_arrow(ev).repartition(5)
    ).to_pandas()
    ref = con.execute(
        "WITH h AS (SELECT epoch_us(ts) // 3600000000 AS hour, "
        "CAST(count(*) AS BIGINT) AS n, CAST(count(*) FILTER ("
        "WHERE event_type = 'error') AS BIGINT) AS e FROM sev "
        "WHERE ts IS NOT NULL GROUP BY 1), "
        "w AS (SELECT hour, n, e, CAST(sum(n) OVER (ORDER BY hour "
        "RANGE BETWEEN 5 PRECEDING AND CURRENT ROW) AS BIGINT) AS nw, "
        "CAST(sum(e) OVER (ORDER BY hour RANGE BETWEEN 5 PRECEDING "
        "AND CURRENT ROW) AS BIGINT) AS ew FROM h) "
        "SELECT hour, n AS n_events, e AS n_errors, nw AS n_window, "
        "ew AS e_window, (e * 10 > n AND ew * 20 > nw) AS alert FROM w"
    ).fetchdf()
    check(
        "slo_burn", seed, mine, ref,
        ["hour"], ["n_events", "n_errors", "n_window", "e_window",
                   "alert"],
    )

    # --- day-of-week seasonality over a partially-covered span
    j = 3000
    day_us = 86_400_000_000
    days = rng.integers(0, int(rng.integers(20, 60)), j)
    kinds = np.array(["click", "view", "buy"])[rng.integers(0, 3, j)]
    ev2 = pa.table(
        {
            "event_type": pa.array(list(kinds), pa.string()),
            "ts": pa.array(days * day_us + 99, pa.timestamp("us")),
        }
    )
    con.register("dev", ev2)
    mine = dow_seasonality(
        ray.data.from_arrow(ev2).repartition(4)
    ).to_pandas()
    ref = con.execute(
        "WITH c AS (SELECT event_type AS k, "
        "epoch_us(ts) // 86400000000 AS day FROM dev "
        "WHERE ts IS NOT NULL AND event_type IS NOT NULL), "
        "kd AS (SELECT k, (day + 4) % 7 AS dow, "
        "CAST(count(*) AS BIGINT) AS n FROM c GROUP BY 1, 2), "
        "dd AS (SELECT (day + 4) % 7 AS dow, CAST(count(*) AS BIGINT) "
        "AS nd FROM (SELECT DISTINCT day FROM c) GROUP BY 1), "
        "tot AS (SELECT CAST(count(*) AS BIGINT) AS d_total FROM ("
        "SELECT DISTINCT day FROM c)), "
        "nk AS (SELECT k, CAST(sum(n) AS BIGINT) AS n_k FROM kd "
        "GROUP BY 1) "
        "SELECT kd.k, CAST(kd.dow AS BIGINT) AS dow, kd.n AS n_events, "
        "dd.nd AS n_days, CAST(kd.n AS DOUBLE) / CAST(dd.nd AS DOUBLE) "
        "AS events_per_day, CAST(kd.n * tot.d_total AS DOUBLE) / "
        "CAST(dd.nd * nk.n_k AS DOUBLE) AS season_idx "
        "FROM kd JOIN dd USING (dow) JOIN nk USING (k), tot"
    ).fetchdf()
    check(
        "dow_seasonality", seed, mine, ref,
        ["k", "dow"], ["n_events", "n_days", "events_per_day",
                       "season_idx"],
    )

    # --- Flesch readability on random word/punctuation soup
    words = ["alpha", "bee", "cry", "dough", "eye", "xyzzy", "rhythm",
             "queueing", "a", "I"]
    puncts = ["", ".", "!", "?", "...", "?!", " "]
    docs = []
    for i in range(400):
        L = int(rng.integers(0, 30))
        parts = []
        for _ in range(L):
            parts.append(words[int(rng.integers(0, len(words)))])
            parts.append(puncts[int(rng.integers(0, len(puncts)))])
        docs.append(" ".join(parts))
    docs[0] = ""
    dt = pa.table(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )
    con.register("docs2", dt)
    mine = readability_scores(
        ray.data.from_arrow(dt).repartition(3)
    ).to_pandas()
    ref = con.execute(
        "SELECT doc_id, CAST(len(regexp_extract_all(coalesce(text, "
        "''), '\\S+')) AS BIGINT) AS n_words, "
        "CAST(greatest(len(regexp_extract_all(coalesce(text, ''), "
        "'[.!?]+')), 1) AS BIGINT) AS n_sentences, "
        "CAST(len(regexp_extract_all(coalesce(text, ''), "
        "'[aeiouyAEIOUY]+')) AS BIGINT) AS n_syllables, "
        "CASE WHEN len(regexp_extract_all(coalesce(text, ''), "
        "'\\S+')) > 0 THEN 206.835 - 1.015 * (CAST(len("
        "regexp_extract_all(coalesce(text, ''), '\\S+')) AS DOUBLE) "
        "/ CAST(greatest(len(regexp_extract_all(coalesce(text, ''), "
        "'[.!?]+')), 1) AS DOUBLE)) - 84.6 * (CAST(len("
        "regexp_extract_all(coalesce(text, ''), '[aeiouyAEIOUY]+')) "
        "AS DOUBLE) / CAST(len(regexp_extract_all(coalesce(text, "
        "''), '\\S+')) AS DOUBLE)) END AS flesch FROM docs2"
    ).fetchdf()
    check(
        "readability", seed, mine, ref,
        ["doc_id"], ["n_words", "n_sentences", "n_syllables",
                     "flesch"],
    )

    # --- split leakage over random group sizes
    g = 2200
    ids = rng.choice(np.arange(100000, dtype=np.int64), g,
                     replace=False)
    grp = np.array([f"s{int(v)}" for v in rng.integers(0, 15, g)])
    lt = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "source": pa.array(list(grp), pa.string()),
        }
    )
    con.register("ldocs", lt)
    mine = split_leakage(
        ray.data.from_arrow(lt).repartition(5), group_col="source"
    ).to_pandas()
    ref = con.execute(
        "WITH s AS (SELECT source, CASE WHEN ('0x' || substr(md5("
        "CAST(doc_id AS VARCHAR)), 1, 13))::BIGINT / "
        "4503599627370496.0 < 0.9 THEN 0 WHEN ('0x' || substr(md5("
        "CAST(doc_id AS VARCHAR)), 1, 13))::BIGINT / "
        "4503599627370496.0 < 0.95 THEN 1 ELSE 2 END AS si "
        "FROM ldocs), "
        "f AS (SELECT source, CAST(count(*) FILTER (WHERE si = 0) "
        "AS BIGINT) AS n_train, CAST(count(*) FILTER (WHERE si = 1) "
        "AS BIGINT) AS n_val, CAST(count(*) FILTER (WHERE si = 2) "
        "AS BIGINT) AS n_test FROM f2 GROUP BY 1) "
        "SELECT source, n_train, n_val, n_test, "
        "(n_train > 0 AND n_test > 0) AS leaky FROM f".replace(
            "f2", "s"
        )
    ).fetchdf()
    check(
        "split_leakage", seed, mine, ref,
        ["source"], ["n_train", "n_val", "n_test", "leaky"],
    )


    # --- clustering coefficients on a random graph
    from console_log_parser_ray.stages.graph import (
        clustering_coefficients,
    )

    nn = int(rng.integers(30, 80))
    pr = sorted(
        {
            (int(a), int(b))
            for a, b in rng.integers(0, nn, (300, 2))
            if a < b
        }
    )
    eds = pa.table(
        {
            "a": pa.array([q[0] for q in pr], pa.int64()),
            "b": pa.array([q[1] for q in pr], pa.int64()),
        }
    )
    con.register("eds", eds)
    mine = clustering_coefficients(
        ray.data.from_arrow(eds).repartition(4), n_buckets=8
    ).to_pandas()
    ref = con.execute(
        "WITH e AS (SELECT a, b FROM eds), "
        "tri AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z FROM e e1 "
        "JOIN e e2 ON e1.b = e2.a "
        "JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b), "
        "tc AS (SELECT node, CAST(count(*) AS BIGINT) AS n_tri FROM ("
        "SELECT x AS node FROM tri UNION ALL SELECT y FROM tri "
        "UNION ALL SELECT z FROM tri) GROUP BY node), "
        "deg AS (SELECT node, CAST(count(*) AS BIGINT) AS degree "
        "FROM (SELECT a AS node FROM e UNION ALL SELECT b FROM e) "
        "GROUP BY node) "
        "SELECT d.node, d.degree, "
        "CAST(coalesce(tc.n_tri, 0) AS BIGINT) AS n_tri, "
        "CASE WHEN d.degree >= 2 THEN "
        "CAST(2 * coalesce(tc.n_tri, 0) AS DOUBLE) / "
        "CAST(d.degree * (d.degree - 1) AS DOUBLE) END AS cc "
        "FROM deg d LEFT JOIN tc USING (node)"
    ).fetchdf()
    check(
        "clustering_coeff", seed, mine, ref,
        ["node"], ["degree", "n_tri", "cc"],
    )

    # --- last-touch attribution on a random event stream
    from console_log_parser_ray.stages.events import (
        last_touch_attribution,
    )

    ne = 3000
    wus = int(rng.integers(500, 3000))
    ev3 = pa.table(
        {
            "event_id": pa.array(np.arange(ne), pa.int64()),
            "user_id": pa.array(
                rng.integers(0, 30, ne).astype(np.int64)
            ),
            "event_type": pa.array(
                list(
                    np.array(["purchase", "click", "view", "x"])[
                        rng.choice([0, 1, 2, 3], ne,
                                   p=[0.2, 0.35, 0.35, 0.1])
                    ]
                ),
                pa.string(),
            ),
            "ts": pa.array(
                rng.integers(0, 30000, ne).astype(np.int64),
                pa.timestamp("us"),
            ),
            "value": pa.array(
                np.round(rng.uniform(0, 40, ne), 2), pa.float64()
            ),
        }
    )
    con.register("aev", ev3)
    mine = last_touch_attribution(
        ray.data.from_arrow(ev3).repartition(5),
        window_us=wus,
        n_buckets=8,
    ).to_pandas()
    ref = con.execute(
        "WITH p AS (SELECT event_id, user_id, epoch_us(ts) AS t, "
        "CAST(floor(value * 100) AS BIGINT) AS cents FROM aev "
        "WHERE event_type = 'purchase' AND ts IS NOT NULL), "
        "tch AS (SELECT event_id, user_id, epoch_us(ts) AS t, "
        "event_type FROM aev WHERE event_type IN ('click', 'view') "
        "AND ts IS NOT NULL), "
        "j AS (SELECT p.event_id AS pid, tch.event_type AS attr, "
        "row_number() OVER (PARTITION BY p.event_id "
        "ORDER BY tch.t DESC, tch.event_id DESC) AS rk FROM p "
        "JOIN tch ON p.user_id = tch.user_id AND tch.t < p.t "
        f"AND tch.t >= p.t - {wus}), "
        "b AS (SELECT pid, attr FROM j WHERE rk = 1), "
        "u AS (SELECT coalesce(b.attr, 'none') AS attr_type, p.cents "
        "FROM p LEFT JOIN b ON b.pid = p.event_id) "
        "SELECT attr_type, CAST(count(*) AS BIGINT) AS n_conversions, "
        "CAST(sum(cents) AS BIGINT) AS sum_value_cents FROM u "
        "GROUP BY 1"
    ).fetchdf()
    check(
        "attribution", seed, mine, ref,
        ["attr_type"], ["n_conversions", "sum_value_cents"],
    )

    # --- PSI drift with a planted second-half shift
    from console_log_parser_ray.stages.events import psi_drift

    np_ = 6000
    tsv = np.sort(rng.integers(0, 5_000_000, np_)).astype(np.int64)
    vv = rng.normal(15, 4, np_)
    vv[tsv >= (int(tsv.min()) + int(tsv.max())) // 2] += rng.uniform(
        0, 5
    )
    pt = pa.table(
        {
            "ts": pa.array(tsv, pa.timestamp("us")),
            "value": pa.array(vv, pa.float64()),
        }
    )
    con.register("pev", pt)
    mine = psi_drift(
        ray.data.from_arrow(pt).repartition(5)
    ).to_pandas()
    ref = con.execute(
        "WITH span AS (SELECT (epoch_us(min(ts)) + epoch_us(max(ts)))"
        " // 2 AS mid FROM pev), "
        "c AS (SELECT (epoch_us(ts) >= span.mid) AS cur, "
        "CAST(floor(value * 100) AS BIGINT) AS v FROM pev, span "
        "WHERE ts IS NOT NULL AND value IS NOT NULL), "
        "h AS (SELECT cur, v, CAST(count(*) AS BIGINT) AS n FROM c "
        "GROUP BY 1, 2), "
        "tot AS (SELECT CAST(sum(n) FILTER (WHERE NOT cur) AS BIGINT) "
        "AS ta, CAST(sum(n) FILTER (WHERE cur) AS BIGINT) AS tb "
        "FROM h), "
        "rc AS (SELECT v, CAST(sum(n) OVER (ORDER BY v "
        "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum FROM h "
        "WHERE NOT cur), "
        "idx AS (SELECT unnest(generate_series(1, 9)) AS i), "
        "ed AS (SELECT i, min(v) AS edge FROM idx, rc, tot "
        "WHERE rc.cum >= (i * tot.ta + 9) // 10 GROUP BY i), "
        "bins AS (SELECT h.cur, (SELECT count(*) FROM ed "
        "WHERE ed.edge < h.v) AS bin, CAST(sum(h.n) AS BIGINT) AS n "
        "FROM h GROUP BY 1, 2), "
        "g AS (SELECT bin, CAST(coalesce(sum(n) FILTER ("
        "WHERE NOT cur), 0) AS BIGINT) AS a, "
        "CAST(coalesce(sum(n) FILTER (WHERE cur), 0) AS BIGINT) AS b "
        "FROM bins GROUP BY 1) "
        "SELECT CAST(bin AS BIGINT) AS bin, a AS n_ref, b AS n_cur, "
        "CASE WHEN a > 0 AND b > 0 THEN "
        "(CAST(a AS DOUBLE) / CAST(tot.ta AS DOUBLE) - "
        "CAST(b AS DOUBLE) / CAST(tot.tb AS DOUBLE)) * "
        "ln(CAST(a * tot.tb AS DOUBLE) / CAST(b * tot.ta AS DOUBLE)) "
        "END AS psi_contrib FROM g, tot"
    ).fetchdf()
    check(
        "psi_drift", seed, mine, ref,
        ["bin"], ["n_ref", "n_cur", "psi_contrib"],
    )

    # --- exponential inter-arrival fit per key
    from console_log_parser_ray.stages.events import interarrival_fit

    ni = 3000
    kk = np.array(["a", "b", "c"])[rng.integers(0, 3, ni)]
    ti = rng.integers(0, 2_000_000, ni).astype(np.int64)
    it = pa.table(
        {
            "event_type": pa.array(list(kk), pa.string()),
            "ts": pa.array(ti, pa.timestamp("us")),
        }
    )
    con.register("iev", it)
    mine = interarrival_fit(
        ray.data.from_arrow(it).repartition(6), n_buckets=16
    ).to_pandas()
    ref = con.execute(
        "WITH o AS (SELECT event_type AS k, epoch_us(ts) AS t "
        "FROM iev WHERE ts IS NOT NULL AND event_type IS NOT NULL), "
        "g AS (SELECT k, t - lag(t) OVER (PARTITION BY k ORDER BY t) "
        "AS gap FROM o), "
        "h AS (SELECT k, gap, CAST(count(*) AS BIGINT) AS c FROM g "
        "WHERE gap IS NOT NULL GROUP BY 1, 2), "
        "tot AS (SELECT k, CAST(sum(c) AS BIGINT) AS n, "
        "CAST(sum(CAST(gap AS HUGEINT) * c) AS BIGINT) AS s FROM h "
        "GROUP BY 1), "
        "r AS (SELECT k, gap, c, CAST(sum(c) OVER (PARTITION BY k "
        "ORDER BY gap ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum "
        "FROM h), "
        "d AS (SELECT r.k, greatest("
        "abs(CAST(r.cum - r.c AS DOUBLE) / CAST(t.n AS DOUBLE) - "
        "(1 - exp(-(CAST(r.gap AS DOUBLE) / (CAST(t.s AS DOUBLE) / "
        "CAST(t.n AS DOUBLE)))))), "
        "abs(CAST(r.cum AS DOUBLE) / CAST(t.n AS DOUBLE) - "
        "(1 - exp(-(CAST(r.gap AS DOUBLE) / (CAST(t.s AS DOUBLE) / "
        "CAST(t.n AS DOUBLE))))))) AS dd FROM r JOIN tot t USING (k)) "
        "SELECT t.k AS event_type, t.n AS n_gaps, t.s AS sum_gap_us, "
        "CAST(t.s AS DOUBLE) / CAST(t.n AS DOUBLE) AS mean_gap_us, "
        "d2.ks AS ks_d FROM tot t JOIN (SELECT k, max(dd) AS ks "
        "FROM d GROUP BY 1) d2 USING (k)"
    ).fetchdf()
    check(
        "interarrival_fit", seed, mine, ref,
        ["event_type"], ["n_gaps", "sum_gap_us", "mean_gap_us",
                         "ks_d"],
    )



def alerting_trend_family(seed):
    """Round-4f alerting/forecast operators vs DuckDB on fresh random
    inputs: hysteresis, Fano (bounded + per-user), changepoint,
    window movers, cooldown alerts, MASE, OLS trend, Markov entropy,
    bot regularity."""
    rng = np.random.default_rng(seed + 171)

    from console_log_parser_ray.stages.events import (
        alert_cooldown,
        bot_regularity,
        bursty_users,
        changepoint_mean,
        fano_factor,
        hysteresis_alerts,
        markov_entropy,
        mase_seasonal,
        ols_trend,
        window_movers,
    )

    con = duckdb.connect()

    n = 4000
    ts = rng.choice(
        np.arange(0, 40_000_000, 3, dtype=np.int64), n, replace=False
    )
    keys = rng.choice(["a", "b", "c"], n)
    vals = rng.uniform(0, 150, n)
    vals[(keys == "a") & (ts >= 25_000_000)] += rng.uniform(20, 60)
    ev = pa.table(
        {
            "event_type": pa.array(keys, pa.string()),
            "ts": pa.array(ts, pa.int64()),
            "value": pa.array(vals, pa.float64()),
        }
    )
    con.register("ev", ev)
    ds = ray.data.from_arrow(ev).repartition(6)

    mine = hysteresis_alerts(ds, n_buckets=16).to_pandas()
    ref = con.execute(
        "WITH m AS (SELECT event_type AS k, ts AS t, value AS v, "
        "CASE WHEN value >= 100.0 THEN 1 WHEN value < 40.0 THEN 0 "
        "END AS mk FROM ev), "
        "s AS (SELECT k, t, v, last_value(mk IGNORE NULLS) OVER "
        "(PARTITION BY k ORDER BY t, v ROWS UNBOUNDED PRECEDING) "
        "AS st FROM m), "
        "s2 AS (SELECT k, st, lag(st) OVER (PARTITION BY k "
        "ORDER BY t, v) AS pst FROM s) "
        "SELECT k AS event_type, CAST(count(*) AS BIGINT) AS n_rows, "
        "CAST(coalesce(sum(CASE WHEN st = 1 THEN 1 END), 0) AS "
        "BIGINT) AS n_on, CAST(coalesce(sum(CASE WHEN st = 1 AND "
        "(pst IS NULL OR pst <> 1) THEN 1 END), 0) AS BIGINT) AS "
        "n_alerts FROM s2 GROUP BY 1"
    ).fetchdf()
    check("hysteresis", seed, mine, ref, ["event_type"],
          ["n_rows", "n_on", "n_alerts"])

    W = 977_000
    mine = fano_factor(ds, window_us=W).to_pandas()
    ref = con.execute(f"""
        WITH span AS (SELECT min(ts) AS mn, max(ts) AS mx FROM ev),
        o AS (SELECT event_type AS k, (ts - span.mn) // {W} AS win
              FROM ev, span),
        wc AS (SELECT k, win, CAST(count(*) AS BIGINT) AS c FROM o
               GROUP BY 1, 2),
        agg AS (SELECT k, CAST(sum(c) AS BIGINT) AS s1,
                CAST(sum(c * c) AS BIGINT) AS s2 FROM wc GROUP BY 1),
        nw AS (SELECT (mx - mn) // {W} + 1 AS n FROM span)
        SELECT k AS event_type, CAST(nw.n AS BIGINT) AS n_windows,
        s1 AS n_events,
        CAST(CAST(nw.n AS HUGEINT) * s2 - CAST(s1 AS HUGEINT) * s1
        AS DOUBLE) / CAST(CAST(nw.n AS HUGEINT) * s1 AS DOUBLE)
        AS fano FROM agg, nw""").fetchdf()
    check("fano", seed, mine, ref, ["event_type"],
          ["n_windows", "n_events", "fano"])

    mine = changepoint_mean(ds, n_buckets=16).to_pandas()
    ref = con.execute(
        "WITH o AS (SELECT event_type AS k, ts AS t, "
        "CAST(floor(value * 100) AS BIGINT) AS v FROM ev), "
        "w AS (SELECT k, t, v, CAST(row_number() OVER (PARTITION BY "
        "k ORDER BY t, v) AS BIGINT) AS nl, CAST(sum(v) OVER "
        "(PARTITION BY k ORDER BY t, v ROWS UNBOUNDED PRECEDING) AS "
        "BIGINT) AS s1l, CAST(count(*) OVER (PARTITION BY k) AS "
        "BIGINT) AS n, CAST(sum(v) OVER (PARTITION BY k) AS BIGINT) "
        "AS s1 FROM o), "
        "g AS (SELECT k, nl, t, n, s1l, s1, CAST(CAST(s1l AS "
        "HUGEINT) * s1l AS DOUBLE) / CAST(nl AS DOUBLE) + "
        "CAST(CAST(s1 - s1l AS HUGEINT) * (s1 - s1l) AS DOUBLE) / "
        "CAST(n - nl AS DOUBLE) AS gst FROM w WHERE nl < n), "
        "r AS (SELECT *, row_number() OVER (PARTITION BY k ORDER BY "
        "gst DESC, nl ASC) AS rn FROM g) "
        "SELECT k AS event_type, n AS n_rows, nl AS split_n, "
        "t AS split_ts_us, CAST(s1l AS DOUBLE) / CAST(nl AS DOUBLE) "
        "AS mean_left, CAST(s1 - s1l AS DOUBLE) / CAST(n - nl AS "
        "DOUBLE) AS mean_right, gst AS gstat FROM r WHERE rn = 1"
    ).fetchdf()
    check("changepoint", seed, mine, ref, ["event_type"],
          ["n_rows", "split_n", "split_ts_us", "mean_left",
           "mean_right"])

    mine = window_movers(ds, window_us=W).to_pandas()
    ref = con.execute(f"""
        WITH span AS (SELECT min(ts) AS mn FROM ev),
        o AS (SELECT event_type AS k, (ts - span.mn) // {W} AS win
              FROM ev, span),
        wc AS (SELECT k, win, CAST(count(*) AS BIGINT) AS c FROM o
               GROUP BY 1, 2),
        d AS (SELECT k, win, c, lag(win) OVER (PARTITION BY k ORDER
              BY win) AS pwin, lag(c) OVER (PARTITION BY k ORDER BY
              win) AS pc FROM wc),
        r AS (SELECT *, row_number() OVER (PARTITION BY k ORDER BY
              c - pc DESC, win ASC) AS rn FROM d
              WHERE pwin IS NOT NULL)
        SELECT k AS event_type, win, pwin AS prev_win, pc AS c_prev,
        c AS c_cur, c - pc AS delta FROM r WHERE rn = 1""").fetchdf()
    check("window_movers", seed, mine, ref, ["event_type"],
          ["win", "prev_win", "c_prev", "c_cur", "delta"])

    C = 3_100_000
    mine = alert_cooldown(ds, cooldown_us=C).to_pandas()
    ref = con.execute(f"""
        WITH RECURSIVE o AS (SELECT event_type AS k, ts AS t FROM ev),
        em AS (SELECT k, min(t) AS t, CAST(1 AS BIGINT) AS i FROM o
               GROUP BY k
               UNION ALL
               SELECT em.k, (SELECT min(o.t) FROM o WHERE o.k = em.k
               AND o.t >= em.t + {C}), em.i + 1 FROM em
               WHERE (SELECT min(o.t) FROM o WHERE o.k = em.k AND
               o.t >= em.t + {C}) IS NOT NULL)
        SELECT k AS event_type, i AS alert_idx, t AS alert_ts_us
        FROM em""").fetchdf()
    check("alert_cooldown", seed, mine, ref,
          ["event_type", "alert_idx"], ["alert_ts_us"])

    mine = mase_seasonal(ds, window_us=W, period=4).to_pandas()
    ref = con.execute(f"""
        WITH span AS (SELECT min(ts) AS mn, max(ts) AS mx FROM ev),
        nw AS (SELECT (mx - mn) // {W} + 1 AS n FROM span),
        o AS (SELECT event_type AS k, (ts - span.mn) // {W} AS win
              FROM ev, span),
        keys AS (SELECT DISTINCT k FROM o),
        grid AS (SELECT k, gs.win FROM keys, (SELECT
            unnest(generate_series(0, (SELECT n FROM nw) - 1)) AS
            win) gs),
        wc AS (SELECT k, win, CAST(count(*) AS BIGINT) AS c FROM o
               GROUP BY 1, 2),
        f AS (SELECT g.k, g.win, coalesce(wc.c, 0) AS c FROM grid g
              LEFT JOIN wc ON wc.k = g.k AND wc.win = g.win),
        d AS (SELECT k, c, lag(c, 4) OVER (PARTITION BY k ORDER BY
              win) AS cp, lag(c, 1) OVER (PARTITION BY k ORDER BY
              win) AS c1 FROM f),
        agg AS (SELECT k, CAST(sum(abs(c - cp)) AS BIGINT) AS num,
                CAST(sum(abs(c - c1)) AS BIGINT) AS den FROM d
                GROUP BY 1)
        SELECT k AS event_type, CAST((SELECT n FROM nw) AS BIGINT)
        AS n_windows, num AS sae_seasonal, den AS sae_naive,
        CASE WHEN num IS NOT NULL AND den IS NOT NULL AND den > 0
        THEN CAST(num * ((SELECT n FROM nw) - 1) AS DOUBLE) /
        CAST(den * ((SELECT n FROM nw) - 4) AS DOUBLE) END AS mase
        FROM agg""").fetchdf()
    check("mase", seed, mine, ref, ["event_type"],
          ["n_windows", "sae_seasonal", "sae_naive", "mase"])

    D = 811_000
    mine = ols_trend(ds, day_us=D).to_pandas()
    ref = con.execute(f"""
        WITH span AS (SELECT min(ts) AS mn FROM ev),
        o AS (SELECT event_type AS k, (ts - span.mn) // {D} AS t,
              CAST(floor(value * 100) AS BIGINT) AS v FROM ev, span),
        s AS (SELECT k, CAST(count(*) AS BIGINT) AS n, CAST(sum(t)
              AS BIGINT) AS st, CAST(sum(v) AS BIGINT) AS sv,
              CAST(sum(CAST(t AS HUGEINT) * v) AS BIGINT) AS stv,
              CAST(sum(CAST(t AS HUGEINT) * t) AS BIGINT) AS st2,
              CAST(sum(CAST(v AS HUGEINT) * v) AS BIGINT) AS sv2
              FROM o GROUP BY 1),
        f AS (SELECT k, n, st, sv,
              CAST(n AS HUGEINT) * stv - CAST(st AS HUGEINT) * sv
              AS num,
              CAST(n AS HUGEINT) * st2 - CAST(st AS HUGEINT) * st
              AS denx,
              CAST(n AS HUGEINT) * sv2 - CAST(sv AS HUGEINT) * sv
              AS deny FROM s)
        SELECT k AS event_type, n,
        CASE WHEN denx > 0 THEN CAST(num AS DOUBLE) /
        CAST(denx AS DOUBLE) END AS slope_cents_per_day,
        CASE WHEN denx > 0 THEN (CAST(sv AS DOUBLE) -
        CAST(num AS DOUBLE) / CAST(denx AS DOUBLE) *
        CAST(st AS DOUBLE)) / CAST(n AS DOUBLE) END AS
        intercept_cents,
        CASE WHEN denx > 0 AND deny > 0 THEN CAST(num AS DOUBLE) *
        CAST(num AS DOUBLE) / (CAST(denx AS DOUBLE) *
        CAST(deny AS DOUBLE)) END AS r2 FROM f""").fetchdf()
    check("ols_trend", seed, mine, ref, ["event_type"],
          ["n", "slope_cents_per_day", "intercept_cents", "r2"])

    m = 3000
    users = rng.integers(0, 25, m)
    uts = rng.choice(
        np.arange(0, 9_000_000, dtype=np.int64), m, replace=False
    )
    states = rng.choice(["s", "t", "u", "v"], m)
    uev = pa.table(
        {
            "user_id": pa.array(users, pa.int64()),
            "ts": pa.array(uts, pa.int64()),
            "event_type": pa.array(states, pa.string()),
        }
    )
    con.register("uev", uev)
    uds = ray.data.from_arrow(uev).repartition(5)

    mine = markov_entropy(uds).to_pandas()
    ref = con.execute(
        "WITH p AS (SELECT user_id AS u, event_type AS f, "
        "lead(event_type) OVER (PARTITION BY user_id ORDER BY ts) "
        "AS nxt FROM uev), "
        "c AS (SELECT f, nxt, CAST(count(*) AS BIGINT) AS n FROM p "
        "WHERE nxt IS NOT NULL GROUP BY 1, 2), "
        "tot AS (SELECT f, CAST(sum(n) AS BIGINT) AS cf FROM c "
        "GROUP BY 1) "
        "SELECT c.f AS from_state, tot.cf AS n_from, "
        "CAST(-sum(c.n * CAST(floor((ln(CAST(c.n AS DOUBLE)) - "
        "ln(CAST(tot.cf AS DOUBLE))) * 1000000.0) AS BIGINT)) AS "
        "BIGINT) AS h_q, "
        "CAST(CAST(-sum(c.n * CAST(floor((ln(CAST(c.n AS DOUBLE)) - "
        "ln(CAST(tot.cf AS DOUBLE))) * 1000000.0) AS BIGINT)) AS "
        "BIGINT) AS DOUBLE) / CAST(1000000 * tot.cf AS DOUBLE) AS "
        "h_nats FROM c JOIN tot USING (f) GROUP BY c.f, tot.cf"
    ).fetchdf()
    check("markov_entropy", seed, mine, ref, ["from_state"],
          ["n_from", "h_q", "h_nats"])

    WU = 331_000
    mine = bursty_users(
        uds, window_us=WU, min_events=20, k=30
    ).to_pandas()
    ref = con.execute(f"""
        WITH span AS (SELECT min(ts) AS mn, max(ts) AS mx FROM uev),
        nw AS (SELECT (mx - mn) // {WU} + 1 AS n FROM span),
        o AS (SELECT user_id AS u, (ts - span.mn) // {WU} AS win
              FROM uev, span),
        wc AS (SELECT u, win, CAST(count(*) AS BIGINT) AS c FROM o
               GROUP BY 1, 2),
        agg AS (SELECT u, CAST(sum(c) AS BIGINT) AS s1,
                CAST(sum(c * c) AS BIGINT) AS s2 FROM wc GROUP BY 1)
        SELECT u AS user_id, s1 AS n_events,
        CAST(CAST((SELECT n FROM nw) AS HUGEINT) * s2 -
        CAST(s1 AS HUGEINT) * s1 AS DOUBLE) /
        CAST(CAST((SELECT n FROM nw) AS HUGEINT) * s1 AS DOUBLE)
        AS fano FROM agg WHERE s1 >= 20
        ORDER BY fano DESC, u ASC LIMIT 30""").fetchdf()
    check("bursty_users", seed, mine, ref, ["user_id"],
          ["n_events", "fano"])

    mine = bot_regularity(
        uds, min_gaps=20, k=30, n_buckets=8
    ).to_pandas()
    ref = con.execute("""
        WITH g AS (SELECT user_id AS u, (ts - lag(ts) OVER
              (PARTITION BY user_id ORDER BY ts)) // 1000000 AS gap
              FROM uev),
        agg AS (SELECT u, CAST(count(*) AS BIGINT) AS n,
                CAST(sum(gap) AS BIGINT) AS s1,
                CAST(sum(CAST(gap AS HUGEINT) * gap) AS BIGINT) AS
                s2 FROM g WHERE gap IS NOT NULL GROUP BY 1)
        SELECT u AS user_id, n AS n_gaps,
        sqrt(CAST(CAST(n AS HUGEINT) * s2 - CAST(s1 AS HUGEINT) *
        s1 AS DOUBLE)) / CAST(s1 AS DOUBLE) AS cv FROM agg
        WHERE n >= 20 AND s1 > 0 ORDER BY cv ASC, u ASC
        LIMIT 30""").fetchdf()
    check("bot_regularity", seed, mine, ref, ["user_id"],
          ["n_gaps", "cv"])


def rules_mmr_family(seed):
    """Round-4f basket/text/graph/embedding operators vs DuckDB on
    fresh random inputs: association rules, Monroe log-odds, token
    burstiness, degree assortativity, MMR selection."""
    rng = np.random.default_rng(seed + 181)

    from console_log_parser_ray.stages.graph import (
        association_rules,
        degree_assortativity,
    )
    from console_log_parser_ray.stages.similarity import (
        mmr_oracle_sql,
        mmr_select,
    )
    from console_log_parser_ray.stages.textan import (
        log_odds_tokens,
        token_burstiness,
    )

    con = duckdb.connect()

    rows_g, rows_i = [], []
    for g in range(250):
        for i in rng.choice(40, rng.integers(2, 6), replace=False):
            rows_g.append(g)
            rows_i.append(int(i))
    basket = pa.table(
        {
            "g": pa.array(rows_g, pa.int64()),
            "i": pa.array(rows_i, pa.int64()),
        }
    )
    con.register("basket", basket)
    mine = association_rules(
        ray.data.from_arrow(basket).repartition(5), "g", "i",
        min_support=2, k=40, n_buckets=8,
    ).to_pandas()
    ref = con.execute("""
        WITH li AS (SELECT DISTINCT g, i FROM basket),
        n AS (SELECT CAST(count(DISTINCT g) AS BIGINT) AS ng FROM li),
        ic AS (SELECT i, CAST(count(*) AS BIGINT) AS c FROM li
               GROUP BY 1),
        pcnt AS (SELECT x.i AS a, y.i AS b, CAST(count(*) AS BIGINT)
                 AS cab FROM li x JOIN li y ON x.g = y.g AND
                 x.i < y.i GROUP BY 1, 2),
        f AS (SELECT a, b, cab, ca.c AS ca, cb.c AS cb FROM pcnt
              JOIN ic ca ON ca.i = a JOIN ic cb ON cb.i = b
              WHERE cab >= 2)
        SELECT a, b, cab AS support,
        CAST(cab AS DOUBLE) / CAST(ca AS DOUBLE) AS conf_ab,
        CAST(cab AS DOUBLE) / CAST(cb AS DOUBLE) AS conf_ba,
        CAST(CAST(ng AS HUGEINT) * cab AS DOUBLE) /
        CAST(CAST(ca AS HUGEINT) * cb AS DOUBLE) AS lift
        FROM f, n ORDER BY lift DESC, a, b LIMIT 40""").fetchdf()
    check("assoc_rules", seed, mine, ref, ["a", "b"],
          ["support", "conf_ab", "conf_ba", "lift"])

    vocab = [f"w{i}" for i in range(30)]
    docs, srcs = [], []
    for i in range(200):
        docs.append(
            " ".join(rng.choice(vocab, rng.integers(5, 25)))
        )
        srcs.append(rng.choice(["A", "B", "C"]))
    dt = pa.table(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "source": pa.array(srcs, pa.string()),
            "text": pa.array(docs, pa.string()),
        }
    )
    con.register("docs", dt)
    mine = log_odds_tokens(
        ray.data.from_arrow(dt).repartition(5), group_a="A", k=25,
        n_buckets=8,
    ).to_pandas()
    ref = con.execute(r"""
        WITH toks AS (SELECT (coalesce(source, '') = 'A') AS ga,
              unnest(regexp_extract_all(text, '\S+')) AS tok
              FROM docs),
        ct AS (SELECT tok, CAST(coalesce(count(*) FILTER (WHERE ga),
               0) AS BIGINT) AS ya, CAST(coalesce(count(*) FILTER
               (WHERE NOT ga), 0) AS BIGINT) AS yb FROM toks
               GROUP BY 1),
        tot AS (SELECT CAST(sum(ya) AS BIGINT) AS na,
                CAST(sum(yb) AS BIGINT) AS nb FROM ct)
        SELECT tok, ya AS y_a, yb AS y_b,
        (ln(CAST(ya + ya + yb AS DOUBLE)) -
        ln(CAST(na + na + nb - ya - ya - yb AS DOUBLE)) -
        ln(CAST(yb + ya + yb AS DOUBLE)) +
        ln(CAST(nb + na + nb - yb - ya - yb AS DOUBLE))) /
        sqrt(1.0 / CAST(ya + ya + yb AS DOUBLE) +
        1.0 / CAST(yb + ya + yb AS DOUBLE)) AS z
        FROM ct, tot ORDER BY z DESC, tok ASC
        LIMIT 25""").fetchdf()
    check("log_odds", seed, mine, ref, ["tok"], ["y_a", "y_b", "z"])

    mine = token_burstiness(
        ray.data.from_arrow(dt).repartition(5), min_df=5, k=25,
        n_buckets=8,
    ).to_pandas()
    ref = con.execute(r"""
        WITH pairs AS (SELECT doc_id,
              unnest(regexp_extract_all(text, '\S+')) AS tok
              FROM docs),
        po AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS c
               FROM pairs GROUP BY 1, 2),
        t AS (SELECT tok, CAST(count(*) AS BIGINT) AS df,
              CAST(sum(c) AS BIGINT) AS occ FROM po GROUP BY 1)
        SELECT tok, df, occ, CAST(occ AS DOUBLE) / CAST(df AS DOUBLE)
        AS burst FROM t WHERE df >= 5 ORDER BY burst DESC, tok ASC
        LIMIT 25""").fetchdf()
    check("token_burst", seed, mine, ref, ["tok"],
          ["df", "occ", "burst"])

    pairs = set()
    while len(pairs) < 150:
        a, b = rng.integers(0, 60, 2)
        if a != b:
            pairs.add((min(int(a), int(b)), max(int(a), int(b))))
    et = pa.table(
        {
            "a": pa.array([p[0] for p in sorted(pairs)], pa.int64()),
            "b": pa.array([p[1] for p in sorted(pairs)], pa.int64()),
        }
    )
    con.register("edges", et)
    mine = degree_assortativity(
        ray.data.from_arrow(et).repartition(4)
    ).to_pandas()
    ref = con.execute("""
        WITH deg AS (SELECT node, CAST(count(*) AS BIGINT) AS d FROM
              (SELECT a AS node FROM edges UNION ALL SELECT b FROM
              edges) GROUP BY 1),
        p AS (SELECT da.d AS x, db.d AS y FROM edges e JOIN deg da
              ON da.node = e.a JOIN deg db ON db.node = e.b
              UNION ALL SELECT db.d, da.d FROM edges e JOIN deg da
              ON da.node = e.a JOIN deg db ON db.node = e.b),
        s AS (SELECT CAST(count(*) AS BIGINT) AS m, CAST(sum(x) AS
              BIGINT) AS sx, CAST(sum(CAST(x AS HUGEINT) * y) AS
              BIGINT) AS sxy, CAST(sum(CAST(x AS HUGEINT) * x) AS
              BIGINT) AS sx2 FROM p)
        SELECT m AS n_directed_edges, sx AS sum_deg, sxy AS sum_xy,
        sx2 AS sum_x2, CASE WHEN CAST(m AS HUGEINT) * sx2 -
        CAST(sx AS HUGEINT) * sx > 0 THEN CAST(CAST(m AS HUGEINT) *
        sxy - CAST(sx AS HUGEINT) * sx AS DOUBLE) /
        CAST(CAST(m AS HUGEINT) * sx2 - CAST(sx AS HUGEINT) * sx
        AS DOUBLE) END AS assortativity FROM s""").fetchdf()
    check("assortativity", seed, mine, ref, ["n_directed_edges"],
          ["sum_deg", "sum_xy", "sum_x2", "assortativity"])

    mat = rng.normal(size=(150, 10))
    emb = pa.table(
        {
            "vec_id": pa.array(range(150), pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in mat], pa.list_(pa.float32())
            ),
        }
    )
    con.register("embeddings", emb.to_pandas())
    qid = int(rng.integers(0, 150))
    mine = mmr_select(
        ray.data.from_arrow(emb).repartition(4), query_id=qid, k=6
    ).to_pandas()
    ref = con.execute(mmr_oracle_sql(query_id=qid, k=6)).fetchdf()
    check("mmr", seed, mine, ref, ["rnk"], ["vec_id"])



def engagement_family(seed):
    """Round-4g operators vs DuckDB on fresh random inputs: Wilson
    CTR, target encoding, time-to-convert, RFM, bounce rate, revenue
    concentration, JS drift, TTR, session durations."""
    rng = np.random.default_rng(seed + 191)

    from console_log_parser_ray.stages.events import (
        bounce_rate,
        group_quantiles,
        js_divergence,
        revenue_concentration,
        rfm_segments,
        session_duration_quantiles,
        target_encode,
        time_to_convert,
        wilson_ctr,
    )
    from console_log_parser_ray.stages.textan import ttr_by_source

    con = duckdb.connect()

    n = 5000
    ev = pa.table(
        {
            "user_id": pa.array(
                rng.integers(0, 60, n), pa.int64()
            ),
            "ts": pa.array(
                rng.choice(
                    np.arange(0, 80_000_000, dtype=np.int64),
                    n,
                    replace=False,
                ),
                pa.int64(),
            ),
            "event_type": pa.array(
                rng.choice(
                    ["click", "view", "signup", "purchase"], n
                ),
                pa.string(),
            ),
            "value": pa.array(
                rng.uniform(1, 300, n), pa.float64()
            ),
        }
    )
    con.register("ev", ev)
    ds = ray.data.from_arrow(ev).repartition(6)

    mine = wilson_ctr(ds, min_n=10, k=30).to_pandas()
    ref = con.execute("""
        WITH c AS (SELECT user_id AS u,
          CAST(count(*) FILTER (WHERE event_type = 'click') AS
          BIGINT) AS c, CAST(count(*) FILTER (WHERE event_type =
          'view') AS BIGINT) AS v FROM ev GROUP BY 1),
        f AS (SELECT u, c, v, CAST(c AS DOUBLE) / CAST(c + v AS
          DOUBLE) AS p, CAST(c + v AS DOUBLE) AS nf FROM c
          WHERE c + v >= 10)
        SELECT u AS user_id, c AS clicks, v AS views, p AS ctr,
        (p + 1.96 * 1.96 / (2.0 * nf) - 1.96 *
        sqrt((p * (1.0 - p) + 1.96 * 1.96 / (4.0 * nf)) / nf)) /
        (1.0 + 1.96 * 1.96 / nf) AS wilson_lb
        FROM f ORDER BY wilson_lb DESC, u ASC LIMIT 30""").fetchdf()
    check("wilson_ctr", seed, mine, ref, ["user_id"],
          ["clicks", "views", "ctr", "wilson_lb"])

    mine = target_encode(ds, smoothing=50).to_pandas()
    ref = con.execute("""
        WITH o AS (SELECT event_type AS cat, CAST(floor(value *
          100) AS BIGINT) AS v FROM ev),
        s AS (SELECT cat, CAST(sum(v) AS BIGINT) AS sv,
          CAST(count(*) AS BIGINT) AS n FROM o GROUP BY 1),
        g AS (SELECT CAST(sum(sv) AS BIGINT) AS sg,
          CAST(sum(n) AS BIGINT) AS ng FROM s)
        SELECT cat AS category, n, sv AS sum_cents,
        (CAST(sv AS DOUBLE) + 50.0 * (CAST(g.sg AS DOUBLE) /
        CAST(g.ng AS DOUBLE))) / (CAST(n AS DOUBLE) + 50.0)
        AS enc_cents FROM s, g""").fetchdf()
    check("target_encode", seed, mine, ref, ["category"],
          ["n", "sum_cents", "enc_cents"])

    mine = group_quantiles(
        time_to_convert(ds, cohort_us=20_000_000, day_us=500_000,
                        n_buckets=8),
        "cohort_week", "delta_days", qs=(0.5, 0.9),
    ).to_pandas()
    ref = con.execute("""
        WITH mn AS (SELECT min(ts) AS m FROM ev),
        s AS (SELECT user_id AS u, min(ts) AS s FROM ev WHERE
          event_type = 'signup' GROUP BY 1),
        p AS (SELECT e.user_id AS u, min(e.ts) AS p FROM ev e JOIN
          s ON s.u = e.user_id WHERE e.event_type = 'purchase' AND
          e.ts >= s.s GROUP BY 1),
        d AS (SELECT (s.s - mn.m) // 20000000 AS cohort_week,
          (p.p - s.s) // 500000 AS delta_days FROM s
          JOIN p USING (u), mn)
        SELECT cohort_week, CAST(percentile_disc(0.5) WITHIN GROUP
        (ORDER BY delta_days) AS DOUBLE) AS p50,
        CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY
        delta_days) AS DOUBLE) AS p90 FROM d GROUP BY 1""").fetchdf()
    check("ttfp", seed, mine, ref, ["cohort_week"], ["p50", "p90"])

    mine = rfm_segments(ds, day_us=500_000).to_pandas()
    ref = con.execute("""
        WITH mx AS (SELECT max(ts) AS m FROM ev),
        u AS (SELECT user_id AS uid, CAST((mx.m - max(ts)) //
          500000 AS BIGINT) AS r, CAST(count(*) AS BIGINT) AS f,
          CAST(coalesce(sum(CAST(floor(value * 100) AS BIGINT))
          FILTER (WHERE event_type = 'purchase'), 0) AS BIGINT)
          AS mval FROM ev, mx GROUP BY user_id, mx.m),
        n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM u),
        idx AS (SELECT unnest(generate_series(1, 2)) AS i),
        rc AS (SELECT v, CAST(sum(c) OVER (ORDER BY v ROWS
          UNBOUNDED PRECEDING) AS BIGINT) AS cum FROM (SELECT r AS
          v, CAST(count(*) AS BIGINT) AS c FROM u GROUP BY 1)),
        red AS (SELECT i, min(v) AS edge FROM idx, rc, n WHERE
          rc.cum >= (i * n.n + 2) // 3 GROUP BY i),
        fc AS (SELECT v, CAST(sum(c) OVER (ORDER BY v ROWS
          UNBOUNDED PRECEDING) AS BIGINT) AS cum FROM (SELECT f AS
          v, CAST(count(*) AS BIGINT) AS c FROM u GROUP BY 1)),
        fed AS (SELECT i, min(v) AS edge FROM idx, fc, n WHERE
          fc.cum >= (i * n.n + 2) // 3 GROUP BY i),
        mc AS (SELECT v, CAST(sum(c) OVER (ORDER BY v ROWS
          UNBOUNDED PRECEDING) AS BIGINT) AS cum FROM (SELECT mval
          AS v, CAST(count(*) AS BIGINT) AS c FROM u GROUP BY 1)),
        med AS (SELECT i, min(v) AS edge FROM idx, mc, n WHERE
          mc.cum >= (i * n.n + 2) // 3 GROUP BY i),
        b AS (SELECT (SELECT count(*) FROM red WHERE edge < u.r)
          AS r_bucket, (SELECT count(*) FROM fed WHERE edge < u.f)
          AS f_bucket, (SELECT count(*) FROM med WHERE edge <
          u.mval) AS m_bucket FROM u)
        SELECT CAST(r_bucket AS BIGINT) AS r_bucket,
        CAST(f_bucket AS BIGINT) AS f_bucket,
        CAST(m_bucket AS BIGINT) AS m_bucket,
        CAST(count(*) AS BIGINT) AS n_users FROM b
        GROUP BY 1, 2, 3""").fetchdf()
    check("rfm", seed, mine, ref,
          ["r_bucket", "f_bucket", "m_bucket"], ["n_users"])

    G = 900_000
    mine = bounce_rate(ds, gap_us=G, n_buckets=8).to_pandas()
    ref = con.execute(f"""
        WITH m AS (SELECT user_id AS u, ts AS t, CASE WHEN lag(ts)
          OVER (PARTITION BY user_id ORDER BY ts) IS NULL OR ts -
          lag(ts) OVER (PARTITION BY user_id ORDER BY ts) > {G}
          THEN 1 ELSE 0 END AS is_new FROM ev),
        s AS (SELECT u, sum(is_new) OVER (PARTITION BY u ORDER BY
          t ROWS UNBOUNDED PRECEDING) AS sid FROM m),
        c AS (SELECT u, sid, count(*) AS c FROM s GROUP BY 1, 2)
        SELECT CAST(count(*) AS BIGINT) AS n_sessions,
        CAST(count(*) FILTER (WHERE c = 1) AS BIGINT) AS n_bounced,
        CAST(count(*) FILTER (WHERE c = 1) AS DOUBLE) /
        CAST(count(*) AS DOUBLE) AS bounce_rate FROM c""").fetchdf()
    check("bounce", seed, mine, ref, ["n_sessions"],
          ["n_bounced", "bounce_rate"])

    mine = session_duration_quantiles(
        ds, gap_us=G, n_buckets=8
    ).to_pandas()
    ref = con.execute(f"""
        WITH m AS (SELECT user_id AS u, ts AS t, CASE WHEN lag(ts)
          OVER (PARTITION BY user_id ORDER BY ts) IS NULL OR ts -
          lag(ts) OVER (PARTITION BY user_id ORDER BY ts) > {G}
          THEN 1 ELSE 0 END AS is_new FROM ev),
        s AS (SELECT u, t, sum(is_new) OVER (PARTITION BY u ORDER
          BY t ROWS UNBOUNDED PRECEDING) AS sid FROM m),
        d AS (SELECT (max(t) - min(t)) // 1000000 AS dur FROM s
          GROUP BY u, sid)
        SELECT CAST(count(*) AS BIGINT) AS n_sessions,
        CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY dur) AS
        DOUBLE) AS p50_secs, CAST(percentile_disc(0.95) WITHIN
        GROUP (ORDER BY dur) AS DOUBLE) AS p95_secs
        FROM d""").fetchdf()
    check("session_durs", seed, mine, ref, ["n_sessions"],
          ["p50_secs", "p95_secs"])

    mine = js_divergence(ds).to_pandas()
    ref = con.execute("""
        WITH span AS (SELECT (min(ts) + max(ts)) // 2 AS mid
          FROM ev),
        c AS (SELECT (ts >= span.mid) AS cur, CAST(floor(value *
          100) AS BIGINT) AS v FROM ev, span),
        h AS (SELECT cur, v, CAST(count(*) AS BIGINT) AS n FROM c
          GROUP BY 1, 2),
        w AS (SELECT coalesce(a.v, b.v) AS v, CAST(coalesce(a.n,
          0) AS BIGINT) AS a, CAST(coalesce(b.n, 0) AS BIGINT) AS b
          FROM (SELECT v, n FROM h WHERE NOT cur) a FULL JOIN
          (SELECT v, n FROM h WHERE cur) b USING (v)),
        tot AS (SELECT CAST(sum(a) AS BIGINT) AS ta, CAST(sum(b)
          AS BIGINT) AS tb FROM w),
        q AS (SELECT CAST(coalesce(sum(CASE WHEN a > 0 THEN a *
          CAST(floor((ln(CAST(2 * CAST(a AS HUGEINT) * tb AS
          DOUBLE)) - ln(CAST(CAST(a AS HUGEINT) * tb + CAST(b AS
          HUGEINT) * ta AS DOUBLE))) * 1000000.0) AS BIGINT) END),
          0) AS BIGINT) AS qa, CAST(coalesce(sum(CASE WHEN b > 0
          THEN b * CAST(floor((ln(CAST(2 * CAST(b AS HUGEINT) * ta
          AS DOUBLE)) - ln(CAST(CAST(b AS HUGEINT) * ta + CAST(a
          AS HUGEINT) * tb AS DOUBLE))) * 1000000.0) AS BIGINT)
          END), 0) AS BIGINT) AS qb FROM w, tot)
        SELECT tot.ta AS n_ref, tot.tb AS n_cur, q.qa AS js_q_ref,
        q.qb AS js_q_cur, 0.5 * (CAST(q.qa AS DOUBLE) /
        CAST(1000000 * tot.ta AS DOUBLE)) + 0.5 * (CAST(q.qb AS
        DOUBLE) / CAST(1000000 * tot.tb AS DOUBLE)) AS js_nats
        FROM q, tot""").fetchdf()
    check("js_drift", seed, mine, ref, ["n_ref"],
          ["n_cur", "js_q_ref", "js_q_cur", "js_nats"])

    mine = revenue_concentration(
        ds, key_col="user_id", val_col="value", q=0.9
    ).to_pandas()
    ref = con.execute("""
        WITH u AS (SELECT user_id AS k, CAST(sum(CAST(round(value
          * 100) AS BIGINT)) AS BIGINT) AS rev FROM ev GROUP BY 1),
        t AS (SELECT percentile_disc(0.9) WITHIN GROUP (ORDER BY
          rev) AS thr FROM u)
        SELECT CAST(count(*) AS BIGINT) AS n_customers,
        CAST(count(*) FILTER (WHERE rev >= t.thr) AS BIGINT) AS
        n_top, CAST(t.thr AS BIGINT) AS thr_cents, CAST(sum(rev)
        FILTER (WHERE rev >= t.thr) AS BIGINT) AS top_cents,
        CAST(sum(rev) AS BIGINT) AS total_cents, CAST(sum(rev)
        FILTER (WHERE rev >= t.thr) AS DOUBLE) / CAST(sum(rev) AS
        DOUBLE) AS share FROM u, t GROUP BY t.thr""").fetchdf()
    check("rev_conc", seed, mine, ref, ["n_customers"],
          ["n_top", "thr_cents", "top_cents", "total_cents",
           "share"])

    vocab = [f"w{i}" for i in range(25)]
    docs, srcs = [], []
    for i in range(150):
        docs.append(
            " ".join(rng.choice(vocab, rng.integers(3, 20)))
        )
        srcs.append(rng.choice(["A", "B", "C"]))
    dt = pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "text": pa.array(docs, pa.string()),
        }
    )
    con.register("docs2", dt)
    mine = ttr_by_source(
        ray.data.from_arrow(dt).repartition(4), n_buckets=8
    ).to_pandas()
    ref = con.execute(r"""
        WITH toks AS (SELECT coalesce(source, '') AS source,
          unnest(regexp_extract_all(text, '\S+')) AS tok
          FROM docs2),
        agg AS (SELECT source, CAST(count(*) AS BIGINT) AS
          n_tokens, CAST(count(DISTINCT tok) AS BIGINT) AS n_types
          FROM toks GROUP BY 1)
        SELECT source, n_tokens, n_types, CAST(n_types AS DOUBLE) /
        CAST(n_tokens AS DOUBLE) AS ttr FROM agg""").fetchdf()
    check("ttr", seed, mine, ref, ["source"],
          ["n_tokens", "n_types", "ttr"])


def r5_family(seed):
    """Round-5 additions: hapax / zipf / histogram quantiles / the
    association_rules partials path."""
    rng = np.random.default_rng(seed)
    from console_log_parser_ray.stages.events import (
        group_quantiles,
        group_quantiles_hist,
    )
    from console_log_parser_ray.stages.graph import (
        association_rules,
        pair_count_partials,
    )
    from console_log_parser_ray.stages.textan import (
        hapax_by_source,
        zipf_slope,
    )

    con = duckdb.connect()

    # hapax_by_source vs SQL on a random skewed-vocabulary corpus
    vocab = [f"w{i}" for i in range(40)]
    docs, srcs = [], []
    for i in range(120):
        k = int(rng.integers(2, 15))
        docs.append(" ".join(rng.choice(vocab, k)))
        srcs.append(str(rng.choice(["A", "B", "C"])))
    for i in range(15):  # planted hapax tail
        docs.append(f"unique_{seed}_{i}")
        srcs.append("A")
    dt = pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "text": pa.array(docs, pa.string()),
        }
    )
    con.register("hdocs", dt)
    mine = hapax_by_source(
        ray.data.from_arrow(dt).repartition(4), n_buckets=8
    ).to_pandas()
    ref = con.execute(r"""
        WITH toks AS (SELECT coalesce(source, '') AS source,
          unnest(regexp_extract_all(text, '\S+')) AS tok
          FROM hdocs),
        c AS (SELECT source, tok, CAST(count(*) AS BIGINT) AS n
          FROM toks GROUP BY 1, 2)
        SELECT source, CAST(count(*) AS BIGINT) AS n_types,
        CAST(count(*) FILTER (WHERE n = 1) AS BIGINT) AS n_hapax,
        CAST(count(*) FILTER (WHERE n = 1) AS DOUBLE) /
        CAST(count(*) AS BIGINT) AS hapax_ratio
        FROM c GROUP BY 1""").fetchdf()
    check("hapax_by_source", seed, mine, ref, ["source"],
          ["n_types", "n_hapax", "hapax_ratio"])

    # zipf_slope vs SQL (same quantized-ln HUGEINT tree)
    mine = zipf_slope(
        ray.data.from_arrow(dt).repartition(4), k=30
    ).to_pandas()
    ref = con.execute(r"""
        WITH toks AS (SELECT unnest(regexp_extract_all(text,
          '\S+')) AS tok FROM hdocs),
        c AS (SELECT tok, CAST(count(*) AS BIGINT) AS n FROM toks
          GROUP BY 1),
        r AS (SELECT n, row_number() OVER (ORDER BY n DESC, tok
          ASC) AS rnk FROM c QUALIFY rnk <= 30),
        q AS (SELECT CAST(floor(ln(CAST(rnk AS DOUBLE)) *
          1000000.0) AS BIGINT) AS x, CAST(floor(ln(CAST(n AS
          DOUBLE)) * 1000000.0) AS BIGINT) AS y FROM r),
        s AS (SELECT CAST(count(*) AS BIGINT) AS n, CAST(sum(x) AS
          BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
          CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy,
          CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx,
          CAST(sum(CAST(y AS HUGEINT) * y) AS HUGEINT) AS syy
          FROM q),
        f AS (SELECT n, sx, sy,
          CAST(n AS HUGEINT) * sxy - CAST(sx AS HUGEINT) * sy AS
          num, CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx
          AS denx, CAST(n AS HUGEINT) * syy - CAST(sy AS HUGEINT)
          * sy AS deny FROM s)
        SELECT n AS n_ranks,
        CASE WHEN denx > 0 THEN CAST(num AS DOUBLE) /
        CAST(denx AS DOUBLE) END AS slope,
        CASE WHEN denx > 0 THEN (CAST(sy AS DOUBLE) -
        CAST(num AS DOUBLE) / CAST(denx AS DOUBLE) *
        CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE) END AS
        intercept_micro_nats,
        CASE WHEN denx > 0 AND deny > 0 THEN CAST(num AS DOUBLE) *
        CAST(num AS DOUBLE) / (CAST(denx AS DOUBLE) *
        CAST(deny AS DOUBLE)) END AS r2 FROM f""").fetchdf()
    check("zipf_slope", seed, mine, ref, ["n_ranks"],
          ["slope", "intercept_micro_nats", "r2"])

    # group_quantiles_hist == group_quantiles on discrete values
    n = 3000
    qt = pa.table(
        {
            "g": pa.array(
                rng.choice(["x", "y", "z"], n), pa.string()
            ),
            "value": pa.array(
                rng.integers(0, 50, n).astype(np.float64),
                pa.float64(),
            ),
        }
    )
    ds = ray.data.from_arrow(qt).repartition(5)
    mine = group_quantiles_hist(
        ds, "g", "value", qs=(0.5, 0.95)
    ).to_pandas()
    ref = group_quantiles(
        ds, "g", "value", qs=(0.5, 0.95)
    ).to_pandas()
    check("group_quantiles_hist", seed, mine, ref, ["g"],
          ["p50", "p95"])

    # association_rules partials path == shuffle path
    rows = pa.table(
        {
            "g": pa.array(
                rng.integers(0, 150, 2500), pa.int64()
            ),
            "i": pa.array(rng.integers(0, 10, 2500), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(rows).repartition(5)
    ref = association_rules(
        ds, "g", "i", min_support=2, k=15
    ).to_pandas()
    import pyarrow.compute as _pc

    lo = rows.filter(_pc.less(rows.column("g"), 75))
    hi = rows.filter(_pc.greater_equal(rows.column("g"), 75))
    partials = ray.data.from_arrow(
        pa.concat_tables(
            [pair_count_partials(lo), pair_count_partials(hi)]
        )
    )
    mine = association_rules(
        None, "g", "i", min_support=2, k=15, partials=partials
    ).to_pandas()
    check("assoc_rules_partials", seed, mine, ref, ["a", "b"],
          ["support", "conf_ab", "conf_ba", "lift"])


def r5b_family(seed):
    """Round-5 continuation: Kendall tau-b, Cramer's V, Theil's U,
    EWMA and Holt smoothing vs DuckDB on fresh random inputs."""
    rng = np.random.default_rng(seed + 757)
    from console_log_parser_ray.stages.events import (
        cramers_v,
        ewma_series,
        holt_linear,
        kendall_tau_b,
        theil_u,
    )

    con = duckdb.connect()

    # --- Kendall tau-b on a tie-heavy monotone-ish pair with nulls
    n = 3000
    x = rng.integers(0, 40, n)
    y = 2 * x + rng.integers(-25, 25, n)
    xo, yo = x.astype(object), y.astype(object)
    xo[rng.random(n) < 0.03] = None
    yo[rng.random(n) < 0.03] = None
    vt = pa.table(
        {
            "x": pa.array(list(xo), pa.int64()),
            "y": pa.array(list(yo), pa.int64()),
        }
    )
    con.register("kvals", vt)
    mine = kendall_tau_b(
        ray.data.from_arrow(vt).repartition(5)
    ).to_pandas()
    ref = con.execute(
        "WITH src AS (SELECT x, y FROM kvals WHERE x IS NOT NULL "
        "AND y IS NOT NULL), "
        "c AS (SELECT x, y, CAST(count(*) AS HUGEINT) AS cn "
        "FROM src GROUP BY 1, 2), "
        "t AS (SELECT CAST(sum(cn) AS HUGEINT) AS n FROM c), "
        "p AS (SELECT coalesce(CAST(sum(a.cn * b.cn) FILTER "
        "(WHERE a.y < b.y) AS HUGEINT), 0) AS conc, "
        "coalesce(CAST(sum(a.cn * b.cn) FILTER (WHERE a.y > b.y) "
        "AS HUGEINT), 0) AS disc FROM c a JOIN c b ON a.x < b.x), "
        "tx AS (SELECT CAST(sum(m * (m - 1) // 2) AS HUGEINT) AS t "
        "FROM (SELECT CAST(sum(cn) AS HUGEINT) AS m FROM c "
        "GROUP BY x)), "
        "ty AS (SELECT CAST(sum(m * (m - 1) // 2) AS HUGEINT) AS t "
        "FROM (SELECT CAST(sum(cn) AS HUGEINT) AS m FROM c "
        "GROUP BY y)), "
        "g AS (SELECT t.n, p.conc, p.disc, tx.t AS tx, ty.t AS ty, "
        "t.n * (t.n - 1) // 2 AS n0 FROM t, p, tx, ty) "
        "SELECT CAST(n AS BIGINT) AS n, CAST(conc AS DOUBLE) AS conc, "
        "CAST(disc AS DOUBLE) AS disc, CAST(tx AS DOUBLE) AS ties_x, "
        "CAST(ty AS DOUBLE) AS ties_y, "
        "CASE WHEN n0 - tx > 0 AND n0 - ty > 0 THEN "
        "CAST(conc - disc AS DOUBLE) / "
        "sqrt(CAST(n0 - tx AS DOUBLE) * CAST(n0 - ty AS DOUBLE)) END "
        "AS tau_b FROM g"
    ).fetchdf()
    check(
        "kendall_tau_b", seed, mine, ref, ["n"],
        ["n", "conc", "disc", "ties_x", "ties_y", "tau_b"],
    )

    # --- Cramer's V + Theil's U on a planted-association pair
    n2 = 2500
    bcat = rng.integers(0, 6, n2)
    labels = np.array(["aa", "bb", "cc", "dd"])
    acat = labels[np.where(bcat >= 4, 0, rng.integers(0, 4, n2))]
    ct = pa.table(
        {
            "a": pa.array(list(acat), pa.string()),
            "b": pa.array(bcat, pa.int64()),
        }
    )
    con.register("cvals", ct)
    mine = cramers_v(
        ray.data.from_arrow(ct).repartition(4)
    ).to_pandas()
    ref = con.execute(
        "WITH c AS (SELECT coalesce(a, '') AS a, b, "
        "CAST(count(*) AS BIGINT) AS o FROM cvals GROUP BY 1, 2), "
        "m AS (SELECT a, b, o, CAST(sum(o) OVER (PARTITION BY a) "
        "AS BIGINT) AS ra, CAST(sum(o) OVER (PARTITION BY b) "
        "AS BIGINT) AS cb, CAST(sum(o) OVER () AS BIGINT) AS n "
        "FROM c), "
        "k AS (SELECT CAST(count(DISTINCT a) AS BIGINT) AS r_cats, "
        "CAST(count(DISTINCT b) AS BIGINT) AS c_cats FROM c), "
        "q AS (SELECT a, b, o, ra, cb, n, "
        "CAST(floor(((CAST(d AS DOUBLE) * CAST(d AS DOUBLE)) / "
        "(CAST(CAST(ra AS HUGEINT) * cb AS DOUBLE) * "
        "CAST(n AS DOUBLE))) * 1000000.0) AS BIGINT) AS term_q FROM "
        "(SELECT *, CAST(o AS HUGEINT) * n - CAST(ra AS HUGEINT) * cb "
        "AS d FROM m)), "
        "t AS (SELECT CAST(floor(CAST(CAST(max(n) AS HUGEINT) * max(n) - "
        "sum(CAST(ra AS HUGEINT) * cb) AS DOUBLE) / CAST(max(n) AS DOUBLE) "
        "* 1000000.0) AS BIGINT) AS absent_q, CAST(sum(term_q) AS HUGEINT) "
        "AS obs_q FROM q), "
        "s AS (SELECT absent_q, obs_q + absent_q AS sum_q FROM t) "
        "SELECT q.a, q.b, q.o, q.ra, q.cb, q.n, k.r_cats, k.c_cats, "
        "q.term_q, s.absent_q, CAST(s.sum_q AS DOUBLE) / 1000000.0 AS chi2, "
        "CASE WHEN least(k.r_cats, k.c_cats) > 1 THEN "
        "sqrt(CAST(s.sum_q AS DOUBLE) / (1000000.0 * "
        "CAST(q.n * (least(k.r_cats, k.c_cats) - 1) AS DOUBLE))) END "
        "AS v FROM q, k, s"
    ).fetchdf()
    check(
        "cramers_v", seed, mine, ref, ["a", "b"],
        ["o", "ra", "cb", "n", "r_cats", "c_cats", "term_q", "absent_q",
         "chi2", "v"],
    )
    mine = theil_u(
        ray.data.from_arrow(ct).repartition(4)
    ).to_pandas()
    ref = con.execute(
        "WITH c AS (SELECT coalesce(a, '') AS a, b, "
        "CAST(count(*) AS BIGINT) AS o FROM cvals GROUP BY 1, 2), "
        "tot AS (SELECT CAST(sum(o) AS BIGINT) AS n FROM c), "
        "ma AS (SELECT a, CAST(sum(o) AS BIGINT) AS ra FROM c "
        "GROUP BY a), "
        "qa AS (SELECT a, ra, CAST(floor((ln(CAST(n AS DOUBLE)) - "
        "ln(CAST(ra AS DOUBLE))) * 1000000.0) AS BIGINT) AS qa "
        "FROM ma, tot), "
        "ha AS (SELECT CAST(sum(CAST(ra AS HUGEINT) * qa) AS HUGEINT) "
        "AS ha_q FROM qa), "
        "mb AS (SELECT b, CAST(sum(o) AS BIGINT) AS cb FROM c "
        "GROUP BY b), "
        "q AS (SELECT c.a, c.b, c.o, qa.ra, mb.cb, tot.n, "
        "CAST(floor((ln(CAST(mb.cb AS DOUBLE)) - "
        "ln(CAST(c.o AS DOUBLE))) * 1000000.0) AS BIGINT) AS q_cell "
        "FROM c JOIN qa ON c.a = qa.a JOIN mb ON c.b = mb.b, tot), "
        "hab AS (SELECT CAST(sum(CAST(o AS HUGEINT) * q_cell) "
        "AS HUGEINT) AS hab_q FROM q) "
        "SELECT q.a, q.b, q.o, q.ra, q.cb, q.n, q.q_cell, "
        "CAST(ha.ha_q AS DOUBLE) AS ha_q, "
        "CAST(hab.hab_q AS DOUBLE) AS hab_q, "
        "CASE WHEN ha.ha_q > 0 THEN "
        "CAST(ha.ha_q - hab.hab_q AS DOUBLE) / "
        "CAST(ha.ha_q AS DOUBLE) END AS u FROM q, ha, hab"
    ).fetchdf()
    check(
        "theil_u", seed, mine, ref, ["a", "b"],
        ["o", "ra", "cb", "n", "q_cell", "ha_q", "hab_q", "u"],
    )

    # --- EWMA / Holt recursions vs recursive CTEs (gappy buckets)
    n3 = 2000
    day_us = 86_400_000_000
    days = rng.integers(0, 70, n3)
    days = days[days % 9 != 0]  # punch gaps
    ts = days * day_us + rng.integers(0, day_us, len(days))
    cents = rng.integers(50, 50_000, len(days))
    st = pa.table(
        {
            "ts": pa.array(ts, pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        }
    )
    con.register("ser", st)
    sds = ray.data.from_arrow(st).repartition(5)
    mine = ewma_series(sds, alpha=0.25).to_pandas()
    ref = con.execute(
        "WITH RECURSIVE d AS (SELECT ts // 86400000000 AS bucket, "
        "CAST(sum(cents) AS BIGINT) AS x FROM ser WHERE ts IS NOT "
        "NULL AND cents IS NOT NULL GROUP BY 1), "
        "o AS (SELECT bucket, x, row_number() OVER (ORDER BY bucket) "
        "AS rn FROM d), "
        "r AS (SELECT rn, bucket, x, CAST(x AS DOUBLE) AS ewma "
        "FROM o WHERE rn = 1 "
        "UNION ALL SELECT o.rn, o.bucket, o.x, "
        "0.25 * CAST(o.x AS DOUBLE) + 0.75 * r.ewma "
        "FROM o JOIN r ON o.rn = r.rn + 1) "
        "SELECT CAST(bucket AS BIGINT) AS bucket, x, ewma FROM r"
    ).fetchdf()
    check(
        "ewma_series", seed, mine, ref, ["bucket"],
        ["x", "ewma"],
    )
    mine = holt_linear(
        sds, alpha=0.5, beta=0.25, bucket_us=7 * day_us
    ).to_pandas()
    ref = con.execute(
        "WITH RECURSIVE d AS (SELECT ts // 604800000000 AS bucket, "
        "CAST(sum(cents) AS BIGINT) AS x FROM ser WHERE ts IS NOT "
        "NULL AND cents IS NOT NULL GROUP BY 1), "
        "o AS (SELECT bucket, x, row_number() OVER (ORDER BY bucket) "
        "AS rn FROM d), "
        "x2 AS (SELECT CAST(x AS DOUBLE) AS v FROM o WHERE rn = 2), "
        "r AS (SELECT rn, bucket, x, CAST(x AS DOUBLE) AS level, "
        "(SELECT v FROM x2) - CAST(x AS DOUBLE) AS trend, "
        "CAST(NULL AS DOUBLE) AS fitted, CAST(NULL AS DOUBLE) AS "
        "resid FROM o WHERE rn = 1 "
        "UNION ALL SELECT rn, bucket, x, level, "
        "0.25 * (level - lp) + 0.75 * bp AS trend, fitted, "
        "xf - fitted AS resid FROM "
        "(SELECT s.rn, s.bucket, s.x, s.xf, s.lp, s.bp, s.fitted, "
        "0.5 * s.xf + 0.5 * s.fitted AS level FROM "
        "(SELECT o.rn, o.bucket, o.x, CAST(o.x AS DOUBLE) AS xf, "
        "r.level AS lp, r.trend AS bp, r.level + r.trend AS fitted "
        "FROM o JOIN r ON o.rn = r.rn + 1) s)) "
        "SELECT CAST(bucket AS BIGINT) AS bucket, x, level, trend, "
        "fitted, resid FROM r"
    ).fetchdf()
    check(
        "holt_linear", seed, mine, ref, ["bucket"],
        ["x", "level", "trend", "fitted", "resid"],
    )


def r5c_family(seed):
    """Round-5 continuation 2: one-way ANOVA, Gumbel block maxima,
    Theil-Sen robust trend and RAKE keyphrases vs DuckDB on fresh
    random inputs."""
    rng = np.random.default_rng(seed + 909)
    from console_log_parser_ray.stages.events import (
        anova_oneway,
        gumbel_block_maxima,
        theil_sen,
    )
    from console_log_parser_ray.stages.textan import rake_keyphrases

    con = duckdb.connect()

    # --- one-way ANOVA on a planted group shift
    n = 3000
    grp = rng.choice(["a", "b", "c"], n)
    cents = rng.integers(500, 8000, n) + np.where(
        grp == "b", rng.integers(0, 2000), 0
    )
    at = pa.table(
        {
            "grp": pa.array(list(grp), pa.string()),
            "cents": pa.array(cents, pa.int64()),
        }
    )
    con.register("avals", at)
    mine = anova_oneway(
        ray.data.from_arrow(at).repartition(4)
    ).to_pandas()
    ref = con.execute(
        "WITH g AS (SELECT grp, CAST(count(*) AS BIGINT) AS n_g, "
        "CAST(sum(cents) AS BIGINT) AS s_g, "
        "CAST(sum(CAST(cents AS HUGEINT) * cents) AS HUGEINT) AS "
        "ss_g FROM avals GROUP BY 1), "
        "q AS (SELECT grp, n_g, s_g, ss_g, "
        "(CAST(s_g AS HUGEINT) * s_g * 1000000) // n_g AS t_q "
        "FROM g), "
        "tot AS (SELECT CAST(sum(n_g) AS HUGEINT) AS nn, "
        "CAST(sum(s_g) AS HUGEINT) AS ss, "
        "CAST(sum(ss_g) AS HUGEINT) AS sstot, "
        "CAST(sum(t_q) AS HUGEINT) AS t, "
        "CAST(count(*) AS BIGINT) AS k FROM q), "
        "f AS (SELECT *, t - (ss * ss * 1000000) // nn AS ssb_q, "
        "sstot * 1000000 - t AS ssw_q FROM tot) "
        "SELECT q.grp, q.n_g, CAST(q.s_g AS DOUBLE) AS s_g, "
        "CAST(q.ss_g AS DOUBLE) AS ss_g, "
        "CASE WHEN f.ssw_q > 0 AND f.k > 1 THEN "
        "CAST(f.ssb_q * (f.nn - f.k) AS DOUBLE) / "
        "CAST(f.ssw_q * (f.k - 1) AS DOUBLE) END AS f_stat, "
        "CASE WHEN f.ssb_q + f.ssw_q > 0 THEN "
        "CAST(f.ssb_q AS DOUBLE) / "
        "CAST(f.ssb_q + f.ssw_q AS DOUBLE) END AS eta2 FROM q, f"
    ).fetchdf()
    check(
        "anova_oneway", seed, mine, ref, ["grp"],
        ["n_g", "s_g", "ss_g", "f_stat", "eta2"],
    )

    # --- Gumbel block maxima + Theil-Sen on one gappy series
    day_us = 86_400_000_000
    days = rng.integers(0, 120, 2500)
    days = days[days % 7 != 3]
    ts = days * day_us + rng.integers(0, day_us, len(days))
    c2 = rng.integers(100, 200_000, len(days)) + 40 * days
    st = pa.table(
        {
            "ts": pa.array(ts, pa.int64()),
            "cents": pa.array(c2, pa.int64()),
        }
    )
    con.register("gser", st)
    sds = ray.data.from_arrow(st).repartition(4)
    mine = gumbel_block_maxima(
        sds, bucket_us=7 * day_us
    ).to_pandas()
    ref = con.execute(
        "WITH d AS (SELECT ts // 604800000000 AS bucket, "
        "CAST(max(cents) AS BIGINT) AS x FROM gser GROUP BY 1), "
        "m AS (SELECT CAST(count(*) AS BIGINT) AS k, "
        "CAST(sum(x) AS HUGEINT) AS sx, "
        "CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx "
        "FROM d), "
        "g AS (SELECT k, sx, sxx, "
        "CAST(sx AS DOUBLE) / CAST(k AS DOUBLE) AS mean, "
        "CAST(k * sxx - sx * sx AS DOUBLE) / "
        "CAST(k * (k - 1) AS DOUBLE) AS var FROM m) "
        "SELECT k, CAST(sx AS DOUBLE) AS s_x, CAST(sxx AS DOUBLE) "
        "AS s_xx, mean, var, sqrt(var) * (sqrt(6) / pi()) AS beta, "
        "mean - 0.5772156649015329 * (sqrt(var) * (sqrt(6) / pi())) "
        "AS mu FROM g"
    ).fetchdf()
    check(
        "gumbel_block_maxima", seed, mine, ref, ["k"],
        ["k", "s_x", "s_xx", "mean", "var", "beta", "mu"],
    )
    mine = theil_sen(sds).to_pandas()
    ref = con.execute(
        "WITH d AS (SELECT ts // 86400000000 AS bucket, "
        "CAST(sum(cents) AS BIGINT) AS x FROM gser GROUP BY 1), "
        "p AS (SELECT CAST(b.x - a.x AS DOUBLE) / "
        "CAST(b.bucket - a.bucket AS DOUBLE) AS s FROM d a JOIN d b "
        "ON a.bucket < b.bucket), "
        "sl AS (SELECT median(s) AS slope, CAST(count(*) AS BIGINT) "
        "AS n_pairs FROM p), "
        "nn AS (SELECT CAST(count(*) AS BIGINT) AS n_days FROM d), "
        "ic AS (SELECT median(CAST(d.x AS DOUBLE) - sl.slope * "
        "CAST(d.bucket AS DOUBLE)) AS intercept FROM d, sl) "
        "SELECT nn.n_days, sl.n_pairs, sl.slope, ic.intercept "
        "FROM nn, sl, ic"
    ).fetchdf()
    check(
        "theil_sen", seed, mine, ref, ["n_days"],
        ["n_days", "n_pairs", "slope", "intercept"],
    )

    # --- RAKE on random punctuated text with stopwords
    from console_log_parser_ray.stages.textan import RAKE_STOPWORDS

    content = ["alpha", "beta", "gamma", "delta", "neural", "nets"]
    punct = [".", ",", ";", "--", "!", "?"]
    texts = []
    for _ in range(150):
        parts = []
        for _ in range(int(rng.integers(3, 25))):
            roll = rng.random()
            if roll < 0.3:
                parts.append(str(rng.choice(RAKE_STOPWORDS)))
            elif roll < 0.4:
                parts.append(str(rng.choice(punct)))
            else:
                parts.append(str(rng.choice(content)))
        texts.append(" ".join(parts))
    dt = pa.table({"text": pa.array(texts, pa.string())})
    con.register("rdocs", dt)
    mine = rake_keyphrases(
        ray.data.from_arrow(dt).repartition(4), top_k=1000
    ).to_pandas()
    ref = con.execute(
        "WITH s AS (SELECT '  ' || regexp_replace(lower("
        "coalesce(text, '')), '[^a-z0-9]+', '  ', 'g') || '  ' AS t "
        "FROM rdocs), "
        "s2 AS (SELECT regexp_replace(t, ' (a|an|and|are|as|at|be|by"
        "|for|from|in|is|it|of|on|or|that|the|this|to|was|were|with)"
        " ', ' | ', 'g') AS t FROM s), "
        "ph0 AS (SELECT unnest(regexp_extract_all(t, "
        "'[a-z0-9]+(?: {1,2}[a-z0-9]+)*')) AS p FROM s2), "
        "ph AS (SELECT regexp_replace(p, ' +', ' ', 'g') AS phrase "
        "FROM ph0 WHERE p <> ''), "
        "pw AS (SELECT phrase, len(string_split(phrase, ' ')) AS "
        "plen, unnest(string_split(phrase, ' ')) AS w FROM ph), "
        "ws AS (SELECT w, CAST(count(*) AS BIGINT) AS freq, "
        "CAST(sum(plen) AS BIGINT) AS deg FROM pw GROUP BY w), "
        "wq AS (SELECT w, (deg * 1000000) // freq AS score_w "
        "FROM ws), "
        "ps AS (SELECT pw.phrase, CAST(sum(wq.score_w) AS BIGINT) "
        "AS total_q, CAST(count(*) AS BIGINT) AS n_wi, "
        "any_value(pw.plen) AS plen FROM pw JOIN wq USING (w) "
        "GROUP BY pw.phrase), "
        "fin AS (SELECT phrase, n_wi // plen AS n_occ, "
        "total_q // (n_wi // plen) AS score_q FROM ps) "
        "SELECT phrase, CAST(n_occ AS BIGINT) AS n_occ, score_q "
        "FROM fin ORDER BY score_q DESC, phrase LIMIT 1000"
    ).fetchdf()
    check(
        "rake_keyphrases", seed, mine, ref, ["phrase"],
        ["phrase", "n_occ", "score_q"],
    )


def r5d_family(seed):
    """Round-5 continuation 3: Wasserstein-1, interval union,
    rolling-quantile breaches and monetary-unit sampling vs DuckDB
    on fresh random inputs."""
    rng = np.random.default_rng(seed + 4242)
    from console_log_parser_ray.stages.events import (
        interval_union_days,
        monetary_unit_sample,
        rolling_quantile_breaches,
        wasserstein_1d,
    )

    con = duckdb.connect()

    # --- Wasserstein-1 on a planted location shift
    n = 2500
    kinds = np.where(rng.random(n) < 0.5, "click", "view")
    v = rng.integers(0, 3000, n) + np.where(
        kinds == "click", int(rng.integers(100, 600)), 0
    )
    wt = pa.table(
        {
            "event_type": pa.array(list(kinds), pa.string()),
            "v": pa.array(v, pa.int64()),
        }
    )
    con.register("wvals", wt)
    mine = wasserstein_1d(
        ray.data.from_arrow(wt).repartition(4)
    ).to_pandas()
    ref = con.execute(
        "WITH h AS (SELECT v, CAST(count(*) FILTER (WHERE "
        "event_type = 'click') AS BIGINT) AS na_c, "
        "CAST(count(*) FILTER (WHERE event_type = 'view') AS "
        "BIGINT) AS nb_c FROM wvals GROUP BY 1), "
        "t AS (SELECT CAST(sum(na_c) AS HUGEINT) AS na, "
        "CAST(sum(nb_c) AS HUGEINT) AS nb FROM h), "
        "w AS (SELECT v, sum(na_c) OVER (ORDER BY v ROWS UNBOUNDED "
        "PRECEDING) AS ca, sum(nb_c) OVER (ORDER BY v ROWS "
        "UNBOUNDED PRECEDING) AS cb, lead(v) OVER (ORDER BY v) AS "
        "nv FROM h), "
        "s AS (SELECT CAST(sum(abs(CAST(ca AS HUGEINT) * t.nb - "
        "CAST(cb AS HUGEINT) * t.na) * (nv - v)) AS HUGEINT) AS "
        "num FROM w, t WHERE nv IS NOT NULL) "
        "SELECT CAST(t.na AS BIGINT) AS n_a, CAST(t.nb AS BIGINT) "
        "AS n_b, CAST(s.num AS DOUBLE) AS w1_num, "
        "CAST(s.num AS DOUBLE) / CAST(t.na * t.nb AS DOUBLE) AS w1 "
        "FROM t, s"
    ).fetchdf()
    check(
        "wasserstein_1d", seed, mine, ref, ["n_a"],
        ["n_a", "n_b", "w1_num", "w1"],
    )

    # --- interval union on overlapping/touching random spans
    n2 = 2000
    keys = rng.integers(0, 40, n2)
    a = rng.integers(0, 500, n2)
    b = a + rng.integers(0, 25, n2)
    it = pa.table(
        {
            "k": pa.array(keys, pa.int64()),
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
        }
    )
    con.register("ivals", it)
    mine = interval_union_days(
        ray.data.from_arrow(it).repartition(4)
    ).to_pandas()
    ref = con.execute(
        "WITH w AS (SELECT k, a, b, max(b) OVER (PARTITION BY k "
        "ORDER BY a, b ROWS BETWEEN UNBOUNDED PRECEDING AND 1 "
        "PRECEDING) AS pm FROM ivals), "
        "isl AS (SELECT k, a, b, sum(CASE WHEN pm IS NULL OR "
        "a > pm + 1 THEN 1 ELSE 0 END) OVER (PARTITION BY k "
        "ORDER BY a, b ROWS UNBOUNDED PRECEDING) AS g FROM w), "
        "m AS (SELECT k, g, min(a) AS a0, max(b) AS b1 FROM isl "
        "GROUP BY k, g) "
        "SELECT k, CAST(count(*) AS BIGINT) AS n_spans, "
        "CAST(sum(b1 - a0 + 1) AS BIGINT) AS busy_days FROM m "
        "GROUP BY 1"
    ).fetchdf()
    check(
        "interval_union_days", seed, mine, ref, ["k"],
        ["n_spans", "busy_days"],
    )

    # --- rolling-quantile breaches on a gappy daily series
    day_us = 86_400_000_000
    days = rng.integers(0, 150, 1500)
    days = days[days % 11 != 2]
    ts = days * day_us + rng.integers(0, day_us, len(days))
    cents = rng.integers(1000, 100_000, len(days))
    st = pa.table(
        {
            "ts": pa.array(ts, pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        }
    )
    con.register("rser", st)
    sds = ray.data.from_arrow(st).repartition(4)
    mine = rolling_quantile_breaches(sds).to_pandas()
    ref = con.execute(
        "WITH d AS (SELECT ts // 86400000000 AS bucket, "
        "CAST(sum(cents) AS BIGINT) AS x FROM rser GROUP BY 1), "
        "w AS (SELECT bucket, x, quantile_disc(x, 0.95) OVER "
        "(ORDER BY bucket RANGE BETWEEN 28 PRECEDING AND 1 "
        "PRECEDING) AS p_hi, CAST(count(x) OVER (ORDER BY bucket "
        "RANGE BETWEEN 28 PRECEDING AND 1 PRECEDING) AS BIGINT) AS "
        "n_window FROM d) "
        "SELECT CAST(bucket AS BIGINT) AS bucket, x, p_hi, "
        "n_window FROM w WHERE x > p_hi"
    ).fetchdf()
    check(
        "rolling_quantile_breaches", seed, mine, ref, ["bucket"],
        ["x", "p_hi", "n_window"],
    )

    # --- monetary-unit sampling with planted whales
    n3 = 3000
    ks = rng.permutation(np.arange(5, 5 + n3, dtype=np.int64))
    cs = rng.integers(1, 20_000, n3)
    cs[ks % 503 == 0] = 5_000_000
    mt = pa.table(
        {
            "k": pa.array(ks, pa.int64()),
            "c": pa.array(cs, pa.int64()),
        }
    )
    con.register("mvals", mt)
    mine = monetary_unit_sample(
        ray.data.from_arrow(mt).repartition(5), n_samples=200
    ).to_pandas()
    ref = con.execute(
        "WITH t AS (SELECT CAST(sum(c) AS HUGEINT) // 200 AS ti "
        "FROM mvals), "
        "w AS (SELECT k, c, sum(c) OVER (ORDER BY k ROWS UNBOUNDED "
        "PRECEDING) AS cum FROM mvals) "
        "SELECT w.k AS orderkey, w.c AS cents, "
        "CAST(w.cum // t.ti - (w.cum - w.c) // t.ti AS BIGINT) AS "
        "n_hits FROM w, t WHERE w.cum // t.ti > "
        "(w.cum - w.c) // t.ti"
    ).fetchdf()
    check(
        "monetary_unit_sample", seed, mine, ref, ["orderkey"],
        ["cents", "n_hits"],
    )


def main():
    seeds = [int(s) for s in sys.argv[1:]] or [
        11, 97, 1234, 5150, 31337, 424242, 888, 1000003, 271828, 999331,
    ]
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False)
    for seed in seeds:
        window_family(seed)
        aggregate_family(seed)
        session_rank_family(seed)
        text_family(seed)
        search_family(seed)
        relational_family(seed)
        dedup_family(seed)
        transcript_family(seed)
        misc_family(seed)
        olap_family(seed)
        cdc_fuzzy_family(seed)
        graph_lm_family(seed)
        pareto_setsim_family(seed)
        nearest_mi_family(seed)
        funnel_steps_family(seed)
        log_pipeline_family(seed)
        resample_graph_family(seed)
        growth_quality_family(seed)
        stats_quality_family(seed)
        alerting_trend_family(seed)
        rules_mmr_family(seed)
        engagement_family(seed)
        r5_family(seed)
        r5b_family(seed)
        r5c_family(seed)
        r5d_family(seed)
        print(f"seed {seed}: ok", flush=True)
    print(
        f"SWEEP DONE: {len(failures)} failures across {len(seeds)} seeds "
        "(185 comparison groups per seed)"
    )
    for f in failures:
        print(" ", f)
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
