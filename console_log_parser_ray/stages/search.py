"""Retrieval primitives over the document corpus: a capped inverted
index (token -> posting list) and BM25 keyword scoring.

Both are corpus-wide text passes built on the same token-keyed front
half as ``stages.textan.idf_rarity`` (``map_keyed`` on the token puts
every occurrence row of a token in exactly ONE call, so document
frequency is a local bincount -- no df-table broadcast), and
both keep every intermediate an integer so the DuckDB SQL oracles are
bit-exact.  BM25's floating-point score is derived from those integers
through one fixed, literally-mirrored IEEE expression tree (see
``bm25_keyword``), which keeps even the float column hash-identical
across engines.

At 100 TB:

- ``postings`` moves one distinct (doc, token) row per pair through a
  single shuffle whose dispatch is bounded by the bucket count; each
  bucket emits at most ``k`` doc ids per surviving token, so output is
  vocabulary-sized, not corpus-sized.  The ``max_df`` cut is applied
  inside the bucket BEFORE any posting string is built -- stop-word
  postings (the heavy hitters that would dominate output size) never
  materialize.
- ``bm25_keyword`` never shuffles the corpus at all: one streaming
  pass projects each document to a (T+2)-integer row (T = number of
  query terms), the global term statistics fold as per-block partials
  on the driver (one tiny row per block), and scoring is a second
  vectorized pass over the narrow projection.  The projection is
  materialized between the two passes -- it is ~8*(T+2) bytes per
  document, orders of magnitude under the raw text volume -- so the
  expensive tokenize runs once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .textan import _per_token


def postings(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 8,
    min_df: int = 2,
    max_df: int | None = None,
    n_buckets: int = 64,
):
    """Capped inverted index: for every token with document frequency
    in ``[min_df, max_df]``, its df and the ``k`` smallest doc ids
    that contain it, comma-joined in ascending order -- the seed
    structure of any sharded lexical search index.

    Plan: the shared ``_per_token`` front half (vectorized split + one
    Arrow group_by per batch) emits distinct (doc, token) rows keyed on
    the token; inside each call df is a bincount, the df band is
    filtered first, and the capped posting strings are built with one
    lexsort + offset-sliced ``ListArray`` + ``binary_join`` -- no
    per-token Python.  One shuffle total,
    dispatch bounded by ``n_buckets``.
    """

    def build(tbl: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(tbl.column("tok").combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        nvocab = len(enc.dictionary)
        df = np.bincount(codes, minlength=nvocab)
        lo = df >= min_df
        if max_df is not None:
            lo &= df <= max_df
        keep_row = lo[codes]
        if not keep_row.any():
            return pa.table(
                {
                    "tok": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "posting": pa.array([], pa.string()),
                }
            )
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)[keep_row]
        kept_codes = codes[keep_row]
        # sort rows by (token, doc_id); within each token run, rank =
        # index - run start, so "first k doc ids" is one boolean mask
        order = np.lexsort((ids, kept_codes))
        sc = kept_codes[order]
        si = ids[order]
        n = len(sc)
        first = np.ones(n, dtype=bool)
        first[1:] = sc[1:] != sc[:-1]
        idx = np.arange(n, dtype=np.int64)
        start = np.maximum.accumulate(np.where(first, idx, 0))
        in_cap = (idx - start) < k
        cap_ids = si[in_cap]
        cap_codes = sc[in_cap]
        # per surviving token: its capped count -> ListArray offsets
        tok_codes = cap_codes[
            np.concatenate(
                ([True], cap_codes[1:] != cap_codes[:-1])
            )
        ]
        counts = np.minimum(df[tok_codes], k)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        id_strs = pc.cast(pa.array(cap_ids, pa.int64()), pa.string())
        lists = pa.ListArray.from_arrays(pa.array(offsets), id_strs)
        return pa.table(
            {
                "tok": enc.dictionary.take(
                    pa.array(tok_codes, pa.int64())
                ),
                "df": pa.array(df[tok_codes], pa.int64()),
                "posting": pc.binary_join(lists, ","),
            }
        )

    return _per_token(ds, build, text_col, id_col, n_buckets)


#: BM25 shape parameters; 1-b and k1+1 are derived inside the score
#: expression (1.0 - B, K1 + 1.0) so the SQL mirror can spell the
#: SAME subexpressions and land on bit-identical doubles.
_BM25_K1 = 1.2
_BM25_B = 0.75


def bm25_project(
    ds, terms: tuple, text_col: str = "text", id_col: str = "doc_id"
):
    """Streaming projection of each document onto (doc length, per-term
    term frequency) -- the integer sufficient statistics of BM25 for a
    fixed query.  One vectorized pass; no shuffle."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        n = len(texts)
        lists = pc.split_pattern_regex(texts, pattern=r"\s+")
        flat = lists.flatten()
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        offsets = offsets - offsets[0]
        row_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        cols = {
            id_col: batch.column(id_col).cast(pa.int64()),
            "dl": pa.array(
                np.bincount(row_idx[nonempty], minlength=n), pa.int64()
            ),
        }
        for j, term in enumerate(terms):
            hit = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            cols[f"tf{j}"] = pa.array(
                np.bincount(row_idx[hit], minlength=n), pa.int64()
            )
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def bm25_keyword(
    ds,
    terms: tuple,
    text_col: str = "text",
    id_col: str = "doc_id",
    k1: float = _BM25_K1,
    b: float = _BM25_B,
):
    """BM25 keyword scoring of every document against a fixed term
    list: ``score = sum_t idf_t * tf_t*(k1+1) / (tf_t + k1*(1-b +
    b*dl/avgdl))`` with the rational Robertson idf ``(N - df_t + 0.5)
    / (df_t + 0.5)`` (no logarithm -- every operation is IEEE +,-,*,/
    on values derived from exact integers, so the score column is
    bit-reproducible on any engine that evaluates the same expression
    tree, which the SQL oracle spells out literally).  Documents with
    zero query-term hits are dropped; ``N`` and ``avgdl`` count
    documents with at least one token (matching the unnest-based SQL
    formulation, where token-less documents vanish).

    Plan: ``bm25_project`` streams the corpus once into a narrow
    integer table (materialized: ~8*(T+2) bytes/doc); global term
    statistics fold as one tiny partial row per block on the driver;
    a second vectorized pass scores.  Zero shuffles.
    """
    T = len(terms)
    proj = bm25_project(
        ds, terms, text_col=text_col, id_col=id_col
    ).materialize()

    def partial(batch: pa.Table) -> pa.Table:
        dl = batch.column("dl").to_numpy(zero_copy_only=False)
        tok_docs = dl > 0
        cols = {
            "n": pa.array([int(tok_docs.sum())], pa.int64()),
            "sdl": pa.array([int(dl.sum())], pa.int64()),
        }
        for j in range(T):
            tf = batch.column(f"tf{j}").to_numpy(zero_copy_only=False)
            cols[f"df{j}"] = pa.array([int((tf > 0).sum())], pa.int64())
        return pa.table(cols)

    parts = proj.map_batches(partial, batch_format="pyarrow").take_all()
    n_docs = sum(r["n"] for r in parts)
    sum_dl = sum(r["sdl"] for r in parts)
    dfs = [sum(r[f"df{j}"] for r in parts) for j in range(T)]
    avgdl = np.float64(sum_dl) / np.float64(n_docs)

    def score(batch: pa.Table) -> pa.Table:
        dl = batch.column("dl").to_numpy(zero_copy_only=False)
        dl_f = dl.astype(np.float64)
        # norm = k1 * ((1 - b) + b * (dl / avgdl)), evaluated in this
        # exact association; the SQL mirror writes the same tree
        norm = np.float64(k1) * (
            (np.float64(1.0) - np.float64(b))
            + np.float64(b) * (dl_f / avgdl)
        )
        total = np.zeros(len(dl), dtype=np.float64)
        n_hits = np.zeros(len(dl), dtype=np.int64)
        for j in range(T):
            tf = batch.column(f"tf{j}").to_numpy(zero_copy_only=False)
            tf_f = tf.astype(np.float64)
            idf = (np.float64(n_docs - dfs[j]) + np.float64(0.5)) / (
                np.float64(dfs[j]) + np.float64(0.5)
            )
            with np.errstate(invalid="ignore", divide="ignore"):
                s = idf * (
                    (tf_f * (np.float64(k1) + np.float64(1.0)))
                    / (tf_f + norm)
                )
            hit = tf > 0
            # left-to-right term accumulation, tf=0 contributing an
            # exact 0.0 -- the same order the SQL sum spells out
            total = total + np.where(hit, s, np.float64(0.0))
            n_hits += hit.astype(np.int64)
        keep = n_hits > 0
        return pa.table(
            {
                id_col: batch.column(id_col).filter(pa.array(keep)),
                "n_hits": pa.array(n_hits[keep], pa.int64()),
                "dl": pa.array(dl[keep], pa.int64()),
                "score": pa.array(total[keep], pa.float64()),
            }
        )

    return proj.map_batches(score, batch_format="pyarrow")


def _md5_dims(vocab: pa.Array, dim: int):
    """(dim, sign) per DISTINCT token via md5 -- the engine-portable
    feature-hashing chain (DuckDB spells it ``('0x' ||
    substr(md5(tok),1,8))::BIGINT``).  Python cost is per distinct
    token per batch, never per occurrence."""
    import hashlib

    dims = np.empty(len(vocab), dtype=np.int64)
    signs = np.empty(len(vocab), dtype=np.int64)
    for i, tok in enumerate(vocab.to_pylist()):
        h = hashlib.md5(tok.encode("utf-8")).hexdigest()
        dims[i] = int(h[:8], 16) % dim
        signs[i] = 1 if int(h[8], 16) < 8 else -1
    return dims, signs


def hash_embed(
    ds, dim: int = 64, text_col: str = "text", id_col: str = "doc_id"
):
    """Feature-hashing (hashing-trick) vectorization: each document's
    bag of tokens folds into a ``dim``-dimensional signed-count vector
    (token -> md5-derived dimension, +/-1 sign from the next md5
    nibble -- the Weinberger et al. construction), emitted SPARSE as
    (doc, dim, weight) rows with zero weights dropped.  The model-free
    embedding stage of a curation pipeline: the output feeds the kNN /
    k-means / ANN family without any trained encoder.

    Integer end to end, so the SQL mirror (same md5 chain) is
    bit-exact.  Stateless ``map_batches``: every token of a document
    lives inside its own row, so the (doc, dim) fold completes
    in-block with one weighted bincount -- ZERO shuffles at any corpus
    size; md5 cost is per distinct token per batch (vocabularies
    repeat), not per occurrence.
    """

    def fn(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        ids = (
            batch.column(id_col)
            .combine_chunks()
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        n = len(texts)
        lists = pc.split_pattern_regex(texts, pattern=r"\s+")
        flat = lists.flatten()
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        offsets = offsets - offsets[0]
        row_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(nonempty))
        row_idx = row_idx[nonempty]
        if len(row_idx) == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "dim": pa.array([], pa.int64()),
                    "weight": pa.array([], pa.int64()),
                }
            )
        enc = pc.dictionary_encode(flat)
        vdims, vsigns = _md5_dims(enc.dictionary, dim)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        key = row_idx * dim + vdims[codes]
        w = np.bincount(
            key, weights=vsigns[codes], minlength=n * dim
        ).astype(np.int64)
        nz = np.flatnonzero(w)
        return pa.table(
            {
                id_col: pa.array(ids[nz // dim], pa.int64()),
                "dim": pa.array(nz % dim, pa.int64()),
                "weight": pa.array(w[nz], pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def hash_embed_dense(
    ds, dim: int = 64, text_col: str = "text", id_col: str = "doc_id"
):
    """Dense companion of :func:`hash_embed`: the same signed-count
    vectors as a ``fixed_size_list<float>`` ``embedding`` column
    (zero-copy 2-D numpy view downstream), ready to chain into the
    kNN / k-means / SemDeDup family.  Same zero-shuffle shape."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        n = len(texts)
        lists = pc.split_pattern_regex(texts, pattern=r"\s+")
        flat = lists.flatten()
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        offsets = offsets - offsets[0]
        row_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(nonempty))
        row_idx = row_idx[nonempty]
        mat = np.zeros(n * dim, dtype=np.float64)
        if len(row_idx):
            enc = pc.dictionary_encode(flat)
            vdims, vsigns = _md5_dims(enc.dictionary, dim)
            codes = enc.indices.to_numpy(zero_copy_only=False)
            np.add.at(mat, row_idx * dim + vdims[codes], vsigns[codes])
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(mat.astype(np.float32)), dim
        )
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "embedding": emb,
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def bm25_oracle_sql(
    terms: tuple, k1: float = _BM25_K1, b: float = _BM25_B
) -> str:
    """The DuckDB mirror of ``bm25_keyword`` -- generated from the
    same term list so engine and oracle can never drift, with every
    float subexpression spelled in the association the engine uses."""
    tf_cols = ", ".join(
        f"count(*) FILTER (WHERE tok = '{t}') AS tf{j}"
        for j, t in enumerate(terms)
    )
    df_cols = ", ".join(
        f"count(*) FILTER (WHERE tf{j} > 0) AS df{j}"
        for j in range(len(terms))
    )
    norm = (
        f"({k1} * ((1.0 - {b}) + {b} * "
        "(CAST(dl AS DOUBLE) / (CAST(sdl AS DOUBLE) / CAST(n AS DOUBLE)))))"
    )
    score = " + ".join(
        f"(CASE WHEN tf{j} > 0 THEN "
        f"((CAST(n - df{j} AS DOUBLE) + 0.5) / (CAST(df{j} AS DOUBLE) + 0.5))"
        f" * ((CAST(tf{j} AS DOUBLE) * ({k1} + 1.0)) / "
        f"(CAST(tf{j} AS DOUBLE) + {norm})) ELSE 0.0 END)"
        for j in range(len(terms))
    )
    hits = " + ".join(
        f"CAST(tf{j} > 0 AS BIGINT)" for j in range(len(terms))
    )
    anyhit = " OR ".join(f"tf{j} > 0" for j in range(len(terms)))
    return (
        "WITH toks AS (SELECT doc_id, "
        "unnest(regexp_extract_all(text, '\\S+')) AS tok FROM documents), "
        f"dlt AS (SELECT doc_id, count(*) AS dl, {tf_cols} "
        "FROM toks GROUP BY doc_id), "
        f"g AS (SELECT count(*) AS n, CAST(sum(dl) AS BIGINT) AS sdl, "
        f"{df_cols} FROM dlt) "
        f"SELECT doc_id, ({hits}) AS n_hits, dl, ({score}) AS score "
        f"FROM dlt, g WHERE {anyhit}"
    )


def bool_search(ds, terms, text_col="text", id_col="doc_id"):
    """Boolean-AND retrieval: the documents whose token set contains
    EVERY query term -- the filtering leg of the retrieval family
    (``build_postings`` is the index, ``bm25`` the ranking; this is
    the candidate gate).  Zero shuffles: one tokenize + T vectorized
    membership checks per block, a bincount-any per term, and a mask
    AND -- the matching ids stream straight out.
    """
    terms = list(terms)

    def match(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(b.column(text_col).combine_chunks(), "")
        n = len(texts)
        if n == 0:
            return pa.table({id_col: pa.array([], pa.int64())})
        lists = pc.split_pattern_regex(texts, pattern=r"\s+")
        flat = lists.flatten()
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        offsets = offsets - offsets[0]
        row_idx = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(offsets)
        )
        ok = np.ones(n, dtype=bool)
        for t in terms:
            hit = pc.equal(flat, pa.scalar(t)).to_numpy(
                zero_copy_only=False
            )
            per_row = np.zeros(n, dtype=np.int64)
            if hit.any():
                np.add.at(per_row, row_idx[hit], 1)
            ok &= per_row > 0
        return pa.table(
            {
                id_col: b.column(id_col)
                .combine_chunks()
                .cast(pa.int64())
                .filter(pa.array(ok)),
            }
        )

    return ds.map_batches(match, batch_format="pyarrow")


def hybrid_rrf(
    docs,
    embeddings,
    terms: tuple,
    query,
    m: int = 100,
    k: int = 20,
    c: int = 60,
    text_col: str = "text",
    id_col: str = "doc_id",
    vec_col: str = "embedding",
    vec_id_col: str = "vec_id",
):
    """Hybrid retrieval with reciprocal-rank fusion (Cormack et al.,
    SIGIR 2009): the BM25 keyword leg and the embedding-cosine leg
    each produce their top-``m`` ranking over the same id space, and
    a document's fused score is ``1/(c + rank_bm25) + 1/(c +
    rank_knn)`` (a missing leg contributes 0) -- the standard way
    modern RAG stacks combine sparse and dense retrieval without
    score calibration.

    Exactness: ranks are integers from each leg's own deterministic
    ordering (``(score DESC, id)`` / ``(cosine DESC, id)`` -- the
    orderings both legs' standalone oracles already pin), and the
    fused score is exactly two IEEE divisions and one addition in the
    same association as the SQL mirror, so the fused top-``k`` cut is
    bit-exact.

    Scale shape: both legs stay fully distributed (BM25's zero-shuffle
    projection+score passes; kNN's broadcast-query partial top-k);
    only the two top-``m`` rankings -- 2m bounded rows -- reach the
    driver for the fusion, which is a dict merge.  ``query`` is
    ``(query_id, vector)`` for the dense leg.
    """
    import ray.data

    from console_log_parser_ray.stages.similarity import knn_bruteforce

    bm_rows = (
        bm25_keyword(docs, terms, text_col=text_col, id_col=id_col)
        .sort(["score", id_col], descending=[True, False])
        .limit(m)
        .take_all()
    )
    rank_bm = {r[id_col]: i + 1 for i, r in enumerate(bm_rows)}

    qid, qvec = query
    kn_rows = knn_bruteforce(
        embeddings, ([qid], [qvec]), k=m, vec_col=vec_col,
        id_col=vec_id_col,
    ).take_all()
    kn_rows.sort(key=lambda r: (-r["cosine"], r[vec_id_col]))
    rank_kn = {r[vec_id_col]: i + 1 for i, r in enumerate(kn_rows)}

    ids = sorted(set(rank_bm) | set(rank_kn))
    ra = [rank_bm.get(i) for i in ids]
    rb = [rank_kn.get(i) for i in ids]
    rrf = [
        (1.0 / np.float64(c + a) if a is not None else 0.0)
        + (1.0 / np.float64(c + b) if b is not None else 0.0)
        for a, b in zip(ra, rb)
    ]
    order = sorted(
        range(len(ids)), key=lambda i: (-rrf[i], ids[i])
    )[:k]
    return ray.data.from_arrow(
        pa.table(
            {
                id_col: pa.array(
                    [ids[i] for i in order], pa.int64()
                ),
                "rank_bm25": pa.array(
                    [ra[i] for i in order], pa.int64()
                ),
                "rank_knn": pa.array(
                    [rb[i] for i in order], pa.int64()
                ),
                "rrf": pa.array(
                    [rrf[i] for i in order], pa.float64()
                ),
            }
        )
    )


def prf_expansion(
    ds,
    terms: tuple,
    top_r: int = 10,
    top_k: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Pseudo-relevance-feedback query expansion (RM1-lite): score
    the corpus with BM25, take the ``top_r`` documents, and rank the
    expansion vocabulary those documents contribute (occurrence
    count, tie by term) with the original query terms excluded --
    the classic recall-widening step between a first-pass retrieval
    and a re-query.

    Determinism: the top-R cut orders by (score DESC, doc_id) over
    BM25's bit-reproducible float scores; every downstream count is
    an exact integer.  Plan: one :func:`bm25_keyword` pass (zero
    shuffles), a driver-held id list (R rows), then one vectorized
    membership-filtered token-count pass over the corpus whose
    per-block partials are bounded by the R documents' vocabulary.
    """
    scored = bm25_keyword(
        ds, terms, text_col=text_col, id_col=id_col
    )
    top = (
        scored.sort(["score", id_col], descending=[True, False])
        .limit(top_r)
        .take_all()
    )
    ids = pa.array(
        sorted(int(r[id_col]) for r in top), pa.int64()
    )
    term_set = pa.array(list(terms), pa.string())

    def count_part(b: pa.Table) -> pa.Table:
        keep = pc.is_in(b.column(id_col).cast(pa.int64()), value_set=ids)
        t = b.filter(keep)
        if len(t) == 0:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "n_occ": pa.array([], pa.int64()),
                    "n_docs": pa.array([], pa.int64()),
                }
            )
        texts = pc.fill_null(t.column(text_col).combine_chunks(), "")
        lists = pc.split_pattern_regex(texts, pattern=r"\s+")
        flat = lists.flatten()
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        offsets = offsets - offsets[0]
        row_idx = np.repeat(
            np.arange(len(texts), dtype=np.int64), np.diff(offsets)
        )
        docs = pc.take(
            t.column(id_col).cast(pa.int64()).combine_chunks(),
            pa.array(row_idx, pa.int64()),
        )
        pairs = pa.table({"doc": docs, "term": flat}).filter(
            pc.and_(
                pc.not_equal(flat, ""),
                pc.invert(pc.is_in(flat, value_set=term_set)),
            )
        )
        g = pairs.group_by(["doc", "term"]).aggregate(
            [([], "count_all")]
        )
        g2 = g.group_by(["term"]).aggregate(
            [("count_all", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "term": g2.column("term"),
                "n_occ": g2.column("count_all_sum").cast(pa.int64()),
                "n_docs": g2.column("count_all").cast(pa.int64()),
            }
        )

    agg: dict = {}
    for r in ds.map_batches(
        count_part, batch_format="pyarrow"
    ).take_all():
        occ, nd = agg.get(r["term"], (0, 0))
        agg[r["term"]] = (occ + int(r["n_occ"]), nd + int(r["n_docs"]))
    ranked = sorted(
        agg.items(), key=lambda kv: (-kv[1][0], kv[0])
    )[:top_k]
    return pa.table(
        {
            "term": pa.array([t for t, _ in ranked], pa.string()),
            "n_occ": pa.array(
                [v[0] for _, v in ranked], pa.int64()
            ),
            "n_docs": pa.array(
                [v[1] for _, v in ranked], pa.int64()
            ),
        }
    )


def best_snippet(
    ds,
    terms: tuple,
    top_r: int = 3,
    window: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Best-snippet (KWIC) extraction: for the ``top_r`` BM25
    documents, the ``window``-token span with the most query-term
    hits (tie: earliest start) -- the highlighted preview a search
    UI renders under each result.

    All-integer: hit counts per window come from a cumulative-sum
    sliding scan over the token hit mask; ties resolve to the
    smallest 0-based start index, matching the SQL mirror's
    (n_hits DESC, start) row_number rule.  Plan: one BM25 pass for
    the top-R ids, then one membership-filtered vectorized pass that
    scans only those documents' tokens.
    """
    scored = bm25_keyword(
        ds, terms, text_col=text_col, id_col=id_col
    )
    top = (
        scored.sort(["score", id_col], descending=[True, False])
        .limit(top_r)
        .take_all()
    )
    ids = pa.array(
        sorted(int(r[id_col]) for r in top), pa.int64()
    )
    term_set = pa.array(list(terms), pa.string())

    def snip(b: pa.Table) -> pa.Table:
        keep = pc.is_in(b.column(id_col).cast(pa.int64()), value_set=ids)
        t = b.filter(keep)
        out_d, out_s, out_h = [], [], []
        for i in range(len(t)):
            did = int(t.column(id_col)[i].as_py())
            toks = [
                x
                for x in (t.column(text_col)[i].as_py() or "").split()
            ]
            n = len(toks)
            if n == 0:
                continue
            hit = np.isin(
                np.array(toks, object), np.array(list(terms), object)
            ).astype(np.int64)
            cum = np.concatenate([[0], np.cumsum(hit)])
            w = min(window, n)
            counts = cum[w:] - cum[:-w] if n >= w else cum[-1:]
            best = int(np.argmax(counts))  # first max == earliest
            out_d.append(did)
            out_s.append(best)
            out_h.append(int(counts[best]))
        return pa.table(
            {
                id_col: pa.array(out_d, pa.int64()),
                "start_tok": pa.array(out_s, pa.int64()),
                "n_hits": pa.array(out_h, pa.int64()),
            }
        )

    return ds.map_batches(snip, batch_format="pyarrow")


def rbo_rankings(
    list_a,
    list_b,
    p: float = 0.9,
    scale: int = 1_000_000_000_000,
):
    """Rank-biased overlap (Webber et al. 2010) between two
    truncated rankings: ``RBO = (1-p) * sum_d p^(d-1) * X_d / d``
    with ``X_d`` the overlap of the two depth-d prefixes -- the
    top-weighted agreement measure for comparing retrieval systems
    (Kendall over full lists over-weights the tail a user never
    sees).

    Integer-exact accumulation: per-depth weights quantize to
    ``w_d = floor(p^(d-1) / d * scale)`` (identical float tree both
    sides) and the sum ``S = sum X_d * w_d`` is an exact int; the
    single float finish is ``(1-p) * (S / scale)``.  Returns one row
    per depth (d, x_d, term_q) with the total and RBO repeated.
    """
    import math

    depth = min(len(list_a), len(list_b))
    ds_, xs_, terms = [], [], []
    s_q = 0
    sa: set = set()
    sb: set = set()
    for d in range(1, depth + 1):
        sa.add(list_a[d - 1])
        sb.add(list_b[d - 1])
        x_d = len(sa & sb)
        w_d = int(
            math.floor(
                p ** float(d - 1) / float(d) * float(scale)
            )
        )
        t = x_d * w_d
        s_q += t
        ds_.append(d)
        xs_.append(x_d)
        terms.append(t)
    rbo = (1.0 - p) * (float(s_q) / float(scale))
    k = len(ds_)
    return pa.table(
        {
            "d": pa.array(ds_, pa.int64()),
            "x_d": pa.array(xs_, pa.int64()),
            "term_q": pa.array(terms, pa.int64()),
            "s_q": pa.array([s_q] * k, pa.int64()),
            "rbo": pa.array([rbo] * k, pa.float64()),
        }
    )
