"""Round-4 hardening tests: null-safety and exactness fixes from the
round-3 advisory (ADVICE.md) plus the rank-family cardinality guard.

Each test pins the FIXED behavior on the exact failure input the
advisory described, so a regression reintroducing the old code path
fails loudly.
"""

import numpy as np
import pyarrow as pa
import pytest


def _ray_ds(tbl):
    import ray.data

    return ray.data.from_arrow(tbl)


def test_pack_sequences_null_text(ray_session):
    """A null text must count as 0 tokens, not poison the cumsum."""
    from console_log_parser_ray.stages.export import pack_sequences

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["a b c", None, "d e"], pa.string()),
        }
    )
    out = pack_sequences(
        _ray_ds(tbl), budget=4, n_shards=1
    ).to_pandas().sort_values("doc_id")
    assert out["n_tokens"].tolist() == [3, 0, 2]
    # tape offsets 0,3,3 -> packs 0,0,0 under budget 4
    assert out["pack_id"].tolist() == [0, 0, 0]


def test_funnel_two_step_int64_exact_past_2_53(ray_session):
    """Timestamps beyond 2^53 us must stay exact (no float64 roundtrip):
    two conversion candidates 1 us apart must resolve to the earlier
    one bit-for-bit, and the window comparison must run in int64."""
    from console_log_parser_ray.stages.events import funnel_two_step

    base = (1 << 60) + 1  # odd, far past float64's 2^53 integer range
    tbl = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2], pa.int64()),
            "ts": pa.array(
                [base, base + 7, base + 8, base], pa.int64()
            ),
            "event_type": pa.array(
                ["signup", "purchase", "purchase", "signup"], pa.string()
            ),
        }
    )
    out = (
        funnel_two_step(
            _ray_ds(tbl), "signup", "purchase", window_us=7
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert out["first_us"].tolist() == [base, base]
    assert out["second_us"][0] == base + 7  # exact, not rounded to base+8
    assert bool(out["converted"][0]) is True  # 7 <= 7 in int64
    assert out["second_us"].isna()[1]
    assert bool(out["converted"][1]) is False


def test_topk_per_group_keeps_null_group(ray_session):
    """Rows with a null group key survive the block-local partial
    (SQL GROUP BY keeps the null group)."""
    from console_log_parser_ray.stages.events import (
        sample_per_group,
        topk_per_group,
    )

    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(1, 9)), pa.int64()),
            "grp": pa.array(
                ["a", "a", "a", None, None, None, "b", None], pa.string()
            ),
            "score": pa.array([5, 3, 9, 8, 1, 6, 2, 7], pa.int64()),
        }
    )
    out = topk_per_group(
        _ray_ds(tbl), "grp", "score", k=2
    ).to_pandas()
    null_rows = out[out["grp"].isna()]
    assert sorted(null_rows["score"].tolist()) == [7, 8]
    assert sorted(out[out["grp"] == "a"]["score"].tolist()) == [5, 9]

    samp = sample_per_group(_ray_ds(tbl), "grp", k=2).to_pandas()
    assert len(samp[samp["grp"].isna()]) == 2


def test_conversation_texts_null_handling(ray_session):
    """Null turn text joins as '' (COALESCE semantics); null conv_id is
    rejected explicitly instead of crashing in the hash loop."""
    from console_log_parser_ray.stages.dedup import conversation_texts

    tbl = pa.table(
        {
            "conv_id": pa.array(["c1", "c1", "c2"], pa.string()),
            "turn_idx": pa.array([0, 1, 0], pa.int64()),
            "text": pa.array(["hello", None, "solo"], pa.string()),
        }
    )
    out = (
        conversation_texts(_ray_ds(tbl))
        .to_pandas()
        .sort_values("conv_id")
        .reset_index(drop=True)
    )
    assert out["conv_text"].tolist() == ["hello\n", "solo"]
    assert out["n_turns"].tolist() == [2, 1]

    bad = pa.table(
        {
            "conv_id": pa.array(["c1", None], pa.string()),
            "turn_idx": pa.array([0, 1], pa.int64()),
            "text": pa.array(["a", "b"], pa.string()),
        }
    )
    with pytest.raises(Exception, match="null 'conv_id'"):
        conversation_texts(_ray_ds(bad)).to_pandas()


def test_conv_joined_rejects_null_keys():
    """The shared reassembly helper guards null conv keys itself (not
    just via the bucket column): nulls sort last and a null boundary
    comparison would silently merge the null group into its
    neighbor."""
    from console_log_parser_ray.stages.dedup import _conv_joined

    bad = pa.table(
        {
            "conv_id": pa.array(["a", None, "a"], pa.string()),
            "turn_idx": pa.array([0, 0, 1], pa.int64()),
            "text": pa.array(["x", "y", "z"], pa.string()),
        }
    )
    with pytest.raises(ValueError, match="null 'conv_id'"):
        _conv_joined(bad, "conv_id", "turn_idx", "text")


def test_rank_family_cardinality_guard(ray_session):
    """A high-cardinality value column must never pull the histogram
    to the driver, and every operator's above-cap data-plane path must
    return the EXACT answer of the collected path: dense_rank ranks
    its histogram in group-hash buckets, global_row_number builds the
    offset table via two-level range prefix sums, and the threshold
    operators binary-search the materialized histogram."""
    import pandas.testing as pdt
    import ray.data

    from console_log_parser_ray.stages.events import (
        filter_top_quantile,
        mad_outlier_flags,
    )
    from console_log_parser_ray.stages.relational import (
        dense_rank,
        global_row_number,
    )

    n = 500  # every value distinct, like a float score at scale
    rng = np.random.default_rng(11)
    scores = rng.permutation(
        rng.integers(-(1 << 40), 1 << 40, size=4 * n)
    )[:n]
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "grp": pa.array(["g%d" % (i % 3) for i in range(n)]),
            "score": pa.array(scores, pa.int64()),
        }
    )
    # multi-block input so bucket/range boundaries are actually crossed
    def ds():
        return ray.data.from_arrow(tbl).repartition(7)

    def frame(res, sort_cols=("doc_id",)):
        return (
            res.to_pandas()
            .sort_values(list(sort_cols))
            .reset_index(drop=True)
        )

    # full-rank shapes: big-cardinality data-plane path == collected
    for desc in (True, False):
        a = frame(dense_rank(ds(), "grp", "score", descending=desc))
        b = frame(
            dense_rank(
                ds(), "grp", "score", descending=desc, max_distinct=10
            )
        )
        pdt.assert_frame_equal(
            a[sorted(a.columns)], b[sorted(b.columns)]
        )

        for nt in (None, 10):
            a = frame(
                global_row_number(
                    ds(), "score", "doc_id", descending=desc, ntile=nt
                )
            )
            b = frame(
                global_row_number(
                    ds(), "score", "doc_id", descending=desc, ntile=nt,
                    max_distinct=10,
                )
            )
            pdt.assert_frame_equal(a, b)
    # sanity on the exact ranks themselves
    out = frame(
        global_row_number(ds(), "score", "doc_id", max_distinct=10),
        sort_cols=("rank",),
    )
    assert (np.diff(out["score"].to_numpy()) < 0).all()
    assert out["rank"].tolist() == list(range(1, n + 1))

    # threshold shapes: the above-cap binary-search fallback is exact
    for q in (0.5, 0.9):
        a = frame(filter_top_quantile(ds(), "score", q=q))
        b = frame(
            filter_top_quantile(ds(), "score", q=q, max_distinct=10)
        )
        pdt.assert_frame_equal(a, b)
        assert len(a)  # the filter kept something

    a = frame(mad_outlier_flags(ds(), "score", "doc_id"))
    b = frame(mad_outlier_flags(ds(), "score", "doc_id", max_distinct=10))
    pdt.assert_frame_equal(a, b)
    assert a["is_outlier"].nunique() <= 2


def test_histogram_rank_select_exact(ray_session):
    """The distributed binary search equals numpy's percentile-disc on
    a skewed multi-count histogram, including negative values."""
    import ray.data

    from console_log_parser_ray.stages.relational import (
        histogram_rank_select,
    )

    rng = np.random.default_rng(3)
    vals = np.unique(rng.integers(-1000, 1000, size=80))
    counts = rng.integers(1, 50, size=len(vals))
    hist = pa.table(
        {
            "v": pa.array(vals, pa.int64()),
            "n": pa.array(counts, pa.int64()),
        }
    )
    hist_ds = ray.data.from_arrow(hist).materialize()
    expanded = np.repeat(vals, counts)
    expanded.sort()
    total = len(expanded)
    for rank in (1, 2, total // 3, (total + 1) // 2, total - 1, total):
        got = histogram_rank_select(hist_ds, "v", "n", rank)
        assert got == int(expanded[rank - 1]), rank


def test_ngram_tape_matches_scalar_reference():
    """The vectorized batch n-gram explode equals the per-row scalar
    _doc_ngrams on adversarial whitespace shapes."""
    import pyarrow.compute as pc

    from console_log_parser_ray.stages.textan import (
        _doc_ngrams,
        _ngram_tape,
    )

    texts = [
        "a b c d e",
        "",
        "   ",
        "one",
        "x  y\tz\n\nw",  # runs of mixed whitespace
        " lead and trail ",
        "p q",
        "\t\n\f\r ",  # RE2 \s chars only
        "a " * 50,
    ]
    for n in (1, 2, 3, 5):
        doc_idx, grams = _ngram_tape(
            pc.fill_null(pa.array(texts, pa.string()), ""), n
        )
        got = {}
        for i, g in zip(doc_idx.tolist(), grams.to_pylist()):
            got.setdefault(i, []).append(g)
        for i, t in enumerate(texts):
            assert got.get(i, []) == _doc_ngrams(t, n), (i, n)


def test_chunk_documents_vectorized_matches_scalar(ray_session):
    """The binary_join chunk builder equals the old per-row loop."""
    from console_log_parser_ray.stages.textan import (
        ascii_tokens,
        chunk_documents,
    )

    texts = [
        " ".join("tok%d" % j for j in range(n)) for n in (0, 1, 7, 8, 9, 40)
    ] + ["  spaced   out\ttokens\nhere  ", None]
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(len(texts))), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = (
        chunk_documents(_ray_ds(tbl), size=8, overlap=3)
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )
    # scalar reference
    rows = []
    step = 5
    for did, text in enumerate(texts):
        toks = ascii_tokens(text or "")
        i = 0
        while i * step < len(toks):
            w = toks[i * step : i * step + 8]
            rows.append((did, i, len(w), " ".join(w)))
            i += 1
    assert (
        list(
            out[
                ["doc_id", "chunk_idx", "n_chunk_tokens", "chunk_text"]
            ].itertuples(index=False, name=None)
        )
        == rows
    )


def test_as_matrix_zero_copy_paths():
    """as_matrix agrees with the to_pylist roundtrip on every storage
    layout: fixed_size_list, uniform list, large_list, a sliced chunked
    column, and the ragged fallback."""
    from console_log_parser_ray.stages.similarity import as_matrix

    rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.5, -8.0, 9.25]]
    want = np.array(rows, dtype=np.float64)

    fixed = pa.array(rows, pa.list_(pa.float32(), 3))
    assert pa.types.is_fixed_size_list(fixed.type)
    np.testing.assert_array_equal(as_matrix(fixed), want)

    var = pa.array(rows, pa.list_(pa.float64()))
    np.testing.assert_array_equal(as_matrix(var), want)

    large = pa.array(rows, pa.large_list(pa.float64()))
    np.testing.assert_array_equal(as_matrix(large), want)

    # sliced + chunked: offsets do not start at 0
    chunked = pa.chunked_array([var.slice(1, 2), var.slice(0, 1)])
    np.testing.assert_array_equal(
        as_matrix(chunked), want[[1, 2, 0]]
    )

    ragged = pa.array([[1.0], [2.0, 3.0]], pa.list_(pa.float64()))
    with pytest.raises(Exception):
        as_matrix(ragged)


def test_knn_same_result_fixed_size_list(ray_session):
    """knn_bruteforce and embedding_near_dups return identical results
    whether embeddings arrive as list<double> or fixed_size_list."""
    import ray.data

    from console_log_parser_ray.stages.dedup import embedding_near_dups
    from console_log_parser_ray.stages.similarity import knn_bruteforce

    rng = np.random.default_rng(7)
    n, dim = 120, 8
    mat = rng.normal(size=(n, dim))
    mat[10] = mat[3] + 0.001  # planted near-dup
    rows = [list(map(float, r)) for r in mat]
    ids = list(range(n))
    queries = (np.array([0, 1], dtype=np.int64), mat[:2])

    results = {}
    for name, typ in [
        ("var", pa.list_(pa.float64())),
        ("fixed", pa.list_(pa.float64(), dim)),
    ]:
        tbl = pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(rows, typ),
            }
        )
        ds = ray.data.from_arrow(tbl)
        knn = (
            knn_bruteforce(ds, queries, k=5)
            .to_pandas()
            .sort_values(["query_id", "cosine", "vec_id"])
            .reset_index(drop=True)
        )
        dups = (
            embedding_near_dups(ds, threshold=0.95, method="brute")
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        results[name] = (knn, dups)

    import pandas.testing as pdt

    pdt.assert_frame_equal(results["var"][0], results["fixed"][0])
    pdt.assert_frame_equal(results["var"][1], results["fixed"][1])
    assert ((results["var"][1][["doc_a", "doc_b"]].to_numpy() == [3, 10]).all(axis=1)).any()


def test_conv_bucket_col_matches_per_row_crc32(ray_session):
    """The shared dictionary-encoded bucket hash equals the old per-row
    crc32 (same shuffle placement, so resume manifests stay stable), for
    a plain or chunked column and for any string key, not only conv
    ids."""
    import zlib

    from console_log_parser_ray.state.manifests import key_buckets

    convs = ["conv_%d" % (i % 7) for i in range(50)]
    tbl = pa.table({"conv_id": pa.array(convs, pa.string())})
    got = key_buckets(tbl.column("conv_id"), 64).to_pylist()
    want = [zlib.crc32(c.encode()) % 64 for c in convs]
    assert got == want

    chunked = pa.chunked_array([convs[:20], convs[20:]], pa.string())
    assert key_buckets(chunked, 64).to_pylist() == want

    titles = ["git status", "", "make -j4", "git status", "vim a.py"]
    got = key_buckets(pa.array(titles), 7, key="title").to_pylist()
    assert got == [zlib.crc32(t.encode()) % 7 for t in titles]
